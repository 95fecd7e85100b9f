// Intervals, write notices, and the per-node interval archive.
//
// When a processor's interval closes (at a release: lock release or barrier
// arrival), the protocol diffs every twinned unit and archives an
// IntervalRecord: the list of modified units (the *write notices*) plus the
// diffs themselves.  We create diffs eagerly at interval close (TreadMarks
// creates them lazily on first request) — see DESIGN.md §4: archived
// records become immutable, which lets a faulting peer read them under a
// short mutex without coordinating with the owner's thread, mirroring
// TreadMarks' asynchronous request handlers.
//
// Archives do not grow with run length: at barrier epochs the garbage
// collector (DESIGN.md §6) flattens every interval dominated by the
// previous barrier's global vector clock into per-unit canonical base
// images and reclaims the records.  Chains of reclaimed intervals that
// some node still had pending survive as FlattenedChains — payload-free
// run lists whose data is served from the canonical base at fault time.
// A chain holds its own body (run list, tail key, stamps) and no record,
// so pruning a record frees it, diff payloads included.  Nodes that adopt
// the virgin store's chains share its bodies copy-on-write.
#pragma once

#include <atomic>
#include <deque>
#include <memory>
#include <mutex>
#include <new>
#include <span>
#include <vector>

#include "core/vector_clock.h"
#include "mem/diff.h"
#include "mem/types.h"

namespace dsm {

// A closing interval's units, gathered by Diff's run pass so that the
// record's block can be sized exactly before any payload is copied.
// Reused across intervals (its vectors keep their capacity).
struct IntervalDraft {
  std::vector<UnitId> units;
  std::vector<std::uint32_t> run_end;  // per unit: end of its runs in `runs`
  std::vector<DiffRun> runs;
  // Per unit: the image the record copies the runs' words from.  It must
  // hold them unchanged until the record is built.
  std::vector<const std::byte*> images;

  void Clear() {
    units.clear();
    run_end.clear();
    runs.clear();
    images.clear();
  }
  // A unit whose words differ between `twin` and `current` where the run
  // pass finds them; the words are copied from `current` later.
  void AddDiff(UnitId unit, std::span<const std::byte> twin,
               std::span<const std::byte> current) {
    Diff::FindRuns(twin, current, runs);
    Add(unit, current.data());
  }
  // A unit named by the write notice alone (HLRC: the payload went home).
  void AddNotice(UnitId unit) { Add(unit, nullptr); }

 private:
  void Add(UnitId unit, const std::byte* image) {
    units.push_back(unit);
    run_end.push_back(static_cast<std::uint32_t>(runs.size()));
    images.push_back(image);
  }
};

// A closed interval of one processor: seq, the vector clock at close time,
// and the modified units with their diffs, in ONE heap block that the
// archive frees when it prunes the record.  Every field of the block is a
// 32-bit word; per unit i it holds the unit id, the end of its run list
// and of its payload, then the run lists and the payload words, each
// unit's packed run by run:
//
//   vc[nprocs] | units[n] | run_end[n] | word_end[n] | runs[] | payload[]
//
// The lazy-diffing stamps live in a second, shared array (`stamps`),
// because flattened chains keep them after the record is pruned.
class IntervalRecord {
 public:
  // Copies the draft's runs' words out of its images.  `vc` is the clock
  // at close (vc[proc] == seq).
  IntervalRecord(ProcId proc, Seq seq, const VectorClock& vc,
                 const IntervalDraft& draft);

  ProcId proc() const { return proc_; }
  Seq seq() const { return seq_; }
  Seq vc(ProcId p) const { return Clock()[p]; }
  std::uint64_t VcSum() const;

  std::size_t num_units() const { return num_units_; }
  std::span<const UnitId> units() const {
    return {At<UnitId>(UnitsAt()), num_units()};
  }
  // The diff of units()[i]: its canonical runs and their words.
  std::span<const DiffRun> runs(std::size_t i) const {
    const std::uint32_t begin = i == 0 ? 0 : RunEnd()[i - 1];
    return {Runs() + begin, RunEnd()[i] - begin};
  }
  std::size_t payload_words(std::size_t i) const {
    return WordEnd()[i] - (i == 0 ? 0 : WordEnd()[i - 1]);
  }
  // Wire size of that diff (Diff::EncodedBytes).
  std::size_t EncodedBytes(std::size_t i) const {
    return Diff::WireBytes(runs(i).size(), payload_words(i));
  }
  // Scatter that diff's words into `dst` (a unit-sized buffer).
  void Apply(std::size_t i, std::span<std::byte> dst) const {
    Diff::ApplyRuns(runs(i), Payload(i), dst);
  }
  // Payload word `k` of that diff, in run-major order (testing).
  std::uint32_t payload_word(std::size_t i, std::size_t k) const;

  // Lazy-diffing cost model: stamps()[i] holds 1 + the *phase key* under
  // which the diff of units()[i] was first materialized (0 = never).
  // Requesters under a LATER key are served from the writer's diff cache
  // for free; the first requester and any requester racing it under the
  // same key each pay the twin-scan cost (modelled as concurrent scans at
  // the server).  The key combines the barrier phase (upper 32 bits) with
  // a lock-chain sub-phase (lower 32 bits, see LockService::Grant::
  // chain_pos): barrier programs never advance the sub-phase, so their
  // charge stays quantized to barrier phases and replays bit-for-bit;
  // lock-ordered requesters between two barriers advance it along the
  // lock transfer order, so a requester ordered after the materializing
  // acquire is served from cache — sharper for migratory data, and
  // host-order dependent only for lock programs, which cannot replay
  // bit-for-bit anyway.  (The diffs themselves are always materialized
  // eagerly for bookkeeping — archived records must be immutable for
  // lock-free peer reads.)
  //
  // Shared ownership: when the record is reclaimed by archive GC, every
  // FlattenedChain built from it keeps the stamp array alive — one stamp
  // may be pending at several nodes, in chains the GC built for each — so
  // the first-requester-pays decision replays identically whether or not
  // the record was flattened away in the meantime.
  const std::shared_ptr<std::uint64_t[]>& stamps() const { return stamps_; }
  // True iff a requester under phase key `key` pays the scan cost for
  // materializing units()[i]; the first caller stamps the key.
  bool PaysForDiff(std::size_t i, std::uint64_t key) const {
    return PaysForStamp(stamps_[i], key);
  }

  // The stamp protocol, shared with FlattenedChain's retained stamps.
  // Stamps are only ever accessed here, atomically: requesters on every
  // node race on them.
  static bool PaysForStamp(std::uint64_t& stamp, std::uint64_t key) {
    std::uint64_t expected = 0;
    if (std::atomic_ref<std::uint64_t>(stamp).compare_exchange_strong(
            expected, key + 1, std::memory_order_relaxed)) {
      return true;
    }
    return expected == key + 1;
  }

  // Serialized size of this interval's write notices on a sync message
  // (per notice: unit id + interval id; plus a small interval header).
  std::size_t NoticeBytes() const { return 16 + num_units() * 8; }

  // Bytes retained by this record: notice metadata plus the wire size of
  // every diff (runs + payload).  The unit of archive-memory telemetry.
  std::size_t RetainedBytes() const;

 private:
  // Typed views of the block's regions.  The block is a byte array, which
  // implicitly creates the word and run arrays its memcpys fill (C++20
  // [intro.object]); launder reaches them through the byte pointer.
  template <typename T>
  const T* At(std::size_t word) const {
    return std::launder(
        reinterpret_cast<const T*>(block_.get() + word * kWordBytes));
  }
  const Seq* Clock() const { return At<Seq>(0); }
  // Word offsets of the regions after the clock.
  std::size_t UnitsAt() const { return nprocs_; }
  std::size_t RunsAt() const { return UnitsAt() + 3 * num_units(); }
  const std::uint32_t* RunEnd() const {
    return At<std::uint32_t>(UnitsAt() + num_units());
  }
  const std::uint32_t* WordEnd() const {
    return At<std::uint32_t>(UnitsAt() + 2 * num_units());
  }
  const DiffRun* Runs() const { return At<DiffRun>(RunsAt()); }
  const std::byte* Payload(std::size_t i) const {
    const std::size_t num_runs = num_units_ == 0 ? 0 : RunEnd()[num_units_ - 1];
    const std::size_t word =
        RunsAt() + 2 * num_runs + (i == 0 ? 0 : WordEnd()[i - 1]);
    return block_.get() + word * kWordBytes;
  }

  ProcId proc_ = -1;
  Seq seq_ = 0;
  std::uint32_t nprocs_ = 0;
  std::uint32_t num_units_ = 0;
  std::unique_ptr<std::byte[]> block_;
  std::shared_ptr<std::uint64_t[]> stamps_;
};

// Sort key that puts intervals in happens-before order: the fault path's
// chain apply, the GC's canonical-base apply and crash-recovery replay
// all order a unit's diffs by it (DESIGN.md §6).  Built from an
// interval's close-time clock and identity (for a chain: its tail's).
//
// Why sorting by it is a linear extension of happens-before: let r
// happen-before q (q.vc covers (r.proc, r.seq)).  Clocks only grow, and
// q's writer learned of r by merging a clock published at or after r's
// close, so q.vc >= r.vc in every component.  And q.vc[q.proc] == q.seq
// while r.vc[q.proc] < q.seq, since r did not see q.  So the sum of
// q.vc is strictly larger, and r sorts first.  Concurrent intervals
// tie-break by (proc, seq), which is deterministic; race-free programs
// write disjoint words in concurrent intervals, so their relative order
// never shows in memory.
struct HbKey {
  std::uint64_t vc_sum = 0;
  ProcId proc = -1;
  Seq seq = 0;

  HbKey() = default;
  explicit HbKey(const IntervalRecord& rec)
      : vc_sum(rec.VcSum()), proc(rec.proc()), seq(rec.seq()) {}

  friend bool operator<(const HbKey& a, const HbKey& b) {
    if (a.vc_sum != b.vc_sum) return a.vc_sum < b.vc_sum;
    return a.proc != b.proc ? a.proc < b.proc : a.seq < b.seq;
  }
};

// One lazy-diffing stamp retained from a reclaimed record (see
// IntervalRecord::stamps): the shared array plus the unit's index in it.
struct StampRef {
  std::shared_ptr<std::uint64_t[]> stamps;
  std::uint32_t index = 0;
};

// Immutable cons-list of retained stamps, newest-first.  A chain extension
// prepends one node and SHARES the tail with every other copy of the
// body, so repeatedly-extended cold chains stay O(1) per pass — a flat
// vector would be re-copied on every copy-on-write clone, going quadratic
// in pass count (the stamp set only grows).  Order is immaterial: the
// fault path visits every member stamp.
struct StampNode {
  StampRef ref;
  std::shared_ptr<const StampNode> next;
};

// The bulk of a flattened chain: everything the fault path needs to
// replay bit-identical modelled costs without the reclaimed records,
// which the archive frees at prune time:
//
//   * the canonical run list of the chain's merged diff (wire-size and
//     word-delivery accounting; the data itself is copied from the
//     canonical base at apply time),
//   * the tail's happens-before key (apply ordering),
//   * the lazy-diffing stamps of every flattened member (the
//     first-requester-pays-the-scan decision; the atomics themselves live
//     in the reclaimed records' stamp arrays, which the stamps keep alive,
//     and are global across nodes).  The newest is held inline, so a
//     one-member chain allocates only its body and its run list.
//
// Shared (shared_ptr) by every header copied from the virgin store
// (DESIGN.md §6 and §8): the GC builds a never-faulted unit's history
// once there, and each node that later faults on the unit copies the
// cheap per-node headers.
struct ChainBody {
  std::vector<DiffRun> runs;      // merged run list, canonical, payload-free
  std::size_t payload_words = 0;  // == Diff::RunWords(runs), cached
  HbKey tail;                     // tail member's key (apply ordering)
  StampRef newest;                // the tail member's stamp
  // The older members' stamps, newest-first, tail-shared.
  std::shared_ptr<const StampNode> older;
};

// A coalesced chain of reclaimed intervals of ONE writer for ONE unit that
// some node still had pending when the chain was flattened into the
// canonical base image.  A chain of one member is a body of one run list
// and one stamp: the same form, so its wire accounting is that of any
// merged chain.  That case dominates for lock-heavy programs, whose
// per-molecule critical sections produce single-unit records, and for
// false sharing at coarse units, where concurrent writers block every
// chain and each writer-epoch leaves its own.
struct FlattenedChain {
  ProcId writer = -1;
  Seq first_seq = 0;  // chain head, for the absorption safety check
  // A reclaimed foreign interval is ordered after the chain's head: no
  // later interval of `writer` may ever be absorbed into this chain
  // (matches the fault path's per-record safety check, whose reclaimed
  // witnesses are gone).
  bool blocked = false;
  std::shared_ptr<ChainBody> body;

  std::span<const DiffRun> runs() const { return body->runs; }
  std::size_t payload_words() const { return body->payload_words; }

  // Visit every member stamp (the first-requester-pays decision).
  template <typename Fn>
  void ForEachStamp(Fn&& fn) const {
    fn(body->newest.stamps[body->newest.index]);
    for (const StampNode* s = body->older.get(); s != nullptr;
         s = s->next.get()) {
      fn(s->ref.stamps[s->ref.index]);
    }
  }

  // Body for tail extension by the GC: clones a body another header
  // shares (copy-on-write).  Called only inside the GC window
  // (BuildChains), by the stripe that owns the chain's unit.  A body is
  // only ever held by headers of one unit (the virgin store's and the
  // nodes' for that unit), and a unit has a single stripe, so every header
  // copy or drop is either the stripe's own or one a node thread made
  // outside the window, ordered before it by the barrier — so use_count()
  // is exact here (DESIGN.md §10).  The fault path never writes a body.
  ChainBody& MutableBody() {
    if (body.use_count() > 1) body = std::make_shared<ChainBody>(*body);
    return *body;
  }
};

// Footprint counters shared by all archives of a run (updated under each
// archive's own mutex; atomics make the cross-archive sums race-free).
// The chain counters are added once per pass by each node's GC flatten of
// its stripe, inside the idle barrier window; they are sums, so the order
// the stripes finish in does not show.
struct ArchiveTelemetry {
  std::atomic<std::uint64_t> live_intervals{0};
  std::atomic<std::uint64_t> peak_live_intervals{0};
  std::atomic<std::uint64_t> live_bytes{0};
  std::atomic<std::uint64_t> peak_live_bytes{0};
  std::atomic<std::uint64_t> reclaimed_intervals{0};
  // Archive-GC chain economics (DESIGN.md §6): chains actually built, and
  // chains credited to virgin nodes that share one virgin-store build
  // instead of building their own.
  std::atomic<std::uint64_t> chains_built{0};
  std::atomic<std::uint64_t> chains_shared{0};

  void OnAppend(std::uint64_t bytes);
  void OnReclaim(std::uint64_t records, std::uint64_t bytes);
};

// Archive of one node's closed intervals, held by value.  The owner
// appends at interval close; peers collect records at acquires and
// barriers, and under LRC keep pointers to them in their pending notices
// (core/lrc.h); the barrier-epoch garbage collector reclaims the
// dominated prefix.  std::deque keeps references to surviving records
// stable across both appends and front-pruning, but all access still
// takes the mutex (deque bookkeeping itself is not thread-safe); the
// pointers Append and Range return remain valid after the mutex is
// released — until the record's seq is pruned.  Nothing prunes a record
// some node still has pending: the GC flattens every pending notice of a
// dominated record before the owner prunes it, and HLRC keeps no pending
// notice.
class IntervalArchive {
 public:
  // Appends a record (records must arrive in increasing seq order).
  // Returns a stable pointer to the stored record.
  const IntervalRecord* Append(IntervalRecord record);

  // Appends every record with from < seq <= to to `out`, in increasing seq
  // order (seqs may have gaps: empty intervals are never archived).
  void Range(Seq from, Seq to, std::vector<const IntervalRecord*>& out) const;

  // Reclaim and free every record with seq <= through (always a prefix:
  // seqs are appended in increasing order).  Callers prune only a prefix
  // that nothing references any more: under LRC its words are in the
  // canonical base by then, and every chain built from it holds copies of
  // what it reads.  Only a record's stamp array outlives it, held by those
  // chains.  Returns the number of records reclaimed.
  std::size_t PruneThrough(Seq through);

  // Number of archived records with seq <= through (O(log n)).  The GC
  // skips a pass that would reclaim nothing.
  std::size_t CountThrough(Seq through) const;

  void set_telemetry(ArchiveTelemetry* t) { telemetry_ = t; }

  std::size_t size() const;

 private:
  mutable std::mutex mutex_;
  std::deque<IntervalRecord> records_;
  ArchiveTelemetry* telemetry_ = nullptr;
};

}  // namespace dsm
