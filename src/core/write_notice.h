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
// run lists whose data is served from the canonical base at fault time,
// in both chain forms: pruning a record releases its diff payloads.
// Identical chains pending at several nodes share one immutable ChainBody.
#pragma once

#include <atomic>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "core/vector_clock.h"
#include "mem/diff.h"
#include "mem/types.h"

namespace dsm {

// A closed interval of one processor: seq, the vector clock at close time,
// and the modified units with their diffs.
struct IntervalRecord {
  ProcId proc = -1;
  Seq seq = 0;
  VectorClock vc;  // clock at close; vc[proc] == seq
  std::vector<UnitId> units;
  // Parallel to `units`.  Archive GC releases the payloads when it prunes
  // the record (IntervalArchive::PruneThrough); runs and sizes survive.
  std::vector<Diff> diffs;
  // Lazy-diffing cost model: diffed[i] holds 1 + the *phase key* under
  // which the diff of units[i] was first materialized (0 = never).
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
  // bit-for-bit anyway.  (The Diff objects themselves are always
  // materialized eagerly for bookkeeping — archived records must be
  // immutable for lock-free peer reads.)
  //
  // Shared ownership: when the record is reclaimed by archive GC, any
  // FlattenedChain built from it keeps the stamp array alive, so the
  // first-requester-pays decision replays identically whether or not the
  // record's payload was flattened away in the meantime.
  std::shared_ptr<std::atomic<std::uint64_t>[]> diffed;

  // Index of `unit` within units/diffs, or -1.
  int IndexOf(UnitId unit) const;
  // True iff a requester under phase key `key` pays the scan cost for
  // materializing units[i]; the first caller stamps the key.
  bool PaysForDiff(int i, std::uint64_t key) const {
    return PaysForStamp(diffed[i], key);
  }

  // The stamp protocol, shared with FlattenedChain's retained stamps.
  static bool PaysForStamp(std::atomic<std::uint64_t>& stamp,
                           std::uint64_t key) {
    std::uint64_t expected = 0;
    if (stamp.compare_exchange_strong(expected, key + 1,
                                      std::memory_order_relaxed)) {
      return true;
    }
    return expected == key + 1;
  }

  // Serialized size of this interval's write notices on a sync message
  // (per notice: unit id + interval id; plus a small interval header).
  std::size_t NoticeBytes() const { return 16 + units.size() * 8; }

  // Bytes retained by this record: notice metadata plus the wire size of
  // every diff (runs + payload).  The unit of archive-memory telemetry.
  std::size_t RetainedBytes() const;
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
  HbKey(const VectorClock& vc, ProcId p, Seq s)
      : vc_sum(vc.Sum()), proc(p), seq(s) {}
  explicit HbKey(const IntervalRecord& rec)
      : HbKey(rec.vc, rec.proc, rec.seq) {}

  friend bool operator<(const HbKey& a, const HbKey& b) {
    if (a.vc_sum != b.vc_sum) return a.vc_sum < b.vc_sum;
    return a.proc != b.proc ? a.proc < b.proc : a.seq < b.seq;
  }
};

// One lazy-diffing stamp retained from a reclaimed record (see
// IntervalRecord::diffed): the shared array plus the unit's index in it.
struct StampRef {
  std::shared_ptr<std::atomic<std::uint64_t>[]> stamps;
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

// The immutable bulk of a flattened chain, shared (shared_ptr) by every
// header copied from the virgin store (DESIGN.md §6 and §8): the GC
// builds a never-faulted unit's history once there, and each node that
// later faults on the unit copies the cheap per-node headers.  Holds
// everything the fault path needs to replay bit-identical modelled costs
// without the reclaimed records' payload:
//
//   * the canonical run list of the chain's merged diff (wire-size and
//     word-delivery accounting; the data itself is copied from the
//     canonical base at apply time),
//   * the tail's close-time clock (happens-before apply ordering),
//   * the lazy-diffing stamps of every flattened member (the
//     first-requester-pays-the-scan decision; the atomics themselves live
//     in the reclaimed records' arrays and are global across nodes).
struct ChainBody {
  std::vector<DiffRun> runs;      // merged run list, canonical, payload-free
  std::size_t payload_words = 0;  // == Diff::RunWords(runs), cached
  VectorClock last_vc;            // tail close-time clock (apply ordering)
  // One per flattened member interval, newest-first, tail-shared.
  std::shared_ptr<const StampNode> stamps;
};

// A coalesced chain of reclaimed intervals of ONE writer for ONE unit that
// some node still had pending when the chain was flattened into the
// canonical base image.  Two representations behind one header:
//
//   * single-record chain (`rec` set): the chain IS one reclaimed
//     interval — it retains the record itself (shared with the archive's
//     other referents), and every accessor reads straight through it.
//     Building one costs a shared_ptr copy, nothing more; the wire
//     accounting is definitionally identical to a merged chain of one
//     member.  The record's diff payloads were released when the archive
//     pruned it, so it pins only runs, clock, stamps and word counts.
//     The overwhelmingly common case for lock-heavy programs, whose
//     per-molecule critical sections produce single-unit records, and
//     for false sharing at coarse units, where concurrent writers block
//     every chain and each writer-epoch leaves its own.
//   * merged chain (`body` set): two or more members coalesced into a
//     shared ChainBody (runs merged payload-free, stamps cons-listed).
struct FlattenedChain {
  ProcId writer = -1;
  Seq first_seq = 0;  // chain head, for the absorption safety check
  Seq last_seq = 0;   // chain tail
  // A reclaimed foreign interval is ordered after the chain's head: no
  // later interval of `writer` may ever be absorbed into this chain
  // (matches the fault path's per-record safety check, whose reclaimed
  // witnesses are gone).
  bool blocked = false;
  std::shared_ptr<const IntervalRecord> rec;  // single-record form
  int di = -1;                                // unit's index within *rec
  std::shared_ptr<ChainBody> body;            // merged form (rec == null)

  const Diff& rec_diff() const {
    return rec->diffs[static_cast<std::size_t>(di)];
  }
  const std::vector<DiffRun>& runs() const {
    return rec != nullptr ? rec_diff().runs() : body->runs;
  }
  std::size_t payload_words() const {
    return rec != nullptr ? rec_diff().payload_words()
                          : body->payload_words;
  }
  const VectorClock& last_vc() const {
    return rec != nullptr ? rec->vc : body->last_vc;
  }

  // Visit every member stamp (the first-requester-pays decision).
  template <typename Fn>
  void ForEachStamp(Fn&& fn) const {
    if (rec != nullptr) {
      fn(rec->diffed[static_cast<std::size_t>(di)]);
      return;
    }
    for (const StampNode* s = body->stamps.get(); s != nullptr;
         s = s->next.get()) {
      fn(s->ref.stamps[s->ref.index]);
    }
  }

  // Mutable merged body for tail extension by the GC: converts a
  // single-record chain to a merged body, and clones a body another
  // header shares (copy-on-write).  Called only inside the GC window
  // (BuildChains), by the stripe that owns the chain's unit.  A body is
  // only ever held by headers of one unit (the virgin store's and the
  // nodes' for that unit), and a unit has a single stripe, so every header
  // copy or drop is either the stripe's own or one a node thread made
  // outside the window, ordered before it by the barrier — so use_count()
  // is exact here (DESIGN.md §10).  The fault path never writes a body.
  ChainBody& MutableBody() {
    if (rec != nullptr) {
      auto b = std::make_shared<ChainBody>();
      b->runs = rec_diff().runs();
      b->payload_words = rec_diff().payload_words();
      b->last_vc = rec->vc;
      b->stamps = std::make_shared<const StampNode>(StampNode{
          StampRef{rec->diffed, static_cast<std::uint32_t>(di)}, nullptr});
      body = std::move(b);
      rec = nullptr;
      di = -1;
    } else if (body.use_count() > 1) {
      body = std::make_shared<ChainBody>(*body);
    }
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

// Archive of one node's closed intervals.  The owner appends at interval
// close; peers look up records while handling faults or merging barrier
// notices; the barrier-epoch garbage collector reclaims the dominated
// prefix.  std::deque keeps references to surviving records stable across
// both appends and front-pruning, but all access still takes the mutex
// (deque bookkeeping itself is not thread-safe); lookups return stable
// pointers that remain valid after the mutex is released — until the
// record's seq is pruned.
class IntervalArchive {
 public:
  // Appends a record (records must arrive in increasing seq order).
  // Returns a stable pointer to the stored record.
  const IntervalRecord* Append(IntervalRecord record);

  // Record with exact seq, or nullptr (seqs may have gaps: empty intervals
  // are never archived).
  const IntervalRecord* Find(Seq seq) const;

  // All records with from < seq <= to, in increasing seq order.
  std::vector<const IntervalRecord*> Range(Seq from, Seq to) const;

  // Shared-ownership variant of Range (archive GC: single-record chains
  // retain the reclaimed record itself).
  std::vector<std::shared_ptr<const IntervalRecord>> RangeShared(
      Seq from, Seq to) const;

  // Reclaim every record with seq <= through (always a prefix: seqs are
  // appended in increasing order).  Records survive reclamation exactly
  // as long as some FlattenedChain retains them (shared ownership); the
  // GC converts every other reference first.  Each reclaimed record's
  // diff payloads are released here: their words are already in the
  // canonical base, and a chain reads only runs and sizes.  Returns the
  // number of records reclaimed.
  std::size_t PruneThrough(Seq through);

  // Smallest seq still archived (0 when empty) — pruned seqs can never be
  // Find()/Range()d again.
  Seq min_retained_seq() const;

  // Number of archived records with seq <= through (O(log n)).  The GC
  // skips a pass that would reclaim nothing.
  std::size_t CountThrough(Seq through) const;

  void set_telemetry(ArchiveTelemetry* t) { telemetry_ = t; }

  std::size_t size() const;

 private:
  mutable std::mutex mutex_;
  std::deque<std::shared_ptr<IntervalRecord>> records_;
  ArchiveTelemetry* telemetry_ = nullptr;
};

}  // namespace dsm
