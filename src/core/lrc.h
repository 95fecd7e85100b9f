// Lazy release consistency with multiple writers: the paper's protocol
// (DESIGN.md §4 and §6).
//
// Lrc owns all LRC state of a run beyond each node's page table, word
// tracker and clocks: every (node, unit)'s pending write notices, each
// node's lazy-diffing flags and fault scratch, and all reclaimed history —
// the canonical base image holding the words of reclaimed intervals,
// every node's flattened chains, the virgin store shared by the nodes that
// never faulted on a unit (DESIGN.md §8), the per-(node, unit) sharer
// flags, the recent barrier clocks that supply the flatten target, the
// pass count and the recovery checkpoint watermark (DESIGN.md §9) — and
// the footprint counters of all of it.  It runs the backend's four paths:
//
//   release   Close         archive the dirty units' diffs, cost deferred
//   fault     Fetch         diffs from every concurrent writer, in parallel
//   barrier   OnBarrier     drain the diff requests, collect the GC stripe
//             AfterBarrier  close the GC pass, prune the node's own archive
//   crash     Rebuild       the victim's image from the bases and archives
//
// The GC pass itself (PassTarget, CollectStripe, EndBarrier) is in
// core/gc.cc.
//
// Who touches what, and when:
//   * A node's own thread, outside the barrier window, reads and writes
//     its own notices, chains, sharer flags, re-twin flags and scratch,
//     and reads the bases.
//   * Any peer's fault sets a node's diff-request flags (relaxed atomics);
//     the node drains them inside the window.
//   * Inside the window (between BarrierService::Arrive and Rendezvous)
//     every node collects its own stripe of units (u % num_procs == id):
//     CollectStripe reads and writes only its units' entries and bases,
//     on every node, and its own node's counters, so the stripes share no
//     mutable object.
//   * The barrier coordinator samples the archives, publishes the
//     checkpoint and counts the pass inside the window, and remembers the
//     barrier's clock in EndBarrier after the closing rendezvous, before
//     any node's next Arrive can complete.
// The barrier orders the two sides, so the per-entry state is plain
// bytes and vectors: no atomics but the request flags.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <vector>

#include "core/config.h"
#include "core/vector_clock.h"
#include "core/write_notice.h"
#include "mem/global_heap.h"
#include "sim/virtual_clock.h"

namespace dsm {

class Node;
struct SharedState;

// Host-side memory footprint of one Run (archive GC telemetry).  NOT part
// of the modelled state: these numbers change with
// RuntimeConfig::gc_interval_barriers while every modelled quantity stays
// bit-identical, so fingerprints and equivalence checks must exclude them.
// All zero unless the backend is LRC.
struct MemoryFootprint {
  // Across all archives, sampled inside every barrier window and once
  // after the run.
  std::uint64_t peak_live_intervals = 0;
  std::uint64_t peak_archive_bytes = 0;  // notice metadata + diff wire size
  std::uint64_t reclaimed_intervals = 0;
  // Units with a canonical base × unit bytes; bases are never released.
  std::uint64_t canonical_base_peak_bytes = 0;
  std::uint64_t gc_passes = 0;
  // Archive-GC chain economics (DESIGN.md §6): chains built, and chains
  // credited to virgin nodes sharing one virgin-store build.
  std::uint64_t chains_built = 0;
  std::uint64_t chains_shared = 0;
  // Always 0 (the GC elides nothing); the benchmark still reports it.
  std::uint64_t records_elided = 0;

  friend bool operator==(const MemoryFootprint&,
                         const MemoryFootprint&) = default;
};

// The absorption rule, shared by the fault path's chain building
// (Lrc::Fetch) and the GC's (Lrc::CollectStripe), so a flattened chain is
// exactly the chain the fault path would have built.  A record of writer
// w with seq `tail_seq` may join w's chain whose head is `first_seq`
// unless some foreign interval q is ordered after the head but not after
// the candidate tail: every foreign interval must be either not-after the
// head or after the tail, or a reader could observe the intermediate
// version.  For a chain of writer w that test only reads q.vc[w], and
// fails exactly when first_seq <= q.vc[w] < tail_seq.  `foreign` holds
// q.vc[w] for every foreign interval of the batch, sorted, so each check
// is one binary search instead of a rescan (lock programs hold hundreds of
// records per unit).
inline bool MayAbsorb(const std::vector<Seq>& foreign, Seq first_seq,
                      Seq tail_seq) {
  const auto it = std::lower_bound(foreign.begin(), foreign.end(), first_seq);
  return it == foreign.end() || *it >= tail_seq;
}

class Lrc {
 public:
  // Allocates the per-node state and the reclaimed-history tables only
  // under the LRC backend; collects every config.gc_interval_barriers-th
  // barrier.
  Lrc(const RuntimeConfig& config, std::size_t num_units,
      std::size_t unit_bytes);

  // Close `node`'s interval: add every dirty unit's diff to `draft` and
  // drop its twin.  No cost is charged: the first peer to request a diff
  // pays its twin scan (Fetch), and a unit re-dirtied before any request
  // re-twins for free (Twin).
  void Close(Node& node, IntervalDraft& draft);
  // `node` learned of `rec`: queue a pending notice per unit it names.
  void Queue(ProcId node, const IntervalRecord* rec);
  // `node` twins `unit`.  Returns whether the twin is free: the unit was
  // read-valid at the fault (`was_valid`), has been diffed at a release
  // since its last validation, and no peer requested its diff in an
  // earlier barrier phase.  A fresh twin settles the drained requests.
  bool Twin(ProcId node, UnitId unit, bool was_valid);

  // Make `node`'s invalid `units` current (the faulting unit first, then
  // its prefetched group members), combining requests per writer.  Each
  // writer's consecutive intervals reach the reader as chains of one
  // form: an optional reclaimed head whose words are copied from the
  // canonical base, then the live diffs absorbed into it, applied oldest
  // first.  A chain's wire size, delivered words and apply cost are those
  // of one combined diff over the union of its members' runs
  // (Diff::MergeRuns).  Records exchanges, the fault record, and all
  // modelled costs.
  void Fetch(Node& node, const std::vector<UnitId>& units);

  // Inside the barrier window: drain the diff requests peers made of
  // `node` into the view Twin reads, and collect `node`'s GC stripe if a
  // pass is due.  The coordinator also samples the archives' footprint.
  void OnBarrier(Node& node, bool is_coordinator);
  // After the closing rendezvous: the coordinator remembers the barrier's
  // global clock, and `node` prunes the prefix of its own archive the
  // pass reclaimed.
  void AfterBarrier(Node& node, bool is_coordinator,
                    const VectorClock& global_vc);

  // Crash recovery (DESIGN.md §9), on the victim's thread: drop the
  // victim's notices, flags and chains, then copy in every canonical base
  // and replay the archived records above the checkpoint up to `cut`.
  // A unit with no base is zero in the checkpoint and costs nothing.
  // Raises `slowest` to the slowest parallel exchange and adds the local
  // install work to `install`.
  void Rebuild(Node& victim, const VectorClock& cut, VirtualNanos& slowest,
               VirtualNanos& install);

  // The run's footprint, after it ended: every node's tallies, the
  // window samples' peaks and one more sample of the archives.
  MemoryFootprint Footprint(const SharedState& shared) const;
  // The node's reclaimed chains for `unit`, oldest first per writer
  // (testing).
  const std::vector<FlattenedChain>& chains(ProcId node, UnitId unit) const {
    return chains_[Slot(node, unit)];
  }

 private:
  // A write notice: the record and the index of the unit's diff in it, so
  // the fault path and the GC read the diff without searching the
  // archive.  The record outlives a pending notice: the GC flattens every
  // pending notice of a dominated record before its owner prunes it.
  struct Notice {
    const IntervalRecord* rec;
    std::uint32_t index;
  };
  // One per-writer coalesced chain a fault must fetch: an optional
  // reclaimed head (its words live in the canonical base), then the live
  // diffs absorbed into it, oldest first.
  struct NeedEntry {
    UnitId unit;
    HbKey key;                    // chain tail's happens-before sort key
    const FlattenedChain* head;   // reclaimed head, or null
    // Union of every member's runs: the head's or the only record's own
    // list, or a merged list in NodeState::merged_runs.
    std::span<const DiffRun> runs;
    std::size_t payload_words;    // == Diff::RunWords(runs)
    // Live diffs, oldest first: indices into NodeState::live_diffs.
    std::uint32_t live_begin;
    std::uint32_t live_count;
    std::uint32_t exchange_id;
    bool needs_scan;  // server must materialize (this requester pays)
  };
  // One node's state; aligned so that nodes never share a cache line.
  struct alignas(64) NodeState {
    // Per unit: the notices not yet applied, in acquire order.
    std::vector<std::vector<Notice>> pending;
    // Lazy-diffing cost model (DESIGN.md §4), per unit: a unit whose
    // twin was just diffed at a release can be re-dirtied for free — in
    // TreadMarks the twin simply persists across the release — unless a
    // peer has requested a diff of the unit in an earlier barrier phase
    // (which in the lazy regime forces diff creation, twin discard, and
    // re-protection at the writer).  Peers set `requested` at any time;
    // OnBarrier drains it into `request_seen` (the only flag Twin reads)
    // inside the window, so the decision is quantized to phases and
    // replays deterministically.
    std::vector<std::uint8_t> retwin_free;
    std::vector<std::atomic<std::uint8_t>> requested;
    std::vector<std::uint8_t> request_seen;
    // Through which seq this barrier's GC pass lets the node prune its
    // own archive after the window; none when no pass ran.
    std::optional<Seq> prune_through;
    // Footprint tallies: chains the node's stripe built and shared, and
    // records the node pruned from its own archive.
    std::uint64_t chains_built = 0;
    std::uint64_t chains_shared = 0;
    std::uint64_t reclaimed = 0;
    // Fault scratch, reused so the steady-state fault path performs few
    // allocations (vector capacity persists between calls).
    std::vector<std::vector<NeedEntry>> needs_by_writer;  // indexed by proc
    std::vector<const Notice*> chain;
    std::vector<Seq> foreign_vcw;
    // Merged run lists of multi-member chains; a deque keeps
    // NeedEntry::runs views stable as it grows.
    std::deque<std::vector<DiffRun>> merged_runs;
    std::vector<NeedEntry> apply;
    std::vector<Notice> live_diffs;
  };

  std::size_t Slot(ProcId node, UnitId unit) const {
    return unit * static_cast<std::size_t>(nprocs_) +
           static_cast<std::size_t>(node);
  }
  // First fault of `node` on `unit`: mark it a sharer and, if it was a
  // virgin until now, copy the unit's virgin history into its own chains.
  // Chain headers are thereby allocated lazily — a node carries them only
  // for units it has faulted on.
  void Adopt(ProcId node, UnitId unit);
  // The unit's canonical base, a unit of the base image.
  std::span<std::byte> Base(UnitId unit) {
    return {bases_.get() + unit * unit_bytes_, unit_bytes_};
  }

  // --- the GC pass (core/gc.cc), run by the barrier hooks -----------------
  // The flatten target of the pass due inside the window of barrier
  // `sync_phase`, or null: no pass is due, or nothing is dominated.  Every
  // node gets the same answer, from its own phase and the archives, which
  // are frozen inside the window, as is the target until EndBarrier.
  const VectorClock* PassTarget(std::uint32_t sync_phase,
                                const SharedState& shared) const;
  // Collect node `id`'s stripe: turn every node's pending notices
  // dominated by `through` into flattened chains, and apply every
  // dominated record to the canonical bases.  The coordinator also counts
  // the pass and publishes the checkpoint watermark.
  void CollectStripe(SharedState& shared, ProcId id, bool is_coordinator,
                     const VectorClock& through);
  // Coordinator only, after the closing rendezvous: remember the
  // barrier's global clock for later targets.
  void EndBarrier(const VectorClock& global_vc);

  const int nprocs_;
  const std::size_t num_units_;
  const std::size_t unit_bytes_;
  const std::uint32_t interval_;
  const std::uint32_t lag_;
  std::vector<NodeState> nodes_;
  // The canonical bases (DESIGN.md §6): one zeroed heap-sized image whose
  // unit u holds every reclaimed interval naming u, applied in
  // happens-before order, and per unit whether any has been applied.
  // Only u's stripe writes them, inside the window; the fault path and
  // recovery read them outside it.  Pages no base touches stay
  // unallocated.
  HeapImage bases_;
  std::vector<std::uint8_t> has_base_;
  // Per (unit, node), unit-major: the node's flattened chains, and
  // whether it has ever faulted on the unit (monotone).  Crash recovery
  // must not read other nodes' flags to pick reconstruction sources:
  // running peers set them concurrently, so the recovery bill would
  // depend on host timing.
  std::vector<std::vector<FlattenedChain>> chains_;
  std::vector<std::uint8_t> sharer_;
  // Per unit: the chains every still-virgin node of the unit would hold.
  // All virgins hold identical dominated pending sets (they pass every
  // barrier and never consume notices), so one build serves them all.
  std::vector<std::vector<FlattenedChain>> virgin_;
  // Global clocks of the last `lag_` barriers, oldest first; the front is
  // the flatten target once full.
  std::deque<VectorClock> history_;
  std::uint64_t passes_ = 0;
  // Every interval at or below this clock is in the bases.
  VectorClock checkpoint_;
  // The largest sum of the archives' live records and retained bytes
  // over the barrier windows so far, sampled by the coordinator.
  std::uint64_t peak_live_intervals_ = 0;
  std::uint64_t peak_archive_bytes_ = 0;
};

}  // namespace dsm
