// Archive garbage collection: barrier-epoch flattening (DESIGN.md §6).
//
// ArchiveGc owns all reclaimed history of an LRC run: the canonical base
// images holding the words of reclaimed intervals, every node's flattened
// chains, the virgin store shared by the nodes that never faulted on a
// unit (DESIGN.md §8), the per-(node, unit) sharer flags, the recent
// barrier clocks that supply the flatten target, the pass count and the
// recovery checkpoint watermark (DESIGN.md §9).
//
// Who touches what, and when:
//   * A node's own thread, outside the barrier window, reads and clears
//     its own chains and sets its own sharer flags (Adopt, chains,
//     Forget).
//   * Inside the window (between BarrierService::Arrive and Rendezvous)
//     every node collects its own stripe of units (u % num_procs == id):
//     CollectStripe reads and writes only its units' entries, on every
//     node, so the stripes share no mutable object.
//   * The barrier coordinator publishes the checkpoint and counts the
//     pass inside the window, and closes it in EndBarrier after the
//     closing rendezvous, before any node's next Arrive can complete.
// The barrier orders the two sides, so the per-entry state is plain
// bytes and vectors: no atomics.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "core/config.h"
#include "core/vector_clock.h"
#include "core/write_notice.h"
#include "mem/page_table.h"

namespace dsm {

struct SharedState;

// The absorption rule, shared by the fault path's chain building
// (Node::FetchUnits) and the GC's (ArchiveGc::CollectStripe), so a
// flattened chain is exactly the chain the fault path would have built.
// A record of writer w with seq `tail_seq` may join w's chain whose head
// is `first_seq` unless some foreign interval q is ordered after the head
// but not after the candidate tail: every foreign interval must be
// either not-after the head or after the tail, or a reader could observe
// the intermediate version.  For a chain of writer w that test only reads
// q.vc[w], and fails exactly when first_seq <= q.vc[w] < tail_seq.
// `foreign` holds q.vc[w] for every foreign interval of the batch, sorted,
// so each check is one binary search instead of a rescan (lock programs
// hold hundreds of records per unit).
inline bool MayAbsorb(const std::vector<Seq>& foreign, Seq first_seq,
                      Seq tail_seq) {
  const auto it = std::lower_bound(foreign.begin(), foreign.end(), first_seq);
  return it == foreign.end() || *it >= tail_seq;
}

class ArchiveGc {
 public:
  // Collects every config.gc_interval_barriers-th barrier under the LRC
  // backend; the other backends keep no diff archive, so their interval
  // is 0 and no pass ever runs.
  ArchiveGc(const RuntimeConfig& config, std::size_t num_units,
            std::size_t unit_bytes);

  // --- the fault path, on the node's own thread ---------------------------
  // First fault of `node` on `unit`: mark it a sharer and, if it was a
  // virgin until now, copy the unit's virgin history into its own chains.
  // Chain headers are thereby allocated lazily — a node carries them only
  // for units it has faulted on.
  void Adopt(ProcId node, UnitId unit);
  // Does `node` have reclaimed chains pending for `unit`, its own or
  // (while still a virgin) the virgin store's?  The group-prefetch test.
  bool HasChains(ProcId node, UnitId unit) const;
  // The node's reclaimed chains for `unit`, oldest first per writer; the
  // fault that revalidates the unit reads and then clears them.  Their
  // words are served from bases().
  std::vector<FlattenedChain>& chains(ProcId node, UnitId unit) {
    return chains_[Slot(node, unit)];
  }
  const CanonicalStore& bases() const { return bases_; }

  // --- the barrier (Node::Barrier) ----------------------------------------
  // The flatten target of the pass due inside the window of barrier
  // `sync_phase`, or nothing: no pass is due, or nothing is dominated.
  // Every node gets the same answer, from its own phase and the archives,
  // which are frozen inside the window.
  std::optional<VectorClock> PassTarget(std::uint32_t sync_phase,
                                        const SharedState& shared) const;
  // Collect node `id`'s stripe: turn every node's pending notices
  // dominated by `through` into flattened chains, fold the records some
  // node still needed into the canonical bases, and release the bases no
  // chain references any more.  The coordinator also counts the pass and
  // publishes the checkpoint watermark.
  void CollectStripe(SharedState& shared, ProcId id, bool is_coordinator,
                     const VectorClock& through);
  // Coordinator only, after the closing rendezvous: fold the pass's base
  // peak and remember the barrier's global clock for later targets.
  void EndBarrier(const VectorClock& global_vc, bool passed);

  // --- crash recovery (DESIGN.md §9), on the victim's thread --------------
  // Drop the victim's chains and mark it a sharer of every unit: its
  // rebuilt image is newer than the virgin history, which a later
  // first-fault adoption would otherwise replay over it.
  void Forget(ProcId node);
  // Every interval at or below this clock is in the bases.  Maintained
  // only under an armed fault schedule (all-zero otherwise).
  const VectorClock& checkpoint() const { return checkpoint_; }

  std::uint64_t passes() const { return passes_; }

 private:
  std::size_t Slot(ProcId node, UnitId unit) const {
    return unit * static_cast<std::size_t>(nprocs_) +
           static_cast<std::size_t>(node);
  }

  const int nprocs_;
  const std::size_t num_units_;
  const std::uint32_t interval_;
  const std::uint32_t lag_;
  // Armed fault schedule: every dominated record reaches the bases and no
  // base is released, so the bases are complete recovery checkpoints.
  const bool checkpoint_complete_;
  CanonicalStore bases_;
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
  VectorClock checkpoint_;
};

}  // namespace dsm
