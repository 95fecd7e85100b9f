// Per-unit sharer directory (DESIGN.md §8).
//
// One bit per (consistency unit, processor): set the first time the
// processor faults on the unit — i.e. the first time it materializes any
// per-unit protocol state beyond the write notices every node queues.
// The protocol consults it to keep per-node metadata proportional to the
// nodes that actually touch a unit instead of the cluster size: the
// archive GC builds one shared flattened-chain image for all never-
// faulting ("virgin") nodes of a unit and allocates per-node chain
// headers lazily at the first fault, the directory-backed invariant
// being that a node holds chain headers for a unit only if its bit is
// set.  Classic directory-based DSM keeps the same structure for
// coherence; here coherence is clock-driven and the directory is purely
// a metadata-scaling device, so a bit is monotone (never cleared — a
// node that faulted once owns its divergent per-unit state forever).
//
// Threading: outside the barrier window a processor sets only its own
// bit, from its own thread (fetch_or; concurrent with other processors'
// faults on the same unit).  Inside the window each node's GC stripe
// reads, and sets writer bits of, only its own units.  Readers are either
// the owning thread (fault path) or the stripe that owns the unit, which
// every registration outside the window happens-before via the barrier
// arrival — relaxed ordering suffices.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "mem/types.h"

namespace dsm {

class SharerDirectory {
 public:
  SharerDirectory(std::size_t num_units, int num_procs);

  // Set the proc's bit; returns true iff it was already set.
  bool Register(UnitId unit, ProcId proc) {
    const std::uint64_t bit = std::uint64_t{1} << (proc & 63);
    return (WordFor(unit, proc).fetch_or(bit, std::memory_order_relaxed) &
            bit) != 0;
  }

  bool IsSharer(UnitId unit, ProcId proc) const {
    const std::uint64_t bit = std::uint64_t{1} << (proc & 63);
    return (WordFor(unit, proc).load(std::memory_order_relaxed) & bit) != 0;
  }

  // Registered procs for `unit` (popcount over the unit's mask words).
  int SharerCount(UnitId unit) const;

  // NOTE for crash recovery (DESIGN.md §9): a recovering HLRC home must
  // NOT consult this directory to pick reconstruction sources — running
  // peers append bits concurrently, so any read here makes recovery cost
  // depend on host timing.  Recovery probes every survivor instead.

  int num_procs() const { return num_procs_; }

 private:
  std::atomic<std::uint64_t>& WordFor(UnitId unit, ProcId proc) {
    return bits_[unit * words_per_unit_ +
                 static_cast<std::size_t>(proc >> 6)];
  }
  const std::atomic<std::uint64_t>& WordFor(UnitId unit, ProcId proc) const {
    return bits_[unit * words_per_unit_ +
                 static_cast<std::size_t>(proc >> 6)];
  }

  int num_procs_;
  std::size_t words_per_unit_;
  std::vector<std::atomic<std::uint64_t>> bits_;
};

}  // namespace dsm
