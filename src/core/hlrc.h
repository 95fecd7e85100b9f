// Home-based LRC (DESIGN.md §7).
//
// Homes owns all home-based LRC state of a run: the home image, one
// heap-sized image holding every unit's master copy; the per-unit mutexes
// that serialize a flush against a concurrent whole-unit copy (race-free
// programs never conflict on the words involved, but the host-level
// copies overlap); the crash re-home table with its pending batch and
// epoch (DESIGN.md §9); and each node's scratch.  It runs the backend's
// four paths:
//
//   release   Flush      eager diffs of the dirty units, applied at the homes
//   fault     Fetch      whole-unit copies from the homes
//   barrier   OnBarrier  re-home batch apply and notice-log prune
//   crash     Rebuild    the victim's image from the homes
//
// Who touches what, and when:
//   * A node's scratch, on that node's thread only.
//   * The home image, by every node's flushes, fetches and rebuilds, each
//     unit under its mutex.
//   * The re-home table and epoch: written by the barrier coordinator
//     inside the window (between BarrierService::Arrive and Rendezvous),
//     read outside it, so the barrier orders the two sides.  A victim
//     registers its batch under the batch mutex.
//   * Each node's notice log: pruned by its owner inside the window, where
//     every peer's consumed-notice clock is frozen.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "core/config.h"
#include "core/write_notice.h"
#include "mem/global_heap.h"
#include "sim/virtual_clock.h"

namespace dsm {

class Node;

class Homes {
 public:
  // Allocates the home image, mutexes and scratch only under the HLRC
  // backend, and the re-home table only when a schedule is armed too.
  Homes(const RuntimeConfig& config, const GlobalHeap& heap);

  // Close `node`'s interval: diff every dirty unit eagerly and apply the
  // diff at the unit's home (one combined message per remote home, homes
  // answering in parallel).  Adds each unit's write notice to `draft` with
  // no diff: the payload lives at the homes now.
  void Flush(Node& node, IntervalDraft& draft);

  // Make `node`'s invalid `units` current with whole-unit copies from
  // their homes (one combined exchange per remote home; a self-homed unit
  // is a local copy).  Local uncommitted words (a live twin) stay on top.
  void Fetch(Node& node, const std::vector<UnitId>& units);

  // Inside the barrier window: the coordinator applies the pending
  // re-home batch, and `node` prunes every record of its own notice log
  // that all its peers have consumed.
  void OnBarrier(Node& node, bool is_coordinator);

  // Crash recovery (DESIGN.md §9), on the victim's thread: copy every unit
  // from its home into `victim`'s image, reconstruct the units the victim
  // itself homed from the survivors, and register their re-home batch.
  // Raises `slowest` to the slowest parallel exchange and adds the local
  // install work to `install`.
  void Rebuild(Node& victim, VirtualNanos& slowest, VirtualNanos& install);

 private:
  // One node's scratch; aligned so that nodes never share a cache line.
  struct alignas(64) Scratch {
    std::vector<DiffRun> runs;                 // one unit's diff
    std::vector<std::vector<UnitId>> by_home;  // Fetch: units per home
    std::vector<std::size_t> flush_bytes;      // Flush: message per home
    std::vector<VirtualNanos> flush_server;    // Flush: apply cost per home
    // Re-home batches this node has learned of (see epoch_).
    std::uint64_t epoch_seen = 0;
  };

  // Home of `unit`: round-robin over the processors, unless a crash
  // re-homed it.
  ProcId Home(UnitId unit) const {
    if (!rehomed_.empty() && rehomed_[unit] >= 0) return rehomed_[unit];
    return static_cast<ProcId>(unit % static_cast<UnitId>(nprocs_));
  }
  // New home of `unit` after home `dead` crashed: the round-robin re-run
  // over the surviving ranks (the dead rank excised, ranks above shifted
  // down), so it is deterministic, needs no communication, and is as
  // balanced as the primary map.
  ProcId NewHome(UnitId unit, ProcId dead) const {
    const auto h =
        static_cast<ProcId>(unit % static_cast<UnitId>(nprocs_ - 1));
    return h >= dead ? h + 1 : h;
  }
  std::span<std::byte> HomeCopy(UnitId unit) {
    return {image_.get() + std::size_t{unit} * unit_bytes_, unit_bytes_};
  }
  // If re-home batches were applied since `node`'s last home contact, its
  // next exchange is addressed from the stale map, times out against the
  // dead home and is re-sent: returns the modelled timeout + retransmit
  // latency, one per missed batch, for a request of `request_bytes`, and
  // counts them (CommBreakdown::recovery_retransmits).
  VirtualNanos ChargeLearning(Node& node, std::size_t request_bytes);

  const int nprocs_;
  const std::size_t num_units_;
  const std::size_t unit_bytes_;
  HeapImage image_;
  std::unique_ptr<std::mutex[]> unit_mutexes_;
  // Per unit: the home a crash moved it to, or -1.
  std::vector<ProcId> rehomed_;
  std::mutex batch_mutex_;
  std::vector<std::pair<UnitId, ProcId>> batch_;  // registered, unapplied
  // Batches applied so far: a node whose epoch_seen lags pays for
  // learning the new map at its next home contact.
  std::uint64_t epoch_ = 0;
  std::vector<Scratch> scratch_;  // per node
};

}  // namespace dsm
