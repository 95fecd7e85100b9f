// Deterministic fault injection and crash recovery (DESIGN.md §9).
//
// A FaultSchedule (core/config.h) is an ordered list of crash events;
// each names one victim processor — ANY processor, proc 0 included — and
// one modelled crash point: the victim's n-th global barrier, or
// immediately after its m-th interval close.  Trigger points
// are absolute victim-local counts, so every event fires at a
// deterministic point on its victim's own thread regardless of host
// scheduling; a repeat victim fires again only after its earlier
// recovery, which is automatic because its trigger points are served in
// program order.  The RecoveryCoordinator rebuilds each crashed node's
// lost volatile state — private image, page-table protections and twins,
// vector clock, pending write-notice view — from the run's stable
// substrate:
//
//   * LRC:  canonical base images (the archive GC's barrier-epoch
//           checkpoints, Lrc::Rebuild in core/lrc.h) plus the archived
//           interval records not yet flattened into them.  Archives model
//           write-ahead logs on stable storage: a record is durable the
//           moment the interval closes, so the victim's own log survives
//           the crash.  Every GC pass applies every dominated record to
//           the bases and no base is ever released, so base + surviving
//           log is a complete history.
//   * HLRC: whole-unit copies from the home image (Homes::Rebuild,
//           core/hlrc.h).  A victim that was itself a home reconstructs
//           each of its units from the surviving sharers' cached copies
//           (full unit from the designated freshest sharer, header-sized
//           live-twin probes to the rest) and re-homes the unit through
//           the per-unit re-home table; surviving nodes learn the new map
//           lazily — their first home contact after the re-home batch
//           pays a modelled timeout + retransmit
//           (CommBreakdown::recovery_retransmits).
//
// When proc 0 is the victim of an at-barrier event, the coordinator roles
// it normally holds — the archive sample, the GC pass count, the
// checkpoint watermark publish, the HLRC re-home apply, and the
// barrier-manager cost asymmetry — migrate to the lowest surviving rank
// for exactly that barrier (SharedState::CoordinatorFor) and migrate back
// once the victim has rebuilt.  The GC and prune work never migrates:
// every node, the victim included, collects its own stripe of units and
// prunes its own HLRC notice log before the crash point.
//
// Recovery is *transparent*: the victim's thread continues from the crash
// point with rebuilt state, so the sync services never lose a live
// participant mid-run (LockService::OnCrash handles the lock-side sweep —
// force-releasing anything the victim held and invalidating its cached
// tokens).  Recovery traffic is modelled — messages and bytes in the
// CommBreakdown recovery counters, latency on the victim's virtual clock —
// but deliberately outside the paper's reader-side useful/useless taxonomy
// and the per-kind NetStats, which keeps every no-fault fingerprint
// bit-identical by construction.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "core/config.h"
#include "core/vector_clock.h"

namespace dsm {

class Node;
struct SharedState;

// Owns one run's FaultSchedule and fires each event exactly once, in
// victim-local program order.  The trigger predicate is a pure function
// of (schedule, caller, protocol point) plus the per-event fired flags;
// an event's flag is only ever written by its own victim's thread, and
// all cross-thread reads (a later event on another victim, CollectStats
// after join) go through acquire/release atomics, so re-arming after a
// recovery is race-free under TSan semantics.
class FaultInjector {
 public:
  // `schedule` must have passed RuntimeConfig::Validate().
  explicit FaultInjector(const FaultSchedule& schedule);

  // Trigger predicate, called on `proc`'s own thread: the index of the
  // unfired event that fires at this point, or -1.  Every node asks for
  // kAtBarrier inside the barrier of phase `count` (after the idle-window
  // GC, before notices are collected); the closing node asks for
  // kAfterRelease right after its interval record with sequence number
  // `count` was appended to its archive.
  int Match(ProcId proc, FaultPoint point, std::uint32_t count) const;

  // Static schedule query (independent of fired state): does an
  // at-barrier event kill `proc` at `sync_phase`?  Drives
  // SharedState::CoordinatorFor — every node computes the same answer for
  // the same phase, with no communication.
  bool CrashesAtBarrier(ProcId proc, std::uint32_t sync_phase) const;

  // Marks the event fired and adds the host time its rebuild took; called
  // by the RecoveryCoordinator once per fired event.
  void OnRecovered(int event_index, std::uint64_t wall_ns);

  std::uint64_t recovery_wall_ns() const {
    return recovery_wall_ns_.load(std::memory_order_acquire);
  }

 private:
  const FaultSchedule schedule_;
  // One flag per event.  Written (release) only by the event's victim
  // thread in OnRecovered; predicates load acquire so a second event on a
  // re-armed victim observes the completed earlier recovery.
  std::unique_ptr<std::atomic<std::uint8_t>[]> fired_;
  std::atomic<std::uint64_t> recovery_wall_ns_{0};
};

// Rebuilds a crashed node.  Stateless — a friend of Node that performs the
// wipe-and-rebuild described above; all bookkeeping lands in the victim's
// CommBreakdown/clock, and the host time in the injector.
class RecoveryCoordinator {
 public:
  // Rebuild `victim` to the consistent cut `to`: the merged global clock
  // of the crash barrier for at-barrier events, the close-time clock of
  // the victim's last durable interval for after-release events.
  // `event_index` is the schedule slot returned by the trigger predicate.
  // Must run on the victim's own thread.
  static void Recover(Node& victim, const VectorClock& to, int event_index);
};

}  // namespace dsm
