// Synchronization services: barrier rendezvous and queued locks.
//
// These are *host-level* rendezvous mechanisms; all protocol semantics
// (interval closing, write-notice exchange, invalidation) and all modelled
// costs are applied by the calling Node (core/protocol.h).  The services
// only move vector clocks, virtual times, and payload sizes between
// threads, mirroring TreadMarks' centralized barrier manager and
// distributed queued locks.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "core/vector_clock.h"
#include "sim/virtual_clock.h"

namespace dsm {

// Centralized barrier manager (proc 0 is the manager, as in TreadMarks).
class BarrierService {
 public:
  explicit BarrierService(int num_procs);

  struct Result {
    VectorClock global_vc;      // max over all arrivals
    VirtualNanos base_time;     // modelled manager release time
    std::size_t max_arrival_bytes = 0;
    // Agreed barrier coordinator for this generation (DESIGN.md §9).
    // Proc 0 on every failure-free barrier; the lowest surviving rank on
    // a barrier whose fault schedule kills proc 0.  Every arriver derives
    // it locally from the armed schedule and passes it in; the service
    // cross-checks that all arrivals name the same rank.
    ProcId coordinator = 0;
  };

  // Blocks until all processors arrive.  `arrival_time` is the caller's
  // virtual clock at arrival and `arrival_bytes` the write-notice payload
  // it ships to the manager.  The last arriver computes the result.
  // The modelled cost formula lives in the caller (Node::Barrier), which
  // combines this result with the network/cost models.  `coordinator` is
  // the caller's view of this barrier's coordinator; all arrivers of one
  // generation must agree (checked), and the agreed value is echoed in
  // Result::coordinator.
  Result Arrive(const VectorClock& vc, VirtualNanos arrival_time,
                std::size_t arrival_bytes, ProcId coordinator = 0);

  // Pure host-level rendezvous with no clock, vc, or statistics effects.
  // The protocol calls it right after Arrive to extend the barrier into a
  // window in which every processor is known to be idle, so cross-node
  // state can be read and reset deterministically (no application faults
  // are in flight anywhere).  Each backend's barrier hook rides this
  // window.  LRC's (Lrc::OnBarrier, core/lrc.h) drains the lazy-diffing
  // request flags and runs the barrier-epoch archive GC (DESIGN.md §6)
  // over the node's own stripe of units before its rendezvous arrival —
  // the wait here is what keeps any node from faulting into a
  // half-collected archive, and it orders every stripe's work before
  // anything after the barrier.  HLRC's (Homes::OnBarrier, core/hlrc.h)
  // applies re-home batches and prunes the node's notice log.  Does not
  // count as a completed barrier.
  void Rendezvous();

  // Wakes every waiter, and from then on Arrive and Rendezvous throw, in
  // threads already waiting and in threads that arrive later.
  // Runtime::Run calls it when a processor's body throws, so that no
  // other processor waits forever for an arrival that will never come.
  void Abort();

  std::uint64_t barriers_completed() const;

 private:
  const int num_procs_;
  std::mutex mutex_;
  std::condition_variable cv_;
  int arrived_ = 0;
  std::uint64_t generation_ = 0;
  int rendezvous_arrived_ = 0;
  std::uint64_t rendezvous_generation_ = 0;
  bool aborted_ = false;
  // Merge accumulator for the generation in flight; reset with the other
  // per-generation state once the last arriver snapshots it, so a future
  // checkpoint/restore or clock-reset path cannot leak stale maxima into
  // the next generation's global clock.
  VectorClock pending_vc_;
  VirtualNanos max_arrival_ = 0;
  std::size_t max_bytes_ = 0;
  ProcId pending_coordinator_ = -1;  // first arriver's view; -1 = unset
  Result current_;
};

// Number of DSM lock ids available to the application.
inline constexpr int kNumLocks = 4096;

// FIFO-queued DSM locks with last-owner caching: re-acquiring a lock that
// no other processor touched since the caller's last release is a local
// operation (TreadMarks keeps lock tokens at the last owner).
class LockService {
 public:
  LockService(int num_locks, int num_procs);

  struct Grant {
    VectorClock release_vc;      // releaser's clock at release
    VirtualNanos release_time;   // releaser's virtual time at release
    bool cached;                 // true → caller already owned the token
    // Position of this token transfer in the service-wide transfer order
    // (0 for cached grants).  Strictly increasing along every individual
    // lock's hand-off chain, so the protocol can derive lock-chain
    // sub-phases for the lazy-diffing cost model from it (see
    // IntervalRecord::PaysForStamp).  The order of *unrelated* transfers
    // is host-scheduling dependent — meaningful only for lock programs,
    // which are not bit-reproducible run to run anyway.
    std::uint64_t chain_pos = 0;
  };

  // Blocks until the lock is granted (FIFO among waiters).
  Grant Acquire(int lock_id, ProcId proc);

  void Release(int lock_id, ProcId proc, const VectorClock& vc,
               VirtualNanos time);

  // Crash sweep (DESIGN.md §9): remove every trace of `proc` as a lock
  // holder, deterministically.  Recovery runs on the victim's own thread
  // (at an interval close or inside a barrier), so the victim is never
  // parked in Acquire and never sits in a grant queue when this runs.
  // For each lock: force-release it if proc held it (publishing
  // `vc`/`time` exactly as proc's own release would have, and waking the
  // waiters), and invalidate proc's cached token (owner becomes -1, so
  // proc's next acquire is a real transfer — the token died with the
  // node).  After the sweep, a Release() by proc that finds the lock not
  // held by proc is tolerated as an orphan no-op: recovery is transparent
  // (the app thread continues from the crash point), so a crash inside a
  // critical section flows into a release of a lock this sweep already
  // force-released.  Non-swept processors keep the strict double-release
  // check.
  void OnCrash(ProcId proc, const VectorClock& vc, VirtualNanos time);

  // Wakes every waiter, and from then on Acquire throws, in threads
  // already queued and in threads that arrive later (see
  // BarrierService::Abort).
  void Abort();

  std::uint64_t transfers(int lock_id) const;

 private:
  // One CV per lock: a release wakes only that lock's waiters instead of
  // thundering every waiter of every lock in the run (Water/TSP hold
  // thousands of molecule/queue locks concurrently).
  struct LockState {
    bool held = false;
    ProcId owner = -1;  // last holder (token location)
    std::deque<ProcId> queue;
    VectorClock release_vc;
    VirtualNanos release_time = 0;
    std::uint64_t transfers = 0;
    std::condition_variable cv;
  };

  const int num_procs_;
  mutable std::mutex mutex_;
  std::uint64_t total_transfers_ = 0;  // service-wide transfer order
  // deque: LockState holds a condition_variable (immovable); deque
  // constructs elements in place and never relocates them.
  std::deque<LockState> locks_;
  // Processors OnCrash has swept: their orphan releases are tolerated.
  std::vector<std::uint8_t> crash_swept_;
  bool aborted_ = false;
};

}  // namespace dsm
