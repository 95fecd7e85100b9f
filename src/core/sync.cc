#include "core/sync.h"

#include <algorithm>

#include "common/check.h"

namespace dsm {
namespace {

constexpr const char* kAborted = "another processor's body threw";

}  // namespace

BarrierService::BarrierService(int num_procs)
    : num_procs_(num_procs), pending_vc_(num_procs) {}

BarrierService::Result BarrierService::Arrive(const VectorClock& vc,
                                              VirtualNanos arrival_time,
                                              std::size_t arrival_bytes,
                                              ProcId coordinator) {
  std::unique_lock lock(mutex_);
  DSM_CHECK(!aborted_) << kAborted;
  if (pending_coordinator_ == -1) {
    pending_coordinator_ = coordinator;
  } else {
    // Coordinator failover is derived per-node from the static fault
    // schedule; any disagreement is a protocol bug, not a race.
    DSM_CHECK_EQ(pending_coordinator_, coordinator)
        << "barrier arrivers disagree on the coordinator rank";
  }
  pending_vc_.Merge(vc);
  max_arrival_ = std::max(max_arrival_, arrival_time);
  max_bytes_ = std::max(max_bytes_, arrival_bytes);
  ++arrived_;

  const std::uint64_t my_generation = generation_;
  if (arrived_ == num_procs_) {
    current_ =
        Result{pending_vc_, max_arrival_, max_bytes_, pending_coordinator_};
    // Reset for the next generation.  pending_vc_ is part of the
    // per-generation state: per-proc clocks happen to be monotone today,
    // which would mask a missing reset, but a checkpoint/restore or
    // clock-reset path must not inherit stale maxima.
    arrived_ = 0;
    max_arrival_ = 0;
    max_bytes_ = 0;
    pending_vc_ = VectorClock(num_procs_);
    pending_coordinator_ = -1;
    ++generation_;
    cv_.notify_all();
    return current_;
  }
  cv_.wait(lock, [&] { return generation_ != my_generation || aborted_; });
  DSM_CHECK(generation_ != my_generation) << kAborted;
  return current_;
}

void BarrierService::Rendezvous() {
  std::unique_lock lock(mutex_);
  DSM_CHECK(!aborted_) << kAborted;
  const std::uint64_t my_generation = rendezvous_generation_;
  if (++rendezvous_arrived_ == num_procs_) {
    rendezvous_arrived_ = 0;
    ++rendezvous_generation_;
    cv_.notify_all();
    return;
  }
  cv_.wait(lock, [&] {
    return rendezvous_generation_ != my_generation || aborted_;
  });
  DSM_CHECK(rendezvous_generation_ != my_generation) << kAborted;
}

void BarrierService::Abort() {
  std::lock_guard lock(mutex_);
  aborted_ = true;
  cv_.notify_all();
}

std::uint64_t BarrierService::barriers_completed() const {
  return generation_;
}

LockService::LockService(int num_locks, int num_procs)
    : num_procs_(num_procs),
      crash_swept_(static_cast<std::size_t>(num_procs), 0) {
  DSM_CHECK_GT(num_locks, 0);
  locks_.resize(num_locks);
  for (auto& l : locks_) l.release_vc = VectorClock(num_procs);
}

LockService::Grant LockService::Acquire(int lock_id, ProcId proc) {
  std::unique_lock lock(mutex_);
  DSM_CHECK(!aborted_) << kAborted;
  LockState& st = locks_[lock_id];
  if (st.held || !st.queue.empty()) {
    st.queue.push_back(proc);
    st.cv.wait(lock, [&] {
      return aborted_ || (!st.held && st.queue.front() == proc);
    });
    DSM_CHECK(!aborted_) << kAborted;
    st.queue.pop_front();
  }
  st.held = true;
  const bool cached = (st.owner == proc);
  Grant grant{st.release_vc, st.release_time, cached, 0};
  if (!cached) {
    ++st.transfers;
    grant.chain_pos = ++total_transfers_;
  }
  st.owner = proc;
  return grant;
}

void LockService::Release(int lock_id, ProcId proc, const VectorClock& vc,
                          VirtualNanos time) {
  std::lock_guard lock(mutex_);
  LockState& st = locks_[lock_id];
  if (crash_swept_[static_cast<std::size_t>(proc)] != 0 &&
      (!st.held || st.owner != proc)) {
    // Orphan release by a crashed-then-recovered processor: OnCrash
    // already force-released this lock on its behalf (and a waiter may
    // have taken it since).  The transparent recovery model means the
    // app thread still executes its release — tolerate it.
    return;
  }
  DSM_CHECK(st.held) << "release of lock " << lock_id << " not held";
  DSM_CHECK_EQ(st.owner, proc);
  st.held = false;
  st.release_vc = vc;
  st.release_time = time;
  // Only this lock's waiters are interested; the per-lock CV keeps a
  // release from waking every waiter of every other lock.
  st.cv.notify_all();
}

void LockService::OnCrash(ProcId proc, const VectorClock& vc,
                          VirtualNanos time) {
  std::lock_guard lock(mutex_);
  crash_swept_[static_cast<std::size_t>(proc)] = 1;
  for (LockState& st : locks_) {
    bool touched = false;
    if (st.held && st.owner == proc) {
      // Force-release on the victim's behalf, publishing exactly the
      // clock/time its own release would have (the caller passes the
      // recovered post-crash values, which are what a normal release at
      // the crash point publishes).
      st.held = false;
      st.release_vc = vc;
      st.release_time = time;
      touched = true;
    }
    if (st.owner == proc && !st.held) {
      // Cached token died with the node: the next acquire — by anyone,
      // the victim included — must be a real transfer.
      st.owner = -1;
      touched = true;
    }
    if (touched) st.cv.notify_all();
  }
}

void LockService::Abort() {
  std::lock_guard lock(mutex_);
  aborted_ = true;
  for (LockState& st : locks_) st.cv.notify_all();
}

std::uint64_t LockService::transfers(int lock_id) const {
  std::lock_guard lock(mutex_);
  return locks_[lock_id].transfers;
}

}  // namespace dsm
