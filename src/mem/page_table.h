// Per-node consistency-unit state, standing in for VM page protections.
//
// A real TreadMarks node drives the protocol from mprotect/SIGSEGV; here
// every shared access consults this table instead (same protocol-visible
// events, plus determinism and portability — see DESIGN.md §2).
//
// Unit states:
//   kInvalid         — foreign write notices pending; access faults and
//                      fetches diffs.
//   kUpdatedInvalid  — dynamic aggregation only: updates were already
//                      applied as part of a page-group fetch, but the unit
//                      is kept invalid so its first access is still
//                      observable (paper §4).  Access "faults" without any
//                      communication.
//   kReadValid       — clean: reads proceed; the first write twins the unit
//                      and moves it to kDirty.
//   kDirty           — twinned and writable; reads and writes proceed.
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "mem/diff.h"
#include "mem/types.h"

namespace dsm {

enum class UnitState : std::uint8_t {
  kReadValid = 0,
  kDirty,
  kInvalid,
  kUpdatedInvalid,
};

// Canonical base images for archive GC (DESIGN.md §6): one full-unit
// snapshot per consistency unit that holds the contents implied by every
// reclaimed interval, applied in happens-before order on top of the
// zero-initialized heap.  FlattenedChains carry only run lists; at fault
// time their data is copied from here.  Shared across nodes: mutation
// (Ensure/Release) happens only in the GC pass inside the idle barrier
// window, where each node works its own stripe of units, so a unit's slot
// has one writer; fault-time reads happen only outside the window against
// an immutable-between-barriers image, so reads need no locking.  The
// pool mutex guards the pool and its counters against the concurrent
// stripes.
//
// Buffers are allocated lazily (only units that ever had a pending chain
// flattened pay) and recycled through a free pool, like twins: when a GC
// pass observes that no node holds a flattened chain for a unit any more,
// the unit's base is dropped to the pool and a later flatten re-ensures a
// zeroed buffer (safe: a fresh stub's runs are always covered by the
// records applied after re-ensuring).
class CanonicalStore {
 public:
  CanonicalStore(std::size_t num_units, std::size_t unit_bytes);

  bool Has(UnitId unit) const { return bases_[unit] != nullptr; }

  // Base image of `unit`, allocating a zero-filled buffer on first use.
  std::span<std::byte> Ensure(UnitId unit);

  // Read-only view; unit must have a base.
  std::span<const std::byte> base(UnitId unit) const;

  // Copy the words named by `runs` from the unit's base image into `dst`
  // (a unit-sized buffer).  The primitive behind flattened-chain
  // application (DESIGN.md §6): the base holds the newest dominated value
  // of every flattened word, so any copy of a run from it yields the
  // bytes the reclaimed history would have produced.
  void CopyRuns(UnitId unit, std::span<std::byte> dst,
                const std::vector<DiffRun>& runs) const;

  // Checkpoint-read API (crash recovery, DESIGN.md §9): copy the unit's
  // base image — the barrier-epoch checkpoint of every flattened interval
  // — into `dst` (a unit-sized buffer) and return true, or return false
  // untouched when the unit has no base (no dominated interval ever wrote
  // it; its checkpoint content is the zero-initialized heap).  The one
  // sanctioned way to read checkpoint data from outside the GC: recovery
  // must not see (or depend on) the store's pooling internals.
  bool ReadCheckpoint(UnitId unit, std::span<std::byte> dst) const;

  // Return the unit's buffer to the free pool (no-op without a base).
  void Release(UnitId unit);

  // Close a GC pass: fold (live bases at the pass's start + bases it newly
  // ensured) into the peak and start the next pass's count.  That is what
  // the pass peaks at when every Ensure precedes every Release, and it
  // does not depend on how concurrent stripes interleaved their Ensures
  // and Releases, so the peak replays bit-for-bit.  Called once per pass,
  // after every stripe finished and before the next pass starts.
  void EndPass();

  std::size_t unit_bytes() const { return unit_bytes_; }
  // High-water mark of the bytes held by live bases over the run, sampled
  // per pass (see EndPass); pooled free buffers are not counted: they are
  // capacity, not content.
  std::size_t peak_bytes() const { return peak_count_ * unit_bytes_; }

 private:
  std::size_t unit_bytes_;
  // Guards the pool and counters; per-unit slots are written only by the
  // stripe that owns the unit.
  mutable std::mutex pool_mutex_;
  std::vector<std::unique_ptr<std::byte[]>> bases_;
  std::vector<std::unique_ptr<std::byte[]>> free_bases_;
  std::size_t live_count_ = 0;
  std::size_t pass_start_count_ = 0;  // live_count_ when the pass began
  std::size_t pass_new_count_ = 0;    // bases ensured by the pass so far
  std::size_t peak_count_ = 0;
};

class PageTable {
 public:
  PageTable(std::size_t num_units, std::size_t unit_bytes);

  UnitState state(UnitId unit) const { return states_[unit]; }
  void set_state(UnitId unit, UnitState s) { states_[unit] = s; }

  // Fast-path pointer for the inline access check.
  const UnitState* state_array() const { return states_.data(); }

  bool NeedsFaultOnRead(UnitId unit) const {
    const UnitState s = states_[unit];
    return s == UnitState::kInvalid || s == UnitState::kUpdatedInvalid;
  }
  bool NeedsFaultOnWrite(UnitId unit) const {
    return states_[unit] != UnitState::kDirty;
  }

  // --- twins ---------------------------------------------------------------
  bool HasTwin(UnitId unit) const { return twins_[unit] != nullptr; }
  // Copy `current` (the unit's working copy) into a twin.  Buffers of
  // dropped twins are pooled and reused, so steady-state twin/re-twin
  // churn (every interval re-dirties roughly the same working set) never
  // goes back to the allocator.
  void MakeTwin(UnitId unit, std::span<const std::byte> current);
  std::span<std::byte> twin(UnitId unit);
  std::span<const std::byte> twin(UnitId unit) const;
  void DropTwin(UnitId unit);

  // How many MakeTwin calls were served from the free list (observability
  // for the pooling; see tests).
  std::uint64_t twin_recycles() const { return twin_recycles_; }

  // Units currently twinned (i.e., dirty in the open interval), in the
  // order they were first written.  Cleared by the caller after the
  // interval closes.
  const std::vector<UnitId>& dirty_units() const { return dirty_units_; }
  void RecordDirty(UnitId unit) { dirty_units_.push_back(unit); }
  void ClearDirtyList() { dirty_units_.clear(); }

  // Crash-recovery wipe (DESIGN.md §9): drop every twin (buffers go back
  // to the pool), mark every unit kReadValid (the rebuilt image is
  // readable but not dirty), and clear the dirty list — the page-table
  // share of a crashed node's volatile-state reset.  Only the
  // RecoveryCoordinator calls this, on the victim's own thread.
  void ResetForRecovery();

  std::size_t num_units() const { return states_.size(); }
  std::size_t unit_bytes() const { return unit_bytes_; }

 private:
  std::size_t unit_bytes_;
  std::vector<UnitState> states_;
  std::vector<std::unique_ptr<std::byte[]>> twins_;
  std::vector<std::unique_ptr<std::byte[]>> free_twins_;  // dropped buffers
  std::vector<UnitId> dirty_units_;
  std::uint64_t twin_recycles_ = 0;
};

}  // namespace dsm
