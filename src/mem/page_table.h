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
#include <span>
#include <vector>

#include "mem/types.h"

namespace dsm {

enum class UnitState : std::uint8_t {
  kReadValid = 0,
  kDirty,
  kInvalid,
  kUpdatedInvalid,
};

class PageTable {
 public:
  PageTable(std::size_t num_units, std::size_t unit_bytes);

  UnitState state(UnitId unit) const { return states_[unit]; }
  void set_state(UnitId unit, UnitState s) { states_[unit] = s; }

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
