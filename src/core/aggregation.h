// Dynamic page aggregation (paper §4).
//
// Per node, the aggregator watches which pages the node faults on between
// synchronizations.  At each synchronization it (a) splits out of their
// groups any pages that were prefetched as group members but never
// accessed — evidence the access pattern changed — and (b) forms new
// groups from the pages accessed in the interval that just ended, in
// first-access order, up to `max_group_pages` per group.  Pages of a group
// need NOT be contiguous.  Groups persist until the monitored faulting
// behaviour contradicts them ("the algorithm monitors the page faulting
// behavior of the individual pages, and decides whether to aggregate pages
// into page groups or whether to split page groups into pages").
//
// During an interval, the first fault on any group member fetches diffs
// for all members with pending updates (requests per writer combined); the
// other members are left updated-but-invalid so their own first access is
// still observed — that observation is what keeps groups alive, and its
// absence is what splits them (the paper's hysteresis).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mem/types.h"

namespace dsm {

class DynamicAggregator {
 public:
  DynamicAggregator(std::size_t num_units, int max_group_pages);

  // Observe a fault (real fetch or silent validation) on `unit`.
  // Repeated faults within one interval are recorded once.
  void RecordAccess(UnitId unit);

  // `unit` was updated as part of a group fetch but is still invalid; if
  // it is not accessed before the next synchronization, it leaves its
  // group.
  void NotifyPrefetched(UnitId unit);

  // Synchronization: split stale members, group the interval's accesses.
  void OnSynchronization();

  // Members of the group containing `unit` (including `unit`), or empty.
  std::span<const UnitId> GroupOf(UnitId unit) const;

  std::size_t num_groups() const { return num_live_groups_; }
  std::size_t accesses_this_interval() const { return access_seq_.size(); }

 private:
  void RemoveFromGroup(UnitId unit);

  int max_group_pages_;
  std::uint32_t epoch_ = 1;

  // Per unit: epoch of last recorded access (== epoch_ → already recorded).
  std::vector<std::uint32_t> accessed_epoch_;
  // Units accessed in the current interval, in first-access order.
  std::vector<UnitId> access_seq_;
  // Units prefetched in the current interval and not yet accessed.
  std::vector<UnitId> prefetched_;
  std::vector<std::uint8_t> prefetch_pending_;

  std::vector<std::vector<UnitId>> groups_;
  std::vector<std::uint32_t> free_group_ids_;
  std::size_t num_live_groups_ = 0;
  // Per unit: index into groups_, or -1.
  std::vector<std::int32_t> group_of_;
};

}  // namespace dsm
