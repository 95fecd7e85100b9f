// Vector timestamps for lazy release consistency (paper §2; Keleher et al.).
//
// Each processor p maintains VC_p; entry VC_p[q] is the latest interval of
// processor q whose modifications p is guaranteed to see.  An acquire
// merges the releaser's clock into the acquirer's; the write notices of all
// newly-covered intervals invalidate the corresponding consistency units.
//
// Representation: a clock is either *dense* (one Seq per processor — the
// mutable working form every node keeps for vc_ / notices_seen_) or
// *frozen* (run-length encoded — the immutable form interval records take
// once archived).  Barrier programs advance most components in lockstep,
// so a frozen close-time clock is a handful of runs regardless of
// num_procs; that is what makes per-notice clock metadata scale with the
// number of distinct writer frontiers instead of the cluster size
// (DESIGN.md §8).  Freezing is a representation change only: every
// observer (operator[], Covers, DominatedBy, Merge-from, operator==)
// answers identically on either form.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/check.h"
#include "mem/types.h"

namespace dsm {

class VectorClock {
 public:
  VectorClock() = default;
  explicit VectorClock(int num_procs) : entries_(num_procs, 0) {}

  Seq operator[](ProcId p) const {
    return runs_.empty() ? entries_[p] : AtFrozen(p);
  }
  // Mutation requires the dense form (frozen clocks are immutable).
  Seq& operator[](ProcId p) {
    DSM_DCHECK(runs_.empty());
    return entries_[p];
  }

  int size() const {
    return runs_.empty() ? static_cast<int>(entries_.size()) : size_;
  }

  bool frozen() const { return !runs_.empty(); }

  // Clocks with at most this many components stay dense even when frozen:
  // at the paper's native 8-processor scale the run vector costs as much
  // as it saves, and the dense fast path keeps the fault-time absorption
  // checks cheap.  Scaled runs (num_procs > 8) compact.
  static constexpr std::size_t kKeepDenseProcs = 8;

  // Compact to the run-length form (idempotent; keeps small clocks dense
  // — see kKeepDenseProcs).  Only legal once no caller will take a
  // mutable reference again — the archive freezes records at Append,
  // after which they are shared immutably.
  void Freeze();

  // Elementwise maximum (the acquire operation on clocks).  *this must be
  // dense; `other` may be either form.
  void Merge(const VectorClock& other);

  // True iff every entry of *this is <= the corresponding entry of other.
  bool DominatedBy(const VectorClock& other) const;

  // True iff the interval (proc, seq) is covered by this clock.
  bool Covers(ProcId proc, Seq seq) const { return (*this)[proc] >= seq; }

  // Sum of all components (the leading term of HbKey, the happens-before
  // sort key in core/write_notice.h).  O(runs) when frozen.
  std::uint64_t Sum() const;

  // Wire size of this clock under the sparse encoding: a 4-byte run count
  // followed by 8-byte (start, value) run descriptors, never worse than
  // the dense 4-byte-per-entry form it falls back to (DESIGN.md §8).
  // Telemetry only — the modelled 16-byte notice header abstracts the
  // clock, so these bytes never enter the modelled message totals.
  std::size_t EncodedBytes() const;
  static std::size_t DenseEncodedBytes(int num_procs) {
    return 4 + 4 * static_cast<std::size_t>(num_procs);
  }

  // Logical equality, independent of representation.
  bool operator==(const VectorClock& other) const;

  std::string ToString() const;

 private:
  // Frozen form: entries [start, next.start) all hold `value`; runs are
  // sorted by start and the first run starts at 0.
  struct Run {
    std::uint32_t start;
    Seq value;
  };

  // Last run whose start is <= p.  A forward linear scan (frozen clocks
  // in barrier programs hold one or two runs); kept out of line so the
  // dense fast path of operator[] stays a branch and a load on the fault
  // path's O(k²) absorption checks.
  Seq AtFrozen(ProcId p) const;

  std::vector<Seq> entries_;  // dense form (empty when frozen)
  std::vector<Run> runs_;     // frozen form (empty when dense)
  int size_ = 0;              // component count of the frozen form
};

}  // namespace dsm
