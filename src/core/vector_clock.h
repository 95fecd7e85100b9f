// Vector timestamps for lazy release consistency (paper §2; Keleher et al.).
//
// Each processor p maintains VC_p; entry VC_p[q] is the latest interval of
// processor q whose modifications p is guaranteed to see.  An acquire
// merges the releaser's clock into the acquirer's; the write notices of all
// newly-covered intervals invalidate the corresponding consistency units.
//
// Clocks are dense (one Seq per processor).
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "mem/types.h"

namespace dsm {

class VectorClock {
 public:
  VectorClock() = default;
  explicit VectorClock(int num_procs) : entries_(num_procs, 0) {}

  Seq operator[](ProcId p) const { return entries_[p]; }
  Seq& operator[](ProcId p) { return entries_[p]; }

  int size() const { return static_cast<int>(entries_.size()); }

  // Elementwise maximum (the acquire operation on clocks).
  void Merge(const VectorClock& other);

  bool operator==(const VectorClock& other) const {
    return entries_ == other.entries_;
  }

 private:
  std::vector<Seq> entries_;
};

}  // namespace dsm
