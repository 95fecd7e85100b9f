#include "core/vector_clock.h"

#include <algorithm>

namespace dsm {

void VectorClock::Merge(const VectorClock& other) {
  DSM_CHECK_EQ(size(), other.size());
  for (int i = 0; i < size(); ++i) {
    entries_[i] = std::max(entries_[i], other.entries_[i]);
  }
}

std::uint64_t VectorClock::Sum() const {
  std::uint64_t sum = 0;
  for (const Seq v : entries_) sum += v;
  return sum;
}

}  // namespace dsm
