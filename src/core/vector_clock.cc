#include "core/vector_clock.h"

#include <algorithm>

namespace dsm {

void VectorClock::Merge(const VectorClock& other) {
  DSM_CHECK_EQ(size(), other.size());
  for (int i = 0; i < size(); ++i) {
    entries_[i] = std::max(entries_[i], other.entries_[i]);
  }
}

}  // namespace dsm
