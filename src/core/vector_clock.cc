#include "core/vector_clock.h"

#include <algorithm>
#include <sstream>

namespace dsm {

void VectorClock::Merge(const VectorClock& other) {
  DSM_CHECK_EQ(size(), other.size());
  for (int i = 0; i < size(); ++i) {
    entries_[i] = std::max(entries_[i], other.entries_[i]);
  }
}

bool VectorClock::DominatedBy(const VectorClock& other) const {
  DSM_CHECK_EQ(size(), other.size());
  for (int i = 0; i < size(); ++i) {
    if (entries_[i] > other.entries_[i]) return false;
  }
  return true;
}

std::uint64_t VectorClock::Sum() const {
  std::uint64_t sum = 0;
  for (const Seq v : entries_) sum += v;
  return sum;
}

std::string VectorClock::ToString() const {
  std::ostringstream out;
  out << "[";
  for (int i = 0; i < size(); ++i) {
    if (i > 0) out << ",";
    out << (*this)[i];
  }
  out << "]";
  return out.str();
}

}  // namespace dsm
