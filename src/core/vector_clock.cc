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

std::size_t VectorClock::EncodedBytes() const {
  std::size_t num_runs = entries_.empty() ? 0 : 1;
  for (std::size_t i = 1; i < entries_.size(); ++i) {
    if (entries_[i] != entries_[i - 1]) ++num_runs;
  }
  return std::min(4 + 8 * num_runs, DenseEncodedBytes(size()));
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
