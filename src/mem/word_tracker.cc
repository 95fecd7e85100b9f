#include "mem/word_tracker.h"

namespace dsm {

WordTracker::WordTracker(std::size_t num_units, std::size_t words_per_unit)
    : words_per_unit_(words_per_unit),
      units_(num_units),
      fresh_(num_units, 0),
      interest_(num_units) {}

std::uint64_t* WordTracker::EnsureInterest(UnitId unit) {
  const std::size_t slots = (words_per_unit_ + 63) / 64;
  interest_[unit] = std::make_unique<std::uint64_t[]>(slots);  // zeroed
  return interest_[unit].get();
}

bool WordTracker::ReadsAnyOf(UnitId unit,
                             const std::vector<DiffRun>& runs) const {
  const std::uint64_t* bits = interest_[unit].get();
  if (bits == nullptr) return false;
  for (const DiffRun& run : runs) {
    std::uint32_t w = run.word_offset;
    std::uint32_t left = run.word_count;
    while (left > 0) {
      const std::uint32_t slot = w >> 6;
      const std::uint32_t bit = w & 63;
      const std::uint32_t span = left < 64 - bit ? left : 64 - bit;
      const std::uint64_t mask =
          (span == 64 ? ~std::uint64_t{0}
                      : ((std::uint64_t{1} << span) - 1))
          << bit;
      if ((bits[slot] & mask) != 0) return true;
      w += span;
      left -= span;
    }
  }
  return false;
}

std::uint32_t* WordTracker::EnsureUnit(UnitId unit) {
  // make_unique<T[]> value-initializes: every tag starts at 0 (not fresh).
  units_[unit] = std::make_unique<std::uint32_t[]>(words_per_unit_);
  return units_[unit].get();
}

std::uint32_t WordTracker::Tag(UnitId unit, std::uint32_t word_in_unit) const {
  if (units_[unit] == nullptr) return 0;
  return units_[unit][word_in_unit];
}

}  // namespace dsm
