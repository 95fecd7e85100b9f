#include "mem/page_table.h"

#include <cstring>

#include "common/check.h"

namespace dsm {

PageTable::PageTable(std::size_t num_units, std::size_t unit_bytes)
    : unit_bytes_(unit_bytes),
      states_(num_units, UnitState::kReadValid),
      twins_(num_units) {}

void PageTable::MakeTwin(UnitId unit, std::span<const std::byte> current) {
  DSM_CHECK_EQ(current.size(), unit_bytes_);
  DSM_CHECK(twins_[unit] == nullptr)
      << "unit " << unit << " already twinned";
  if (!free_twins_.empty()) {
    twins_[unit] = std::move(free_twins_.back());
    free_twins_.pop_back();
    ++twin_recycles_;
  } else {
    // No value-init: the memcpy below overwrites the full buffer.
    twins_[unit].reset(new std::byte[unit_bytes_]);
  }
  std::memcpy(twins_[unit].get(), current.data(), unit_bytes_);
}

std::span<std::byte> PageTable::twin(UnitId unit) {
  DSM_CHECK(twins_[unit] != nullptr) << "unit " << unit << " has no twin";
  return {twins_[unit].get(), unit_bytes_};
}

std::span<const std::byte> PageTable::twin(UnitId unit) const {
  DSM_CHECK(twins_[unit] != nullptr) << "unit " << unit << " has no twin";
  return {twins_[unit].get(), unit_bytes_};
}

void PageTable::DropTwin(UnitId unit) {
  if (twins_[unit] != nullptr) {
    free_twins_.push_back(std::move(twins_[unit]));
  }
}

void PageTable::ResetForRecovery() {
  for (UnitId u = 0; u < states_.size(); ++u) {
    DropTwin(u);
    states_[u] = UnitState::kReadValid;
  }
  dirty_units_.clear();
}

}  // namespace dsm
