#include "mem/page_table.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"

namespace dsm {

CanonicalStore::CanonicalStore(std::size_t num_units, std::size_t unit_bytes)
    : unit_bytes_(unit_bytes), bases_(num_units) {}

std::span<std::byte> CanonicalStore::Ensure(UnitId unit) {
  if (bases_[unit] == nullptr) {
    std::lock_guard lock(pool_mutex_);
    if (!free_bases_.empty()) {
      bases_[unit] = std::move(free_bases_.back());
      free_bases_.pop_back();
      std::memset(bases_[unit].get(), 0, unit_bytes_);
    } else {
      bases_[unit].reset(new std::byte[unit_bytes_]());
    }
    ++live_count_;
    ++pass_new_count_;
  }
  return {bases_[unit].get(), unit_bytes_};
}

void CanonicalStore::EndPass() {
  std::lock_guard lock(pool_mutex_);
  peak_count_ = std::max(peak_count_, pass_start_count_ + pass_new_count_);
  pass_start_count_ = live_count_;
  pass_new_count_ = 0;
}

std::span<const std::byte> CanonicalStore::base(UnitId unit) const {
  DSM_CHECK(bases_[unit] != nullptr)
      << "unit " << unit << " has no canonical base";
  return {bases_[unit].get(), unit_bytes_};
}

void CanonicalStore::CopyRuns(UnitId unit, std::span<std::byte> dst,
                              std::span<const DiffRun> runs) const {
  Diff::CopyRuns(runs, base(unit), dst);
}

bool CanonicalStore::ReadCheckpoint(UnitId unit,
                                    std::span<std::byte> dst) const {
  DSM_CHECK_EQ(dst.size(), unit_bytes_);
  if (bases_[unit] == nullptr) return false;
  std::memcpy(dst.data(), bases_[unit].get(), unit_bytes_);
  return true;
}

void CanonicalStore::Release(UnitId unit) {
  if (bases_[unit] == nullptr) return;
  std::lock_guard lock(pool_mutex_);
  free_bases_.push_back(std::move(bases_[unit]));
  --live_count_;
}

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
