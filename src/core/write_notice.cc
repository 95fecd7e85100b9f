#include "core/write_notice.h"

#include <algorithm>

#include "common/check.h"

namespace dsm {

int IntervalRecord::IndexOf(UnitId unit) const {
  for (std::size_t i = 0; i < units.size(); ++i) {
    if (units[i] == unit) return static_cast<int>(i);
  }
  return -1;
}

std::size_t IntervalRecord::RetainedBytes() const {
  std::size_t bytes = NoticeBytes();
  for (const Diff& d : diffs) bytes += d.EncodedBytes();
  return bytes;
}

void ArchiveTelemetry::OnAppend(std::uint64_t bytes) {
  const std::uint64_t live =
      live_intervals.fetch_add(1, std::memory_order_relaxed) + 1;
  std::uint64_t peak = peak_live_intervals.load(std::memory_order_relaxed);
  while (live > peak && !peak_live_intervals.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
  const std::uint64_t total =
      live_bytes.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  std::uint64_t peak_b = peak_live_bytes.load(std::memory_order_relaxed);
  while (total > peak_b && !peak_live_bytes.compare_exchange_weak(
                               peak_b, total, std::memory_order_relaxed)) {
  }
}

void ArchiveTelemetry::OnReclaim(std::uint64_t records, std::uint64_t bytes) {
  live_intervals.fetch_sub(records, std::memory_order_relaxed);
  live_bytes.fetch_sub(bytes, std::memory_order_relaxed);
  reclaimed_intervals.fetch_add(records, std::memory_order_relaxed);
}

const IntervalRecord* IntervalArchive::Append(IntervalRecord record) {
  std::lock_guard lock(mutex_);
  DSM_CHECK(records_.empty() || records_.back().seq < record.seq)
      << "archive appends must be in increasing seq order";
  DSM_CHECK_EQ(record.units.size(), record.diffs.size());
  record.diffed.reset(
      new std::atomic<std::uint64_t>[record.units.size()]());
  if (telemetry_ != nullptr) telemetry_->OnAppend(record.RetainedBytes());
  records_.push_back(std::move(record));
  return &records_.back();
}

const IntervalRecord* IntervalArchive::Find(Seq seq) const {
  std::lock_guard lock(mutex_);
  auto it = std::lower_bound(
      records_.begin(), records_.end(), seq,
      [](const IntervalRecord& r, Seq s) { return r.seq < s; });
  if (it == records_.end() || it->seq != seq) return nullptr;
  return &*it;
}

std::vector<const IntervalRecord*> IntervalArchive::Range(Seq from,
                                                          Seq to) const {
  std::lock_guard lock(mutex_);
  std::vector<const IntervalRecord*> out;
  auto it = std::upper_bound(
      records_.begin(), records_.end(), from,
      [](Seq s, const IntervalRecord& r) { return s < r.seq; });
  for (; it != records_.end() && it->seq <= to; ++it) out.push_back(&*it);
  return out;
}

std::size_t IntervalArchive::PruneThrough(Seq through) {
  std::lock_guard lock(mutex_);
  std::size_t reclaimed = 0;
  std::uint64_t bytes = 0;
  while (!records_.empty() && records_.front().seq <= through) {
    bytes += records_.front().RetainedBytes();
    records_.pop_front();
    ++reclaimed;
  }
  if (telemetry_ != nullptr && reclaimed > 0) {
    telemetry_->OnReclaim(reclaimed, bytes);
  }
  return reclaimed;
}

Seq IntervalArchive::min_retained_seq() const {
  std::lock_guard lock(mutex_);
  return records_.empty() ? 0 : records_.front().seq;
}

std::size_t IntervalArchive::CountThrough(Seq through) const {
  std::lock_guard lock(mutex_);
  auto it = std::upper_bound(
      records_.begin(), records_.end(), through,
      [](Seq s, const IntervalRecord& r) { return s < r.seq; });
  return static_cast<std::size_t>(it - records_.begin());
}

std::size_t IntervalArchive::size() const {
  std::lock_guard lock(mutex_);
  return records_.size();
}

}  // namespace dsm
