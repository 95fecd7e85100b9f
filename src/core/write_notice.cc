#include "core/write_notice.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"

namespace dsm {

IntervalRecord::IntervalRecord(ProcId proc, Seq seq, const VectorClock& vc,
                               const IntervalDraft& draft)
    : proc_(proc),
      seq_(seq),
      nprocs_(static_cast<std::uint32_t>(vc.size())),
      num_units_(static_cast<std::uint32_t>(draft.units.size())) {
  const std::size_t n = num_units_;
  DSM_CHECK_EQ(draft.run_end.size(), n);
  DSM_CHECK_EQ(draft.images.size(), n);
  DSM_CHECK_EQ(n == 0 ? 0 : draft.run_end.back(), draft.runs.size());
  const std::size_t words = Diff::RunWords(draft.runs);
  block_ = std::make_unique_for_overwrite<std::byte[]>(
      (nprocs_ + 3 * n + 2 * draft.runs.size() + words) * kWordBytes);
  std::byte* out = block_.get();
  auto put = [&out](std::uint32_t v) {
    std::memcpy(out, &v, sizeof(v));
    out += sizeof(v);
  };
  for (ProcId p = 0; p < vc.size(); ++p) put(vc[p]);
  for (UnitId u : draft.units) put(u);
  for (std::uint32_t end : draft.run_end) put(end);
  // Per unit, the end of its words in the payload region.
  std::uint32_t word_end = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t begin = i == 0 ? 0 : draft.run_end[i - 1];
    word_end += static_cast<std::uint32_t>(Diff::RunWords(
        std::span(draft.runs).subspan(begin, draft.run_end[i] - begin)));
    put(word_end);
  }
  if (!draft.runs.empty()) {
    std::memcpy(out, draft.runs.data(), draft.runs.size() * sizeof(DiffRun));
    out += draft.runs.size() * sizeof(DiffRun);
  }
  // The payload: each run's words, copied once, straight from the image.
  for (std::size_t i = 0; i < n; ++i) {
    if (draft.images[i] == nullptr) continue;  // notice only: no runs
    for (const DiffRun& run : runs(i)) {
      const std::size_t bytes = std::size_t{run.word_count} * kWordBytes;
      std::memcpy(out,
                  draft.images[i] + std::size_t{run.word_offset} * kWordBytes,
                  bytes);
      out += bytes;
    }
  }
  // A notice-only record (HLRC) has no diff to materialize, so it needs
  // no stamps.
  if (std::any_of(draft.images.begin(), draft.images.end(),
                  [](const std::byte* image) { return image != nullptr; })) {
    stamps_ = std::make_shared<std::uint64_t[]>(n);
  }
}

std::uint64_t IntervalRecord::VcSum() const {
  std::uint64_t sum = 0;
  for (std::uint32_t p = 0; p < nprocs_; ++p) sum += Clock()[p];
  return sum;
}

std::uint32_t IntervalRecord::payload_word(std::size_t i,
                                           std::size_t k) const {
  DSM_CHECK_LT(k, payload_words(i));
  std::uint32_t v;
  std::memcpy(&v, Payload(i) + k * kWordBytes, sizeof(v));
  return v;
}

std::size_t IntervalRecord::RetainedBytes() const {
  std::size_t bytes = NoticeBytes();
  for (std::size_t i = 0; i < num_units_; ++i) bytes += EncodedBytes(i);
  return bytes;
}

const IntervalRecord* IntervalArchive::Append(IntervalRecord record) {
  std::lock_guard lock(mutex_);
  DSM_CHECK(records_.empty() || records_.back().seq() < record.seq())
      << "archive appends must be in increasing seq order";
  retained_bytes_ += record.RetainedBytes();
  records_.push_back(std::move(record));
  return &records_.back();
}

void IntervalArchive::Range(Seq from, Seq to,
                            std::vector<const IntervalRecord*>& out) const {
  std::lock_guard lock(mutex_);
  auto it = std::upper_bound(
      records_.begin(), records_.end(), from,
      [](Seq s, const IntervalRecord& r) { return s < r.seq(); });
  for (; it != records_.end() && it->seq() <= to; ++it) out.push_back(&*it);
}

std::size_t IntervalArchive::PruneThrough(Seq through) {
  std::lock_guard lock(mutex_);
  std::size_t reclaimed = 0;
  while (!records_.empty() && records_.front().seq() <= through) {
    retained_bytes_ -= records_.front().RetainedBytes();
    records_.pop_front();
    ++reclaimed;
  }
  return reclaimed;
}

std::size_t IntervalArchive::CountThrough(Seq through) const {
  std::lock_guard lock(mutex_);
  auto it = std::upper_bound(
      records_.begin(), records_.end(), through,
      [](Seq s, const IntervalRecord& r) { return s < r.seq(); });
  return static_cast<std::size_t>(it - records_.begin());
}

std::size_t IntervalArchive::size() const {
  std::lock_guard lock(mutex_);
  return records_.size();
}

std::size_t IntervalArchive::retained_bytes() const {
  std::lock_guard lock(mutex_);
  return retained_bytes_;
}

}  // namespace dsm
