#include "mem/diff.h"

#include <algorithm>
#include <cstring>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "common/check.h"

namespace dsm {
namespace {

// All loads go through std::memcpy: the underlying storage is std::byte
// buffers (unit images, twins), and dereferencing them through a
// reinterpret_cast'd std::uint32_t* would be undefined behavior (strict
// aliasing; alignment is only guaranteed by the owning allocations).
// Compilers turn these into single mov instructions.
inline std::uint32_t Load32(const std::byte* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline std::uint64_t Load64(const std::byte* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

// Nonzero if either 32-bit lane of `x` is zero (may rarely report a false
// positive in the high lane when the low lane is zero — callers treat a hit
// as "re-check word by word", so only speed, not correctness, depends on
// exactness).
inline std::uint64_t ZeroLaneMask(std::uint64_t x) {
  return (x - 0x0000000100000001ull) & ~x & 0x8000000080000000ull;
}

// True if all 16 words of the 64-byte block at `t` differ from the block at
// `c` — the run-extension probe.  SSE2 (x86-64 baseline) compares four
// words per instruction; the scalar fallback folds zero-lane masks of
// 64-bit XORs.
inline bool AllWordsDiffer64(const std::byte* t, const std::byte* c) {
#if defined(__SSE2__)
  const auto* tv = reinterpret_cast<const __m128i*>(t);
  const auto* cv = reinterpret_cast<const __m128i*>(c);
  const __m128i eq01 =
      _mm_or_si128(_mm_cmpeq_epi32(_mm_loadu_si128(tv),
                                   _mm_loadu_si128(cv)),
                   _mm_cmpeq_epi32(_mm_loadu_si128(tv + 1),
                                   _mm_loadu_si128(cv + 1)));
  const __m128i eq23 =
      _mm_or_si128(_mm_cmpeq_epi32(_mm_loadu_si128(tv + 2),
                                   _mm_loadu_si128(cv + 2)),
                   _mm_cmpeq_epi32(_mm_loadu_si128(tv + 3),
                                   _mm_loadu_si128(cv + 3)));
  return _mm_movemask_epi8(_mm_or_si128(eq01, eq23)) == 0;
#else
  std::uint64_t any_equal = 0;
  for (int k = 0; k < 64; k += 8) {
    any_equal |= ZeroLaneMask(Load64(t + k) ^ Load64(c + k));
  }
  return any_equal == 0;
#endif
}

}  // namespace

std::size_t Diff::FindRuns(std::span<const std::byte> twin,
                           std::span<const std::byte> current,
                           std::vector<DiffRun>& runs) {
  DSM_CHECK_EQ(twin.size(), current.size());
  DSM_CHECK_EQ(twin.size() % kWordBytes, 0u);
  const std::size_t num_words = twin.size() / kWordBytes;
  const std::byte* tp = twin.data();
  const std::byte* cp = current.data();

  // Find the maximal runs of differing words, 64 bits at a time.  Equal
  // stretches skip a word pair per compare and escalate to whole cache
  // lines (memcmp vectorizes) once 64 equal bytes are seen in a row, so
  // dense regions never pay for failing wide probes; runs extend four
  // words per iteration off two 64-bit XORs.
  std::size_t i = 0;
  std::size_t total_words = 0;
  while (i < num_words) {
    const std::size_t streak_base = i;
    while (i + 2 <= num_words &&
           Load64(tp + i * kWordBytes) == Load64(cp + i * kWordBytes)) {
      i += 2;
      if (i - streak_base == 16) {  // long equal stretch: leap cache lines
        while (i + 16 <= num_words &&
               std::memcmp(tp + i * kWordBytes, cp + i * kWordBytes, 64) ==
                   0) {
          i += 16;
        }
        while (i + 2 <= num_words &&
               Load64(tp + i * kWordBytes) == Load64(cp + i * kWordBytes)) {
          i += 2;
        }
        break;
      }
    }
    if (i >= num_words) break;
    if (Load32(tp + i * kWordBytes) == Load32(cp + i * kWordBytes)) {
      ++i;  // second word of an unequal pair starts the run
      continue;
    }
    const std::size_t run_start = i;
    ++i;
    // Extend a cache line at a time while every word in the block differs,
    // then pin the exact boundary word by word.
    while (i + 16 <= num_words &&
           AllWordsDiffer64(tp + i * kWordBytes, cp + i * kWordBytes)) {
      i += 16;
    }
    while (i + 2 <= num_words) {
      const std::uint64_t x =
          Load64(tp + i * kWordBytes) ^ Load64(cp + i * kWordBytes);
      if (ZeroLaneMask(x) != 0) break;  // conservative: word loop decides
      i += 2;
    }
    while (i < num_words &&
           Load32(tp + i * kWordBytes) != Load32(cp + i * kWordBytes)) {
      ++i;
    }
    runs.push_back({static_cast<std::uint32_t>(run_start),
                    static_cast<std::uint32_t>(i - run_start)});
    total_words += i - run_start;
  }
  return total_words;
}

std::vector<DiffRun> Diff::MergeRuns(std::span<const DiffRun> a,
                                     std::span<const DiffRun> b) {
  std::vector<DiffRun> out;
  out.reserve(a.size() + b.size());
  auto append = [&out](std::uint32_t offset, std::uint32_t count) {
    if (count == 0) return;
    if (!out.empty() &&
        out.back().word_offset + out.back().word_count >= offset) {
      const std::uint32_t end =
          std::max(out.back().word_offset + out.back().word_count,
                   offset + count);
      out.back().word_count = end - out.back().word_offset;
    } else {
      out.push_back({offset, count});
    }
  };
  std::size_t ai = 0, bi = 0;
  while (ai < a.size() && bi < b.size()) {
    if (a[ai].word_offset <= b[bi].word_offset) {
      append(a[ai].word_offset, a[ai].word_count);
      ++ai;
    } else {
      append(b[bi].word_offset, b[bi].word_count);
      ++bi;
    }
  }
  for (; ai < a.size(); ++ai) append(a[ai].word_offset, a[ai].word_count);
  for (; bi < b.size(); ++bi) append(b[bi].word_offset, b[bi].word_count);
  return out;
}

std::size_t Diff::RunWords(std::span<const DiffRun> runs) {
  std::size_t total = 0;
  for (const DiffRun& r : runs) total += r.word_count;
  return total;
}

void Diff::ApplyRuns(std::span<const DiffRun> runs, const std::byte* payload,
                     std::span<std::byte> dst) {
  const std::size_t num_words = dst.size() / kWordBytes;
  for (const DiffRun& run : runs) {
    DSM_CHECK_LE(static_cast<std::size_t>(run.word_offset) + run.word_count,
                 num_words)
        << "diff run exceeds destination unit";
    const std::size_t run_bytes = std::size_t{run.word_count} * kWordBytes;
    std::memcpy(dst.data() + std::size_t{run.word_offset} * kWordBytes,
                payload, run_bytes);
    payload += run_bytes;
  }
}

void Diff::CopyRuns(std::span<const DiffRun> runs,
                    std::span<const std::byte> src, std::span<std::byte> dst) {
  DSM_CHECK_EQ(src.size(), dst.size());
  const std::size_t num_words = dst.size() / kWordBytes;
  for (const DiffRun& run : runs) {
    DSM_CHECK_LE(static_cast<std::size_t>(run.word_offset) + run.word_count,
                 num_words)
        << "diff run exceeds destination unit";
    const std::size_t offset = std::size_t{run.word_offset} * kWordBytes;
    std::memcpy(dst.data() + offset, src.data() + offset,
                std::size_t{run.word_count} * kWordBytes);
  }
}

}  // namespace dsm
