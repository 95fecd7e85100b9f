// Twin/diff machinery: unit tests plus randomized property tests (the
// diff is the integrity-critical core of the multiple-writer protocol).
// A diff is tested in the form a release builds it: a one-unit interval
// record (core/write_notice.h).
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <vector>

#include "common/rng.h"
#include "core/write_notice.h"

namespace dsm {
namespace {

std::vector<std::byte> Bytes(const std::vector<std::uint32_t>& words) {
  std::vector<std::byte> out(words.size() * kWordBytes);
  std::memcpy(out.data(), words.data(), out.size());
  return out;
}

// The record a release archives for one unit with this twin and working
// copy.
IntervalRecord DiffOf(std::span<const std::byte> twin,
                      std::span<const std::byte> current) {
  IntervalDraft draft;
  draft.AddDiff(0, twin, current);
  VectorClock vc(1);
  vc[0] = 1;
  return IntervalRecord(0, 1, vc, draft);
}

TEST(Diff, EmptyWhenIdentical) {
  auto a = Bytes({1, 2, 3, 4});
  const IntervalRecord d = DiffOf(a, a);
  EXPECT_TRUE(d.runs(0).empty());
  EXPECT_EQ(d.payload_words(0), 0u);
  EXPECT_EQ(d.EncodedBytes(0), Diff::kHeaderBytes);
}

TEST(Diff, SingleWordChange) {
  auto twin = Bytes({1, 2, 3, 4});
  auto cur = Bytes({1, 9, 3, 4});
  const IntervalRecord d = DiffOf(twin, cur);
  ASSERT_EQ(d.runs(0).size(), 1u);
  EXPECT_EQ(d.runs(0)[0].word_offset, 1u);
  EXPECT_EQ(d.runs(0)[0].word_count, 1u);
  EXPECT_EQ(d.payload_word(0, 0), 9u);
}

TEST(Diff, AdjacentChangesCoalesceIntoOneRun) {
  auto twin = Bytes({1, 2, 3, 4, 5});
  auto cur = Bytes({1, 7, 8, 9, 5});
  const IntervalRecord d = DiffOf(twin, cur);
  ASSERT_EQ(d.runs(0).size(), 1u);
  EXPECT_EQ(d.runs(0)[0].word_offset, 1u);
  EXPECT_EQ(d.runs(0)[0].word_count, 3u);
}

TEST(Diff, DisjointChangesMakeSeparateRuns) {
  auto twin = Bytes({1, 2, 3, 4, 5, 6});
  auto cur = Bytes({9, 2, 3, 8, 5, 7});
  const IntervalRecord d = DiffOf(twin, cur);
  EXPECT_EQ(d.runs(0).size(), 3u);
  EXPECT_EQ(d.payload_words(0), 3u);
}

TEST(Diff, ApplyReconstructsModifications) {
  auto twin = Bytes({10, 20, 30, 40});
  auto cur = Bytes({11, 20, 33, 40});
  const IntervalRecord d = DiffOf(twin, cur);
  auto target = twin;  // an unmodified copy at another node
  d.Apply(0, target);
  EXPECT_EQ(target, cur);
}

TEST(Diff, ApplyPreservesConcurrentDisjointWrites) {
  // Two writers modify disjoint words of one page; applying writer A's
  // diff onto writer B's copy must keep B's modifications.
  auto base = Bytes({0, 0, 0, 0});
  auto a = Bytes({5, 0, 0, 0});
  auto b = Bytes({0, 0, 0, 7});
  const IntervalRecord da = DiffOf(base, a);
  auto merged = b;
  da.Apply(0, merged);
  EXPECT_EQ(merged, Bytes({5, 0, 0, 7}));
}

TEST(Diff, EncodedBytesAccountsRunsAndPayload) {
  auto twin = Bytes({0, 0, 0, 0});
  auto cur = Bytes({1, 0, 2, 0});
  const IntervalRecord d = DiffOf(twin, cur);
  EXPECT_EQ(d.EncodedBytes(0), Diff::kHeaderBytes +
                                   2 * Diff::kRunDescriptorBytes +
                                   2 * kWordBytes);
}

// --- Consecutive diffs vs. a brute-force word-map oracle --------------------
//
// What the fault path does with consecutive diffs of one writer: it counts
// one combined diff whose runs are MergeRuns of the members' runs, and
// applies the members oldest first.

// Word-map view of a diff: offset → value, in apply order.
std::map<std::uint32_t, std::uint32_t> WordMap(const IntervalRecord& d) {
  std::map<std::uint32_t, std::uint32_t> map;
  std::size_t p = 0;
  for (const DiffRun& run : d.runs(0)) {
    for (std::uint32_t i = 0; i < run.word_count; ++i) {
      map[run.word_offset + i] = d.payload_word(0, p++);
    }
  }
  return map;
}

// The oracle: absorb older then newer word by word (newer wins).
std::map<std::uint32_t, std::uint32_t> MergeOracle(
    const IntervalRecord& older, const IntervalRecord& newer) {
  std::map<std::uint32_t, std::uint32_t> map = WordMap(older);
  for (const auto& [offset, value] : WordMap(newer)) map[offset] = value;
  return map;
}

// Canonical runs: non-empty, sorted, maximal (a gap of at least one
// unmodified word between consecutive runs).
void ExpectCanonicalRuns(const std::vector<DiffRun>& runs,
                         std::size_t words_per_unit) {
  std::uint32_t prev_end = 0;
  bool first = true;
  for (const DiffRun& run : runs) {
    EXPECT_GT(run.word_count, 0u);
    if (!first) {
      EXPECT_GT(run.word_offset, prev_end);
    }
    prev_end = run.word_offset + run.word_count;
    first = false;
  }
  EXPECT_LE(prev_end, words_per_unit);
}

// The merged runs must be canonical and cover exactly the oracle's words,
// and applying older then newer to `base` must write exactly the oracle's
// values.  Returns the merged runs.
std::vector<DiffRun> ExpectChainMatchesOracle(
    const IntervalRecord& older, const IntervalRecord& newer,
    const std::vector<std::byte>& base) {
  const std::map<std::uint32_t, std::uint32_t> oracle =
      MergeOracle(older, newer);
  const std::vector<DiffRun> runs =
      Diff::MergeRuns(older.runs(0), newer.runs(0));
  ExpectCanonicalRuns(runs, base.size() / kWordBytes);
  std::vector<std::uint32_t> covered, oracle_words;
  for (const DiffRun& run : runs) {
    for (std::uint32_t i = 0; i < run.word_count; ++i) {
      covered.push_back(run.word_offset + i);
    }
  }
  for (const auto& [offset, value] : oracle) oracle_words.push_back(offset);
  EXPECT_EQ(covered, oracle_words);

  std::vector<std::byte> applied = base;
  older.Apply(0, applied);
  newer.Apply(0, applied);
  std::vector<std::byte> expected = base;
  for (const auto& [offset, value] : oracle) {
    std::memcpy(expected.data() + std::size_t{offset} * kWordBytes, &value,
                kWordBytes);
  }
  EXPECT_EQ(applied, expected);
  return runs;
}

TEST(DiffMerge, NewerWinsOnOverlap) {
  auto base = Bytes({0, 0, 0, 0});
  auto v1 = Bytes({1, 1, 0, 0});
  auto v2 = Bytes({2, 1, 9, 0});
  const std::vector<DiffRun> runs = ExpectChainMatchesOracle(
      DiffOf(base, v1), DiffOf(v1, v2), base);
  ASSERT_EQ(runs.size(), 1u);  // [0,3)
  EXPECT_EQ(Diff::RunWords(runs), 3u);
}

TEST(DiffMerge, UnionOfDisjointRuns) {
  auto base = Bytes({0, 0, 0, 0, 0});
  auto v1 = Bytes({1, 0, 0, 0, 0});
  auto v2 = Bytes({1, 0, 0, 0, 5});
  const std::vector<DiffRun> runs = ExpectChainMatchesOracle(
      DiffOf(base, v1), DiffOf(v1, v2), base);
  EXPECT_EQ(runs.size(), 2u);
  EXPECT_EQ(Diff::RunWords(runs), 2u);
}

TEST(DiffMerge, EmptyOlder) {
  auto base = Bytes({0, 0, 0, 0});
  auto v = Bytes({0, 7, 7, 0});
  const IntervalRecord empty = DiffOf(base, base);
  const IntervalRecord d = DiffOf(base, v);
  EXPECT_EQ(Diff::RunWords(ExpectChainMatchesOracle(empty, d, base)), 2u);
}

TEST(DiffMerge, EmptyNewer) {
  auto base = Bytes({0, 0, 0, 0});
  auto v = Bytes({3, 0, 0, 3});
  const IntervalRecord d = DiffOf(base, v);
  const IntervalRecord empty = DiffOf(base, base);
  const std::vector<DiffRun> runs = ExpectChainMatchesOracle(d, empty, base);
  EXPECT_EQ(runs.size(), d.runs(0).size());
  EXPECT_EQ(Diff::RunWords(runs), d.payload_words(0));
}

TEST(DiffMerge, BothEmpty) {
  auto base = Bytes({1, 2, 3});
  const IntervalRecord empty = DiffOf(base, base);
  EXPECT_TRUE(ExpectChainMatchesOracle(empty, empty, base).empty());
}

TEST(DiffMerge, FullyOverlappingRunsNewerWins) {
  auto base = Bytes({0, 0, 0, 0, 0, 0});
  auto v1 = Bytes({0, 1, 1, 1, 0, 0});
  auto v2 = Bytes({0, 2, 2, 2, 0, 0});
  const IntervalRecord older = DiffOf(base, v1);
  const IntervalRecord newer = DiffOf(base, v2);
  const std::vector<DiffRun> runs =
      ExpectChainMatchesOracle(older, newer, base);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(Diff::RunWords(runs), 3u);
}

TEST(DiffMerge, PartialOverlapKeepsOlderFringe) {
  // Older covers [1,4), newer covers [3,6): older survives on [1,3).
  auto base = Bytes({0, 0, 0, 0, 0, 0, 0});
  auto v1 = Bytes({0, 1, 1, 1, 0, 0, 0});
  auto v2 = Bytes({0, 0, 0, 2, 2, 2, 0});
  const IntervalRecord older = DiffOf(base, v1);
  const IntervalRecord newer = DiffOf(base, v2);
  const std::vector<DiffRun> runs =
      ExpectChainMatchesOracle(older, newer, base);
  ASSERT_EQ(runs.size(), 1u);  // [1,6) coalesces
  EXPECT_EQ(runs[0].word_offset, 1u);
  EXPECT_EQ(runs[0].word_count, 5u);
}

TEST(DiffMerge, AdjacentRunsCoalesceIntoOne) {
  auto base = Bytes({0, 0, 0, 0, 0, 0});
  auto v1 = Bytes({0, 5, 5, 0, 0, 0});  // run [1,3)
  auto v2 = Bytes({0, 0, 0, 6, 6, 0});  // run [3,5), adjacent
  const IntervalRecord older = DiffOf(base, v1);
  const IntervalRecord newer = DiffOf(base, v2);
  const std::vector<DiffRun> runs =
      ExpectChainMatchesOracle(older, newer, base);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].word_offset, 1u);
  EXPECT_EQ(runs[0].word_count, 4u);
}

TEST(DiffMerge, InterleavedDisjointRuns) {
  auto base = Bytes({0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0});
  auto v1 = Bytes({1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0});  // runs at 0, 4, 8
  auto v2 = Bytes({0, 0, 2, 0, 0, 0, 2, 0, 0, 0, 2, 0});  // runs at 2, 6, 10
  const IntervalRecord older = DiffOf(base, v1);
  const IntervalRecord newer = DiffOf(base, v2);
  const std::vector<DiffRun> runs =
      ExpectChainMatchesOracle(older, newer, base);
  EXPECT_EQ(runs.size(), 6u);
  EXPECT_EQ(Diff::RunWords(runs), 6u);
}

TEST(DiffMerge, NewerRunSpanningSeveralOlderRuns) {
  auto base = Bytes({0, 0, 0, 0, 0, 0, 0, 0});
  auto v1 = Bytes({1, 1, 0, 1, 0, 1, 1, 0});  // runs [0,2),[3,4),[5,7)
  auto v2 = Bytes({0, 2, 2, 2, 2, 2, 0, 0});  // one run [1,6) across them
  const IntervalRecord older = DiffOf(base, v1);
  const IntervalRecord newer = DiffOf(base, v2);
  ExpectChainMatchesOracle(older, newer, base);
}

// --- property tests --------------------------------------------------------

class DiffPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

// Round trip: for random twin/current pairs, Create then Apply onto the
// twin reproduces current exactly, and the diff never carries more words
// than differ.
TEST_P(DiffPropertyTest, CreateApplyRoundTrip) {
  Xoshiro256 rng(GetParam());
  const std::size_t words = 64 + rng.UniformInt(1024);
  std::vector<std::uint32_t> twin_w(words), cur_w(words);
  std::size_t expected_modified = 0;
  for (std::size_t i = 0; i < words; ++i) {
    twin_w[i] = static_cast<std::uint32_t>(rng.Next());
    if (rng.UniformDouble() < 0.3) {
      cur_w[i] = twin_w[i] + 1 + static_cast<std::uint32_t>(rng.UniformInt(100));
      ++expected_modified;
    } else {
      cur_w[i] = twin_w[i];
    }
  }
  auto twin = Bytes(twin_w);
  auto cur = Bytes(cur_w);
  const IntervalRecord d = DiffOf(twin, cur);
  EXPECT_EQ(d.payload_words(0), expected_modified);
  auto target = twin;
  d.Apply(0, target);
  EXPECT_EQ(target, cur);
}

// MergeRuns and in-order apply against the word-map oracle on independent
// random overlap patterns (not chained versions: arbitrary partial
// overlaps, adjacency, and containment all occur).
TEST_P(DiffPropertyTest, MergeMatchesWordMapOracle) {
  Xoshiro256 rng(GetParam() ^ 0xabcd);
  const std::size_t words = 32 + rng.UniformInt(512);
  std::vector<std::uint32_t> v0(words), v1(words), v2(words);
  for (std::size_t i = 0; i < words; ++i) {
    v0[i] = static_cast<std::uint32_t>(rng.Next());
    v1[i] = rng.UniformDouble() < 0.3 ? v0[i] + 1 : v0[i];
    v2[i] = rng.UniformDouble() < 0.3 ? v0[i] + 2 : v0[i];
  }
  auto b0 = Bytes(v0), b1 = Bytes(v1), b2 = Bytes(v2);
  const IntervalRecord older = DiffOf(b0, b1);
  const IntervalRecord newer = DiffOf(b0, b2);
  ExpectChainMatchesOracle(older, newer, b0);
}

// Runs are canonical: sorted, non-overlapping, maximal.
TEST_P(DiffPropertyTest, RunsAreCanonical) {
  Xoshiro256 rng(GetParam() ^ 0xbeef);
  const std::size_t words = 64 + rng.UniformInt(256);
  std::vector<std::uint32_t> twin_w(words), cur_w(words);
  for (std::size_t i = 0; i < words; ++i) {
    twin_w[i] = 1;
    cur_w[i] = rng.UniformDouble() < 0.5 ? 1u : 2u;
  }
  const IntervalRecord d = DiffOf(Bytes(twin_w), Bytes(cur_w));
  std::uint32_t prev_end = 0;
  bool first = true;
  for (const DiffRun& run : d.runs(0)) {
    EXPECT_GT(run.word_count, 0u);
    if (!first) {
      // Maximality: a gap of at least one unmodified word between runs.
      EXPECT_GT(run.word_offset, prev_end);
    }
    prev_end = run.word_offset + run.word_count;
    first = false;
  }
  EXPECT_LE(prev_end, words);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiffPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

}  // namespace
}  // namespace dsm
