// Twin/diff machinery: unit tests plus randomized property tests (the
// diff is the integrity-critical core of the multiple-writer protocol).
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "mem/diff.h"

namespace dsm {
namespace {

std::vector<std::byte> Bytes(const std::vector<std::uint32_t>& words) {
  std::vector<std::byte> out(words.size() * kWordBytes);
  std::memcpy(out.data(), words.data(), out.size());
  return out;
}

TEST(Diff, EmptyWhenIdentical) {
  auto a = Bytes({1, 2, 3, 4});
  Diff d = Diff::Create(a, a);
  EXPECT_TRUE(d.empty());
  EXPECT_EQ(d.payload_words(), 0u);
  EXPECT_EQ(d.EncodedBytes(), Diff::kHeaderBytes);
}

TEST(Diff, SingleWordChange) {
  auto twin = Bytes({1, 2, 3, 4});
  auto cur = Bytes({1, 9, 3, 4});
  Diff d = Diff::Create(twin, cur);
  ASSERT_EQ(d.num_runs(), 1u);
  EXPECT_EQ(d.runs()[0].word_offset, 1u);
  EXPECT_EQ(d.runs()[0].word_count, 1u);
  EXPECT_EQ(d.payload_word(0), 9u);
}

TEST(Diff, AdjacentChangesCoalesceIntoOneRun) {
  auto twin = Bytes({1, 2, 3, 4, 5});
  auto cur = Bytes({1, 7, 8, 9, 5});
  Diff d = Diff::Create(twin, cur);
  ASSERT_EQ(d.num_runs(), 1u);
  EXPECT_EQ(d.runs()[0].word_offset, 1u);
  EXPECT_EQ(d.runs()[0].word_count, 3u);
}

TEST(Diff, DisjointChangesMakeSeparateRuns) {
  auto twin = Bytes({1, 2, 3, 4, 5, 6});
  auto cur = Bytes({9, 2, 3, 8, 5, 7});
  Diff d = Diff::Create(twin, cur);
  EXPECT_EQ(d.num_runs(), 3u);
  EXPECT_EQ(d.payload_words(), 3u);
}

TEST(Diff, ApplyReconstructsModifications) {
  auto twin = Bytes({10, 20, 30, 40});
  auto cur = Bytes({11, 20, 33, 40});
  Diff d = Diff::Create(twin, cur);
  auto target = twin;  // an unmodified copy at another node
  d.Apply(target);
  EXPECT_EQ(target, cur);
}

TEST(Diff, ApplyPreservesConcurrentDisjointWrites) {
  // Two writers modify disjoint words of one page; applying writer A's
  // diff onto writer B's copy must keep B's modifications.
  auto base = Bytes({0, 0, 0, 0});
  auto a = Bytes({5, 0, 0, 0});
  auto b = Bytes({0, 0, 0, 7});
  Diff da = Diff::Create(base, a);
  auto merged = b;
  da.Apply(merged);
  EXPECT_EQ(merged, Bytes({5, 0, 0, 7}));
}

TEST(Diff, EncodedBytesAccountsRunsAndPayload) {
  auto twin = Bytes({0, 0, 0, 0});
  auto cur = Bytes({1, 0, 2, 0});
  Diff d = Diff::Create(twin, cur);
  EXPECT_EQ(d.EncodedBytes(), Diff::kHeaderBytes +
                                  2 * Diff::kRunDescriptorBytes +
                                  2 * kWordBytes);
}

// Archive GC releases a reclaimed record's payload while flattened chains
// keep reading the record's runs and wire size: everything but the byte
// storage must survive, for Create and Merge outputs alike.
TEST(Diff, ReleasePayloadKeepsRunsAndSizes) {
  auto base = Bytes({0, 0, 0, 0, 0, 0, 0, 0});
  auto v1 = Bytes({1, 1, 0, 0, 2, 0, 0, 0});
  auto v2 = Bytes({1, 3, 3, 0, 2, 0, 0, 4});
  const Diff created = Diff::Create(base, v1);
  const Diff merged =
      Diff::Merge(created, Diff::Create(v1, v2), v1.size() / kWordBytes);
  for (const Diff& original : {created, merged}) {
    Diff d = original;
    ASSERT_GT(d.payload_words(), 0u);
    d.ReleasePayload();
    EXPECT_TRUE(d.payload().empty());
    EXPECT_EQ(d.payload().capacity(), 0u);
    ASSERT_EQ(d.num_runs(), original.num_runs());
    for (std::size_t r = 0; r < d.num_runs(); ++r) {
      EXPECT_EQ(d.runs()[r].word_offset, original.runs()[r].word_offset);
      EXPECT_EQ(d.runs()[r].word_count, original.runs()[r].word_count);
    }
    EXPECT_EQ(d.payload_words(), original.payload_words());
    EXPECT_EQ(d.payload_bytes(), original.payload_bytes());
    EXPECT_EQ(d.EncodedBytes(), original.EncodedBytes());
    // The data is gone: applying (or merging) it is a checked error.
    auto target = base;
    EXPECT_THROW(d.Apply(target), CheckError);
    EXPECT_THROW(Diff::Merge(d, original, 8), CheckError);
  }
}

TEST(DiffMerge, NewerWinsOnOverlap) {
  auto base = Bytes({0, 0, 0, 0});
  auto v1 = Bytes({1, 1, 0, 0});
  auto v2 = Bytes({2, 1, 9, 0});
  Diff d1 = Diff::Create(base, v1);
  Diff d2 = Diff::Create(v1, v2);
  Diff merged = Diff::Merge(d1, d2, 4);
  auto target = base;
  merged.Apply(target);
  EXPECT_EQ(target, v2);
}

TEST(DiffMerge, UnionOfDisjointRuns) {
  auto base = Bytes({0, 0, 0, 0, 0});
  auto v1 = Bytes({1, 0, 0, 0, 0});
  auto v2 = Bytes({1, 0, 0, 0, 5});
  Diff d1 = Diff::Create(base, v1);
  Diff d2 = Diff::Create(v1, v2);
  Diff merged = Diff::Merge(d1, d2, 5);
  EXPECT_EQ(merged.payload_words(), 2u);
  auto target = base;
  merged.Apply(target);
  EXPECT_EQ(target, v2);
}

// --- Merge vs. a brute-force word-map oracle -------------------------------

// Word-map view of a diff: offset → value, in apply order.
std::map<std::uint32_t, std::uint32_t> WordMap(const Diff& d) {
  std::map<std::uint32_t, std::uint32_t> map;
  std::size_t p = 0;
  for (const DiffRun& run : d.runs()) {
    for (std::uint32_t i = 0; i < run.word_count; ++i) {
      map[run.word_offset + i] = d.payload_word(p++);
    }
  }
  return map;
}

// The oracle: absorb older then newer word by word (newer wins), exactly
// the semantics the O(runs + payload) two-pointer merge must reproduce.
std::map<std::uint32_t, std::uint32_t> MergeOracle(const Diff& older,
                                                   const Diff& newer) {
  std::map<std::uint32_t, std::uint32_t> map = WordMap(older);
  for (const auto& [offset, value] : WordMap(newer)) map[offset] = value;
  return map;
}

// Canonical runs: non-empty, sorted, maximal (a gap of at least one
// unmodified word between consecutive runs).
void ExpectCanonicalRuns(const Diff& d, std::size_t words_per_unit) {
  std::uint32_t prev_end = 0;
  bool first = true;
  for (const DiffRun& run : d.runs()) {
    EXPECT_GT(run.word_count, 0u);
    if (!first) {
      EXPECT_GT(run.word_offset, prev_end);
    }
    prev_end = run.word_offset + run.word_count;
    first = false;
  }
  EXPECT_LE(prev_end, words_per_unit);
}

void ExpectMergeMatchesOracle(const Diff& older, const Diff& newer,
                              std::size_t words_per_unit) {
  const Diff merged = Diff::Merge(older, newer, words_per_unit);
  EXPECT_EQ(WordMap(merged), MergeOracle(older, newer));
  ExpectCanonicalRuns(merged, words_per_unit);
}

TEST(DiffMerge, EmptyOlder) {
  auto base = Bytes({0, 0, 0, 0});
  auto v = Bytes({0, 7, 7, 0});
  Diff empty = Diff::Create(base, base);
  Diff d = Diff::Create(base, v);
  ExpectMergeMatchesOracle(empty, d, 4);
  const Diff merged = Diff::Merge(empty, d, 4);
  EXPECT_EQ(merged.payload_words(), 2u);
}

TEST(DiffMerge, EmptyNewer) {
  auto base = Bytes({0, 0, 0, 0});
  auto v = Bytes({3, 0, 0, 3});
  Diff d = Diff::Create(base, v);
  Diff empty = Diff::Create(base, base);
  ExpectMergeMatchesOracle(d, empty, 4);
  const Diff merged = Diff::Merge(d, empty, 4);
  EXPECT_EQ(WordMap(merged), WordMap(d));
}

TEST(DiffMerge, BothEmpty) {
  auto base = Bytes({1, 2, 3});
  Diff empty = Diff::Create(base, base);
  const Diff merged = Diff::Merge(empty, empty, 3);
  EXPECT_TRUE(merged.empty());
  EXPECT_EQ(merged.payload_words(), 0u);
}

TEST(DiffMerge, FullyOverlappingRunsNewerWins) {
  auto base = Bytes({0, 0, 0, 0, 0, 0});
  auto v1 = Bytes({0, 1, 1, 1, 0, 0});
  auto v2 = Bytes({0, 2, 2, 2, 0, 0});
  Diff older = Diff::Create(base, v1);
  Diff newer = Diff::Create(base, v2);
  ExpectMergeMatchesOracle(older, newer, 6);
  const Diff merged = Diff::Merge(older, newer, 6);
  ASSERT_EQ(merged.num_runs(), 1u);
  EXPECT_EQ(merged.payload_words(), 3u);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(merged.payload_word(i), 2u);
}

TEST(DiffMerge, PartialOverlapKeepsOlderFringe) {
  // Older covers [1,4), newer covers [3,6): older survives on [1,3).
  auto base = Bytes({0, 0, 0, 0, 0, 0, 0});
  auto v1 = Bytes({0, 1, 1, 1, 0, 0, 0});
  auto v2 = Bytes({0, 0, 0, 2, 2, 2, 0});
  Diff older = Diff::Create(base, v1);
  Diff newer = Diff::Create(base, v2);
  ExpectMergeMatchesOracle(older, newer, 7);
  const Diff merged = Diff::Merge(older, newer, 7);
  ASSERT_EQ(merged.num_runs(), 1u);  // [1,6) coalesces
  EXPECT_EQ(merged.runs()[0].word_offset, 1u);
  EXPECT_EQ(merged.runs()[0].word_count, 5u);
}

TEST(DiffMerge, AdjacentRunsCoalesceIntoOne) {
  auto base = Bytes({0, 0, 0, 0, 0, 0});
  auto v1 = Bytes({0, 5, 5, 0, 0, 0});  // run [1,3)
  auto v2 = Bytes({0, 0, 0, 6, 6, 0});  // run [3,5), adjacent
  Diff older = Diff::Create(base, v1);
  Diff newer = Diff::Create(base, v2);
  ExpectMergeMatchesOracle(older, newer, 6);
  const Diff merged = Diff::Merge(older, newer, 6);
  ASSERT_EQ(merged.num_runs(), 1u);
  EXPECT_EQ(merged.runs()[0].word_offset, 1u);
  EXPECT_EQ(merged.runs()[0].word_count, 4u);
}

TEST(DiffMerge, InterleavedDisjointRuns) {
  auto base = Bytes({0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0});
  auto v1 = Bytes({1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0});  // runs at 0, 4, 8
  auto v2 = Bytes({0, 0, 2, 0, 0, 0, 2, 0, 0, 0, 2, 0});  // runs at 2, 6, 10
  Diff older = Diff::Create(base, v1);
  Diff newer = Diff::Create(base, v2);
  ExpectMergeMatchesOracle(older, newer, 12);
  const Diff merged = Diff::Merge(older, newer, 12);
  EXPECT_EQ(merged.num_runs(), 6u);
  EXPECT_EQ(merged.payload_words(), 6u);
}

TEST(DiffMerge, NewerRunSpanningSeveralOlderRuns) {
  auto base = Bytes({0, 0, 0, 0, 0, 0, 0, 0});
  auto v1 = Bytes({1, 1, 0, 1, 0, 1, 1, 0});  // runs [0,2),[3,4),[5,7)
  auto v2 = Bytes({0, 2, 2, 2, 2, 2, 0, 0});  // one run [1,6) across them
  Diff older = Diff::Create(base, v1);
  Diff newer = Diff::Create(base, v2);
  ExpectMergeMatchesOracle(older, newer, 8);
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
  Diff d = Diff::Create(twin, cur);
  EXPECT_EQ(d.payload_words(), expected_modified);
  auto target = twin;
  d.Apply(target);
  EXPECT_EQ(target, cur);
}

// Merge equivalence: applying (d1 then d2) equals applying Merge(d1, d2).
TEST_P(DiffPropertyTest, MergeEquivalentToSequentialApply) {
  Xoshiro256 rng(GetParam() ^ 0xfeed);
  const std::size_t words = 32 + rng.UniformInt(512);
  std::vector<std::uint32_t> v0(words), v1(words), v2(words);
  for (std::size_t i = 0; i < words; ++i) {
    v0[i] = static_cast<std::uint32_t>(rng.Next());
    v1[i] = rng.UniformDouble() < 0.25 ? v0[i] + 1 : v0[i];
    v2[i] = rng.UniformDouble() < 0.25 ? v1[i] + 1 : v1[i];
  }
  auto b0 = Bytes(v0), b1 = Bytes(v1), b2 = Bytes(v2);
  Diff d1 = Diff::Create(b0, b1);
  Diff d2 = Diff::Create(b1, b2);

  auto sequential = b0;
  d1.Apply(sequential);
  d2.Apply(sequential);

  auto merged_target = b0;
  Diff merged = Diff::Merge(d1, d2, words);
  merged.Apply(merged_target);

  EXPECT_EQ(sequential, merged_target);
  // The merged payload never exceeds the sum of the parts.
  EXPECT_LE(merged.payload_words(), d1.payload_words() + d2.payload_words());
}

// Merge against the word-map oracle on independent random overlap
// patterns (not chained versions: arbitrary partial overlaps, adjacency,
// and containment all occur).
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
  Diff older = Diff::Create(b0, b1);
  Diff newer = Diff::Create(b0, b2);
  ExpectMergeMatchesOracle(older, newer, words);
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
  Diff d = Diff::Create(Bytes(twin_w), Bytes(cur_w));
  std::uint32_t prev_end = 0;
  bool first = true;
  for (const DiffRun& run : d.runs()) {
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

// Archive GC reconstructs merged-chain wire sizes from payload-free run
// lists, so MergeRuns must reproduce Merge's run structure exactly.
TEST_P(DiffPropertyTest, MergeRunsMatchesMergeRunStructure) {
  Xoshiro256 rng(GetParam() ^ 0x6c0de);
  const std::size_t words = 64 + rng.UniformInt(256);
  std::vector<std::uint32_t> v0(words), v1(words), v2(words);
  for (std::size_t i = 0; i < words; ++i) {
    v0[i] = static_cast<std::uint32_t>(rng.Next());
    v1[i] = rng.UniformDouble() < 0.4 ? v0[i] + 1 : v0[i];
    v2[i] = rng.UniformDouble() < 0.4 ? v0[i] + 2 : v0[i];
  }
  auto b0 = Bytes(v0), b1 = Bytes(v1), b2 = Bytes(v2);
  const Diff older = Diff::Create(b0, b1);
  const Diff newer = Diff::Create(b0, b2);
  const Diff merged = Diff::Merge(older, newer, words);
  const std::vector<DiffRun> runs =
      Diff::MergeRuns(older.runs(), newer.runs());
  ASSERT_EQ(runs.size(), merged.runs().size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].word_offset, merged.runs()[i].word_offset) << i;
    EXPECT_EQ(runs[i].word_count, merged.runs()[i].word_count) << i;
  }
  EXPECT_EQ(Diff::RunWords(runs), merged.payload_words());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiffPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

}  // namespace
}  // namespace dsm
