// Host-side throughput of the twin/diff machinery (the simulator's hot
// paths): diff creation and application across unit sizes and
// modification densities.  A diff is built as a release builds it: a
// one-unit interval record from an interval draft.
#include <benchmark/benchmark.h>

#include <cstring>
#include <vector>

#include "common/rng.h"
#include "core/write_notice.h"

namespace dsm {
namespace {

struct Buffers {
  std::vector<std::byte> twin;
  std::vector<std::byte> current;
};

Buffers MakeBuffers(std::size_t bytes, double modified_fraction,
                    std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Buffers b;
  b.twin.resize(bytes);
  b.current.resize(bytes);
  auto* tw = reinterpret_cast<std::uint32_t*>(b.twin.data());
  auto* cur = reinterpret_cast<std::uint32_t*>(b.current.data());
  for (std::size_t i = 0; i < bytes / kWordBytes; ++i) {
    tw[i] = static_cast<std::uint32_t>(rng.Next());
    cur[i] = rng.UniformDouble() < modified_fraction ? tw[i] + 1 : tw[i];
  }
  return b;
}

// The one-unit record a release builds from `b`: runs found between twin
// and working copy, words copied out of the working copy.  `draft` is
// reused across calls, as the release reuses its own.
IntervalRecord ReleaseDiff(const Buffers& b, IntervalDraft& draft) {
  static const VectorClock kClock(1);
  draft.Clear();
  draft.AddDiff(0, b.twin, b.current);
  return IntervalRecord(0, 1, kClock, draft);
}

void BM_DiffCreate(benchmark::State& state) {
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  const double density = static_cast<double>(state.range(1)) / 100.0;
  Buffers b = MakeBuffers(bytes, density, 42);
  IntervalDraft draft;
  for (auto _ : state) {
    IntervalRecord rec = ReleaseDiff(b, draft);
    benchmark::DoNotOptimize(rec);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_DiffCreate)
    ->Args({4096, 10})
    ->Args({4096, 50})
    ->Args({4096, 100})
    ->Args({8192, 50})
    ->Args({16384, 50});

// Structured buffers: `num_runs` equally spaced runs of `run_words`
// modified words each, the rest untouched — the shape real applications
// produce (block-partitioned writers touch contiguous stretches).
Buffers MakeRunBuffers(std::size_t bytes, std::size_t num_runs,
                       std::size_t run_words, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Buffers b;
  b.twin.resize(bytes);
  b.current.resize(bytes);
  const std::size_t words = bytes / kWordBytes;
  std::vector<std::uint32_t> tw(words), cur(words);
  for (std::size_t i = 0; i < words; ++i) {
    tw[i] = static_cast<std::uint32_t>(rng.Next());
    cur[i] = tw[i];
  }
  const std::size_t stride = words / num_runs;
  for (std::size_t r = 0; r < num_runs; ++r) {
    for (std::size_t i = 0; i < run_words; ++i) {
      cur[r * stride + i] = tw[r * stride + i] + 1;
    }
  }
  std::memcpy(b.twin.data(), tw.data(), bytes);
  std::memcpy(b.current.data(), cur.data(), bytes);
  return b;
}

// The perf-gate cases (see ISSUE 2 / README "Performance methodology"):
// sparse = a few short runs separated by long equal stretches; dense =
// nearly every word modified in large contiguous runs.
void BM_DiffCreateSparse(benchmark::State& state) {
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  Buffers b = MakeRunBuffers(bytes, 4, 8, 42);
  IntervalDraft draft;
  for (auto _ : state) {
    IntervalRecord rec = ReleaseDiff(b, draft);
    benchmark::DoNotOptimize(rec);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_DiffCreateSparse)->Arg(4096)->Arg(16384);

void BM_DiffCreateDense(benchmark::State& state) {
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  const std::size_t words = bytes / kWordBytes;
  // 8 runs covering ~94% of the unit, short equal gaps between them.
  Buffers b = MakeRunBuffers(bytes, 8, words / 8 - 8, 42);
  IntervalDraft draft;
  for (auto _ : state) {
    IntervalRecord rec = ReleaseDiff(b, draft);
    benchmark::DoNotOptimize(rec);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_DiffCreateDense)->Arg(4096)->Arg(16384);

void BM_DiffApply(benchmark::State& state) {
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  Buffers b = MakeBuffers(bytes, 0.5, 42);
  IntervalDraft draft;
  const IntervalRecord rec = ReleaseDiff(b, draft);
  std::vector<std::byte> target = b.twin;
  for (auto _ : state) {
    rec.Apply(0, target);
    benchmark::DoNotOptimize(target.data());
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(rec.payload_words(0) * kWordBytes));
}
BENCHMARK(BM_DiffApply)->Arg(4096)->Arg(16384);

}  // namespace
}  // namespace dsm

