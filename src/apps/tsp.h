// TSP (paper §5.5): branch-and-bound search for the minimum-cost tour.
//
// Shared data structures, all migratory (the paper's analysis):
//   * a pool of partially evaluated tours (multi-page, allocated by
//     whichever processor expands a node — tours allocated by other
//     processors but never read by the faulting one are the source of
//     both useless messages and useless data);
//   * a priority queue of pointers into the pool, under a lock;
//   * the current shortest tour, under its own lock.
//
// Partial tours shorter than the recursion threshold are expanded through
// the queue; deeper subtrees are solved by sequential DFS on the popping
// processor (the classic Rice TSP structure).
//
// Distances are integers, so every cost, bound and queue key is an exact
// integer sum and the search ends at the one optimal cost whichever
// processor finds it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "apps/app_common.h"

namespace dsm::apps {

struct TspParams {
  std::string label;
  int num_cities = 11;
  int queue_depth = 5;  // tours shorter than this stay in the queue
  std::uint64_t seed = 0x75B1A5ED;
};

TspParams TspDataset(const std::string& label);  // "11-city"

inline constexpr int kTspMaxCities = 16;

struct TspTour {
  std::int32_t ncity;                  // cities placed so far
  std::int32_t cost;                   // path cost so far
  std::int32_t bound;                  // lower bound for the full tour
  std::int32_t path[kTspMaxCities];
  std::int32_t pad[13];                // pad record to 128 bytes
};
static_assert(sizeof(TspTour) == 128);

class Tsp : public Application {
 public:
  explicit Tsp(TspParams params);

  const char* name() const override { return "TSP"; }
  std::string dataset() const override { return params_.label; }
  std::size_t heap_bytes() const override;

  void Setup(Runtime& rt) override;
  void Body(Proc& p) override;
  double result() const override { return result_; }

  // Host-side exhaustive solver for verification (small city counts).
  static std::int32_t BruteForce(const TspParams& params);

  // The deterministic distance matrix both solvers use.
  static std::vector<std::int32_t> Distances(const TspParams& params);

 private:
  TspParams params_;
  static constexpr std::size_t kPoolSize = 8192;

  SharedArray<std::int32_t> dist_;  // num_cities^2
  SharedArray<TspTour> pool_;
  SharedArray<std::int32_t> pq_keys_;  // binary heap: bound per entry
  SharedArray<std::int32_t> pq_tours_;
  SharedArray<std::int32_t> freelist_;
  SharedArray<std::int32_t> meta_;  // [0]=pq size, [1]=in-flight, [2]=free top
  SharedArray<std::int32_t> best_cost_;  // [0]=cost, [16..]=its path
  Reducer reducer_;
  double result_ = 0.0;

  static constexpr int kQueueLock = 0;
  static constexpr int kPoolLock = 1;
  static constexpr int kBestLock = 2;
};

}  // namespace dsm::apps
