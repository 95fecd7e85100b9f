// Water (SPLASH, paper §5.5): molecular dynamics with an O(n²/2) cutoff
// interaction.  The molecule array is shared, contiguous, block-partitioned;
// a lock protects the force accumulator of each molecule.
//
// Sharing patterns reproduced from the paper's analysis:
//   * intra-molecular phase: owners rewrite their molecule records
//     (including owner-only scratch fields — the "private data in each
//     molecule data structure" that becomes piggybacked useless data);
//     write-write false sharing on the boundary pages between regions,
//     whose delivered data the faulting processor never reads (it reads
//     the FOLLOWING half of the array, not the preceding neighbour) —
//     the paper's source of useless messages;
//   * inter-molecular phase: each processor reads positions of the n/2
//     molecules following its own (wrap-around) and accumulates force
//     contributions under per-molecule locks (migratory data).
//
// Forces are fixed point: each pair's contribution is rounded to an
// integer before it is summed, so a molecule's force, and the result, are
// exact integer sums that no grant order or processor count can change.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "apps/app_common.h"

namespace dsm::apps {

struct WaterParams {
  std::string label;
  std::size_t num_molecules;
  int steps = 2;
  float cutoff2 = 3.4f;  // squared interaction cutoff
  float dt = 0.002f;
};

WaterParams WaterDataset(const std::string& label);  // "512"

// Fixed-point scale of WaterMol::force: 16 fraction bits.
inline constexpr double kWaterForceScale = 65536.0;

struct WaterMol {
  float pos[3];
  float vel[3];
  std::int32_t force[3];  // fixed point, kWaterForceScale per unit
  float scratch[15];  // intra-phase bookkeeping; owner-only
};
static_assert(sizeof(WaterMol) == 96);

class Water : public Application {
 public:
  explicit Water(WaterParams params);

  const char* name() const override { return "Water"; }
  std::string dataset() const override { return params_.label; }
  std::size_t heap_bytes() const override;

  void Setup(Runtime& rt) override;
  void Body(Proc& p) override;
  double result() const override { return result_; }

 private:
  WaterParams params_;
  SharedArray<WaterMol> mols_;
  Reducer reducer_;
  double result_ = 0.0;
};

}  // namespace dsm::apps
