#include "apps/water.h"

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <vector>

#include "common/check.h"
#include "common/rng.h"

namespace dsm::apps {

WaterParams WaterDataset(const std::string& label) {
  if (label == "512") return {"512", 1024, 2};
  if (label == "tiny") return {"tiny", 64, 2};
  DSM_CHECK(false) << "unknown Water dataset " << label;
  return {};
}

Water::Water(WaterParams params) : params_(std::move(params)) {}

std::size_t Water::heap_bytes() const {
  return params_.num_molecules * sizeof(WaterMol) + (64u << 10);
}

void Water::Setup(Runtime& rt) {
  mols_ = rt.AllocUnitAligned<WaterMol>(params_.num_molecules, "molecules");
  reducer_.Setup(rt, "water_check");
}

void Water::Body(Proc& p) {
  const std::size_t n = params_.num_molecules;
  const int P = p.nprocs();
  const Range own = BlockRange(n, P, p.id());

  auto fld = [&](std::size_t m, std::size_t off) {
    return mols_.addr_of(m) + off;
  };

  // Owners initialize their molecules (same value stream regardless of P:
  // the generator is advanced per molecule index).
  {
    Xoshiro256 rng(0x57A7E5u);
    for (std::size_t m = 0; m < n; ++m) {
      WaterMol mol{};
      for (int k = 0; k < 3; ++k) {
        mol.pos[k] = static_cast<float>(rng.UniformDouble(0.0, 4.0));
        mol.vel[k] = static_cast<float>(rng.UniformDouble(-0.05, 0.05));
      }
      if (own.contains(m)) p.Write(mols_, m, mol);
    }
  }
  p.Barrier();

  for (int step = 0; step < params_.steps; ++step) {
    // --- Intra-molecular phase: owners rewrite their own records.
    for (std::size_t m = own.begin; m < own.end; ++m) {
      float pos[3], vel[3];
      for (int k = 0; k < 3; ++k) {
        pos[k] = p.ReadAt<float>(fld(m, offsetof(WaterMol, pos) + 4 * k));
        vel[k] = p.ReadAt<float>(fld(m, offsetof(WaterMol, vel) + 4 * k));
      }
      // Update the owner-only scratch fields (internal degrees of
      // freedom of the 3-atom molecule).  Forces are NOT touched here:
      // they are read and then reset in the update phase, so diffs
      // delivered at the intra-phase fault stay live until read.
      for (int k = 0; k < 15; ++k) {
        p.WriteAt<float>(
            fld(m, offsetof(WaterMol, scratch) + 4 * k),
            std::sin(pos[k % 3]) * 0.01f + vel[(k + 1) % 3] * 0.1f +
                static_cast<float>(step));
      }
      p.Compute(60);
    }
    p.Barrier();

    // --- Inter-molecular phase: pairs (m, j) for the n/2 molecules
    // following m, wrap-around.  Contributions accumulate privately, then
    // flush under per-molecule locks.
    std::vector<std::int64_t> df(3 * n, 0);
    std::vector<bool> touched(n, false);
    for (std::size_t m = own.begin; m < own.end; ++m) {
      float pm[3];
      for (int k = 0; k < 3; ++k) {
        pm[k] = p.ReadAt<float>(fld(m, offsetof(WaterMol, pos) + 4 * k));
      }
      for (std::size_t d = 1; d <= n / 2; ++d) {
        const std::size_t j = (m + d) % n;
        float pj[3];
        for (int k = 0; k < 3; ++k) {
          pj[k] = p.ReadAt<float>(fld(j, offsetof(WaterMol, pos) + 4 * k));
        }
        float dr[3];
        for (int k = 0; k < 3; ++k) dr[k] = pj[k] - pm[k];
        const float r2 = dr[0] * dr[0] + dr[1] * dr[1] + dr[2] * dr[2];
        p.Compute(20);  // distance + cutoff test
        if (r2 > params_.cutoff2 || r2 < 1e-6f) continue;
        // Soft-sphere pair force (stands in for the water potential; the
        // modelled cost below reflects the real 9-site computation).
        const float inv2 = 1.0f / (r2 + 0.01f);
        const float f = (inv2 * inv2 - 0.1f * inv2);
        for (int k = 0; k < 3; ++k) {
          const std::int64_t q = std::llround(static_cast<double>(f) * dr[k] *
                                              kWaterForceScale);
          df[3 * m + k] -= q;
          df[3 * j + k] += q;
        }
        touched[m] = true;
        touched[j] = true;
        p.Compute(3000);  // 3x3 site-site interactions, sqrt/exp terms
      }
    }
    // Flush accumulated contributions under the per-molecule locks.
    for (std::size_t m = 0; m < n; ++m) {
      if (!touched[m]) continue;
      p.Lock(static_cast<int>(m));
      for (int k = 0; k < 3; ++k) {
        const GlobalAddr a = fld(m, offsetof(WaterMol, force) + 4 * k);
        const std::int64_t sum = p.ReadAt<std::int32_t>(a) + df[3 * m + k];
        DSM_CHECK(sum >= std::numeric_limits<std::int32_t>::min() &&
                  sum <= std::numeric_limits<std::int32_t>::max())
            << "Water force of molecule " << m << " overflows fixed point";
        p.WriteAt<std::int32_t>(a, static_cast<std::int32_t>(sum));
      }
      p.Unlock(static_cast<int>(m));
    }
    p.Barrier();

    // --- Update phase: owners integrate their molecules, then clear the
    // force accumulators for the next step (read-before-reset keeps the
    // flushed contributions classified as useful data).
    const bool last_step = (step + 1 == params_.steps);
    for (std::size_t m = own.begin; m < own.end; ++m) {
      for (int k = 0; k < 3; ++k) {
        const GlobalAddr fa = fld(m, offsetof(WaterMol, force) + 4 * k);
        const auto f = static_cast<float>(p.ReadAt<std::int32_t>(fa) /
                                          kWaterForceScale);
        const GlobalAddr va = fld(m, offsetof(WaterMol, vel) + 4 * k);
        const float v = p.ReadAt<float>(va) + f * params_.dt;
        p.WriteAt<float>(va, v);
        const GlobalAddr xa = fld(m, offsetof(WaterMol, pos) + 4 * k);
        p.WriteAt<float>(xa, p.ReadAt<float>(xa) + v * params_.dt);
        if (!last_step) p.WriteAt<std::int32_t>(fa, 0);
      }
      p.Compute(12);
    }
    p.Barrier();
  }

  // Verification: total |force|.  Every partial sum is an integer below
  // 2^53, so the double sums are exact in any order.
  std::int64_t local = 0;
  for (std::size_t m = own.begin; m < own.end; ++m) {
    for (int k = 0; k < 3; ++k) {
      local += std::abs(std::int64_t{p.ReadAt<std::int32_t>(
          fld(m, offsetof(WaterMol, force) + 4 * k))});
    }
  }
  reducer_.Contribute(p, static_cast<double>(local));
  p.Barrier();
  const double total = reducer_.Sum(p);
  if (p.id() == 0) result_ = total / kWaterForceScale;
}

}  // namespace dsm::apps
