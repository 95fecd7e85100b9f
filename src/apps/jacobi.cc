#include "apps/jacobi.h"

#include <cmath>
#include <vector>

#include "common/check.h"

namespace dsm::apps {

JacobiParams JacobiDataset(const std::string& label) {
  if (label == "1Kx1K") return {"1Kx1K", 256, 1024, 6};
  if (label == "2Kx2K") return {"2Kx2K", 256, 2048, 6};
  if (label == "tiny") return {"tiny", 32, 1024, 4};  // test-sized
  DSM_CHECK(false) << "unknown Jacobi dataset " << label;
  return {};
}

Jacobi::Jacobi(JacobiParams params) : params_(std::move(params)) {}

std::size_t Jacobi::heap_bytes() const {
  return params_.rows * params_.cols * sizeof(float) + (64u << 10);
}

void Jacobi::Setup(Runtime& rt) {
  grid_ = rt.AllocUnitAligned<float>(params_.rows * params_.cols, "grid");
  reducer_.Setup(rt, "jacobi_sum");
}

void Jacobi::Body(Proc& p) {
  const std::size_t R = params_.rows;
  const std::size_t C = params_.cols;
  const Range band = BlockRange(R, p.nprocs(), p.id());
  auto at = [&](std::size_t r, std::size_t c) { return r * C + c; };

  // The band is contiguous, so the init, publish and verification loops
  // each move it with one range access, which models the row-major element
  // loop exactly (DESIGN.md §2).  The stencil reads three rows interleaved
  // and stays element-wise.
  std::vector<float> scratch(band.size() * C);

  // Owners initialize their bands: a heat source along the top edge plus a
  // deterministic interior field (so every iteration's relaxation changes
  // every point — an all-zero grid would make the boundary diffs empty).
  for (std::size_t r = band.begin; r < band.end; ++r) {
    for (std::size_t c = 0; c < C; ++c) {
      scratch[(r - band.begin) * C + c] =
          r == 0 ? 100.0f
                 : 10.0f * std::sin(0.011f * static_cast<float>(r) +
                                    0.017f * static_cast<float>(c));
    }
  }
  p.WriteRange(grid_, at(band.begin, 0), scratch);
  p.Barrier();

  for (int iter = 0; iter < params_.iterations; ++iter) {
    // Compute new values into private scratch, reading the shared grid
    // (own band plus one boundary row from each neighbouring band).
    for (std::size_t r = band.begin; r < band.end; ++r) {
      if (r == 0) {  // fixed heat-source row
        for (std::size_t c = 0; c < C; ++c) {
          scratch[(r - band.begin) * C + c] = p.Read(grid_, at(r, c));
        }
        continue;
      }
      for (std::size_t c = 0; c < C; ++c) {
        const float up = p.Read(grid_, at(r - 1, c));
        const float down = r + 1 < R ? p.Read(grid_, at(r + 1, c)) : 0.0f;
        const float left = c > 0 ? p.Read(grid_, at(r, c - 1)) : 0.0f;
        const float right = c + 1 < C ? p.Read(grid_, at(r, c + 1)) : 0.0f;
        scratch[(r - band.begin) * C + c] =
            0.25f * (up + down + left + right);
      }
      p.Compute(4 * C);
    }
    p.Barrier();
    // Publish the new band.
    p.WriteRange(grid_, at(band.begin, 0), scratch);
    p.Barrier();
  }

  // Verification: global sum of the grid.
  p.ReadRange(grid_, at(band.begin, 0), scratch);
  double local = 0.0;
  for (const float v : scratch) local += v;
  p.Compute(band.size() * C);
  reducer_.Contribute(p, local);
  p.Barrier();
  const double total = reducer_.Sum(p);
  if (p.id() == 0) result_ = total;
}

}  // namespace dsm::apps
