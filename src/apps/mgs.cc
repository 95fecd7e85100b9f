#include "apps/mgs.h"

#include <cmath>
#include <vector>

#include "common/check.h"
#include "common/rng.h"

namespace dsm::apps {

MgsParams MgsDataset(const std::string& label) {
  if (label == "1Kx1K") return {"1Kx1K", 320, 1024};
  if (label == "2Kx2K") return {"2Kx2K", 320, 2048};
  if (label == "1Kx4K") return {"1Kx4K", 160, 4096};
  if (label == "tiny") return {"tiny", 32, 1024};
  DSM_CHECK(false) << "unknown MGS dataset " << label;
  return {};
}

Mgs::Mgs(MgsParams params) : params_(std::move(params)) {}

std::size_t Mgs::heap_bytes() const {
  return params_.num_vectors * params_.dim * sizeof(float) + (64u << 10);
}

void Mgs::Setup(Runtime& rt) {
  vectors_ =
      rt.AllocUnitAligned<float>(params_.num_vectors * params_.dim, "A");
  reducer_.Setup(rt, "mgs_check");
}

void Mgs::Body(Proc& p) {
  const std::size_t M = params_.num_vectors;
  const std::size_t N = params_.dim;
  const int P = p.nprocs();
  auto at = [&](std::size_t vec, std::size_t k) { return vec * N + k; };
  auto owner = [&](std::size_t vec) {
    return static_cast<int>(vec % static_cast<std::size_t>(P));
  };

  // Whole vectors move through range accesses (DESIGN.md §2).  A vector
  // that is reduced and then rewritten is read twice, for the reduction
  // and again for the update: the update is a read-modify-write of every
  // word, and the model charges that read.
  std::vector<float> row(N);

  // Deterministic well-conditioned initialization: every proc draws the
  // whole sequence and each owner writes its vectors (diagonal dominance
  // keeps the basis numerically stable).
  {
    Xoshiro256 rng(0xA5C0FFEEu);
    for (std::size_t v = 0; v < M; ++v) {
      for (std::size_t k = 0; k < N; ++k) {
        row[k] = static_cast<float>(rng.UniformDouble(-0.5, 0.5)) +
                 (k % M == v ? 4.0f : 0.0f);
      }
      if (owner(v) == p.id()) p.WriteRange(vectors_, at(v, 0), row);
    }
  }
  p.Barrier();

  std::vector<float> pivot(N);
  for (std::size_t i = 0; i < M; ++i) {
    // Owner normalizes the pivot vector.
    if (owner(i) == p.id()) {
      p.ReadRange(vectors_, at(i, 0), row);
      double norm2 = 0.0;
      for (const float x : row) norm2 += static_cast<double>(x) * x;
      const float inv = static_cast<float>(1.0 / std::sqrt(norm2));
      p.ReadRange(vectors_, at(i, 0), row);
      for (float& x : row) x *= inv;
      p.WriteRange(vectors_, at(i, 0), row);
      p.Compute(4 * N);
    }
    p.Barrier();

    // Everyone orthogonalizes its own vectors j > i against the pivot.
    bool have_pivot = false;
    for (std::size_t j = i + 1; j < M; ++j) {
      if (owner(j) != p.id()) continue;
      if (!have_pivot) {  // read the pivot once per processor
        p.ReadRange(vectors_, at(i, 0), pivot);
        have_pivot = true;
      }
      p.ReadRange(vectors_, at(j, 0), row);
      double dot = 0.0;
      for (std::size_t k = 0; k < N; ++k) {
        dot += static_cast<double>(row[k]) * pivot[k];
      }
      const float d = static_cast<float>(dot);
      p.ReadRange(vectors_, at(j, 0), row);
      for (std::size_t k = 0; k < N; ++k) row[k] -= d * pivot[k];
      p.WriteRange(vectors_, at(j, 0), row);
      p.Compute(4 * N);
    }
    p.Barrier();
  }

  // Verification: sum of |v_i · v_i - 1| over owned vectors (should be ~0)
  // plus a sample of cross dot products, reduced globally.
  double err = 0.0;
  for (std::size_t v = 0; v < M; ++v) {
    if (owner(v) != p.id()) continue;
    double self = 0.0, cross = 0.0;
    for (std::size_t k = 0; k < N; ++k) {
      const float x = p.Read(vectors_, at(v, k));
      self += static_cast<double>(x) * x;
      if (v + 1 < M) {
        cross += static_cast<double>(x) * p.Read(vectors_, at(v + 1, k));
      }
    }
    err += std::abs(self - 1.0) + std::abs(cross);
  }
  reducer_.Contribute(p, err);
  p.Barrier();
  const double total = reducer_.Sum(p);
  if (p.id() == 0) result_ = total;
}

}  // namespace dsm::apps
