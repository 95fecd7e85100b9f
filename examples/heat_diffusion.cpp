// Heat diffusion demo: a realistic stencil workload on the DSM, swept
// across consistency-unit configurations.  Shows the aggregation trade-off
// of the paper on a program you can modify: change kCols (the row size in
// bytes) and watch the 8 K / 16 K numbers flip between "aggregation wins"
// and "false sharing bites".  Every configuration must produce the same
// checksum, bit for bit; the program exits 1 naming any that does not.
//
//   $ ./examples/heat_diffusion
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "core/runtime.h"

namespace {
constexpr std::size_t kRows = 192;
constexpr std::size_t kCols = 1024;  // 1024 floats = 4 KB = one VM page
constexpr int kIters = 5;
}  // namespace

int main() {
  struct Point {
    const char* label;
    dsm::AggregationMode mode;
    int ppu;
  };
  const Point points[] = {
      {"4K", dsm::AggregationMode::kStatic, 1},
      {"8K", dsm::AggregationMode::kStatic, 2},
      {"16K", dsm::AggregationMode::kStatic, 4},
      {"Dyn", dsm::AggregationMode::kDynamic, 1},
  };

  std::printf("heat diffusion on a %zux%zu grid (row = %zu KB)\n\n", kRows,
              kCols, kCols * sizeof(float) / 1024);
  std::printf("%-5s %12s %10s %10s %12s\n", "cfg", "time(ms)", "messages",
              "data(KB)", "checksum");

  double first_checksum = 0.0;  // the 4K row's, which every row must match
  int mismatches = 0;
  for (const Point& point : points) {
    dsm::RuntimeConfig cfg;
    cfg.num_procs = 8;
    cfg.heap_bytes = kRows * kCols * sizeof(float) + (1u << 16);
    cfg.aggregation = point.mode;
    cfg.pages_per_unit = point.ppu;

    dsm::Runtime rt(cfg);
    auto grid = rt.AllocUnitAligned<float>(kRows * kCols, "grid");
    auto sums = rt.AllocUnitAligned<double>(8 * 512, "sums");

    double checksum = 0.0;
    rt.Run([&](dsm::Proc& p) {
      const std::size_t band = kRows / p.nprocs();
      const std::size_t r0 = p.id() * band, r1 = r0 + band;
      auto at = [&](std::size_t r, std::size_t c) { return r * kCols + c; };

      for (std::size_t r = r0; r < r1; ++r) {
        for (std::size_t c = 0; c < kCols; ++c) {
          p.Write(grid, at(r, c),
                  std::sin(0.01f * static_cast<float>(r * 31 + c)));
        }
      }
      p.Barrier();

      std::vector<float> next(band * kCols);
      for (int it = 0; it < kIters; ++it) {
        for (std::size_t r = r0; r < r1; ++r) {
          for (std::size_t c = 0; c < kCols; ++c) {
            const float up = r > 0 ? p.Read(grid, at(r - 1, c)) : 0.0f;
            const float dn =
                r + 1 < kRows ? p.Read(grid, at(r + 1, c)) : 0.0f;
            const float lf = c > 0 ? p.Read(grid, at(r, c - 1)) : 0.0f;
            const float rt2 =
                c + 1 < kCols ? p.Read(grid, at(r, c + 1)) : 0.0f;
            next[(r - r0) * kCols + c] = 0.25f * (up + dn + lf + rt2);
          }
          p.Compute(4 * kCols);
        }
        p.Barrier();
        for (std::size_t r = r0; r < r1; ++r) {
          for (std::size_t c = 0; c < kCols; ++c) {
            p.Write(grid, at(r, c), next[(r - r0) * kCols + c]);
          }
        }
        p.Barrier();
      }

      double local = 0.0;
      for (std::size_t r = r0; r < r1; ++r) {
        local += p.Read(grid, at(r, kCols / 2));
      }
      p.Write(sums, static_cast<std::size_t>(p.id()) * 512, local);
      p.Barrier();
      if (p.id() == 0) {
        double total = 0.0;
        for (int q = 0; q < p.nprocs(); ++q) {
          total += p.Read(sums, static_cast<std::size_t>(q) * 512);
        }
        checksum = total;
      }
    });

    const dsm::RunStats stats = rt.CollectStats();
    std::printf("%-5s %12.2f %10llu %10.1f %12.5f\n", point.label,
                stats.exec_seconds() * 1e3,
                (unsigned long long)stats.comm.total_messages(),
                static_cast<double>(stats.comm.total_data_bytes()) / 1024.0,
                checksum);
    if (&point == &points[0]) {
      first_checksum = checksum;
    } else if (std::bit_cast<std::uint64_t>(checksum) !=
               std::bit_cast<std::uint64_t>(first_checksum)) {
      std::fprintf(stderr,
                   "checksum mismatch: %s gives %.17g, %s gives %.17g\n",
                   point.label, checksum, points[0].label, first_checksum);
      ++mismatches;
    }
  }
  if (mismatches > 0) return 1;
  std::printf("\nAll checksums match bit for bit: the protocol is semantics-"
              "preserving at every unit size.\n");
  return 0;
}
