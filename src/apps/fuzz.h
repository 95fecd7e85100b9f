// Fuzz: a seeded, randomized access-pattern workload for the protocol
// matrix.  Not from the paper — a property-based safety net: every
// processor drives a deterministic (dsm::Rng-seeded) random mix of shared
// reads, shared writes, lock-protected read-modify-writes, and barriers
// over a configurable page span, constructed so the final checksum is
// bit-identical on every backend × aggregation cell:
//
//   * the span is split in halves that alternate writer/reader roles per
//     barrier phase, with word-interleaved ownership inside the write
//     half (maximal false sharing, zero data races),
//   * lock ops add deterministic integer deltas to per-lock accumulator
//     cells — integer addition commutes, so the totals are exact no
//     matter how the host schedules the lock hand-offs.
//
// Its lock traffic still makes the *modelled* state host-order dependent
// (like Water/TSP), so its conformance scenario has an exact golden but
// modelled_stable == false.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "apps/app_common.h"

namespace dsm::apps {

struct FuzzParams {
  std::string label;
  std::size_t span_pages;   // shared span under random access
  int phases;               // barrier-delimited rounds
  int ops_per_phase;        // random ops per processor per round
  int num_locks;            // accumulator cells behind locks
  std::uint64_t seed;       // expanded per processor
};

FuzzParams FuzzDataset(const std::string& label);  // "tiny", "wide", "scale"

class Fuzz : public Application {
 public:
  explicit Fuzz(FuzzParams params);

  const char* name() const override { return "Fuzz"; }
  std::string dataset() const override { return params_.label; }
  std::size_t heap_bytes() const override;

  void Setup(Runtime& rt) override;
  void Body(Proc& p) override;
  double result() const override { return result_; }

 private:
  FuzzParams params_;
  SharedArray<std::int32_t> span_;
  SharedArray<std::int32_t> acc_;
  Reducer reducer_;
  double result_ = 0.0;
};

// RacyFuzz: the deliberately-racy variant for the race detector's
// regression gate (DESIGN.md §10).  Same seeded barrier-phased
// read/write traffic as Fuzz (no lock ops — lock-chain sub-phases are
// host-order dependent, and the injected schedule must reproduce
// bit-for-bit), plus ONE intentionally unsynchronized word per phase: a
// dedicated slot racy_[k] that proc k % nprocs writes and proc
// (k + 1) % nprocs reads (even phases) or writes (odd phases) with no
// ordering between them.  The racy values never feed the checksum, so
// the result stays bit-deterministic while the schedule of races is
// exactly ExpectedRaces().
class RacyFuzz : public Application {
 public:
  explicit RacyFuzz(FuzzParams params);

  const char* name() const override { return "RacyFuzz"; }
  std::string dataset() const override { return params_.label; }
  std::size_t heap_bytes() const override;

  void Setup(Runtime& rt) override;
  void Body(Proc& p) override;
  double result() const override { return result_; }

  // The injected-race schedule, normalized and ordered exactly as
  // RaceDetector::Collect reports it.  Valid after Setup (needs racy_'s
  // address) for a run at `num_procs` processors and `unit_bytes` units.
  std::vector<RaceReport> ExpectedRaces(int num_procs,
                                        std::size_t unit_bytes) const;

 private:
  FuzzParams params_;
  SharedArray<std::int32_t> span_;
  SharedArray<std::int32_t> racy_;  // one unsynchronized word per phase
  Reducer reducer_;
  double result_ = 0.0;
};

}  // namespace dsm::apps
