// Deterministic per-processor virtual time.
//
// The paper measures wall-clock time on an 8-node Pentium cluster.  We
// replace the cluster with a deterministic model: each logical processor
// owns a VirtualClock that advances by modelled compute cost (shared-memory
// accesses, explicit flop accounting) and modelled protocol/communication
// cost.  Synchronization operations reconcile clocks (a barrier sets every
// participant to the maximum arrival time plus the barrier cost), which is
// exactly how the critical path forms on a real cluster.
//
// Time is kept in integer nanoseconds so that accumulation is exact and
// runs are reproducible bit-for-bit.
#pragma once

#include <cstdint>

#include "common/check.h"

namespace dsm {

// Nanoseconds of virtual time.
using VirtualNanos = std::int64_t;

constexpr VirtualNanos kNanosPerMicro = 1000;
constexpr VirtualNanos kNanosPerMilli = 1000 * 1000;
constexpr VirtualNanos kNanosPerSecond = 1000 * 1000 * 1000;

class VirtualClock {
 public:
  VirtualClock() = default;

  VirtualNanos now() const { return now_; }

  // Advance by a non-negative amount of modelled work.  Inline: every
  // shared access ends here.
  void Advance(VirtualNanos delta) {
    DSM_CHECK_GE(delta, 0);
    now_ += delta;
  }

  // Move forward to `t` if `t` is later (used by synchronization:
  // clocks never run backwards).
  void AdvanceTo(VirtualNanos t);

  double seconds() const {
    return static_cast<double>(now_) / static_cast<double>(kNanosPerSecond);
  }

 private:
  VirtualNanos now_ = 0;
};

}  // namespace dsm
