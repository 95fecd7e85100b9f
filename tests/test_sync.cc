// Synchronization services and their calibrated costs: barrier rendezvous,
// queued locks with owner caching, and the paper's §5.1 latency numbers.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <thread>

#include "core/runtime.h"

namespace dsm {
namespace {

RuntimeConfig Config(int nprocs) {
  RuntimeConfig cfg;
  cfg.num_procs = nprocs;
  cfg.heap_bytes = 1u << 20;
  return cfg;
}

TEST(Barrier, EightProcessorEmptyBarrierNear861us) {
  RuntimeConfig cfg = Config(8);
  cfg.net.wire_header_bytes = 0;  // calibration excludes framing
  Runtime rt(cfg);
  rt.Run([&](Proc& p) { p.Barrier(); });
  RunStats s = rt.CollectStats();
  // Paper §5.1: "the time for an eight processor barrier is 861 µs".
  EXPECT_NEAR(static_cast<double>(s.exec_time),
              861.0 * kNanosPerMicro, 1.0 * kNanosPerMicro);
}

TEST(Barrier, MessageCountIsTwoPerClient) {
  Runtime rt(Config(8));
  rt.Run([&](Proc& p) { p.Barrier(); });
  RunStats s = rt.CollectStats();
  EXPECT_EQ(s.net.messages(MessageKind::kBarrierArrival), 7u);
  EXPECT_EQ(s.net.messages(MessageKind::kBarrierRelease), 7u);
}

TEST(Barrier, SynchronizesVirtualClocks) {
  Runtime rt(Config(4));
  rt.Run([&](Proc& p) {
    p.Compute(static_cast<std::uint64_t>(p.id()) * 100000);  // skewed work
    p.Barrier();
  });
  RunStats s = rt.CollectStats();
  // After one barrier everyone's clock is within the per-client payload
  // skew (zero notices here → identical).
  for (VirtualNanos t : s.node_times) EXPECT_EQ(t, s.node_times[0]);
}

TEST(Barrier, RepeatedBarriersAdvanceGenerations) {
  Runtime rt(Config(3));
  std::atomic<int> order_violations{0};
  rt.Run([&](Proc& p) {
    for (int i = 0; i < 50; ++i) p.Barrier();
  });
  EXPECT_EQ(order_violations.load(), 0);
  EXPECT_EQ(rt.shared().barrier->barriers_completed(), 50u);
}

TEST(Lock, FirstAcquireInPaperBand) {
  RuntimeConfig cfg = Config(2);
  cfg.net.wire_header_bytes = 0;
  Runtime rt(cfg);
  rt.Run([&](Proc& p) {
    if (p.id() == 0) {
      p.Lock(0);
      p.Unlock(0);
    }
  });
  // Paper §5.1: "the time to acquire a lock varies from 374 to 574 µs".
  const VirtualNanos t = rt.node(0).clock().now();
  EXPECT_GE(t, 374 * kNanosPerMicro - 3 * kNanosPerMicro);
  EXPECT_LE(t, 574 * kNanosPerMicro);
}

TEST(Lock, OwnerCachedReacquireIsCheap) {
  Runtime rt(Config(2));
  rt.Run([&](Proc& p) {
    if (p.id() == 0) {
      p.Lock(0);
      p.Unlock(0);
      const VirtualNanos before = p.now();
      p.Lock(0);  // token still local
      p.Unlock(0);
      EXPECT_LT(p.now() - before, 10 * kNanosPerMicro);
    }
  });
  RunStats s = rt.CollectStats();
  EXPECT_EQ(s.net.messages(MessageKind::kLockRequest), 1u);  // only the first
}

TEST(Lock, MutualExclusionUnderContention) {
  Runtime rt(Config(8));
  auto counter = rt.Alloc<int>(4, "counter");
  std::atomic<int> in_section{0};
  std::atomic<int> max_seen{0};
  int final_value = 0;
  rt.Run([&](Proc& p) {
    for (int i = 0; i < 25; ++i) {
      p.Lock(3);
      const int now = in_section.fetch_add(1) + 1;
      int expected = max_seen.load();
      while (now > expected && !max_seen.compare_exchange_weak(expected, now)) {
      }
      p.Write(counter, 0, p.Read(counter, 0) + 1);
      in_section.fetch_sub(1);
      p.Unlock(3);
    }
    p.Barrier();
    if (p.id() == 0) final_value = p.Read(counter, 0);
  });
  EXPECT_EQ(max_seen.load(), 1);  // never two holders
  EXPECT_EQ(final_value, 8 * 25);
}

TEST(Lock, GrantCarriesWriteNoticesTransitively) {
  // p0 writes under lock, p1 acquires and writes, p2 acquires and must see
  // BOTH writes (transitive causality through the lock's vector clock).
  Runtime rt(Config(3));
  auto a = rt.AllocUnitAligned<int>(2048, "a");
  int seen0 = -1, seen1 = -1;
  rt.Run([&](Proc& p) {
    // Serialize acquisition order with barriers for determinism.
    if (p.id() == 0) {
      p.Lock(0);
      p.Write(a, 0, 10);
      p.Unlock(0);
    }
    p.Barrier();
    if (p.id() == 1) {
      p.Lock(0);
      p.Write(a, 1024, 20);  // different page from p0's write
      p.Unlock(0);
    }
    p.Barrier();
    if (p.id() == 2) {
      p.Lock(0);
      seen0 = p.Read(a, 0);
      seen1 = p.Read(a, 1024);
      p.Unlock(0);
    }
  });
  EXPECT_EQ(seen0, 10);
  EXPECT_EQ(seen1, 20);
}

TEST(Lock, TransfersCounted) {
  Runtime rt(Config(2));
  rt.Run([&](Proc& p) {
    for (int i = 0; i < 3; ++i) {
      p.Lock(7);
      p.Unlock(7);
      p.Barrier();  // alternate holders deterministically
    }
  });
  // Lock 7 changed hands at least twice (p0→p1 or p1→p0 per round).
  EXPECT_GE(rt.shared().locks->transfers(7), 2u);
}

// Per-lock condition variables: a release wakes only that lock's waiters
// instead of thundering every waiter in the service.  Drive many locks
// under real contention with an externally-forced round-robin acquire
// order, so every grant is a token transfer and the per-lock transfer
// counts are exactly determined — any lost wakeup deadlocks the test and
// any miscount breaks the equality.
TEST(Lock, PerLockWakeupsKeepTransferCountsExact) {
  constexpr int kProcs = 4;
  constexpr int kLocks = 8;
  constexpr int kRounds = 6;  // acquires per (lock, proc)
  Runtime rt(Config(kProcs));
  std::array<std::atomic<int>, kLocks> turn{};
  for (auto& t : turn) t.store(0);
  rt.Run([&](Proc& p) {
    for (int r = 0; r < kRounds; ++r) {
      for (int k = 0; k < kLocks; ++k) {
        // Round-robin gate: proc p acquires lock k in slot (r*kProcs+p).
        const int my_slot = r * kProcs + p.id();
        while (turn[k].load(std::memory_order_acquire) != my_slot) {
          std::this_thread::yield();
        }
        p.Lock(k);
        p.Unlock(k);
        turn[k].store(my_slot + 1, std::memory_order_release);
      }
    }
  });
  // Every acquire came from a different proc than the previous holder, so
  // every grant transferred the token: exactly kProcs * kRounds per lock.
  for (int k = 0; k < kLocks; ++k) {
    EXPECT_EQ(rt.shared().locks->transfers(k),
              static_cast<std::uint64_t>(kProcs * kRounds))
        << "lock " << k;
  }
}

// BarrierService must reset its per-generation VC accumulator: a second
// generation whose arrival clocks are LOWER than the first's must not
// inherit the first generation's maxima (matters for any future
// checkpoint/restore or clock-reset path; per-proc monotonicity hides it
// today).
TEST(Barrier, GenerationVectorClockDoesNotLeakForward) {
  BarrierService svc(2);
  VectorClock a(2), b(2);
  a[0] = 5;
  b[1] = 7;
  BarrierService::Result r1;
  std::thread t1([&] { r1 = svc.Arrive(a, 0, 0); });
  BarrierService::Result r1b = svc.Arrive(b, 0, 0);
  t1.join();
  EXPECT_EQ(r1b.global_vc[0], 5u);
  EXPECT_EQ(r1b.global_vc[1], 7u);

  // Fresh clocks, strictly below the first generation's.
  VectorClock c(2), d(2);
  c[0] = 1;
  d[1] = 2;
  BarrierService::Result r2;
  std::thread t2([&] { r2 = svc.Arrive(c, 0, 0); });
  BarrierService::Result r2b = svc.Arrive(d, 0, 0);
  t2.join();
  EXPECT_EQ(r2b.global_vc[0], 1u);
  EXPECT_EQ(r2b.global_vc[1], 2u);
  EXPECT_EQ(r2.global_vc[0], 1u);
  EXPECT_EQ(r2.global_vc[1], 2u);
}

// --- crash sweep (DESIGN.md §9) ----------------------------------------------
//
// LockService::OnCrash must leave the service fully operational for the
// survivors AND for the transparently-recovered victim: force-released
// locks publish the recovered clock, parked survivors get woken, cached
// tokens die with the node, and the victim's in-flight release becomes an
// orphan no-op.  Recovery runs on the victim's own thread, so the victim
// is never a parked waiter when the sweep runs: only survivors wait.

TEST(LockRecovery, CrashSweepForceReleasesAndUnblocksWaiters) {
  LockService svc(2, 4);
  // Proc 1 holds lock 0 and has a cached token on lock 1.
  (void)svc.Acquire(0, 1);
  (void)svc.Acquire(1, 1);
  VectorClock held_vc(4);
  held_vc[1] = 3;
  svc.Release(1, 1, held_vc, 100);  // owner stays 1 → token cached

  // Proc 2 parks behind the held lock on a real thread.
  LockService::Grant g2;
  std::thread waiter([&] { g2 = svc.Acquire(0, 2); });
  // Give it time to park; the sweep's force-release grants it either way.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  VectorClock crash_vc(4);
  crash_vc[1] = 7;
  svc.OnCrash(1, crash_vc, 5000);
  waiter.join();

  // The waiter took the force-released lock and observed exactly the
  // clock/time the sweep published on the victim's behalf.
  EXPECT_FALSE(g2.cached);
  EXPECT_EQ(g2.release_vc[1], 7u);
  EXPECT_EQ(g2.release_time, 5000);

  // The recovered victim's thread still executes its release of lock 0
  // (transparent recovery): an orphan no-op, not a double-release abort.
  svc.Release(0, 1, crash_vc, 6000);
  // The new holder releases normally.
  svc.Release(0, 2, crash_vc, 7000);

  // The cached token on lock 1 died with the node: the victim's next
  // acquire is a real transfer, not a cached local grant.
  const std::uint64_t transfers_before = svc.transfers(1);
  const LockService::Grant g1 = svc.Acquire(1, 1);
  EXPECT_FALSE(g1.cached);
  EXPECT_EQ(svc.transfers(1), transfers_before + 1);
  svc.Release(1, 1, crash_vc, 8000);
}

}  // namespace
}  // namespace dsm
