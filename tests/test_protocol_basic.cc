// Core LRC + multiple-writer protocol semantics, including the worked
// examples of paper §2 (useless messages from write-write false sharing,
// useless data from partial reads of truly-shared pages).
#include <gtest/gtest.h>

#include "core/runtime.h"

namespace dsm {
namespace {

RuntimeConfig SmallConfig(int nprocs) {
  RuntimeConfig cfg;
  cfg.num_procs = nprocs;
  cfg.heap_bytes = 1u << 20;
  return cfg;
}

// A write by one processor becomes visible to another after a barrier.
TEST(ProtocolBasic, WritePropagatesAcrossBarrier) {
  Runtime rt(SmallConfig(2));
  auto a = rt.Alloc<int>(16, "a");
  int seen = -1;
  rt.Run([&](Proc& p) {
    if (p.id() == 0) p.Write(a, 3, 42);
    p.Barrier();
    if (p.id() == 1) seen = p.Read(a, 3);
  });
  EXPECT_EQ(seen, 42);
}

// Without synchronization there is no visibility requirement; with LRC the
// reader keeps its (zero-initialized) copy.
TEST(ProtocolBasic, NoVisibilityWithoutSynchronization) {
  Runtime rt(SmallConfig(2));
  auto a = rt.Alloc<int>(16, "a");
  // Proc 1 reads before any barrier; LRC guarantees it sees its own copy.
  int before = -1, after = -1;
  rt.Run([&](Proc& p) {
    if (p.id() == 1) before = p.Read(a, 3);
    p.Barrier();
    if (p.id() == 0) p.Write(a, 3, 7);
    p.Barrier();
    if (p.id() == 1) after = p.Read(a, 3);
  });
  EXPECT_EQ(before, 0);
  EXPECT_EQ(after, 7);
}

// Multiple-writer protocol: two processors write disjoint halves of the
// same page concurrently; after the barrier every processor sees both
// halves merged.  This is the scenario hardware DSM would ping-pong on.
TEST(ProtocolBasic, MultipleWritersMergeOnOnePage) {
  Runtime rt(SmallConfig(3));
  const std::size_t n = kBasePageBytes / sizeof(int);  // exactly one page
  auto a = rt.AllocUnitAligned<int>(n, "page");
  std::vector<int> got(n, -1);
  rt.Run([&](Proc& p) {
    if (p.id() == 0) {
      for (std::size_t i = 0; i < n / 2; ++i) p.Write(a, i, 1000 + (int)i);
    } else if (p.id() == 1) {
      for (std::size_t i = n / 2; i < n; ++i) p.Write(a, i, 2000 + (int)i);
    }
    p.Barrier();
    if (p.id() == 2) {
      for (std::size_t i = 0; i < n; ++i) got[i] = p.Read(a, i);
    }
  });
  for (std::size_t i = 0; i < n / 2; ++i) EXPECT_EQ(got[i], 1000 + (int)i);
  for (std::size_t i = n / 2; i < n; ++i) EXPECT_EQ(got[i], 2000 + (int)i);
}

// Paper §2, useless messages: p1 and p2 write the same page, p3 reads only
// p1's half.  p3 must exchange messages with BOTH writers (2 exchanges =
// 4 messages), and the exchange with p2 is useless.
TEST(ProtocolBasic, WriteWriteFalseSharingCausesUselessMessages) {
  Runtime rt(SmallConfig(3));
  const std::size_t n = kBasePageBytes / sizeof(int);
  auto a = rt.AllocUnitAligned<int>(n, "page");
  rt.Run([&](Proc& p) {
    if (p.id() == 0) {
      for (std::size_t i = 0; i < n / 2; ++i) p.Write(a, i, 1);
    } else if (p.id() == 1) {
      for (std::size_t i = n / 2; i < n; ++i) p.Write(a, i, 2);
    }
    p.Barrier();
    if (p.id() == 2) {
      for (std::size_t i = 0; i < n / 2; ++i) (void)p.Read(a, i);
    }
    p.Barrier();
  });
  RunStats stats = rt.CollectStats();
  // One fault on p3 contacting two concurrent writers.
  EXPECT_EQ(stats.comm.useful_messages, 2u);   // exchange with p0
  EXPECT_EQ(stats.comm.useless_messages, 2u);  // exchange with p1
  EXPECT_EQ(stats.comm.useful_data_bytes, kBasePageBytes / 2);
  EXPECT_EQ(stats.comm.useless_msg_data_bytes, kBasePageBytes / 2);
  EXPECT_EQ(stats.comm.piggyback_useless_bytes, 0u);
  // Signature: one fault in bucket 2, one useful + one useless exchange.
  EXPECT_EQ(stats.comm.signature.useful(2), 1u);
  EXPECT_EQ(stats.comm.signature.useless(2), 1u);
}

// Paper §2, useless data: p1 writes a whole page, p2 reads only the top
// half.  One useful exchange whose bottom half is piggybacked useless data.
TEST(ProtocolBasic, PartialReadCausesPiggybackedUselessData) {
  Runtime rt(SmallConfig(2));
  const std::size_t n = kBasePageBytes / sizeof(int);
  auto a = rt.AllocUnitAligned<int>(n, "page");
  rt.Run([&](Proc& p) {
    if (p.id() == 0) {
      for (std::size_t i = 0; i < n; ++i) p.Write(a, i, 5);
    }
    p.Barrier();
    if (p.id() == 1) {
      for (std::size_t i = 0; i < n / 2; ++i) (void)p.Read(a, i);
    }
    p.Barrier();
  });
  RunStats stats = rt.CollectStats();
  EXPECT_EQ(stats.comm.useful_messages, 2u);
  EXPECT_EQ(stats.comm.useless_messages, 0u);
  EXPECT_EQ(stats.comm.useful_data_bytes, kBasePageBytes / 2);
  EXPECT_EQ(stats.comm.piggyback_useless_bytes, kBasePageBytes / 2);
  EXPECT_EQ(stats.comm.signature.useful(1), 1u);
}

// Diffs carry only modified words: a single-word write ships a single-word
// diff, not the page.
TEST(ProtocolBasic, DiffCarriesOnlyModifiedWords) {
  Runtime rt(SmallConfig(2));
  auto a = rt.AllocUnitAligned<int>(1024, "page");
  rt.Run([&](Proc& p) {
    if (p.id() == 0) p.Write(a, 17, 99);
    p.Barrier();
    if (p.id() == 1) (void)p.Read(a, 17);
    p.Barrier();
  });
  RunStats stats = rt.CollectStats();
  EXPECT_EQ(stats.comm.useful_data_bytes, 4u);
  EXPECT_EQ(stats.comm.useless_data_bytes(), 0u);
}

// Locks order intervals: migratory read-modify-write under a lock is seen
// coherently by a later reader, and ordered (overlapping) diffs apply in
// happens-before order.
TEST(ProtocolBasic, MigratoryDataUnderLock) {
  Runtime rt(SmallConfig(4));
  auto counter = rt.Alloc<int>(4, "counter");
  int final_value = -1;
  rt.Run([&](Proc& p) {
    p.Lock(0);
    p.Write(counter, 0, p.Read(counter, 0) + 1);
    p.Unlock(0);
    p.Barrier();
    if (p.id() == 2) final_value = p.Read(counter, 0);
  });
  EXPECT_EQ(final_value, 4);
}

// A processor that wrote a page concurrently with another writer keeps its
// own words after fetching the other writer's diff (twin merge).
TEST(ProtocolBasic, ConcurrentWriterKeepsOwnWordsAfterFetch) {
  Runtime rt(SmallConfig(2));
  const std::size_t n = kBasePageBytes / sizeof(int);
  auto a = rt.AllocUnitAligned<int>(n, "page");
  std::vector<int> seen0(4, -1);
  rt.Run([&](Proc& p) {
    if (p.id() == 0) {
      p.Write(a, 0, 10);
    } else {
      p.Write(a, 1, 20);
    }
    p.Barrier();
    if (p.id() == 0) {
      seen0[0] = p.Read(a, 0);
      seen0[1] = p.Read(a, 1);
    }
  });
  EXPECT_EQ(seen0[0], 10);
  EXPECT_EQ(seen0[1], 20);
}

// Sequential mode (1 processor, reference backend): no protocol activity
// at all.
TEST(ProtocolBasic, SequentialModeHasNoProtocolTraffic) {
  RuntimeConfig cfg = SmallConfig(1);
  cfg.backend = BackendKind::kReference;
  Runtime rt(cfg);
  auto a = rt.Alloc<int>(4096, "a");
  rt.Run([&](Proc& p) {
    for (int i = 0; i < 4096; ++i) p.Write(a, i, i);
    p.Barrier();
    long sum = 0;
    for (int i = 0; i < 4096; ++i) sum += p.Read(a, i);
    EXPECT_EQ(sum, 4096L * 4095 / 2);
  });
  RunStats stats = rt.CollectStats();
  EXPECT_EQ(stats.net.total_messages(), 0u);
  EXPECT_EQ(stats.comm.twins_created, 0u);
  EXPECT_GT(stats.exec_time, 0);
}

// Virtual time: a run's execution time is the max over nodes and includes
// communication on the critical path.
TEST(ProtocolBasic, VirtualTimeAdvancesWithCommunication) {
  Runtime rt(SmallConfig(2));
  auto a = rt.AllocUnitAligned<int>(1024, "page");
  rt.Run([&](Proc& p) {
    if (p.id() == 0)
      for (int i = 0; i < 1024; ++i) p.Write(a, i, i);
    p.Barrier();
    if (p.id() == 1)
      for (int i = 0; i < 1024; ++i) (void)p.Read(a, i);
  });
  RunStats stats = rt.CollectStats();
  // Barrier (~0.3 ms) + diff fetch (~0.7 ms) dominate.
  EXPECT_GT(stats.exec_time, 500 * kNanosPerMicro);
  EXPECT_EQ(stats.node_times.size(), 2u);
}

}  // namespace
}  // namespace dsm
