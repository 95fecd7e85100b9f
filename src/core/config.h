// Runtime configuration: consistency-unit size, aggregation mode, cost and
// network models.  One RuntimeConfig fully determines a run; every figure
// bench is a sweep over these fields.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "mem/types.h"
#include "net/network_model.h"
#include "sim/cost_model.h"

namespace dsm {

enum class AggregationMode {
  kStatic,   // consistency unit = pages_per_unit × 4 KB (paper §3)
  kDynamic,  // unit = 4 KB page + runtime page grouping (paper §4)
};

enum class BackendKind {
  // Full lazy release consistency + multiple-writer protocol (the paper).
  kLrc,
  // Conformance oracle: every processor reads and writes one shared image
  // directly (plain sequential consistency — no twins, no diffs, no write
  // notices).  Barriers and locks still rendezvous, so any program that is
  // data-race-free under LRC computes the same answer here; divergence
  // between the two backends indicates a protocol bug.
  kReference,
  // Home-based LRC (DESIGN.md §7): every consistency unit has a home node
  // that eagerly absorbs diffs at release time and serves whole-unit
  // copies on fault.  Write notices and invalidate-on-acquire are shared
  // with kLrc, but no diff archive accumulates — released payloads live
  // at the home, so the interval-archive GC is bypassed entirely.  The
  // classic counterpart design to the paper's distributed LRC: one extra
  // hop per release, whole-unit data motion per fault.
  kHlrc,
};

// ---------------------------------------------------------------------------
// Deterministic fault injection (DESIGN.md §9).
// ---------------------------------------------------------------------------

enum class FaultPoint : std::uint8_t {
  // Kill the victim at its `at`-th global barrier (0-based), inside the
  // barrier idle window — after its interval closed and its notices are
  // published, before the release.  Recovery rebuilds the victim to the
  // merged global clock of that barrier.
  kAtBarrier,
  // Kill the victim mid-interval, immediately after its `at`-th interval
  // close (1-based count over ALL CloseInterval calls — barrier and
  // lock-release alike).  Recovery rebuilds the victim to the close-time
  // vector clock of that archived interval.
  kAfterRelease,
};

// An ordered list of deterministic crash events (DESIGN.md §9).  Each
// event names a concrete victim, and ANY processor may be one: proc 0
// (its coordinator roles migrate to the lowest surviving rank for the
// crash barrier and back on rebuild), an HLRC home (its units are
// re-homed and surviving flushes retransmit), or a processor an earlier
// event already killed (it fires again only after that recovery, which
// is automatic because every trigger point is served on the victim's own
// thread in program order).  Each trigger point is an absolute
// victim-local count from the start of the run, which keeps multi-fault
// runs bit-reproducible: no event's firing depends on cross-thread
// timing.  A default-constructed schedule is inert and leaves every
// modelled number and fingerprint bit-identical to a build without the
// subsystem.
struct FaultSchedule {
  struct Event {
    FaultPoint point = FaultPoint::kAtBarrier;
    int victim = 0;
    // kAtBarrier: 0-based global barrier index; kAfterRelease: 1-based
    // count of interval closes.
    int at = 0;

    bool operator==(const Event&) const = default;
  };
  std::vector<Event> events;

  bool armed() const { return !events.empty(); }

  // Fully seeded schedule for `num_procs` (>= 2) processors: 1–3 events
  // whose points and victims (any processor, proc 0 included) all derive
  // from `seed`, then deterministic fix-ups that keep it well-formed: an
  // event repeating an earlier one moves to a later `at` (a victim dies
  // once per trigger point), and so does an at-barrier event whose
  // barrier would kill every processor.  The same (seed, num_procs)
  // always yields the same events.
  static FaultSchedule FromSeed(std::uint64_t seed, int num_procs);

  // Inverse of Label(): "barrier:V@N" / "release:V@M" events, '+'-chained,
  // or "seed:S" for FromSeed(S, num_procs).  Checks the grammar only —
  // numbers are unsigned base-10 — and throws std::invalid_argument on
  // anything else; RuntimeConfig::Validate() checks the ranges.
  static FaultSchedule Parse(std::string_view spec, int num_procs);

  // '+'-joined event labels, "barrier:1@2+release:0@4"; "none" if inert.
  std::string Label() const;
};

struct RuntimeConfig {
  int num_procs = 8;
  std::size_t heap_bytes = 8u << 20;

  BackendKind backend = BackendKind::kLrc;

  AggregationMode aggregation = AggregationMode::kStatic;
  // Static aggregation factor: 1 → 4 KB units, 2 → 8 KB, 4 → 16 KB.
  int pages_per_unit = 1;
  // Dynamic aggregation: maximum pages per page group.  Default 4 mirrors
  // the largest static unit the paper studies (16 KB).
  int max_group_pages = 4;

  // Archive garbage collection (DESIGN.md §6): every N-th global barrier,
  // flatten all intervals dominated by the flatten target (below) into
  // canonical base images and reclaim the records.  A host-side
  // optimization — modelled times, statistics, and results are
  // bit-identical for any setting, given the same lock-grant order.  0
  // disables GC (the archive-everything behavior, kept reachable for A/B
  // testing).
  int gc_interval_barriers = 1;

  // Flatten target age: collect only intervals dominated by the global
  // vector clock from this many barriers ago (minimum 1 — the youngest
  // clock every node is guaranteed to have fully processed).  Most
  // pending notices are consumed within a barrier or two of arriving;
  // lagging the target lets them die in the fault path for free and
  // reserves the flattening work for genuinely cold chains, whose length
  // stays bounded by interval × lag barriers either way.
  int gc_lag_barriers = 2;

  // On-line happens-before race detection (DESIGN.md §10): shadow every
  // shared word with FastTrack-style access epochs ordered by the same
  // acquire/release/barrier events the protocol orders on, and report
  // any unordered conflicting pair through RunStats.  Purely
  // observational — host-only cost; every modelled time, counter, and
  // fingerprint is bit-identical with the checker on or off, and with it
  // off the access hot path pays nothing.
  bool race_check = false;

  // Deterministic crash schedule (DESIGN.md §9).  Default-constructed =
  // no fault; armed schedules require a checkpoint source only under LRC
  // (gc_interval_barriers > 0, see Validate()) — HLRC recovery rebuilds
  // from home images and needs no checkpoints.
  FaultSchedule fault;

  // A DSM with one processor is degenerate (no sharing, no protocol) and
  // almost always a mis-filled config — Validate() rejects num_procs < 2
  // unless this flag is set.  The sequential-oracle paths
  // (apps::ExecuteSequential, single-proc unit tests) opt in explicitly.
  bool allow_sequential = false;

  NetworkConfig net;
  CostModel cost;

  // Rejects malformed configurations with std::invalid_argument (clear,
  // field-naming messages).  Called by the Runtime constructor before any
  // state is built; benches/tests may call it directly to probe a config.
  void Validate() const;

  std::size_t unit_bytes() const {
    return aggregation == AggregationMode::kDynamic
               ? kBasePageBytes
               : kBasePageBytes * static_cast<std::size_t>(pages_per_unit);
  }

  // Human-readable label for tables: "4K", "8K", "16K", or "Dyn".
  const char* UnitLabel() const;

  // "LRC", "HLRC", or "Ref".
  const char* BackendLabel() const;
};

}  // namespace dsm
