#include "core/fault.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/race_detector.h"
#include "common/check.h"
#include "core/protocol.h"

namespace dsm {
namespace {

// Deterministic mixer for seed-derived schedule choices (SplitMix64).
std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

[[noreturn]] void Invalid(const std::string& msg) {
  throw std::invalid_argument("RuntimeConfig: " + msg);
}

std::string EventLabel(const FaultSchedule::Event& e) {
  return (e.point == FaultPoint::kAtBarrier ? "barrier:" : "release:") +
         std::to_string(e.victim) + "@" + std::to_string(e.at);
}

// True when the at-barrier events of `events` kill all `num_procs`
// processors at `barrier`, leaving no one to run the coordinator roles.
bool KillsEveryone(const std::vector<FaultSchedule::Event>& events,
                   int barrier, int num_procs) {
  for (int v = 0; v < num_procs; ++v) {
    const bool dies = std::any_of(
        events.begin(), events.end(), [&](const FaultSchedule::Event& f) {
          return f.point == FaultPoint::kAtBarrier && f.victim == v &&
                 f.at == barrier;
        });
    if (!dies) return false;
  }
  return true;
}

// A whole token of base-10 digits (no sign, no blanks) that fits `T`.
template <typename T>
bool ParseNumber(std::string_view s, T* out) {
  if (s.empty() || s[0] < '0' || s[0] > '9') return false;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
  return ec == std::errc() && end == s.data() + s.size();
}

// One "barrier:V@N" / "release:V@M" token.
bool ParseEvent(std::string_view tok, FaultSchedule::Event* e) {
  if (tok.starts_with("barrier:")) {
    e->point = FaultPoint::kAtBarrier;
  } else if (tok.starts_with("release:")) {
    e->point = FaultPoint::kAfterRelease;
  } else {
    return false;
  }
  const std::size_t at = tok.find('@');
  return at != std::string_view::npos &&
         ParseNumber(tok.substr(8, at - 8), &e->victim) &&
         ParseNumber(tok.substr(at + 1), &e->at);
}

}  // namespace

// ---------------------------------------------------------------------------
// RuntimeConfig validation (lives here with the rest of the robustness
// machinery; config.h stays header-only otherwise).
// ---------------------------------------------------------------------------

void RuntimeConfig::Validate() const {
  if (num_procs < 1) {
    Invalid("num_procs must be >= 1 (got " + std::to_string(num_procs) + ")");
  }
  if (num_procs == 1 && backend != BackendKind::kReference) {
    Invalid(
        "num_procs == 1 is a degenerate DSM (no sharing, no protocol); a "
        "sequential run uses the reference backend, BackendKind::kReference");
  }
  if (num_procs > 4096) {
    Invalid("num_procs = " + std::to_string(num_procs) +
            " is absurd (limit 4096)");
  }
  if (heap_bytes == 0) Invalid("heap_bytes must be > 0");
  if (heap_bytes > (std::size_t{1} << 40)) {
    Invalid("heap_bytes = " + std::to_string(heap_bytes) +
            " is absurd (limit 1 TiB)");
  }
  if (pages_per_unit < 1 || pages_per_unit > 1024) {
    Invalid("pages_per_unit must be in [1, 1024] (got " +
            std::to_string(pages_per_unit) + ")");
  }
  if ((pages_per_unit & (pages_per_unit - 1)) != 0) {
    Invalid("pages_per_unit must be a power of two (got " +
            std::to_string(pages_per_unit) +
            "); the unit-index fast path shifts and masks");
  }
  if (max_group_pages < 1) {
    Invalid("max_group_pages must be >= 1 (got " +
            std::to_string(max_group_pages) + ")");
  }
  if (gc_interval_barriers < 0) {
    Invalid("gc_interval_barriers must be >= 0 (0 disables GC; got " +
            std::to_string(gc_interval_barriers) + ")");
  }
  if (gc_lag_barriers < 1) {
    Invalid("gc_lag_barriers must be >= 1 (the flatten target must lag at "
            "least one completed barrier; got " +
            std::to_string(gc_lag_barriers) + ")");
  }
  if (gc_lag_barriers > 1024) {
    Invalid("gc_lag_barriers = " + std::to_string(gc_lag_barriers) +
            " is absurd (limit 1024)");
  }
  if (fault.armed()) {
    if (backend == BackendKind::kReference) {
      Invalid("fault injection requires a protocol backend; the reference "
              "oracle has no archives or homes to recover from");
    }
    if (num_procs < 2) {
      Invalid("fault injection requires num_procs >= 2 (someone must "
              "survive the crash)");
    }
    if (fault.events.size() > 64) {
      Invalid("fault schedule has " + std::to_string(fault.events.size()) +
              " events; limit 64");
    }
    for (std::size_t i = 0; i < fault.events.size(); ++i) {
      const FaultSchedule::Event& e = fault.events[i];
      const std::string slot = "fault.events[" + std::to_string(i) + "]";
      // Any victim is legal, processor 0 included: the coordinator roles
      // fail over for the crash barrier (DESIGN.md §9).
      if (e.victim < 0 || e.victim >= num_procs) {
        Invalid(slot + ".victim = " + std::to_string(e.victim) +
                " out of range for num_procs = " + std::to_string(num_procs));
      }
      if (e.point == FaultPoint::kAtBarrier && e.at < 0) {
        Invalid(slot + ".at must be >= 0 for a barrier event (got " +
                std::to_string(e.at) + ")");
      }
      if (e.point == FaultPoint::kAfterRelease && e.at < 1) {
        Invalid(slot + ".at must be >= 1 for a release event (got " +
                std::to_string(e.at) + ")");
      }
      for (std::size_t j = 0; j < i; ++j) {
        if (fault.events[j] == e) {
          Invalid(slot + " duplicates event " + std::to_string(j) + " (" +
                  EventLabel(e) + "): a victim dies at most once per "
                  "trigger point");
        }
      }
    }
    // Every barrier phase needs a survivor to run the coordinator roles.
    for (const FaultSchedule::Event& e : fault.events) {
      if (e.point == FaultPoint::kAtBarrier &&
          KillsEveryone(fault.events, e.at, num_procs)) {
        Invalid("fault schedule kills every processor at barrier " +
                std::to_string(e.at) +
                "; at least one must survive to coordinate");
      }
    }
    if (backend == BackendKind::kLrc && gc_interval_barriers == 0) {
      Invalid("no checkpoint available: LRC crash recovery rebuilds from "
              "the archive GC's canonical bases, but gc_interval_barriers "
              "== 0 disables the GC; enable it or use the HLRC backend");
    }
  }
}

// ---------------------------------------------------------------------------
// Schedule construction
// ---------------------------------------------------------------------------

FaultSchedule FaultSchedule::FromSeed(std::uint64_t seed, int num_procs) {
  if (num_procs < 2) {
    throw std::invalid_argument(
        "FaultSchedule::FromSeed: num_procs must be >= 2 (got " +
        std::to_string(num_procs) + "); someone must survive the crash");
  }
  constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ull;
  FaultSchedule s;
  const int count = 1 + static_cast<int>(Mix64(seed) % 3);
  for (int i = 0; i < count; ++i) {
    // Distinct sub-seed per event so points decorrelate; the victim adds
    // an index salt so one seed yields independent victims.  Victims are
    // uniform over ALL processors — proc 0's coordinator roles fail over.
    const std::uint64_t sub =
        Mix64(seed + kGolden * static_cast<std::uint64_t>(i + 1));
    const std::uint64_t r = Mix64(sub);
    Event e;
    e.point = (r & 1) != 0 ? FaultPoint::kAtBarrier : FaultPoint::kAfterRelease;
    e.at = e.point == FaultPoint::kAtBarrier
               ? 1 + static_cast<int>((r >> 16) % 4)
               : 1 + static_cast<int>((r >> 24) % 8);
    e.victim = static_cast<int>(
        Mix64(sub ^ (0xdeadbeefcafef00dull +
                     kGolden * static_cast<std::uint64_t>(i))) %
        static_cast<std::uint64_t>(num_procs));
    s.events.push_back(e);
  }
  // Well-formedness fix-ups, so every seeded schedule passes Validate():
  // (1) an event repeating an earlier one moves to a later point; (2) a
  // barrier that kills every processor moves the offending event on.
  // Each bump only increases trigger points, so the loop reaches a fixed
  // point quickly.
  for (int pass = 0;; ++pass) {
    DSM_CHECK_LT(pass, 1024) << "seeded fix-ups failed to stabilize";
    bool changed = false;
    for (std::size_t i = 0; i < s.events.size(); ++i) {
      for (std::size_t j = 0; j < i; ++j) {
        if (s.events[j] == s.events[i]) {
          ++s.events[i].at;
          changed = true;
        }
      }
    }
    for (Event& e : s.events) {
      if (e.point == FaultPoint::kAtBarrier &&
          KillsEveryone(s.events, e.at, num_procs)) {
        ++e.at;
        changed = true;
      }
    }
    if (!changed) return s;
  }
}

FaultSchedule FaultSchedule::Parse(std::string_view spec, int num_procs) {
  std::uint64_t seed = 0;
  if (spec.starts_with("seed:") && ParseNumber(spec.substr(5), &seed)) {
    return FromSeed(seed, num_procs);
  }
  FaultSchedule s;
  for (std::string_view rest = spec;;) {
    const std::size_t plus = rest.find('+');
    Event e;
    if (!ParseEvent(rest.substr(0, plus), &e)) {
      throw std::invalid_argument(
          "invalid fault spec '" + std::string(spec) +
          "' (want barrier:V@N or release:V@M, '+'-chained, or seed:S)");
    }
    s.events.push_back(e);
    if (plus == std::string_view::npos) return s;
    rest.remove_prefix(plus + 1);
  }
}

std::string FaultSchedule::Label() const {
  if (events.empty()) return "none";
  std::string out;
  for (const Event& e : events) {
    if (!out.empty()) out += '+';
    out += EventLabel(e);
  }
  return out;
}

// ---------------------------------------------------------------------------
// FaultInjector
// ---------------------------------------------------------------------------

FaultInjector::FaultInjector(const FaultSchedule& schedule)
    : schedule_(schedule),
      fired_(new std::atomic<std::uint8_t>[schedule.events.size()]) {
  DSM_CHECK(schedule_.armed());
  for (std::size_t i = 0; i < schedule_.events.size(); ++i) {
    fired_[i].store(0, std::memory_order_relaxed);
  }
}

int FaultInjector::Match(ProcId proc, FaultPoint point,
                         std::uint32_t count) const {
  for (std::size_t i = 0; i < schedule_.events.size(); ++i) {
    const FaultSchedule::Event& e = schedule_.events[i];
    if (e.point == point && e.victim == proc &&
        static_cast<std::uint32_t>(e.at) == count &&
        fired_[i].load(std::memory_order_acquire) == 0) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

bool FaultInjector::CrashesAtBarrier(ProcId proc,
                                     std::uint32_t sync_phase) const {
  for (const FaultSchedule::Event& e : schedule_.events) {
    if (e.point == FaultPoint::kAtBarrier && e.victim == proc &&
        static_cast<std::uint32_t>(e.at) == sync_phase) {
      return true;
    }
  }
  return false;
}

void FaultInjector::OnRecovered(int event_index, std::uint64_t wall_ns) {
  DSM_CHECK_GE(event_index, 0);
  DSM_CHECK_LT(static_cast<std::size_t>(event_index),
               schedule_.events.size());
  recovery_wall_ns_.fetch_add(wall_ns, std::memory_order_acq_rel);
  fired_[static_cast<std::size_t>(event_index)].store(
      1, std::memory_order_release);
}

// ---------------------------------------------------------------------------
// RecoveryCoordinator
// ---------------------------------------------------------------------------

void RecoveryCoordinator::Recover(Node& node, const VectorClock& to,
                                  int event_index) {
  const auto wall_start = std::chrono::steady_clock::now();
  SharedState& shared = node.shared_;
  const int nprocs = shared.config.num_procs;
  const std::size_t num_units = shared.heap.num_units();
  CommBreakdown& c = node.comm_stats_.counters();
  c.recoveries += 1;

  // Dense copy of the consistent cut the victim rebuilds to.
  VectorClock cut(nprocs);
  cut.Merge(to);

  // --- wipe: everything below models node-local volatile state -------------
  // The crash points guarantee no twin exists and no interval is half
  // closed (both fire right after an interval reached the archive, or
  // inside a barrier with every interval closed).
  std::memset(node.data_, 0, shared.heap.heap_bytes());
  node.table_.ResetForRecovery();

  // --- rebuild the image from the stable substrate (DESIGN.md §9) -----------
  VirtualNanos slowest = 0;  // parallel sources: clock takes the max
  VirtualNanos install = 0;  // local per-unit / per-diff apply work
  if (node.hlrc_) {
    shared.homes.Rebuild(node, slowest, install);
  } else {
    shared.lrc.Rebuild(node, cut, slowest, install);
  }
  c.recovery_units += num_units;

  // --- rebuild the clocks and the notice view -------------------------------
  // Everything the cut covers is now IN the image, so it counts as
  // consumed: records above the cut redeliver through the normal
  // CollectNotices path at the victim's next synchronization (they
  // survive — nothing above the cut can be flattened while the victim,
  // a barrier participant, is mid-recovery).
  node.vc_ = cut;
  node.notices_seen_ = cut;

  const VirtualNanos modelled = slowest + install;
  node.clock_.Advance(modelled);
  c.recovery_modelled_ns += static_cast<std::uint64_t>(modelled);

  // Lock-side sweep: force-release anything the victim held (publishing
  // the recovered clock/time, exactly what its own release at the crash
  // point would have) and invalidate its cached tokens.  It waits in no
  // grant queue: this runs on its own thread.  Its in-flight transparent
  // release becomes an orphan no-op.
  // The race detector sweeps first, for the same reason the detector's
  // release hook precedes LockService::Release: a peer granted a
  // force-released lock must find the victim's detector clock already on
  // it — recovery replay must not manufacture reports (DESIGN.md §10).
  if (shared.race != nullptr) shared.race->OnCrashSweep(node.id_);
  shared.locks->OnCrash(node.id_, node.vc_, node.clock_.now());

  const auto wall_end = std::chrono::steady_clock::now();
  shared.fault->OnRecovered(
      event_index,
      static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(wall_end -
                                                               wall_start)
              .count()));
}

}  // namespace dsm
