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
  if (num_procs == 1 && !allow_sequential) {
    Invalid(
        "num_procs == 1 is a degenerate DSM (no sharing, protocol "
        "disabled); set allow_sequential = true for an intentional "
        "sequential-oracle run");
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

void FaultInjector::OnRecovered(int event_index, VirtualNanos modelled_ns,
                                std::uint64_t wall_ns) {
  DSM_CHECK_GE(event_index, 0);
  DSM_CHECK_LT(static_cast<std::size_t>(event_index),
               schedule_.events.size());
  recovery_modelled_ns_.fetch_add(modelled_ns, std::memory_order_acq_rel);
  recovery_wall_ns_.fetch_add(wall_ns, std::memory_order_acq_rel);
  fired_[static_cast<std::size_t>(event_index)].store(
      1, std::memory_order_release);
  fired_count_.fetch_add(1, std::memory_order_acq_rel);
}

// ---------------------------------------------------------------------------
// RecoveryCoordinator
// ---------------------------------------------------------------------------

void RecoveryCoordinator::Recover(Node& node, const VectorClock& to,
                                  int event_index) {
  const auto wall_start = std::chrono::steady_clock::now();
  SharedState& shared = node.shared_;
  const CostModel& cost = shared.config.cost;
  const int nprocs = shared.config.num_procs;
  const std::size_t num_units = shared.heap.num_units();
  const std::size_t unit_bytes = node.unit_bytes_;
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
  for (UnitId u = 0; u < num_units; ++u) {
    node.pending_[u].clear();
    node.flattened_[u].clear();
    node.retwin_cheap_[u] = 0;
    node.diff_request_seen_[u] = 0;
    // Register the victim as a sharer of EVERY unit: its rebuilt image is
    // now newer than the shared virgin history, so a later first-fault
    // adoption of those dominated chains would clobber replayed content.
    // Safe — the virgin-store release check requires every proc
    // registered, which only drops history no one can need.
    shared.sharers->Register(u, node.id_);
  }

  // --- rebuild the image from the stable substrate --------------------------
  VirtualNanos slowest = 0;  // parallel sources: clock takes the max
  VirtualNanos install = 0;  // local per-unit / per-diff apply work
  if (!node.hlrc_) {
    // LRC (DESIGN.md §9): canonical bases hold every interval at or below
    // the checkpoint watermark (checkpoint-complete GC mode); the archives
    // — stable write-ahead logs, the victim's own included — hold the
    // rest.  Replay above the watermark in happens-before order.
    const VectorClock& cvc = shared.checkpoint_vc;
    std::size_t base_units = 0;
    for (UnitId u = 0; u < num_units; ++u) {
      if (shared.canonical->ReadCheckpoint(u, node.UnitSpan(u))) {
        ++base_units;
      }
    }
    if (base_units > 0) {
      // One bulk exchange with the checkpoint store: request header, one
      // (unit id + payload) per base image.
      const std::size_t resp = base_units * (16 + unit_bytes);
      c.recovery_messages += 2;
      c.recovery_data_bytes += base_units * unit_bytes;
      slowest = std::max(
          slowest, shared.net.RoundTripTime(16, resp) +
                       cost.request_service_overhead +
                       static_cast<VirtualNanos>(base_units) *
                           cost.TwinCost(unit_bytes));
      install += static_cast<VirtualNanos>(base_units) *
                 cost.TwinCost(unit_bytes);
    }

    struct Replay {
      UnitId unit;
      const IntervalRecord* rec;
      int di;
      HbKey key;
    };
    std::vector<Replay> replay;
    for (ProcId p = 0; p < nprocs; ++p) {
      const auto range = shared.archives[p]->Range(cvc[p], cut[p]);
      if (range.empty()) continue;
      // One exchange per contributing log: request header, per-record
      // notice header plus the encoded diffs.
      std::size_t resp = 0;
      for (const IntervalRecord* rec : range) {
        const HbKey key(*rec);
        resp += 16;
        for (std::size_t k = 0; k < rec->units.size(); ++k) {
          const Diff& d = rec->diffs[k];
          resp += d.EncodedBytes();
          c.recovery_data_bytes += d.payload_bytes();
          replay.push_back({rec->units[k], rec, static_cast<int>(k), key});
        }
      }
      c.recovery_messages += 2;
      c.recovery_records += range.size();
      slowest = std::max(slowest, shared.net.RoundTripTime(16, resp) +
                                      cost.request_service_overhead);
    }
    // Happens-before order per unit (HbKey, as in the GC apply pass).
    std::sort(replay.begin(), replay.end(),
              [](const Replay& a, const Replay& b) {
                if (a.unit != b.unit) return a.unit < b.unit;
                return a.key < b.key;
              });
    for (const Replay& r : replay) {
      const Diff& d = r.rec->diffs[static_cast<std::size_t>(r.di)];
      d.Apply(node.UnitSpan(r.unit));
      install += cost.DiffApplyCost(d.payload_bytes());
    }
  } else {
    // HLRC (DESIGN.md §9): surviving homes serve whole-unit copies — one
    // combined exchange per home.  Units homed at the victim itself have
    // no surviving master: each is reconstructed from survivors' cached
    // copies and re-homed via the per-unit override table.  The
    // rebuilding home cannot know which survivors still cache a unit
    // without asking — the sharer directory is appended concurrently by
    // running peers, so consulting it here would make recovery cost
    // depend on host timing — so it probes EVERY survivor (one combined
    // header-sized probe exchange each) and pulls the full image from the
    // lowest surviving rank: deterministic, and honestly pessimistic.
    // The re-home batch is registered here and applied by the barrier
    // coordinator inside the next barrier's idle window, so every node
    // flips to the new map at the same deterministic point; lagging nodes
    // then pay the timeout + retransmit for learning it
    // (recovery_retransmits).
    std::vector<std::size_t> units_per_home(
        static_cast<std::size_t>(nprocs), 0);
    std::size_t self_homed = 0;
    std::vector<std::pair<UnitId, ProcId>> rehomes;
    for (UnitId u = 0; u < num_units; ++u) {
      const ProcId h = shared.EffectiveHome(u);
      if (h != node.id_) {
        ++units_per_home[static_cast<std::size_t>(h)];
        continue;
      }
      ++self_homed;
      rehomes.emplace_back(u, shared.RehomeTarget(u, node.id_));
    }
    for (ProcId h = 0; h < nprocs; ++h) {
      const std::size_t n = units_per_home[static_cast<std::size_t>(h)];
      if (n == 0) continue;
      const std::size_t req = 16 + 8 * n;
      const std::size_t resp = n * (16 + unit_bytes);
      c.recovery_messages += 2;
      c.recovery_data_bytes += n * unit_bytes;
      slowest = std::max(
          slowest,
          shared.net.RoundTripTime(req, resp) +
              cost.request_service_overhead +
              static_cast<VirtualNanos>(n) * cost.TwinCost(unit_bytes));
    }
    if (self_homed > 0) {
      const ProcId source = node.id_ == 0 ? 1 : 0;
      for (ProcId p = 0; p < nprocs; ++p) {
        if (p == node.id_) continue;
        // One combined reconstruction exchange per survivor: the lowest
        // surviving rank ships the full units, the rest ship 16-byte
        // probe replies.
        const std::size_t full = p == source ? self_homed : 0;
        const std::size_t probed = self_homed - full;
        const std::size_t req = 16 + 8 * self_homed;
        const std::size_t resp = full * (16 + unit_bytes) + 16 * probed;
        c.recovery_messages += 2;
        c.recovery_data_bytes += full * unit_bytes;
        slowest = std::max(
            slowest,
            shared.net.RoundTripTime(req, resp) +
                cost.request_service_overhead +
                static_cast<VirtualNanos>(full) * cost.TwinCost(unit_bytes));
      }
    }
    for (UnitId u = 0; u < num_units; ++u) {
      const std::span<std::byte> dst = node.UnitSpan(u);
      std::lock_guard lock(shared.home_mutexes[u]);
      std::memcpy(dst.data(),
                  shared.home_image.get() + shared.heap.UnitBase(u),
                  unit_bytes);
      install += cost.TwinCost(unit_bytes);
    }
    if (!rehomes.empty()) {
      std::lock_guard lock(shared.rehome_mutex);
      for (const auto& r : rehomes) shared.pending_rehomes.push_back(r);
    }
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

  // Lock-side sweep: drop the victim from every grant queue, force-release
  // anything it held (publishing the recovered clock/time, exactly what
  // its own release at the crash point would have), invalidate its cached
  // tokens.  Its in-flight transparent release becomes an orphan no-op.
  // The race detector sweeps first, for the same reason the detector's
  // release hook precedes LockService::Release: a peer granted a
  // force-released lock must find the victim's detector clock already on
  // it — recovery replay must not manufacture reports (DESIGN.md §10).
  if (shared.race != nullptr) shared.race->OnCrashSweep(node.id_);
  shared.locks->OnCrash(node.id_, node.vc_, node.clock_.now());

  const auto wall_end = std::chrono::steady_clock::now();
  shared.fault->OnRecovered(
      event_index, modelled,
      static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(wall_end -
                                                               wall_start)
              .count()));
}

}  // namespace dsm
