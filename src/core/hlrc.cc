#include "core/hlrc.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "core/protocol.h"

namespace dsm {

Homes::Homes(const RuntimeConfig& config, const GlobalHeap& heap)
    : nprocs_(config.num_procs),
      num_units_(heap.num_units()),
      unit_bytes_(heap.unit_bytes()) {
  if (config.backend != BackendKind::kHlrc) return;
  image_ = AllocZeroedImage(heap.heap_bytes());
  unit_mutexes_.reset(new std::mutex[num_units_]);
  // Any processor may be a crashing home.
  if (config.fault.armed()) rehomed_.assign(num_units_, -1);
  scratch_.resize(static_cast<std::size_t>(nprocs_));
  for (Scratch& s : scratch_) {
    s.by_home.resize(static_cast<std::size_t>(nprocs_));
    s.flush_bytes.assign(static_cast<std::size_t>(nprocs_), 0);
    s.flush_server.assign(static_cast<std::size_t>(nprocs_), 0);
  }
}

// The dual of the lazy LRC release (Node::CloseInterval): diffs are made
// eagerly, so the releaser pays the twin scan now, not a future
// requester; homes absorb them in parallel and the release waits for the
// slowest ack; and the record keeps only the write notices, so nothing
// here ever needs garbage collecting.
void Homes::Flush(Node& node, IntervalDraft& draft) {
  const CostModel& cost = node.shared_.config.cost;
  PageTable& table = node.table_;
  CommBreakdown& c = node.comm_stats_.counters();
  Scratch& s = scratch_[static_cast<std::size_t>(node.id_)];

  VirtualNanos create_cost = 0;
  for (UnitId unit : table.dirty_units()) {
    draft.AddNotice(unit);
    create_cost += cost.DiffCreateCost(unit_bytes_);
    c.diffs_created += 1;
    const std::span<std::byte> image = node.UnitSpan(unit);
    s.runs.clear();
    const std::size_t words = Diff::FindRuns(table.twin(unit), image, s.runs);
    // An empty diff means the interval changed no bytes: the twin scan
    // above is still paid (eager diffing discovers the emptiness), but
    // there is nothing for the home to absorb and the write notice
    // travels with the sync traffic, so no flush message is modelled.
    if (!s.runs.empty()) {
      {
        std::lock_guard lock(unit_mutexes_[unit]);
        Diff::CopyRuns(s.runs, image, HomeCopy(unit));
      }
      const ProcId home = Home(unit);
      if (home != node.id_) {
        const auto h = static_cast<std::size_t>(home);
        if (s.flush_bytes[h] == 0) s.flush_bytes[h] = 16;  // header
        s.flush_bytes[h] += 8 + Diff::WireBytes(s.runs.size(), words);
        s.flush_server[h] += cost.DiffApplyCost(words * kWordBytes);
        c.home_flushes += 1;
        c.home_flush_bytes += words * kWordBytes;
      }
    }
    table.DropTwin(unit);
    if (table.state(unit) == UnitState::kDirty) {
      table.set_state(unit, UnitState::kReadValid);
    }
    // No free re-twin (Lrc::Twin): under eager diffing the twin is
    // genuinely gone after a release, so the next write pays in full.
  }
  table.ClearDirtyList();
  node.clock_.Advance(create_cost);

  // One flush exchange per remote home touched; homes apply in parallel,
  // the releaser advances to the slowest acknowledgement.
  VirtualNanos slowest = 0;
  bool learned = false;
  for (std::size_t h = 0; h < s.flush_bytes.size(); ++h) {
    const std::size_t bytes = s.flush_bytes[h];
    if (bytes == 0) continue;
    node.net_stats_.Record(MessageKind::kHomeFlush, bytes);
    node.net_stats_.Record(MessageKind::kHomeFlushAck, 16);
    c.home_flush_messages += 2;
    VirtualNanos t = node.shared_.net.RoundTripTime(bytes, 16) +
                     cost.request_service_overhead + s.flush_server[h];
    if (!learned) {
      // First home contact of this release.
      t += ChargeLearning(node, bytes);
      learned = true;
    }
    slowest = std::max(slowest, t);
    s.flush_bytes[h] = 0;
    s.flush_server[h] = 0;
  }
  node.clock_.Advance(slowest);
}

// Whole-unit copies from the homes replace the LRC diff chase.  A
// self-homed unit is a local copy with no messages and no delivery
// accounting (nothing crossed the wire).  The home copy is at least as
// new as everything the received write notices name (every noticed
// release flushed before this node's acquire completed), and any newer
// words it carries belong to intervals this node will be told about
// later; race-free programs never read those early.
void Homes::Fetch(Node& node, const std::vector<UnitId>& units) {
  const CostModel& cost = node.shared_.config.cost;
  PageTable& table = node.table_;
  CommStats& comm = node.comm_stats_;
  CommBreakdown& c = comm.counters();
  Scratch& s = scratch_[static_cast<std::size_t>(node.id_)];
  const auto words_per_unit =
      static_cast<std::uint32_t>(unit_bytes_ / kWordBytes);

  for (auto& list : s.by_home) list.clear();
  for (UnitId unit : units) {
    s.by_home[static_cast<std::size_t>(Home(unit))].push_back(unit);
  }

  const std::uint32_t first_exchange = comm.num_exchanges();
  int num_homes = 0;
  VirtualNanos slowest = 0;
  for (ProcId h = 0; h < nprocs_; ++h) {
    const std::vector<UnitId>& list = s.by_home[static_cast<std::size_t>(h)];
    if (list.empty()) continue;
    std::uint32_t ex = 0;
    const bool remote = h != node.id_;
    if (remote) {
      ++num_homes;
      ex = comm.NewExchange();
      const std::size_t request_bytes = 16 + 8 * list.size();
      const std::size_t response_bytes = list.size() * (16 + unit_bytes_);
      comm.AddDelivered(
          ex, static_cast<std::uint32_t>(list.size() * words_per_unit));
      node.net_stats_.Record(MessageKind::kHomeFetch, request_bytes);
      node.net_stats_.Record(MessageKind::kHomeFetchReply, response_bytes);
      c.home_fetches += list.size();
      c.home_fetch_bytes += list.size() * unit_bytes_;
      c.delivered_data_bytes += list.size() * unit_bytes_;
      // Home-side cost: request handling plus one unit copy into the
      // reply per unit served.
      VirtualNanos t =
          node.shared_.net.RoundTripTime(request_bytes, response_bytes) +
          cost.request_service_overhead +
          static_cast<VirtualNanos>(list.size()) * cost.TwinCost(unit_bytes_);
      // First remote contact of this fault.
      if (num_homes == 1) t += ChargeLearning(node, request_bytes);
      slowest = std::max(slowest, t);
    }
    for (UnitId unit : list) {
      const bool twinned = table.HasTwin(unit);
      const std::span<std::byte> image = node.UnitSpan(unit);
      // Local uncommitted words (a live twin) are parked in the twin, the
      // home copy goes underneath image and twin, and the parked words go
      // back on top of the image: the whole-unit analogue of the LRC path's
      // "apply foreign diffs to image AND twin", so diffing twin against
      // image still yields exactly the local modifications.
      s.runs.clear();
      if (twinned) {
        Diff::FindRuns(table.twin(unit), image, s.runs);
        Diff::CopyRuns(s.runs, image, table.twin(unit));
      }
      {
        const std::span<const std::byte> home = HomeCopy(unit);
        std::lock_guard lock(unit_mutexes_[unit]);
        std::memcpy(image.data(), home.data(), unit_bytes_);
        if (twinned) {
          Diff::CopyRuns(s.runs, table.twin(unit), image);
          std::memcpy(table.twin(unit).data(), home.data(), unit_bytes_);
        }
      }
      // Installing the received (or locally copied) unit is one memcpy.
      node.clock_.Advance(cost.TwinCost(unit_bytes_));
      if (remote) {
        node.tracker_.Deliver(unit, 0, words_per_unit, ex);
        // Words the parked local words overwrote can never credit the
        // fetch.
        for (const DiffRun& run : s.runs) {
          node.tracker_.OnWrite(unit, run.word_offset, run.word_count);
        }
      }
    }
  }
  if (num_homes > 0) {
    node.clock_.Advance(slowest);
    comm.RecordFault(num_homes, first_exchange);
  }
}

// The whole HLRC memory story: records are notice-only metadata, and a
// record every peer has consumed (its seq is at or below every peer's
// notices_seen_ for this node) can never be Range()d again, by a lock
// acquire or a barrier release.  So each node drops that prefix of its
// own log inside the window, and the log stays bounded by how far the
// slowest consumer lags.  Peers consume notices only after the closing
// rendezvous or in a lock acquire, and none runs one inside the window,
// so their clocks are frozen while the node reads them.
void Homes::OnBarrier(Node& node, bool is_coordinator) {
  if (is_coordinator && !rehomed_.empty()) {
    // Every node flips to the new map at this same point.
    std::lock_guard lock(batch_mutex_);
    if (!batch_.empty()) {
      for (const auto& [unit, home] : batch_) rehomed_[unit] = home;
      batch_.clear();
      ++epoch_;
    }
  }
  SharedState& shared = node.shared_;
  Seq floor = std::numeric_limits<Seq>::max();
  for (ProcId q = 0; q < nprocs_; ++q) {
    if (q != node.id_) {
      floor = std::min(floor, shared.nodes[q]->notices_seen_[node.id_]);
    }
  }
  shared.archives[node.id_]->PruneThrough(floor);
}

// The epoch is written by the barrier coordinator inside the window and
// read here strictly after that barrier's closing rendezvous.  The charge
// is node-local and deterministic: victims trigger at their own points,
// and batches apply at barriers.
VirtualNanos Homes::ChargeLearning(Node& node, std::size_t request_bytes) {
  if (rehomed_.empty()) return 0;
  std::uint64_t& seen = scratch_[static_cast<std::size_t>(node.id_)].epoch_seen;
  if (seen == epoch_) return 0;
  const std::uint64_t missed = epoch_ - seen;
  seen = epoch_;
  CommBreakdown& c = node.comm_stats_.counters();
  c.recovery_retransmits += missed;
  c.recovery_retransmit_bytes += missed * request_bytes;
  return static_cast<VirtualNanos>(missed) *
         (node.shared_.net.RoundTripTime(request_bytes, 16) +
          node.shared_.config.cost.request_service_overhead);
}

// Surviving homes serve whole-unit copies, one combined exchange per home.
// Units homed at the victim itself have no surviving master: each is
// reconstructed from the survivors' cached copies and re-homed.  The
// rebuilding home cannot know which survivors still cache a unit without
// asking (the sharer flags are set concurrently by running peers, so
// reading them would make recovery cost depend on host timing), so it
// probes EVERY survivor, one header-sized probe exchange each, and pulls
// the full units from the lowest surviving rank: deterministic, and
// honestly pessimistic.  The batch applies inside the next barrier's
// window (OnBarrier); lagging nodes then pay for learning it.
void Homes::Rebuild(Node& victim, VirtualNanos& slowest,
                    VirtualNanos& install) {
  const CostModel& cost = victim.shared_.config.cost;
  const NetworkModel& net = victim.shared_.net;
  CommBreakdown& c = victim.comm_stats_.counters();
  const ProcId self = victim.id_;

  std::vector<std::size_t> units_per_home(static_cast<std::size_t>(nprocs_));
  std::size_t self_homed = 0;
  {
    std::lock_guard lock(batch_mutex_);
    for (UnitId u = 0; u < num_units_; ++u) {
      const ProcId h = Home(u);
      if (h != self) {
        ++units_per_home[static_cast<std::size_t>(h)];
        continue;
      }
      ++self_homed;
      batch_.emplace_back(u, NewHome(u, self));
    }
  }
  for (std::size_t h = 0; h < units_per_home.size(); ++h) {
    const std::size_t n = units_per_home[h];
    if (n == 0) continue;
    const std::size_t req = 16 + 8 * n;
    const std::size_t resp = n * (16 + unit_bytes_);
    c.recovery_messages += 2;
    c.recovery_data_bytes += n * unit_bytes_;
    slowest = std::max(
        slowest, net.RoundTripTime(req, resp) + cost.request_service_overhead +
                     static_cast<VirtualNanos>(n) * cost.TwinCost(unit_bytes_));
  }
  if (self_homed > 0) {
    const ProcId source = self == 0 ? 1 : 0;
    for (ProcId p = 0; p < nprocs_; ++p) {
      if (p == self) continue;
      // One combined reconstruction exchange per survivor: the lowest
      // surviving rank ships the full units, the rest ship 16-byte probe
      // replies.
      const std::size_t full = p == source ? self_homed : 0;
      const std::size_t probed = self_homed - full;
      const std::size_t req = 16 + 8 * self_homed;
      const std::size_t resp = full * (16 + unit_bytes_) + 16 * probed;
      c.recovery_messages += 2;
      c.recovery_data_bytes += full * unit_bytes_;
      slowest = std::max(slowest, net.RoundTripTime(req, resp) +
                                      cost.request_service_overhead +
                                      static_cast<VirtualNanos>(full) *
                                          cost.TwinCost(unit_bytes_));
    }
  }
  for (UnitId u = 0; u < num_units_; ++u) {
    std::lock_guard lock(unit_mutexes_[u]);
    std::memcpy(victim.UnitSpan(u).data(), HomeCopy(u).data(), unit_bytes_);
    install += cost.TwinCost(unit_bytes_);
  }
}

}  // namespace dsm
