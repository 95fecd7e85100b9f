#include "core/lrc.h"

#include <algorithm>

#include "core/protocol.h"

namespace dsm {

Lrc::Lrc(const RuntimeConfig& config, std::size_t num_units,
         std::size_t unit_bytes)
    : nprocs_(config.num_procs),
      num_units_(num_units),
      unit_bytes_(unit_bytes),
      interval_(static_cast<std::uint32_t>(config.gc_interval_barriers)),
      lag_(static_cast<std::uint32_t>(config.gc_lag_barriers)),
      checkpoint_complete_(config.fault.armed()),
      nodes_(config.backend == BackendKind::kLrc
                 ? static_cast<std::size_t>(config.num_procs)
                 : 0),
      bases_(nodes_.empty() ? 0 : num_units, unit_bytes),
      checkpoint_(config.num_procs) {
  if (nodes_.empty()) return;
  for (NodeState& n : nodes_) {
    n.pending.resize(num_units);
    n.retwin_free.assign(num_units, 0);
    n.requested = std::vector<std::atomic<std::uint8_t>>(num_units);
    n.request_seen.assign(num_units, 0);
    n.needs_by_writer.resize(nodes_.size());
  }
  chains_.resize(num_units * nodes_.size());
  sharer_.assign(num_units * nodes_.size(), 0);
  virgin_.resize(num_units);
}

// Diffs are materialized here for bookkeeping (archived records must be
// immutable), but no cost is charged: TreadMarks diffs lazily, so a
// release only records write notices.  The record copies each run's words
// out of the image, which nothing writes before it is built.
void Lrc::Close(Node& node, IntervalDraft& draft) {
  PageTable& table = node.table_;
  std::vector<std::uint8_t>& retwin_free = nodes_[node.id_].retwin_free;
  for (UnitId unit : table.dirty_units()) {
    draft.AddDiff(unit, table.twin(unit), node.UnitSpan(unit));
    table.DropTwin(unit);
    if (table.state(unit) == UnitState::kDirty) {
      table.set_state(unit, UnitState::kReadValid);
    }
    retwin_free[unit] = 1;
    node.comm_stats_.counters().diffs_created += 1;
  }
  table.ClearDirtyList();
}

void Lrc::Queue(ProcId node, const IntervalRecord* rec) {
  std::vector<std::vector<Notice>>& pending = nodes_[node].pending;
  const std::span<const UnitId> units = rec->units();
  for (std::uint32_t i = 0; i < units.size(); ++i) {
    pending[units[i]].push_back({rec, i});
  }
}

// Only the barrier-drained view is consulted — never the live request
// flags — so the decision does not depend on host thread timing.  Live
// (same-phase) requests are left for the next drain, so a request
// concurrent with this interval makes the NEXT re-twin expensive
// whichever host thread won the race.
bool Lrc::Twin(ProcId node, UnitId unit, bool was_valid) {
  NodeState& n = nodes_[node];
  const bool is_free =
      was_valid && n.retwin_free[unit] != 0 && n.request_seen[unit] == 0;
  n.retwin_free[unit] = 0;
  n.request_seen[unit] = 0;
  return is_free;
}

void Lrc::Adopt(ProcId node, UnitId unit) {
  std::uint8_t& sharer = sharer_[Slot(node, unit)];
  if (sharer != 0) return;
  sharer = 1;
  if (!virgin_[unit].empty()) chains_[Slot(node, unit)] = virgin_[unit];
}

void Lrc::Fetch(Node& node, const std::vector<UnitId>& units) {
  const CostModel& cost = node.shared_.config.cost;
  const ProcId self = node.id_;
  const std::uint64_t stamp_key = node.stamp_key();
  NodeState& n = nodes_[self];
  CommStats& comm = node.comm_stats_;

  // Validation discards the persisting twin of every unit it fetches, the
  // Dyn group members included.
  for (UnitId unit : units) n.retwin_free[unit] = 0;

  // Gather needed diffs, grouped by writer.  Consecutive intervals of the
  // SAME writer are coalesced into one combined diff when the absorption
  // rule (MayAbsorb) allows it: no reader could ever observe the
  // intermediate versions, so the server ships the union (this is the
  // server-side answer to TreadMarks' diff accumulation problem; without
  // it, a page repeatedly rewritten by one processor ships its entire
  // modification history on first fetch).
  //
  // Intervals reclaimed by archive GC arrive pre-coalesced as
  // FlattenedChains — the exact chains this loop would have built, frozen
  // at GC time with live records from later epochs still absorbable into
  // the last chain of each writer (every live record happened-after every
  // reclaimed one, so the absorption check degenerates to the foreign
  // live records plus the chain's `blocked` flag).
  for (auto& v : n.needs_by_writer) v.clear();
  n.merged_runs.clear();
  n.live_diffs.clear();
  for (UnitId unit : units) {
    // A first fault adopts the shared virgin history (if any) and makes
    // the node a sharer, so the unit holds exactly the state the GC would
    // have built per node.
    Adopt(self, unit);
    // A unit only goes invalid when a write notice queues a pending
    // entry.  The fetch that revalidates the unit consumes the entry, and
    // the GC turns a dominated one into a flattened chain, so an invalid
    // unit always has something to fetch.
    const std::vector<Notice>& pending = n.pending[unit];
    const std::vector<FlattenedChain>& flat = chains_[Slot(self, unit)];
    DSM_CHECK(!pending.empty() || !flat.empty())
        << "invalid unit " << unit << " with no pending write notices";
    for (const Notice& pi : pending) {
      DSM_CHECK_NE(pi.rec->proc(), self);
      DSM_CHECK_EQ(pi.rec->units()[pi.index], unit)
          << "interval (" << pi.rec->proc() << "," << pi.rec->seq()
          << ") has no diff for unit " << unit;
    }
    for (ProcId w = 0; w < nprocs_; ++w) {
      // This writer's intervals, in increasing seq order (pending notices
      // arrive in acquire order, which respects per-writer seq order);
      // flattened chains always precede live records.
      std::vector<const Notice*>& chain_input = n.chain;
      chain_input.clear();
      for (const Notice& pi : pending) {
        if (pi.rec->proc() == w) chain_input.push_back(&pi);
      }
      const FlattenedChain* last_flat = nullptr;
      for (const FlattenedChain& c : flat) {
        if (c.writer == w) last_flat = &c;
      }
      if (last_flat == nullptr && chain_input.empty()) continue;

      // One server-side twin scan per (writer, unit) with any interval
      // this requester pays to materialize; everything materialized in an
      // earlier phase is served from the writer's diff cache.  Reclaimed
      // intervals keep their first-requester stamps alive in the chains.
      bool needs_scan = false;
      for (const FlattenedChain& c : flat) {
        if (c.writer != w) continue;
        c.ForEachStamp([&](std::uint64_t& stamp) {
          if (IntervalRecord::PaysForStamp(stamp, stamp_key)) {
            needs_scan = true;
          }
        });
      }
      for (const Notice* r : chain_input) {
        if (r->rec->PaysForDiff(r->index, stamp_key)) needs_scan = true;
      }
      nodes_[w].requested[unit].store(1, std::memory_order_relaxed);

      auto push_need = [&](NeedEntry e) {
        e.unit = unit;
        e.needs_scan = needs_scan;
        needs_scan = false;  // at most one scan per (writer, unit)
        n.needs_by_writer[w].push_back(e);
      };
      auto head_need = [&](const FlattenedChain& c) {
        NeedEntry e{};
        e.key = c.body->tail;
        e.head = &c;
        e.runs = c.runs();
        e.payload_words = c.payload_words();
        e.live_begin = static_cast<std::uint32_t>(n.live_diffs.size());
        return e;
      };
      // Every flattened chain of w but the last is finished; the last may
      // still absorb live records into its tail.
      for (const FlattenedChain& c : flat) {
        if (c.writer == w && &c != last_flat) push_need(head_need(c));
      }

      // The live foreign intervals' clock components for MayAbsorb.
      // (Foreign reclaimed intervals ordered after a flattened head are
      // recorded in its `blocked` flag; they can never be after a live
      // tail.)
      std::vector<Seq>& foreign_vcw = n.foreign_vcw;
      if (!chain_input.empty()) {
        foreign_vcw.clear();
        for (const Notice& q : pending) {
          if (q.rec->proc() != w) foreign_vcw.push_back(q.rec->vc(w));
        }
        std::sort(foreign_vcw.begin(), foreign_vcw.end());
      }

      // The open chain starts as w's last flattened chain, if any.  Each
      // live record joins it or closes it and starts the next.
      NeedEntry open{};
      bool is_open = false;
      Seq first_seq = 0;
      bool blocked = false;
      if (last_flat != nullptr) {
        open = head_need(*last_flat);
        is_open = true;
        first_seq = last_flat->first_seq;
        blocked = last_flat->blocked;
      }
      for (const Notice* r : chain_input) {
        const IntervalRecord& rec = *r->rec;
        const std::span<const DiffRun> runs = rec.runs(r->index);
        if (is_open && !blocked &&
            MayAbsorb(foreign_vcw, first_seq, rec.seq())) {
          n.merged_runs.push_back(Diff::MergeRuns(open.runs, runs));
          open.runs = n.merged_runs.back();
          open.payload_words = Diff::RunWords(open.runs);
        } else {
          if (is_open) push_need(open);
          open = NeedEntry{};
          is_open = true;
          open.runs = runs;
          open.payload_words = rec.payload_words(r->index);
          open.live_begin = static_cast<std::uint32_t>(n.live_diffs.size());
          first_seq = rec.seq();
          blocked = false;
        }
        open.key = HbKey(rec);
        n.live_diffs.push_back(*r);
        ++open.live_count;
      }
      if (is_open) push_need(open);
    }
  }

  // One request/response exchange per writer; writers answer in parallel
  // (paper §4: "those processors can return the diffs in parallel rather
  // than in sequence").
  const std::uint32_t first_exchange = comm.num_exchanges();
  int num_writers = 0;
  VirtualNanos slowest_exchange = 0;
  for (ProcId w = 0; w < nprocs_; ++w) {
    auto& needs = n.needs_by_writer[w];
    if (needs.empty()) continue;
    ++num_writers;
    const std::uint32_t ex = comm.NewExchange();
    std::size_t request_bytes = 16;
    std::size_t response_bytes = 0;
    std::uint32_t delivered_words = 0;
    UnitId last_unit_in_req = ~UnitId{0};
    for (auto& need : needs) {
      need.exchange_id = ex;
      if (need.unit != last_unit_in_req) {
        request_bytes += 8;  // unit id + timestamp bound per unit requested
        last_unit_in_req = need.unit;
      }
      // The chain travels as one combined diff.
      response_bytes += Diff::WireBytes(need.runs.size(), need.payload_words);
      delivered_words += static_cast<std::uint32_t>(need.payload_words);
    }
    comm.AddDelivered(ex, delivered_words);
    node.net_stats_.Record(MessageKind::kDiffRequest, request_bytes);
    node.net_stats_.Record(MessageKind::kDiffResponse, response_bytes);
    // Server-side cost: request handling plus lazy diff creation — one
    // twin scan per (unit, writer) whose diffs were not yet materialized.
    VirtualNanos server = cost.request_service_overhead;
    for (const auto& need : needs) {
      if (need.needs_scan) server += cost.DiffCreateCost(unit_bytes_);
    }
    const VirtualNanos t =
        node.shared_.net.RoundTripTime(request_bytes, response_bytes) +
        server;
    slowest_exchange = std::max(slowest_exchange, t);
  }
  DSM_CHECK_GT(num_writers, 0);
  node.clock_.Advance(slowest_exchange);
  comm.RecordFault(num_writers, first_exchange);

  // Apply diffs per unit, in happens-before order of the chain tails
  // (HbKey): ordered intervals may overlap words, e.g. migratory data
  // under locks; concurrent intervals touch disjoint words in race-free
  // programs.  Ordering tails suffices: by the absorption rule above, a
  // foreign interval ordered after a chain's head is ordered after its
  // tail too, so every ordered pair of writes lands oldest first.
  PageTable& table = node.table_;
  std::vector<NeedEntry>& for_unit = n.apply;
  for (UnitId unit : units) {
    for_unit.clear();
    for (ProcId w = 0; w < nprocs_; ++w) {
      for (const auto& need : n.needs_by_writer[w]) {
        if (need.unit == unit) for_unit.push_back(need);
      }
    }
    std::sort(for_unit.begin(), for_unit.end(),
              [](const NeedEntry& a, const NeedEntry& b) {
                return a.key < b.key;
              });
    std::span<std::byte> dst = node.UnitSpan(unit);
    for (const NeedEntry& need : for_unit) {
      const bool twinned = table.HasTwin(unit);
      if (need.head != nullptr) {
        // Reclaimed head: its words live in the canonical base.  Its own
        // runs suffice — a word only a live member covers is written by
        // that member below.
        const std::span<const DiffRun> runs = need.head->runs();
        bases_.CopyRuns(unit, dst, runs);
        if (twinned) bases_.CopyRuns(unit, table.twin(unit), runs);
      }
      // Live members oldest first: every word of the union ends with its
      // newest member's value, exactly what one combined diff carries.
      for (std::uint32_t i = 0; i < need.live_count; ++i) {
        const Notice& d = n.live_diffs[need.live_begin + i];
        d.rec->Apply(d.index, dst);
        if (twinned) d.rec->Apply(d.index, table.twin(unit));
      }
      for (const DiffRun& run : need.runs) {
        node.tracker_.Deliver(unit, run.word_offset, run.word_count,
                              need.exchange_id);
      }
      const std::size_t payload_bytes = need.payload_words * kWordBytes;
      comm.counters().diffs_applied += 1;
      comm.counters().delivered_data_bytes += payload_bytes;
      node.clock_.Advance(cost.DiffApplyCost(payload_bytes));
    }
    n.pending[unit].clear();
    chains_[Slot(self, unit)].clear();
  }
}

// Every processor is inside the barrier, so no diff request is in flight
// anywhere: the drain sees every request of the finished phase, and the
// closing rendezvous keeps any node from issuing new ones before every
// drain finished.  Archive GC rides the same idle window (DESIGN.md §6):
// every node collects its own stripe of units, so the pass is over once
// the window closes.
void Lrc::OnBarrier(Node& node, bool is_coordinator) {
  NodeState& n = nodes_[node.id_];
  for (std::size_t u = 0; u < n.requested.size(); ++u) {
    if (n.requested[u].load(std::memory_order_relaxed) != 0) {
      n.requested[u].store(0, std::memory_order_relaxed);
      n.request_seen[u] = 1;
    }
  }
  const VectorClock* target = PassTarget(node.sync_phase_, node.shared_);
  n.prune_through.reset();
  if (target == nullptr) return;
  CollectStripe(node.shared_, node.id_, is_coordinator, *target);
  n.prune_through = (*target)[node.id_];
}

// The coordinator's bookkeeping is ordered after every stripe's work and
// PassTarget read, and before any node's next barrier (its next Arrive
// cannot complete before the coordinator's, which follows this).  The
// prune is mutex-guarded, and nothing live references the prefix.
void Lrc::AfterBarrier(Node& node, bool is_coordinator,
                       const VectorClock& global_vc) {
  const std::optional<Seq> prune = nodes_[node.id_].prune_through;
  if (is_coordinator) EndBarrier(global_vc, prune.has_value());
  if (prune) node.shared_.archives[node.id_]->PruneThrough(*prune);
}

// Canonical bases hold every interval at or below the checkpoint
// watermark (checkpoint-complete GC mode); the archives — stable
// write-ahead logs, the victim's own included — hold the rest.  Replay
// above the watermark in happens-before order.
void Lrc::Rebuild(Node& victim, const VectorClock& cut, VirtualNanos& slowest,
                  VirtualNanos& install) {
  const SharedState& shared = victim.shared_;
  const CostModel& cost = shared.config.cost;
  CommBreakdown& c = victim.comm_stats_.counters();
  const ProcId self = victim.id_;

  // The victim's notices, flags and reclaimed chains go, and it becomes a
  // sharer of EVERY unit: its rebuilt image is newer than the shared
  // virgin history, so a later first-fault adoption of those chains would
  // clobber replayed content.  Safe — the virgin store is dropped only
  // once every proc is a sharer, which only drops history no one can
  // need.
  NodeState& n = nodes_[self];
  std::size_t base_units = 0;
  for (UnitId u = 0; u < num_units_; ++u) {
    n.pending[u].clear();
    n.retwin_free[u] = 0;
    n.request_seen[u] = 0;
    chains_[Slot(self, u)].clear();
    sharer_[Slot(self, u)] = 1;
    if (bases_.ReadCheckpoint(u, victim.UnitSpan(u))) ++base_units;
  }
  if (base_units > 0) {
    // One bulk exchange with the checkpoint store: request header, one
    // (unit id + payload) per base image.
    const std::size_t resp = base_units * (16 + unit_bytes_);
    c.recovery_messages += 2;
    c.recovery_data_bytes += base_units * unit_bytes_;
    slowest = std::max(slowest,
                       shared.net.RoundTripTime(16, resp) +
                           cost.request_service_overhead +
                           static_cast<VirtualNanos>(base_units) *
                               cost.TwinCost(unit_bytes_));
    install +=
        static_cast<VirtualNanos>(base_units) * cost.TwinCost(unit_bytes_);
  }

  struct Replay {
    UnitId unit;
    const IntervalRecord* rec;
    std::uint32_t index;
    HbKey key;
  };
  std::vector<Replay> replay;
  std::vector<const IntervalRecord*> range;
  for (ProcId p = 0; p < nprocs_; ++p) {
    range.clear();
    shared.archives[p]->Range(checkpoint_[p], cut[p], range);
    if (range.empty()) continue;
    // One exchange per contributing log: request header, per-record
    // notice header plus the encoded diffs.
    std::size_t resp = 0;
    for (const IntervalRecord* rec : range) {
      const HbKey key(*rec);
      resp += 16;
      const std::span<const UnitId> units = rec->units();
      for (std::uint32_t k = 0; k < units.size(); ++k) {
        resp += rec->EncodedBytes(k);
        c.recovery_data_bytes += rec->payload_words(k) * kWordBytes;
        replay.push_back({units[k], rec, k, key});
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
    r.rec->Apply(r.index, victim.UnitSpan(r.unit));
    install += cost.DiffApplyCost(r.rec->payload_words(r.index) * kWordBytes);
  }
}

}  // namespace dsm
