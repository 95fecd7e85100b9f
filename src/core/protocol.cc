#include "core/protocol.h"

#include <algorithm>

#include "analysis/race_detector.h"
#include "core/fault.h"

namespace dsm {
namespace {

// Validation must precede every other member's construction (GlobalHeap
// would CHECK-abort on an absurd heap size instead of throwing), so it
// rides the first mem-initializer.
const RuntimeConfig& Validated(const RuntimeConfig& cfg) {
  cfg.Validate();
  return cfg;
}

}  // namespace

const char* RuntimeConfig::UnitLabel() const {
  if (aggregation == AggregationMode::kDynamic) return "Dyn";
  switch (pages_per_unit) {
    case 1:
      return "4K";
    case 2:
      return "8K";
    case 4:
      return "16K";
    case 8:
      return "32K";
    default:
      return "static";
  }
}

const char* RuntimeConfig::BackendLabel() const {
  switch (backend) {
    case BackendKind::kReference:
      return "Ref";
    case BackendKind::kHlrc:
      return "HLRC";
    case BackendKind::kLrc:
      break;
  }
  return "LRC";
}

SharedState::SharedState(const RuntimeConfig& cfg)
    : config(Validated(cfg)),
      heap(cfg.heap_bytes, cfg.unit_bytes()),
      net(cfg.net),
      barrier(std::make_unique<BarrierService>(cfg.num_procs)),
      locks(std::make_unique<LockService>(kNumLocks, cfg.num_procs)),
      gc(config, heap.num_units(), heap.unit_bytes()),
      homes(config, heap) {
  if (config.fault.armed()) {
    fault = std::make_unique<FaultInjector>(config.fault);
  }
  if (cfg.backend == BackendKind::kReference) {
    reference_image = AllocZeroedImage(heap.heap_bytes());
  }
  archives.reserve(cfg.num_procs);
  for (int p = 0; p < cfg.num_procs; ++p) {
    archives.push_back(std::make_unique<IntervalArchive>());
    // The telemetry reports the LRC diff archive the GC keeps bounded.
    // HLRC records are notice-only metadata pruned by a seen-everywhere
    // watermark (Homes::OnBarrier) — hooking them up would report a
    // phantom archive for a backend that has none, and the reference
    // backend never archives at all.
    if (cfg.backend == BackendKind::kLrc) {
      archives.back()->set_telemetry(&archive_telemetry);
    }
  }
  if (cfg.race_check) {
    race = std::make_unique<RaceDetector>(cfg.num_procs, heap.num_units(),
                                          heap.unit_bytes() / kWordBytes,
                                          kNumLocks);
  }
}

SharedState::~SharedState() = default;

ProcId SharedState::CoordinatorFor(std::uint32_t sync_phase) const {
  if (fault == nullptr) return 0;
  for (ProcId r = 0; r < config.num_procs; ++r) {
    if (!fault->CrashesAtBarrier(r, sync_phase)) return r;
  }
  // Validate() guarantees a survivor per phase.
  DSM_CHECK(false) << "no surviving coordinator at barrier " << sync_phase;
  return 0;
}

Node::Node(ProcId id, SharedState& shared)
    : id_(id),
      shared_(shared),
      unit_bytes_(shared.heap.unit_bytes()),
      unit_shift_(shared.heap.unit_shift()),
      protocol_enabled_(shared.config.backend != BackendKind::kReference),
      hlrc_(shared.config.backend == BackendKind::kHlrc),
      shared_access_cost_(shared.config.cost.shared_access),
      race_(shared.race.get()),
      image_(shared.reference_image
                 ? nullptr
                 : AllocZeroedImage(shared.heap.heap_bytes())),
      data_(shared.reference_image ? shared.reference_image.get()
                                   : image_.get()),
      table_(shared.heap.num_units(), unit_bytes_),
      tracker_(shared.heap.num_units(), unit_bytes_ / kWordBytes),
      pending_(shared.heap.num_units()),
      retwin_cheap_(shared.heap.num_units(), 0),
      diff_requested_(shared.heap.num_units()),
      diff_request_seen_(shared.heap.num_units(), 0),
      aggregator_(shared.heap.num_units(), shared.config.max_group_pages),
      vc_(shared.config.num_procs),
      notices_seen_(shared.config.num_procs),
      needs_by_writer_(shared.config.num_procs) {}

void Node::ReadBytesSlow(GlobalAddr addr, void* out, std::size_t bytes) {
  auto* dst = static_cast<std::byte*>(out);
  const std::size_t total_words = bytes / kWordBytes;
  while (bytes > 0) {
    const UnitId unit = static_cast<UnitId>(addr >> unit_shift_);
    const std::size_t offset_in_unit = addr & (unit_bytes_ - 1);
    const std::size_t chunk = std::min(bytes, unit_bytes_ - offset_in_unit);
    if (protocol_enabled_) {
      if (table_.NeedsFaultOnRead(unit)) ReadFault(unit);
      tracker_.OnRead(unit,
                      static_cast<std::uint32_t>(offset_in_unit / kWordBytes),
                      static_cast<std::uint32_t>(chunk / kWordBytes),
                      [this](std::uint32_t msg) { comm_stats_.Credit(msg); });
    }
    if (race_ != nullptr) {
      RaceOnAccess(unit, offset_in_unit, chunk, /*is_write=*/false);
    }
    std::memcpy(dst, data_ + addr, chunk);
    addr += chunk;
    dst += chunk;
    bytes -= chunk;
  }
  // One batched update for the whole access (integer sums are exact, so
  // the modelled time matches the former per-chunk advances bit for bit).
  clock_.Advance(static_cast<VirtualNanos>(total_words) *
                 shared_access_cost_);
}

void Node::WriteBytesSlow(GlobalAddr addr, const void* in,
                          std::size_t bytes) {
  auto* src = static_cast<const std::byte*>(in);
  const std::size_t total_words = bytes / kWordBytes;
  while (bytes > 0) {
    const UnitId unit = static_cast<UnitId>(addr >> unit_shift_);
    const std::size_t offset_in_unit = addr & (unit_bytes_ - 1);
    const std::size_t chunk = std::min(bytes, unit_bytes_ - offset_in_unit);
    if (protocol_enabled_) {
      if (table_.NeedsFaultOnWrite(unit)) WriteFault(unit);
      tracker_.OnWrite(unit,
                       static_cast<std::uint32_t>(offset_in_unit / kWordBytes),
                       static_cast<std::uint32_t>(chunk / kWordBytes));
    }
    if (race_ != nullptr) {
      RaceOnAccess(unit, offset_in_unit, chunk, /*is_write=*/true);
    }
    std::memcpy(data_ + addr, src, chunk);
    addr += chunk;
    src += chunk;
    bytes -= chunk;
  }
  clock_.Advance(static_cast<VirtualNanos>(total_words) *
                 shared_access_cost_);
}

void Node::RaceOnAccess(UnitId unit, std::size_t offset_in_unit,
                        std::size_t bytes, bool is_write) {
  race_->OnAccess(id_, unit,
                  static_cast<std::uint32_t>(offset_in_unit / kWordBytes),
                  static_cast<std::uint32_t>(bytes / kWordBytes), is_write);
}

void Node::ReadFault(UnitId unit) {
  const CostModel& cost = shared_.config.cost;
  comm_stats_.counters().read_faults += 1;
  clock_.Advance(cost.fault_overhead);
  ValidateUnit(unit);
}

void Node::WriteFault(UnitId unit) {
  const CostModel& cost = shared_.config.cost;
  const UnitState s = table_.state(unit);
  // Lazy-diffing model: after a release the twin persists and the page
  // stays writable at the writer, so re-dirtying it is free unless some
  // peer requested a diff in an earlier barrier phase (forcing diff
  // creation, twin discard, and re-protection at the writer).  Only the
  // barrier-drained view is consulted — never the live request flags —
  // so the decision does not depend on host thread timing.
  const bool cheap = s == UnitState::kReadValid &&
                     retwin_cheap_[unit] != 0 &&
                     diff_request_seen_[unit] == 0;
  if (!cheap) {
    comm_stats_.counters().write_faults += 1;
    clock_.Advance(cost.fault_overhead);
  }
  if (s == UnitState::kInvalid || s == UnitState::kUpdatedInvalid) {
    ValidateUnit(unit);
  }
  if (table_.state(unit) == UnitState::kReadValid) TwinUnit(unit, cheap);
}

void Node::TwinUnit(UnitId unit, bool cheap) {
  const CostModel& cost = shared_.config.cost;
  table_.MakeTwin(unit, UnitSpan(unit));
  table_.RecordDirty(unit);
  table_.set_state(unit, UnitState::kDirty);
  comm_stats_.counters().twins_created += 1;
  retwin_cheap_[unit] = 0;
  // A fresh twin settles all drained requests; live (same-phase) request
  // flags are left for the next barrier drain, so a request concurrent
  // with this interval makes the NEXT re-twin expensive regardless of
  // which host thread won the race.
  diff_request_seen_[unit] = 0;
  if (!cheap) clock_.Advance(cost.TwinCost(unit_bytes_) + cost.mprotect_op);
}

void Node::ValidateUnit(UnitId unit) {
  const CostModel& cost = shared_.config.cost;
  const bool dynamic =
      shared_.config.aggregation == AggregationMode::kDynamic;
  if (dynamic) aggregator_.RecordAccess(unit);

  if (table_.state(unit) == UnitState::kUpdatedInvalid) {
    // Updates already arrived with the page group; just unprotect.
    comm_stats_.counters().silent_validations += 1;
    table_.set_state(unit, table_.HasTwin(unit) ? UnitState::kDirty
                                                : UnitState::kReadValid);
    clock_.Advance(cost.mprotect_op);
    return;
  }

  // First fault on this unit adopts the shared virgin history (if any)
  // and makes this node a sharer, so the check below sees exactly the
  // state the GC would have built per node.
  ArchiveGc& gc = shared_.gc;
  gc.Adopt(id_, unit);

  // A unit only goes invalid when a write notice queues a pending entry.
  // The fetch that revalidates the unit consumes the entry, and the GC
  // turns a dominated one into a flattened chain, so an invalid unit
  // always has something to fetch.
  DSM_CHECK(!pending_[unit].empty() || gc.HasChains(id_, unit))
      << "invalid unit " << unit << " with no pending write notices";

  retwin_cheap_[unit] = 0;
  std::vector<UnitId>& fetch = fetch_scratch_;
  fetch.clear();
  fetch.push_back(unit);
  if (dynamic) {
    for (UnitId member : aggregator_.GroupOf(unit)) {
      if (member == unit) continue;
      if (table_.state(member) == UnitState::kInvalid &&
          (!pending_[member].empty() || gc.HasChains(id_, member))) {
        gc.Adopt(id_, member);  // FetchUnits reads this node's chains
        fetch.push_back(member);
      }
    }
  }
  if (hlrc_) {
    shared_.homes.Fetch(*this, fetch);
  } else {
    FetchUnits(fetch);
  }

  for (UnitId fetched : fetch) {
    if (fetched == unit) {
      table_.set_state(unit, table_.HasTwin(unit) ? UnitState::kDirty
                                                  : UnitState::kReadValid);
    } else {
      table_.set_state(fetched, UnitState::kUpdatedInvalid);
      aggregator_.NotifyPrefetched(fetched);
      comm_stats_.counters().group_prefetch_units += 1;
    }
  }
  clock_.Advance(cost.mprotect_op);
}

void Node::FetchUnits(const std::vector<UnitId>& units) {
  const CostModel& cost = shared_.config.cost;
  const int nprocs = num_procs();

  // Gather needed diffs, grouped by writer.  Consecutive intervals of the
  // SAME writer are coalesced into one combined diff when the absorption
  // rule (MayAbsorb, core/gc.h) allows it: no reader could ever observe
  // the intermediate versions, so the server ships the union (this is the
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
  ArchiveGc& gc = shared_.gc;
  for (auto& v : needs_by_writer_) v.clear();
  merged_runs_scratch_.clear();
  live_diffs_scratch_.clear();
  for (UnitId unit : units) {
    // Resolve all live pending notices of this unit first (needed for the
    // foreign-interval ordering checks).
    std::vector<ResolvedDiff>& all = resolved_scratch_;
    all.clear();
    all.reserve(pending_[unit].size());
    for (const PendingInterval& pi : pending_[unit]) {
      DSM_CHECK_NE(pi.rec->proc(), id_);
      DSM_CHECK_EQ(pi.rec->units()[pi.index], unit)
          << "interval (" << pi.rec->proc() << "," << pi.rec->seq()
          << ") has no diff for unit " << unit;
      all.push_back({{pi.rec, pi.index},
                     pi.rec->PaysForDiff(pi.index, stamp_key())});
    }
    const std::vector<FlattenedChain>& flat = gc.chains(id_, unit);
    for (ProcId w = 0; w < nprocs; ++w) {
      // This writer's intervals, in increasing seq order (pending notices
      // arrive in acquire order, which respects per-writer seq order);
      // flattened chains always precede live records.
      std::vector<const ResolvedDiff*>& chain_input = chain_scratch_;
      chain_input.clear();
      for (const ResolvedDiff& r : all) {
        if (r.diff.rec->proc() == w) chain_input.push_back(&r);
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
          if (IntervalRecord::PaysForStamp(stamp, stamp_key())) {
            needs_scan = true;
          }
        });
      }
      for (const ResolvedDiff* r : chain_input) {
        if (r->pays_for_scan) needs_scan = true;
      }
      shared_.nodes[w]->diff_requested_[unit].store(
          1, std::memory_order_relaxed);

      auto push_need = [&](NeedEntry e) {
        e.unit = unit;
        e.needs_scan = needs_scan;
        needs_scan = false;  // at most one scan per (writer, unit)
        needs_by_writer_[w].push_back(e);
      };
      auto head_need = [&](const FlattenedChain& c) {
        NeedEntry e{};
        e.key = c.body->tail;
        e.head = &c;
        e.runs = c.runs();
        e.payload_words = c.payload_words();
        e.live_begin = static_cast<std::uint32_t>(live_diffs_scratch_.size());
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
      std::vector<Seq>& foreign_vcw = foreign_vcw_scratch_;
      if (!chain_input.empty()) {
        foreign_vcw.clear();
        for (const ResolvedDiff& q : all) {
          if (q.diff.rec->proc() != w) {
            foreign_vcw.push_back(q.diff.rec->vc(w));
          }
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
      for (const ResolvedDiff* r : chain_input) {
        const IntervalRecord& rec = *r->diff.rec;
        const std::span<const DiffRun> runs = rec.runs(r->diff.index);
        if (is_open && !blocked &&
            MayAbsorb(foreign_vcw, first_seq, rec.seq())) {
          merged_runs_scratch_.push_back(Diff::MergeRuns(open.runs, runs));
          open.runs = merged_runs_scratch_.back();
          open.payload_words = Diff::RunWords(open.runs);
        } else {
          if (is_open) push_need(open);
          open = NeedEntry{};
          is_open = true;
          open.runs = runs;
          open.payload_words = rec.payload_words(r->diff.index);
          open.live_begin =
              static_cast<std::uint32_t>(live_diffs_scratch_.size());
          first_seq = rec.seq();
          blocked = false;
        }
        open.key = HbKey(rec);
        live_diffs_scratch_.push_back(r->diff);
        ++open.live_count;
      }
      if (is_open) push_need(open);
    }
  }

  // One request/response exchange per writer; writers answer in parallel
  // (paper §4: "those processors can return the diffs in parallel rather
  // than in sequence").
  const std::uint32_t first_exchange = comm_stats_.num_exchanges();
  int num_writers = 0;
  VirtualNanos slowest_exchange = 0;
  for (ProcId w = 0; w < nprocs; ++w) {
    auto& needs = needs_by_writer_[w];
    if (needs.empty()) continue;
    ++num_writers;
    const std::uint32_t ex = comm_stats_.NewExchange();
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
      response_bytes += need.EncodedBytes();
      delivered_words += static_cast<std::uint32_t>(need.payload_words);
    }
    comm_stats_.AddDelivered(ex, delivered_words);
    net_stats_.Record(MessageKind::kDiffRequest, request_bytes);
    net_stats_.Record(MessageKind::kDiffResponse, response_bytes);
    // Server-side cost: request handling plus lazy diff creation — one
    // twin scan per (unit, writer) whose diffs were not yet materialized.
    VirtualNanos server = cost.request_service_overhead;
    for (const auto& need : needs) {
      if (need.needs_scan) server += cost.DiffCreateCost(unit_bytes_);
    }
    const VirtualNanos t =
        shared_.net.RoundTripTime(request_bytes, response_bytes) + server;
    slowest_exchange = std::max(slowest_exchange, t);
  }
  DSM_CHECK_GT(num_writers, 0);
  clock_.Advance(slowest_exchange);
  comm_stats_.RecordFault(num_writers, first_exchange);

  // Apply diffs per unit, in happens-before order of the chain tails
  // (HbKey): ordered intervals may overlap words, e.g. migratory data
  // under locks; concurrent intervals touch disjoint words in race-free
  // programs.  Ordering tails suffices: by the absorption rule above, a
  // foreign interval ordered after a chain's head is ordered after its
  // tail too, so every ordered pair of writes lands oldest first.
  std::vector<NeedEntry>& for_unit = apply_scratch_;
  for (UnitId unit : units) {
    for_unit.clear();
    for (ProcId w = 0; w < nprocs; ++w) {
      for (const auto& need : needs_by_writer_[w]) {
        if (need.unit == unit) for_unit.push_back(need);
      }
    }
    std::sort(for_unit.begin(), for_unit.end(),
              [](const NeedEntry& a, const NeedEntry& b) {
                return a.key < b.key;
              });
    std::span<std::byte> dst = UnitSpan(unit);
    for (const NeedEntry& need : for_unit) {
      const bool twinned = table_.HasTwin(unit);
      if (need.head != nullptr) {
        // Reclaimed head: its words live in the canonical base.  Its own
        // runs suffice — a word only a live member covers is written by
        // that member below.
        const std::span<const DiffRun> runs = need.head->runs();
        gc.bases().CopyRuns(unit, dst, runs);
        if (twinned) gc.bases().CopyRuns(unit, table_.twin(unit), runs);
      }
      // Live members oldest first: every word of the union ends with its
      // newest member's value, exactly what one combined diff carries.
      for (std::uint32_t i = 0; i < need.live_count; ++i) {
        const LiveDiff& d = live_diffs_scratch_[need.live_begin + i];
        d.rec->Apply(d.index, dst);
        if (twinned) d.rec->Apply(d.index, table_.twin(unit));
      }
      for (const DiffRun& run : need.runs) {
        tracker_.Deliver(unit, run.word_offset, run.word_count,
                         need.exchange_id);
      }
      const std::size_t payload_bytes = need.payload_words * kWordBytes;
      comm_stats_.counters().diffs_applied += 1;
      comm_stats_.counters().delivered_data_bytes += payload_bytes;
      clock_.Advance(cost.DiffApplyCost(payload_bytes));
    }
    pending_[unit].clear();
    gc.chains(id_, unit).clear();
  }
}

void Node::CloseInterval() {
  if (!protocol_enabled()) return;
  const auto& dirty = table_.dirty_units();
  if (dirty.empty()) return;

  IntervalDraft& draft = draft_scratch_;
  draft.Clear();
  if (hlrc_) {
    shared_.homes.Flush(*this, draft);
  } else {
    // Diffs are materialized here for bookkeeping (archived records must
    // be immutable), but no cost is charged: TreadMarks diffs lazily, so a
    // release only records write notices.  The diff-creation cost is
    // charged server-side when a peer actually requests the diff
    // (FetchUnits), and a unit re-dirtied before any such request re-twins
    // for free.  The record copies each run's words out of the image,
    // which nothing writes before it is built.
    for (UnitId unit : dirty) {
      draft.AddDiff(unit, table_.twin(unit), UnitSpan(unit));
      table_.DropTwin(unit);
      if (table_.state(unit) == UnitState::kDirty) {
        table_.set_state(unit, UnitState::kReadValid);
      }
      retwin_cheap_[unit] = 1;
      comm_stats_.counters().diffs_created += 1;
    }
    table_.ClearDirtyList();
  }
  const Seq seq = ++vc_[id_];
  shared_.archives[id_]->Append(IntervalRecord(id_, seq, vc_, draft));
  if (shared_.fault != nullptr) {
    const int ev = shared_.fault->Match(id_, FaultPoint::kAfterRelease, seq);
    if (ev >= 0) {
      // Crash point: the interval just reached the (stable) archive, all
      // twins are dropped, nothing is half-written (under HLRC the homes
      // already absorbed this interval's diffs).  Rebuild in place and
      // continue transparently (DESIGN.md §9).  vc_ is the clock the
      // interval closed at.
      RecoveryCoordinator::Recover(*this, vc_, ev);
    }
  }
}

std::size_t Node::CollectNotices(const VectorClock& target,
                                 std::vector<const IntervalRecord*>& out) {
  out.clear();
  for (ProcId p = 0; p < num_procs(); ++p) {
    if (p == id_) continue;
    if (target[p] <= notices_seen_[p]) continue;
    shared_.archives[p]->Range(notices_seen_[p], target[p], out);
  }
  std::size_t bytes = 0;
  for (const IntervalRecord* rec : out) bytes += rec->NoticeBytes();
  return bytes;
}

void Node::InvalidateFrom(
    const std::vector<const IntervalRecord*>& records) {
  const CostModel& cost = shared_.config.cost;
  for (const IntervalRecord* rec : records) {
    const std::span<const UnitId> units = rec->units();
    for (std::uint32_t i = 0; i < units.size(); ++i) {
      const UnitId unit = units[i];
      // HLRC asks only whether a unit has a notice pending, so one entry
      // per unit answers it; a unit a node stops reading would otherwise
      // hold every later notice until the run ends.
      if (!hlrc_ || pending_[unit].empty()) pending_[unit].push_back({rec, i});
      const UnitState s = table_.state(unit);
      if (s != UnitState::kInvalid) {
        table_.set_state(unit, UnitState::kInvalid);
        comm_stats_.counters().units_invalidated += 1;
        clock_.Advance(cost.mprotect_op);
      }
    }
    notices_seen_[rec->proc()] =
        std::max(notices_seen_[rec->proc()], rec->seq());
  }
}

std::size_t Node::OutgoingNoticeBytes() {
  std::vector<const IntervalRecord*>& own = notice_scratch_;
  own.clear();
  shared_.archives[id_]->Range(last_sent_seq_, vc_[id_], own);
  std::size_t bytes = 0;
  for (const IntervalRecord* rec : own) bytes += rec->NoticeBytes();
  last_sent_seq_ = vc_[id_];
  return bytes;
}

void Node::Barrier() {
  if (!protocol_enabled()) {
    // Reference backend: pure rendezvous.  Clocks still reconcile to the
    // slowest arrival (that is how a barrier behaves on any machine), but
    // no notices move and no communication is modelled.  The race
    // detector brackets the rendezvous like any backend's barrier: vc_
    // is never maintained here, which is exactly why the detector keeps
    // its own clocks.
    if (race_ != nullptr) race_->OnBarrierArrive(id_);
    BarrierService::Result res =
        shared_.barrier->Arrive(vc_, clock_.now(), 0);
    if (race_ != nullptr) race_->OnBarrierDepart(id_);
    clock_.AdvanceTo(res.base_time);
    return;
  }
  const CostModel& cost = shared_.config.cost;

  CloseInterval();
  const std::size_t arrival_bytes = OutgoingNoticeBytes();

  // Coordinator for this barrier: proc 0 unless an at-barrier event kills
  // it at this phase — then the lowest surviving rank assumes the
  // coordinator roles for exactly this barrier (DESIGN.md §9).  Every
  // node derives the same answer from the armed schedule and its own
  // sync_phase_; the barrier service cross-checks the agreement.
  const ProcId coord = shared_.CoordinatorFor(sync_phase_);

  // Race-detector barrier bracket (observational; DESIGN.md §10): merge
  // this node's detector clock into the generation on arrival, adopt the
  // fully merged clock once the real barrier releases us.  Both sides
  // fire before any crash-recovery point of this barrier, so a rebuilt
  // victim continues with ordering already settled.
  if (race_ != nullptr) race_->OnBarrierArrive(id_);
  BarrierService::Result res =
      shared_.barrier->Arrive(vc_, clock_.now(), arrival_bytes, coord);
  if (race_ != nullptr) race_->OnBarrierDepart(id_);

  // Extended barrier window: every processor is now inside the barrier,
  // so no diff request is in flight anywhere.  Drain the request flags
  // peers set during the finished phase into the plain per-unit view
  // consulted by WriteFault, then rendezvous again so no processor starts
  // the next phase (and issues new requests) before every drain finished.
  // This quantizes the lazy-diffing cost decisions to barrier phases,
  // making modelled time independent of host thread scheduling.
  //
  // HLRC diffs eagerly, so the lazy-diffing flags do not exist for it.
  if (!hlrc_) {
    for (std::size_t u = 0; u < diff_requested_.size(); ++u) {
      if (diff_requested_[u].load(std::memory_order_relaxed) != 0) {
        diff_requested_[u].store(0, std::memory_order_relaxed);
        diff_request_seen_[u] = 1;
      }
    }
  }
  // Archive GC rides the same idle window (DESIGN.md §6): every node
  // collects its own stripe of units, so the pass is over once the window
  // closes, and then prunes its own dominated archive prefix
  // (mutex-guarded; nothing live references it).  Only the LRC backend
  // ever gets a target.
  const std::optional<VectorClock> gc_target =
      shared_.gc.PassTarget(sync_phase_, shared_);
  if (gc_target) {
    shared_.gc.CollectStripe(shared_, id_, id_ == res.coordinator,
                             *gc_target);
  }
  // HLRC rides the same window: every node prunes its own notice log,
  // and the coordinator flips crash-driven re-home batches into the home
  // map at a point every node passes together (core/hlrc.h).
  if (hlrc_) shared_.homes.OnBarrier(*this, id_ == res.coordinator);
  shared_.barrier->Rendezvous();
  // Coordinator bookkeeping after the rendezvous: ordered after every
  // stripe's work and PassTarget read above, and before any node's next
  // barrier (its next Arrive cannot complete before the coordinator's,
  // which follows this).
  if (id_ == res.coordinator) {
    shared_.gc.EndBarrier(res.global_vc, gc_target.has_value());
  }
  if (gc_target) shared_.archives[id_]->PruneThrough((*gc_target)[id_]);
  if (shared_.fault != nullptr) {
    const int ev = shared_.fault->Match(id_, FaultPoint::kAtBarrier,
                                         sync_phase_);
    if (ev >= 0) {
      // Crash point "at barrier n": the victim dies as barrier n completes
      // (its interval is archived, every stripe of this window's GC pass —
      // the victim's own included — has fully applied, and its prune is
      // done) and rebuilds to the barrier's global clock.
      // The CollectNotices below then finds nothing new — recovery already
      // installed everything the global cut covers.
      RecoveryCoordinator::Recover(*this, res.global_vc, ev);
    }
  }
  ++sync_phase_;
  // A completed barrier starts a fresh phase: lock-chain sub-phases are
  // meaningful only between two barriers (stamp keys embed sync_phase_,
  // so stale sub-phases could never collide anyway — resetting keeps all
  // nodes aligned at phase entry, mirroring gc-free barrier programs).
  lock_subphase_ = 0;

  std::vector<const IntervalRecord*>& records = notice_scratch_;
  const std::size_t incoming_bytes = CollectNotices(res.global_vc, records);

  // Modelled barrier cost (centralized manager, normally proc 0 — the
  // coordinator when proc 0 crashes at this barrier): all clients ship
  // arrival messages; the manager processes every arrival, then ships
  // release messages carrying the write notices each client is missing.
  const VirtualNanos base =
      res.base_time + shared_.net.RoundTripTime(res.max_arrival_bytes, 0) +
      cost.barrier_fixed +
      cost.barrier_per_arrival * (num_procs() - 1);
  VirtualNanos release_time = base;
  if (id_ != res.coordinator) {
    release_time += shared_.net.config().ns_per_byte *
                    static_cast<VirtualNanos>(incoming_bytes);
    net_stats_.Record(MessageKind::kBarrierArrival, arrival_bytes);
    net_stats_.Record(MessageKind::kBarrierRelease, incoming_bytes);
    comm_stats_.counters().sync_messages += 2;
  }
  clock_.AdvanceTo(release_time);

  InvalidateFrom(records);
  vc_.Merge(res.global_vc);

  if (shared_.config.aggregation == AggregationMode::kDynamic) {
    aggregator_.OnSynchronization();
  }
}

void Node::AcquireLock(int lock_id) {
  if (!protocol_enabled()) {
    // Reference backend: mutual exclusion only.  The grant cannot arrive
    // before the previous holder released.
    LockService::Grant grant = shared_.locks->Acquire(lock_id, id_);
    if (race_ != nullptr) {
      race_->OnLockAcquire(id_, lock_id, grant.cached, grant.chain_pos);
    }
    clock_.AdvanceTo(grant.release_time);
    return;
  }
  const CostModel& cost = shared_.config.cost;

  LockService::Grant grant = shared_.locks->Acquire(lock_id, id_);
  // Detector acquire (before the cached early-out: a cached re-acquire
  // still tracks the held set; a transfer merges the lock's clock).
  if (race_ != nullptr) {
    race_->OnLockAcquire(id_, lock_id, grant.cached, grant.chain_pos);
  }
  if (grant.cached) {
    // Token already local: no communication, constant local cost.
    clock_.Advance(2 * kNanosPerMicro);
    return;
  }
  // Lock-chain-aware lazy diffing (DESIGN.md §4): a token transfer
  // advances this node's sub-phase to the transfer's position in the
  // service-wide hand-off order, so diff requests issued from here on are
  // ordered after — and served from the cache of — anything materialized
  // under the previous holder's acquires.
  lock_subphase_ = static_cast<std::uint32_t>(grant.chain_pos);

  VectorClock target = vc_;
  target.Merge(grant.release_vc);
  std::vector<const IntervalRecord*>& records = notice_scratch_;
  const std::size_t notice_bytes = CollectNotices(target, records);

  // Request travels to the manager/holder; the grant returns with the
  // write notices the acquirer has not yet seen.  The grant cannot arrive
  // before the previous holder released.
  clock_.AdvanceTo(grant.release_time);
  clock_.Advance(shared_.net.RoundTripTime(16, 16 + notice_bytes) +
                 cost.lock_manager_overhead);
  net_stats_.Record(MessageKind::kLockRequest, 16);
  net_stats_.Record(MessageKind::kLockGrant, 16 + notice_bytes);
  comm_stats_.counters().sync_messages += 2;

  InvalidateFrom(records);
  vc_.Merge(target);

  if (shared_.config.aggregation == AggregationMode::kDynamic) {
    aggregator_.OnSynchronization();
  }
}

void Node::ReleaseLock(int lock_id) {
  CloseInterval();  // no-op when the protocol is off
  // Detector release strictly before the service release: the next
  // grantee's acquire hook must find this release's clock on the lock.
  if (race_ != nullptr) race_->OnLockRelease(id_, lock_id);
  shared_.locks->Release(lock_id, id_, vc_, clock_.now());
}

}  // namespace dsm
