#include "core/protocol.h"

#include <algorithm>
#include <unordered_map>

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
      locks(std::make_unique<LockService>(kNumLocks, cfg.num_procs)) {
  if (config.fault.armed()) {
    fault = std::make_unique<FaultInjector>(config.fault);
    checkpoint_vc = VectorClock(config.num_procs);
    if (config.backend == BackendKind::kHlrc) {
      // Any processor may be a crashing home: arm the per-unit re-home
      // override table (DESIGN.md §9).
      home_override.assign(heap.num_units(), -1);
    }
  }
  if (cfg.backend == BackendKind::kReference) {
    reference_image = AllocZeroedImage(heap.heap_bytes());
  }
  if (cfg.backend == BackendKind::kHlrc) {
    home_image = AllocZeroedImage(heap.heap_bytes());
    home_mutexes.reset(new std::mutex[heap.num_units()]);
  }
  archives.reserve(cfg.num_procs);
  for (int p = 0; p < cfg.num_procs; ++p) {
    archives.push_back(std::make_unique<IntervalArchive>());
    // The telemetry reports the LRC diff archive the GC keeps bounded.
    // HLRC records are notice-only metadata pruned by a seen-everywhere
    // watermark (HlrcPruneNotices) — hooking them up would report a
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
  canonical =
      std::make_unique<CanonicalStore>(heap.num_units(), heap.unit_bytes());
  sharers = std::make_unique<SharerDirectory>(heap.num_units(), cfg.num_procs);
  virgin_history.resize(heap.num_units());
}

SharedState::~SharedState() = default;

void SharedState::ApplyPendingRehomes() {
  std::lock_guard lock(rehome_mutex);
  if (pending_rehomes.empty()) return;
  DSM_CHECK(!home_override.empty());
  for (const auto& [unit, new_home] : pending_rehomes) {
    home_override[static_cast<std::size_t>(unit)] = new_home;
  }
  pending_rehomes.clear();
  // One epoch per applied batch: every node whose private epoch lags pays
  // the timeout + retransmit for learning the new map at its next home
  // contact.
  ++rehome_epoch;
}

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
      protocol_enabled_(shared.config.num_procs > 1 &&
                        shared.config.backend != BackendKind::kReference),
      hlrc_(protocol_enabled_ &&
            shared.config.backend == BackendKind::kHlrc),
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
      flattened_(shared.heap.num_units()),
      retwin_cheap_(shared.heap.num_units(), 0),
      diff_requested_(shared.heap.num_units()),
      diff_request_seen_(shared.heap.num_units(), 0),
      aggregator_(shared.heap.num_units(), shared.config.max_group_pages),
      vc_(shared.config.num_procs),
      notices_seen_(shared.config.num_procs),
      needs_by_writer_(shared.config.num_procs) {
  if (hlrc_) {
    fetch_by_home_.resize(static_cast<std::size_t>(shared.config.num_procs));
    hlrc_flush_bytes_.assign(
        static_cast<std::size_t>(shared.config.num_procs), 0);
    hlrc_flush_server_.assign(
        static_cast<std::size_t>(shared.config.num_procs), 0);
  }
}

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
  // into flattened_ and registers this node as a sharer, so the check
  // below sees exactly the state the GC would have built per-node.
  AdoptVirginState(unit);

  // A unit only goes invalid when a write notice queues a pending entry.
  // The fetch that revalidates the unit consumes the entry, and the GC
  // turns a dominated one into a flattened chain, so an invalid unit
  // always has something to fetch.
  DSM_CHECK(!pending_[unit].empty() || !flattened_[unit].empty())
      << "invalid unit " << unit << " with no pending write notices";

  retwin_cheap_[unit] = 0;
  std::vector<UnitId>& fetch = fetch_scratch_;
  fetch.clear();
  fetch.push_back(unit);
  if (dynamic) {
    for (UnitId member : aggregator_.GroupOf(unit)) {
      if (member == unit) continue;
      if (table_.state(member) == UnitState::kInvalid &&
          (!pending_[member].empty() || !flattened_[member].empty() ||
           HasVirginChains(member))) {
        AdoptVirginState(member);  // FetchUnits reads flattened_[member]
        fetch.push_back(member);
      }
    }
  }
  if (hlrc_) {
    HlrcFetchUnits(fetch);
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
  // SAME writer are coalesced into one combined diff when no foreign
  // pending interval is ordered after the chain's head without also being
  // ordered after its tail — in that case no reader could ever observe the
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
      DSM_CHECK_NE(pi.proc, id_);
      const IntervalRecord* rec = shared_.archives[pi.proc]->Find(pi.seq);
      DSM_CHECK(rec != nullptr)
          << "missing interval (" << pi.proc << "," << pi.seq << ")";
      const int di = rec->IndexOf(unit);
      DSM_CHECK_GE(di, 0) << "interval (" << pi.proc << "," << pi.seq
                          << ") has no diff for unit " << unit;
      all.push_back({rec, &rec->diffs[static_cast<std::size_t>(di)],
                     rec->PaysForDiff(di, stamp_key())});
    }
    const std::vector<FlattenedChain>& flat = flattened_[unit];
    for (ProcId w = 0; w < nprocs; ++w) {
      // This writer's intervals, in increasing seq order (pending notices
      // arrive in acquire order, which respects per-writer seq order);
      // flattened chains always precede live records.
      std::vector<const ResolvedDiff*>& chain_input = chain_scratch_;
      chain_input.clear();
      for (const ResolvedDiff& r : all) {
        if (r.rec->proc == w) chain_input.push_back(&r);
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
        c.ForEachStamp([&](std::atomic<std::uint64_t>& stamp) {
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
        e.key = HbKey(c.last_vc(), w, c.last_seq);
        e.head = &c;
        e.runs = &c.runs();
        e.payload_words = c.payload_words();
        e.live_begin = static_cast<std::uint32_t>(live_diffs_scratch_.size());
        return e;
      };
      // Every flattened chain of w but the last is finished; the last may
      // still absorb live records into its tail.
      for (const FlattenedChain& c : flat) {
        if (c.writer == w && &c != last_flat) push_need(head_need(c));
      }

      // May we absorb r into a chain whose head is (w, first_seq)?  Every
      // foreign interval must be either not-after the head or after the
      // candidate tail.  (Foreign reclaimed intervals ordered after a
      // flattened head are recorded in its `blocked` flag; they can never
      // be after a live tail.)  Since every candidate r is one of w's own
      // records, "q after the head but not after the tail" collapses to
      // first_seq <= q.vc[w] < r.seq — so, as in the GC's flatten pass,
      // sort the foreign clock components once per (unit, writer) and
      // answer each absorption check by binary search instead of
      // rescanning the batch (the batch scan made this loop O(k²) per
      // fault on rewrite-heavy units).
      std::vector<Seq>& foreign_vcw = foreign_vcw_scratch_;
      if (!chain_input.empty()) {
        foreign_vcw.clear();
        for (const ResolvedDiff& q : all) {
          if (q.rec->proc != w) foreign_vcw.push_back(q.rec->vc[w]);
        }
        std::sort(foreign_vcw.begin(), foreign_vcw.end());
      }
      auto may_absorb = [&](Seq first_seq, const IntervalRecord& r) {
        auto it = std::lower_bound(foreign_vcw.begin(), foreign_vcw.end(),
                                   first_seq);
        return it == foreign_vcw.end() || *it >= r.seq;
      };

      // The open chain (open.runs == nullptr: none) starts as w's last
      // flattened chain.  Each live record joins it or closes it and
      // starts the next.
      NeedEntry open{};
      Seq first_seq = 0;
      bool blocked = false;
      if (last_flat != nullptr) {
        open = head_need(*last_flat);
        first_seq = last_flat->first_seq;
        blocked = last_flat->blocked;
      }
      for (const ResolvedDiff* r : chain_input) {
        const std::vector<DiffRun>& runs = r->diff->runs();
        if (open.runs != nullptr && !blocked &&
            may_absorb(first_seq, *r->rec)) {
          merged_runs_scratch_.push_back(Diff::MergeRuns(*open.runs, runs));
          open.runs = &merged_runs_scratch_.back();
          open.payload_words = Diff::RunWords(*open.runs);
        } else {
          if (open.runs != nullptr) push_need(open);
          open = NeedEntry{};
          open.runs = &runs;
          open.payload_words = r->diff->payload_words();
          open.live_begin =
              static_cast<std::uint32_t>(live_diffs_scratch_.size());
          first_seq = r->rec->seq;
          blocked = false;
        }
        open.key = HbKey(*r->rec);
        live_diffs_scratch_.push_back(r->diff);
        ++open.live_count;
      }
      if (open.runs != nullptr) push_need(open);
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
    const std::uint32_t ex = comm_stats_.NewExchange(w);
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
    comm_stats_.AddDelivered(
        ex, delivered_words,
        static_cast<std::uint32_t>(delivered_words * kWordBytes));
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
        const std::vector<DiffRun>& runs = need.head->runs();
        shared_.canonical->CopyRuns(unit, dst, runs);
        if (twinned) {
          shared_.canonical->CopyRuns(unit, table_.twin(unit), runs);
        }
      }
      // Live members oldest first: every word of the union ends with its
      // newest member's value, exactly what one combined diff carries.
      for (std::uint32_t i = 0; i < need.live_count; ++i) {
        const Diff* d = live_diffs_scratch_[need.live_begin + i];
        d->Apply(dst);
        if (twinned) d->Apply(table_.twin(unit));
      }
      for (const DiffRun& run : *need.runs) {
        tracker_.Deliver(unit, run.word_offset, run.word_count,
                         need.exchange_id);
      }
      const std::size_t payload_bytes = need.payload_words * kWordBytes;
      comm_stats_.counters().diffs_applied += 1;
      comm_stats_.counters().delivered_data_bytes += payload_bytes;
      clock_.Advance(cost.DiffApplyCost(payload_bytes));
    }
    pending_[unit].clear();
    flattened_[unit].clear();
  }
}

void Node::CloseInterval() {
  if (!protocol_enabled()) return;
  const auto& dirty = table_.dirty_units();
  if (dirty.empty()) return;
  if (hlrc_) {
    HlrcFlushInterval();
    return;
  }

  IntervalRecord rec;
  rec.proc = id_;
  rec.seq = ++vc_[id_];
  rec.units.reserve(dirty.size());
  rec.diffs.reserve(dirty.size());
  // Diffs are materialized here for bookkeeping (archived records must be
  // immutable), but no cost is charged: TreadMarks diffs lazily, so a
  // release only records write notices.  The diff-creation cost is charged
  // server-side when a peer actually requests the diff (FetchUnits), and a
  // unit re-dirtied before any such request re-twins for free.
  for (UnitId unit : dirty) {
    rec.units.push_back(unit);
    rec.diffs.push_back(Diff::Create(table_.twin(unit), UnitSpan(unit)));
    table_.DropTwin(unit);
    if (table_.state(unit) == UnitState::kDirty) {
      table_.set_state(unit, UnitState::kReadValid);
    }
    retwin_cheap_[unit] = 1;
    comm_stats_.counters().diffs_created += 1;
  }
  rec.vc = vc_;
  table_.ClearDirtyList();
  const IntervalRecord* stored = shared_.archives[id_]->Append(std::move(rec));
  if (shared_.fault != nullptr) {
    const int ev = shared_.fault->Match(id_, FaultPoint::kAfterRelease,
                                         stored->seq);
    if (ev >= 0) {
      // Crash point: the interval just reached the (stable) archive, all
      // twins are dropped, nothing is half-written.  Rebuild in place and
      // continue transparently (DESIGN.md §9).
      RecoveryCoordinator::Recover(*this, stored->vc, ev);
    }
  }
}

// Home-based LRC release (DESIGN.md §7): the dual of the lazy path above.
// Diffs are created eagerly (the releaser pays the twin scan now, not a
// future requester), shipped to each dirty unit's home in one combined
// message per remote home (homes absorb them in parallel; the release
// waits for the slowest ack), and the archived record keeps only the
// write notices — the payload now lives at the homes, so nothing here
// ever needs garbage collecting.
void Node::HlrcFlushInterval() {
  const CostModel& cost = shared_.config.cost;
  const auto& dirty = table_.dirty_units();

  IntervalRecord rec;
  rec.proc = id_;
  rec.seq = ++vc_[id_];
  rec.units.reserve(dirty.size());
  rec.diffs.reserve(dirty.size());

  VirtualNanos create_cost = 0;
  for (UnitId unit : dirty) {
    rec.units.push_back(unit);
    // Notice-only record: the empty diff keeps the archive's units/diffs
    // parallel-array invariant without retaining any payload.
    rec.diffs.emplace_back();
    create_cost += cost.DiffCreateCost(unit_bytes_);
    comm_stats_.counters().diffs_created += 1;
    const Diff diff = Diff::Create(table_.twin(unit), UnitSpan(unit));
    const ProcId home = shared_.EffectiveHome(unit);
    // An empty diff means the interval changed no bytes: the twin scan
    // above is still paid (eager diffing discovers the emptiness), but
    // there is nothing for the home to absorb and the write notice
    // travels with the sync traffic — no flush message is modelled.
    if (!diff.empty()) {
      {
        std::span<std::byte> home_span{
            shared_.home_image.get() + shared_.heap.UnitBase(unit),
            unit_bytes_};
        std::lock_guard lock(shared_.home_mutexes[unit]);
        diff.Apply(home_span);
      }
      if (home != id_) {
        if (hlrc_flush_bytes_[home] == 0) {
          hlrc_flush_bytes_[home] = 16;  // flush message header
        }
        hlrc_flush_bytes_[home] += 8 + diff.EncodedBytes();
        hlrc_flush_server_[home] +=
            cost.DiffApplyCost(diff.payload_bytes());
        comm_stats_.counters().home_flushes += 1;
        comm_stats_.counters().home_flush_bytes += diff.payload_bytes();
      }
    }
    table_.DropTwin(unit);
    if (table_.state(unit) == UnitState::kDirty) {
      table_.set_state(unit, UnitState::kReadValid);
    }
    // No retwin_cheap_: under eager diffing the twin is genuinely gone
    // after a release, so the next write pays the full twin again.
  }
  rec.vc = vc_;
  table_.ClearDirtyList();
  clock_.Advance(create_cost);

  // One flush exchange per remote home touched; homes apply in parallel,
  // the releaser advances to the slowest acknowledgement.
  VirtualNanos slowest = 0;
  bool learned = false;
  for (ProcId h = 0; h < num_procs(); ++h) {
    if (hlrc_flush_bytes_[h] == 0) continue;
    net_stats_.Record(MessageKind::kHomeFlush, hlrc_flush_bytes_[h]);
    net_stats_.Record(MessageKind::kHomeFlushAck, 16);
    comm_stats_.counters().home_flush_messages += 2;
    VirtualNanos t =
        shared_.net.RoundTripTime(hlrc_flush_bytes_[h], 16) +
        cost.request_service_overhead + hlrc_flush_server_[h];
    if (!learned) {
      // First home contact of this release: a stale home map (re-home
      // batches applied since this node's last contact) times the
      // exchange out against the dead home and re-sends it.
      t += HlrcChargeRehomeLearning(hlrc_flush_bytes_[h]);
      learned = true;
    }
    slowest = std::max(slowest, t);
    hlrc_flush_bytes_[h] = 0;
    hlrc_flush_server_[h] = 0;
  }
  clock_.Advance(slowest);

  const IntervalRecord* stored = shared_.archives[id_]->Append(std::move(rec));
  if (shared_.fault != nullptr) {
    const int ev = shared_.fault->Match(id_, FaultPoint::kAfterRelease,
                                         stored->seq);
    if (ev >= 0) {
      // Same crash point as the LRC path: record archived, homes already
      // absorbed this interval's diffs, twins dropped.
      RecoveryCoordinator::Recover(*this, stored->vc, ev);
    }
  }
}

// Home-based LRC fault resolution (DESIGN.md §7): whole-unit copies from
// the homes replace the LRC diff chase.  One combined exchange per remote
// home (homes answer in parallel); a self-homed unit is a local copy with
// no messages and no delivery accounting (nothing crossed the wire).  The
// home copy is at least as new as everything the pending notices name —
// every noticed release flushed before this node's acquire completed —
// and any newer words it carries belong to intervals this node will be
// told about later; race-free programs never read those early.
void Node::HlrcFetchUnits(const std::vector<UnitId>& units) {
  const CostModel& cost = shared_.config.cost;
  const std::size_t words_per_unit = unit_bytes_ / kWordBytes;

  for (auto& v : fetch_by_home_) v.clear();
  for (UnitId unit : units) {
    fetch_by_home_[static_cast<std::size_t>(shared_.EffectiveHome(unit))]
        .push_back(unit);
  }

  const std::uint32_t first_exchange = comm_stats_.num_exchanges();
  int num_homes = 0;
  VirtualNanos slowest = 0;
  for (ProcId h = 0; h < num_procs(); ++h) {
    const std::vector<UnitId>& list =
        fetch_by_home_[static_cast<std::size_t>(h)];
    if (list.empty()) continue;
    std::uint32_t ex = 0;
    const bool remote = h != id_;
    if (remote) {
      ++num_homes;
      ex = comm_stats_.NewExchange(h);
      const std::size_t request_bytes = 16 + 8 * list.size();
      const std::size_t response_bytes = list.size() * (16 + unit_bytes_);
      const std::size_t delivered_words = list.size() * words_per_unit;
      comm_stats_.AddDelivered(
          ex, static_cast<std::uint32_t>(delivered_words),
          static_cast<std::uint32_t>(delivered_words * kWordBytes));
      net_stats_.Record(MessageKind::kHomeFetch, request_bytes);
      net_stats_.Record(MessageKind::kHomeFetchReply, response_bytes);
      comm_stats_.counters().home_fetches += list.size();
      comm_stats_.counters().home_fetch_bytes += list.size() * unit_bytes_;
      comm_stats_.counters().delivered_data_bytes +=
          list.size() * unit_bytes_;
      // Home-side cost: request handling plus one unit copy into the
      // reply per unit served.
      VirtualNanos t =
          shared_.net.RoundTripTime(request_bytes, response_bytes) +
          cost.request_service_overhead +
          static_cast<VirtualNanos>(list.size()) *
              cost.TwinCost(unit_bytes_);
      if (num_homes == 1) {
        // First remote contact of this fault: pay for learning any
        // re-home batches applied since this node's last home exchange.
        t += HlrcChargeRehomeLearning(request_bytes);
      }
      slowest = std::max(slowest, t);
    }
    for (UnitId unit : list) {
      const bool twinned = table_.HasTwin(unit);
      std::span<std::byte> dst = UnitSpan(unit);
      // Local uncommitted writes (live twin): capture them, lay the home
      // copy underneath, re-apply them on top — the whole-unit analogue
      // of the LRC path's "apply foreign diffs to image AND twin", so
      // diff(twin, image) still yields exactly the local modifications.
      Diff local;
      if (twinned) local = Diff::Create(table_.twin(unit), dst);
      {
        const std::byte* src =
            shared_.home_image.get() + shared_.heap.UnitBase(unit);
        std::lock_guard lock(shared_.home_mutexes[unit]);
        std::memcpy(dst.data(), src, unit_bytes_);
        if (twinned) {
          std::memcpy(table_.twin(unit).data(), src, unit_bytes_);
        }
      }
      if (twinned && !local.empty()) local.Apply(dst);
      // Installing the received (or locally copied) unit is one memcpy.
      clock_.Advance(cost.TwinCost(unit_bytes_));
      if (remote) {
        tracker_.Deliver(unit, 0, static_cast<std::uint32_t>(words_per_unit),
                         ex);
        // Words the local re-apply overwrote can never credit the fetch.
        for (const DiffRun& run : local.runs()) {
          tracker_.OnWrite(unit, run.word_offset, run.word_count);
        }
      }
      pending_[unit].clear();
    }
  }
  if (num_homes > 0) {
    clock_.Advance(slowest);
    comm_stats_.RecordFault(num_homes, first_exchange);
  }
}

// HLRC notice-log watermark pruning: a record every other node has
// already processed (its seq is at or below everyone's notices_seen_ for
// the writer) can never be Range()d again — not by a lock acquire, not by
// a barrier release — so proc 0 drops those prefixes inside the barrier's
// idle window, where no peer can be appending or collecting.  This is the
// whole HLRC memory story: records are notice-only metadata, and the log
// stays bounded by how far the slowest consumer lags.
//
// `min_seen` is the componentwise floor the barrier manager accumulated
// from every arriver's notices_seen_ (BarrierService::Result::min_seen).
// Peers park between their Arrive and the Rendezvous with notices_seen_
// frozen (consumption happens only in CollectNotices / InvalidateFrom,
// which run after the Rendezvous releases them), so the arrival-time fold
// equals the old in-window rescan of every node's vector while costing
// O(num_procs) total instead of O(num_procs²) on proc 0.
void Node::HlrcPruneNotices(const VectorClock& min_seen) {
  for (ProcId p = 0; p < num_procs(); ++p) {
    shared_.archives[p]->PruneThrough(min_seen[p]);
  }
}

// See protocol.h: lazy learning of crash-driven re-home batches.  The
// epoch is written by the barrier coordinator inside the idle window and
// read here strictly after the closing rendezvous of that barrier, so the
// plain load is ordered; the charge itself is proc-local and
// deterministic (victim-local trigger points + barrier-quantized batch
// application).
VirtualNanos Node::HlrcChargeRehomeLearning(std::size_t request_bytes) {
  if (shared_.fault == nullptr) return 0;
  const std::uint64_t epoch = shared_.rehome_epoch;
  if (rehome_epoch_seen_ == epoch) return 0;
  const std::uint64_t missed = epoch - rehome_epoch_seen_;
  rehome_epoch_seen_ = epoch;
  CommBreakdown& c = comm_stats_.counters();
  c.recovery_retransmits += missed;
  c.recovery_retransmit_bytes += missed * request_bytes;
  return static_cast<VirtualNanos>(missed) *
         (shared_.net.RoundTripTime(request_bytes, 16) +
          shared_.config.cost.request_service_overhead);
}

namespace {

// A dominated record resolved for one unit by the GC flatten pass.
struct GcResolved {
  const IntervalRecord* rec;
  // Shared ownership handle (single-record chains retain the record);
  // points into the pass's dominated-prefix snapshot, which outlives it.
  const std::shared_ptr<const IntervalRecord>* owner;
  int di;
};

// Extend a unit's flattened chains `flat` with its kept dominated records,
// writer by writer, then freeze the blocked verdicts; returns the number
// of chains started.  `foreign_vcw` is per-writer scratch.
//
// The fault path's absorption predicate — "no foreign interval q with
// the chain's head happened-before q but not candidate-tail
// happened-before q" — only reads q.vc[w] for a chain of writer w: it
// fails exactly when some foreign q has first_seq <= q.vc[w] < tail_seq.
// Batches from lock-heavy programs can hold hundreds of records per unit,
// so it is evaluated by binary search over the sorted foreign clock
// entries instead of rescanning the batch.
std::uint64_t BuildChains(std::vector<FlattenedChain>& flat,
                          const std::vector<GcResolved>& kept, int nprocs,
                          std::vector<std::vector<Seq>>& foreign_vcw) {
  for (ProcId w = 0; w < nprocs; ++w) foreign_vcw[w].clear();
  for (const GcResolved& q : kept) {
    for (ProcId w = 0; w < nprocs; ++w) {
      if (q.rec->proc != w) foreign_vcw[w].push_back(q.rec->vc[w]);
    }
  }
  for (ProcId w = 0; w < nprocs; ++w) {
    std::sort(foreign_vcw[w].begin(), foreign_vcw[w].end());
  }
  auto may_absorb = [&](ProcId w, Seq first_seq, Seq tail_seq) {
    const std::vector<Seq>& v = foreign_vcw[w];
    auto it = std::lower_bound(v.begin(), v.end(), first_seq);
    return it == v.end() || *it >= tail_seq;
  };

  std::uint64_t started = 0;
  for (ProcId w = 0; w < nprocs; ++w) {
    // Only the last existing chain of writer w may be extended.
    std::size_t open = flat.size();
    for (std::size_t i = 0; i < flat.size(); ++i) {
      if (flat[i].writer == w) open = i;
    }
    for (const GcResolved& r : kept) {
      if (r.rec->proc != w) continue;
      const Diff& diff = r.rec->diffs[static_cast<std::size_t>(r.di)];
      if (open != flat.size() && !flat[open].blocked &&
          may_absorb(w, flat[open].first_seq, r.rec->seq)) {
        FlattenedChain& c = flat[open];
        // Copy-on-write: converts a single-record chain to a merged body,
        // or clones a body shared with the virgin store or other nodes.
        ChainBody& b = c.MutableBody();
        b.runs = Diff::MergeRuns(b.runs, diff.runs());
        b.payload_words = Diff::RunWords(b.runs);
        b.last_vc = r.rec->vc;
        b.stamps = std::make_shared<const StampNode>(StampNode{
            StampRef{r.rec->diffed, static_cast<std::uint32_t>(r.di)},
            std::move(b.stamps)});
        c.last_seq = r.rec->seq;
      } else {
        // New chains start in the single-record form: one shared_ptr
        // copy, no merged body until (unless) something is absorbed.
        FlattenedChain c;
        c.writer = w;
        c.first_seq = r.rec->seq;
        c.last_seq = r.rec->seq;
        c.rec = *r.owner;
        c.di = r.di;
        flat.push_back(std::move(c));
        ++started;
        open = flat.size() - 1;
      }
    }
  }
  // A foreign reclaimed interval ordered after a chain's head means no
  // later interval may ever be absorbed into the chain (the fault path
  // would re-check this against the record, which is about to be
  // reclaimed — freeze the verdict in the flag).
  for (FlattenedChain& c : flat) {
    if (c.blocked) continue;
    const std::vector<Seq>& v = foreign_vcw[c.writer];
    if (!v.empty() && v.back() >= c.first_seq) c.blocked = true;
  }
  return started;
}

}  // namespace


// Flatten phase (pass 1 of DESIGN.md §6): for the units of this node's
// stripe (u % num_procs == id), convert the dominated pending notices of
// EVERY node into FlattenedChains, unit by unit and nodes in fixed order,
// mirroring the fault path's chain coalescing exactly (same absorption
// predicate over the same record set — live records from later epochs can
// never block a dominated absorption, because they happened-after every
// dominated interval).  It also collects the (record, diff) pairs some
// node still needed into gc_refs_: only those must go into the canonical
// base — an interval pending nowhere was already applied by every node,
// and any word of it that a future chain covers is rewritten there by a
// newer record of that chain.
//
// Every node runs its stripe concurrently inside the barrier window.  A
// unit's flatten and apply touch only that unit's state — its pending
// entries and chain headers on every node, its virgin-store entry, its
// sharer bits and its base — so stripes never share a mutable object;
// records and stamp arrays span units, but stripes only copy their
// shared_ptrs.
void Node::GcFlatten(const VectorClock& through) {
  SharedState& shared = shared_;
  const int nprocs = shared.config.num_procs;
  const std::size_t num_units = shared.heap.num_units();

  // Snapshot each archive's dominated prefix once (one mutex hold per
  // archive): lock-heavy programs resolve tens of thousands of (proc,
  // seq) references per pass, and per-reference Find() would pay a mutex
  // round-trip each.  The snapshot is a lock-free binary-search index.
  std::vector<std::vector<std::shared_ptr<const IntervalRecord>>> dom_prefix(
      static_cast<std::size_t>(nprocs));
  for (ProcId p = 0; p < nprocs; ++p) {
    dom_prefix[p] = shared.archives[p]->RangeShared(0, through[p]);
  }
  auto find_dominated =
      [&](ProcId p, Seq seq) -> const std::shared_ptr<const IntervalRecord>* {
    const auto& v = dom_prefix[p];
    auto it = std::lower_bound(
        v.begin(), v.end(), seq,
        [](const std::shared_ptr<const IntervalRecord>& r, Seq s) {
          return r->seq < s;
        });
    DSM_CHECK(it != v.end() && (*it)->seq == seq)
        << "GC: missing interval (" << p << "," << seq << ")";
    return &*it;
  };

  // One reclaimed record is typically pending at most nodes; resolve each
  // (proc, seq) once per unit and reuse across the node loop.  The first
  // resolution routes the record to the canonical base, exactly once per
  // unit: every resolved record enters some node's chains, which read
  // their words from the base.
  std::unordered_map<std::uint64_t, GcResolved> resolve_memo;
  auto resolve = [&](UnitId u,
                     const PendingInterval& pi) -> const GcResolved& {
    const std::uint64_t rkey =
        (std::uint64_t{static_cast<std::uint32_t>(pi.proc)} << 32) | pi.seq;
    auto memo = resolve_memo.find(rkey);
    if (memo == resolve_memo.end()) {
      const std::shared_ptr<const IntervalRecord>* owner =
          find_dominated(pi.proc, pi.seq);
      const IntervalRecord* rec = owner->get();
      const int di = rec->IndexOf(u);
      DSM_CHECK_GE(di, 0);
      memo = resolve_memo.emplace(rkey, GcResolved{rec, owner, di}).first;
      gc_refs_.push_back({u, rec, di, HbKey(*rec)});
    }
    return memo->second;
  };
  std::vector<PendingInterval> live;
  std::vector<GcResolved> kept;
  // Per-writer sorted foreign clock entries of the current batch
  // (BuildChains scratch).
  std::vector<std::vector<Seq>> foreign_vcw(nprocs);
  std::uint64_t chains_built = 0, chains_shared = 0;

  // Dominated-writer scratch for the virgin bookkeeping below: one bit per
  // processor with a dominated record naming the current unit this pass.
  std::vector<std::uint64_t> dom_writers(
      (static_cast<std::size_t>(nprocs) + 63) / 64);

  DSM_CHECK(gc_refs_.empty());
  for (auto u = static_cast<UnitId>(id_); u < num_units;
       u += static_cast<UnitId>(nprocs)) {
    resolve_memo.clear();
    std::vector<FlattenedChain>& virgin = shared.virgin_history[u];

    // --- virgin-node bookkeeping (DESIGN.md §8) --------------------------
    // Union of dominated writers over every node's pending entries.  A
    // dominated record is pending at every node that never consumed it, so
    // a writer absent here has no record entering any build this pass.
    std::fill(dom_writers.begin(), dom_writers.end(), 0);
    bool any_unit_dom = false;
    for (ProcId x = 0; x < nprocs; ++x) {
      for (const PendingInterval& pi : shared.nodes[x]->pending_[u]) {
        if (pi.seq <= through[pi.proc]) {
          dom_writers[static_cast<std::size_t>(pi.proc) >> 6] |=
              std::uint64_t{1} << (pi.proc & 63);
          any_unit_dom = true;
        }
      }
    }
    // A still-virgin node whose OWN records are about to be flattened
    // stops being virgin now: it adopts the shared store — exactly its
    // per-node state, by induction — and takes the per-node path below.
    // Every remaining virgin's pending therefore holds the identical full
    // dominated batch (pending never holds own records), which is what
    // makes one shared store build exact for all of them.
    if (any_unit_dom) {
      for (ProcId w = 0; w < nprocs; ++w) {
        if (((dom_writers[static_cast<std::size_t>(w) >> 6] >> (w & 63)) &
             1) == 0) {
          continue;
        }
        if (shared.sharers->Register(u, w)) continue;  // already a sharer
        if (!virgin.empty()) shared.nodes[w]->flattened_[u] = virgin;
      }
    }
    if (shared.sharers->SharerCount(u) == nprocs && !virgin.empty()) {
      // Every node adopted the shared history; nothing will read it again.
      std::vector<FlattenedChain>().swap(virgin);
    }
    bool virgin_built = false;  // store build done for this pass
    std::uint64_t virgin_new_chains = 0;
    int virgin_consumers = 0;   // virgins with dominated pending

    for (ProcId x = 0; x < nprocs; ++x) {
      Node& node = *shared.nodes[x];
      std::vector<PendingInterval>& pend = node.pending_[u];
      if (pend.empty()) continue;
      // Virgin fast path (DESIGN.md §8): a node that never faulted on the
      // unit holds the same dominated batch as every other virgin.  The
      // first virgin flattens the shared batch once into the virgin store;
      // the rest only drop their dominated entries.  Chain headers thus
      // stop scaling with the cluster size on units most nodes never
      // touch.
      const bool is_virgin = !shared.sharers->IsSharer(u, x);
      live.clear();
      kept.clear();
      for (const PendingInterval& pi : pend) {
        if (pi.seq > through[pi.proc]) {
          live.push_back(pi);
        } else if (!is_virgin || !virgin_built) {
          kept.push_back(resolve(u, pi));
        }
      }
      if (live.size() == pend.size()) continue;  // nothing dominated
      pend.assign(live.begin(), live.end());
      if (is_virgin) {
        ++virgin_consumers;
        if (virgin_built) continue;  // the first virgin built the store
        virgin_built = true;
      }
      (is_virgin ? virgin_new_chains : chains_built) +=
          BuildChains(is_virgin ? virgin : node.flattened_[u], kept, nprocs,
                      foreign_vcw);
    }
    // The store build ran once; credit it as if each consuming virgin had
    // built (shared) it, keeping the counters comparable across runs with
    // different sharer populations.
    if (virgin_consumers > 0) {
      chains_built += virgin_new_chains;
      chains_shared +=
          virgin_new_chains * static_cast<std::uint64_t>(virgin_consumers - 1);
    }
  }
  ArchiveTelemetry& tel = shared.archive_telemetry;
  tel.chains_built.fetch_add(chains_built, std::memory_order_relaxed);
  tel.chains_shared.fetch_add(chains_shared, std::memory_order_relaxed);

  // Checkpoint-complete mode (DESIGN.md §9).  The pending-driven routing
  // above sends a record's words to the base only when some node still had
  // the record pending — sufficient for the protocol (every node that
  // consumed it already applied its words), but a recovery checkpoint must
  // hold EVERY dominated interval: the victim's rebuilt image is base +
  // surviving log, with nothing else to fall back on.  Under an armed
  // fault schedule, replace the base-routing refs wholesale with the full
  // dominated record set, filtered to this stripe.  Host-side only (the
  // chain builds above are untouched), and armed-schedule-gated, so
  // fault-free runs stay bit-identical.  Each (unit, record) pair appears
  // exactly once; the apply pass orders each unit group in happens-before
  // order itself.
  if (shared.fault != nullptr) {
    gc_refs_.clear();
    for (ProcId p = 0; p < nprocs; ++p) {
      for (const std::shared_ptr<const IntervalRecord>& owner :
           dom_prefix[p]) {
        const IntervalRecord* rec = owner.get();
        const HbKey key(*rec);
        for (std::size_t k = 0; k < rec->units.size(); ++k) {
          if (rec->units[k] % static_cast<UnitId>(nprocs) !=
              static_cast<UnitId>(id_)) {
            continue;
          }
          gc_refs_.push_back({rec->units[k], rec, static_cast<int>(k), key});
        }
      }
    }
    std::sort(gc_refs_.begin(), gc_refs_.end(),
              [](const GcRef& a, const GcRef& b) { return a.unit < b.unit; });
  }
}

// Apply phase (pass 2), over the same stripe as the flatten: flatten the
// referenced diffs into the canonical base, per unit in happens-before
// order (HbKey), so ordered overwrites land newest-last.  (Keys are
// precomputed at resolve time — deriving clock sums inside the comparator
// dominated this pass on lock-heavy batches.)  Also runs the base
// release-check: a base no chain references any more goes back to the
// pool.
void Node::GcApply() {
  SharedState& shared = shared_;
  const int nprocs = shared.config.num_procs;
  const std::size_t num_units = shared.heap.num_units();

  // gc_refs_ is already grouped by unit in ascending order (the flatten
  // pass walks its stripe ascending), so only each group needs the
  // happens-before sort — far cheaper than one global sort on lock-heavy
  // batches.
  for (std::size_t i = 0; i < gc_refs_.size();) {
    const UnitId u = gc_refs_[i].unit;
    std::size_t j = i;
    while (j < gc_refs_.size() && gc_refs_[j].unit == u) ++j;
    std::sort(gc_refs_.begin() + static_cast<std::ptrdiff_t>(i),
              gc_refs_.begin() + static_cast<std::ptrdiff_t>(j),
              [](const GcRef& a, const GcRef& b) { return a.key < b.key; });
    std::span<std::byte> base = shared.canonical->Ensure(u);
    const IntervalRecord* last = nullptr;
    for (; i < j; ++i) {
      const GcRef& r = gc_refs_[i];
      if (r.rec == last) continue;  // several nodes referenced it
      last = r.rec;
      r.rec->diffs[static_cast<std::size_t>(r.di)].Apply(base);
    }
  }
  gc_refs_.clear();

  // Armed fault schedule: the bases ARE the recovery checkpoints.  Never
  // release one — a released base re-Ensures ZEROED, silently dropping
  // checkpoint content the victim's rebuild depends on (DESIGN.md §9).
  if (shared.fault != nullptr) return;

  for (auto u = static_cast<UnitId>(id_); u < num_units;
       u += static_cast<UnitId>(nprocs)) {
    if (!shared.canonical->Has(u)) continue;
    // The virgin store pins the base too: any never-faulted node may adopt
    // its chains at a later fault and copy their words from it.
    bool needed = !shared.virgin_history[u].empty();
    for (ProcId x = 0; x < nprocs; ++x) {
      // Lazy-header invariant (DESIGN.md §8): per-node chain state exists
      // only on registered sharers; everyone else reads the virgin store.
      const bool has_chains = !shared.nodes[x]->flattened_[u].empty();
      DSM_DCHECK(!has_chains || shared.sharers->IsSharer(u, x));
      needed = needed || has_chains;
    }
    if (!needed) shared.canonical->Release(u);
  }
}

// Reclaim phase (pass 3): prune this node's own dominated archive prefix
// (FlattenedChains keep the lazy-diffing stamp arrays of their member
// records alive).  Runs after the barrier window closes, concurrent with
// resumed application threads: archives are mutex-guarded, every
// dominated reference was converted to a chain in the flatten phase, and
// notices_seen_ >= through everywhere, so no fault or notice collection
// can touch the pruned prefix.
void Node::GcPruneOwn(const VectorClock& through) {
  shared_.archives[id_]->PruneThrough(through[id_]);
}

std::size_t Node::CollectNotices(const VectorClock& target,
                                 std::vector<const IntervalRecord*>& out) {
  out.clear();
  std::size_t bytes = 0;
  for (ProcId p = 0; p < num_procs(); ++p) {
    if (p == id_) continue;
    if (target[p] <= notices_seen_[p]) continue;
    auto range = shared_.archives[p]->Range(notices_seen_[p], target[p]);
    for (const IntervalRecord* rec : range) {
      bytes += rec->NoticeBytes();
      out.push_back(rec);
    }
  }
  return bytes;
}

void Node::InvalidateFrom(
    const std::vector<const IntervalRecord*>& records) {
  const CostModel& cost = shared_.config.cost;
  for (const IntervalRecord* rec : records) {
    for (UnitId unit : rec->units) {
      pending_[unit].push_back({rec->proc, rec->seq});
      const UnitState s = table_.state(unit);
      if (s != UnitState::kInvalid) {
        table_.set_state(unit, UnitState::kInvalid);
        comm_stats_.counters().units_invalidated += 1;
        clock_.Advance(cost.mprotect_op);
      }
    }
    notices_seen_[rec->proc] = std::max(notices_seen_[rec->proc], rec->seq);
  }
}

std::size_t Node::OutgoingNoticeBytes() {
  std::size_t bytes = 0;
  for (const IntervalRecord* rec :
       shared_.archives[id_]->Range(last_sent_seq_, vc_[id_])) {
    bytes += rec->NoticeBytes();
  }
  last_sent_seq_ = vc_[id_];
  return bytes;
}

void Node::Barrier() {
  if (num_procs() == 1) return;
  if (!protocol_enabled()) {
    // Reference backend: pure rendezvous.  Clocks still reconcile to the
    // slowest arrival (that is how a barrier behaves on any machine), but
    // no notices move and no communication is modelled.  The race
    // detector brackets the rendezvous like any backend's barrier: vc_
    // is never maintained here, which is exactly why the detector keeps
    // its own clocks.
    if (race_ != nullptr) race_->OnBarrierArrive(id_);
    BarrierService::Result res =
        shared_.barrier->Arrive(id_, vc_, clock_.now(), 0);
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
  BarrierService::Result res = shared_.barrier->Arrive(
      id_, vc_, clock_.now(), arrival_bytes, hlrc_ ? &notices_seen_ : nullptr,
      coord);
  if (race_ != nullptr) race_->OnBarrierDepart(id_);

  // Extended barrier window: every processor is now inside the barrier,
  // so no diff request is in flight anywhere.  Drain the request flags
  // peers set during the finished phase into the plain per-unit view
  // consulted by WriteFault, then rendezvous again so no processor starts
  // the next phase (and issues new requests) before every drain finished.
  // This quantizes the lazy-diffing cost decisions to barrier phases,
  // making modelled time independent of host thread scheduling.
  //
  // HLRC diffs eagerly and keeps no diff archive, so neither the
  // lazy-diffing flags nor the archive GC exist for it; the idle window
  // instead hosts the trivial notice-log watermark prune.
  if (!hlrc_) {
    for (std::size_t u = 0; u < diff_requested_.size(); ++u) {
      if (diff_requested_[u].load(std::memory_order_relaxed) != 0) {
        diff_requested_[u].store(0, std::memory_order_relaxed);
        diff_request_seen_[u] = 1;
      }
    }
  }
  // Archive GC rides the same idle window (DESIGN.md §6): every node
  // flattens the dominated pending notices of its own stripe of units and
  // applies them to the canonical bases, then arrives at the closing
  // rendezvous, so the pass is over once the window closes; every node
  // prunes its own dominated archive prefix after that (mutex-guarded;
  // nothing live references it).  Every node derives the same gc_due
  // verdict from purely local state — gc_history holds min(completed
  // barriers, lag) entries, so "history full" is exactly
  // sync_phase_ >= lag.
  const int gc_interval = shared_.config.gc_interval_barriers;
  const auto gc_lag = static_cast<std::uint32_t>(
      std::max(1, shared_.config.gc_lag_barriers));
  const bool gc_due =
      !hlrc_ && gc_interval > 0 && sync_phase_ >= gc_lag &&
      (sync_phase_ + 1) % static_cast<std::uint32_t>(gc_interval) == 0;
  VectorClock gc_through;
  bool gc_pass = false;
  if (gc_due) {
    // Stable read: the coordinator appends to gc_history only after the
    // closing rendezvous below, which happens-before every other node's
    // next Arrive — so the deque is frozen while any node copies the
    // front.
    gc_through = shared_.gc_history.front();
    // Archives are frozen inside the window, so every node reaches the
    // same verdict; a pass with nothing dominated is skipped and not
    // counted.
    for (ProcId p = 0; p < num_procs() && !gc_pass; ++p) {
      gc_pass = shared_.archives[p]->CountThrough(gc_through[p]) > 0;
    }
  }
  if (gc_pass) {
    GcFlatten(gc_through);
    GcApply();
    if (id_ == res.coordinator) {
      // Checkpoint watermark (DESIGN.md §9): everything <= gc_through is
      // in the bases once every stripe is done.  Published before the
      // closing rendezvous, which happens-before any recovery read of it.
      if (shared_.fault != nullptr) shared_.checkpoint_vc = gc_through;
      ++shared_.gc_passes;
    }
  }
  // HLRC rides the same idle window for its notice-log watermark prune
  // (and, under an armed schedule, for flipping crash-driven re-home
  // batches into the shared override table at a point every node passes
  // together): every peer is parked between Arrive and Rendezvous, so
  // their notices_seen_ clocks are frozen and nobody can be flushing,
  // fetching, or collecting while the coordinator works.
  if (hlrc_ && id_ == res.coordinator) {
    if (shared_.fault != nullptr) shared_.ApplyPendingRehomes();
    HlrcPruneNotices(res.min_seen);
  }
  shared_.barrier->Rendezvous();
  // Coordinator bookkeeping after the rendezvous: ordered after every
  // stripe's Ensure/Release and gc_through copy above, and before any
  // node's next barrier (its next Arrive cannot complete before the
  // coordinator's, which follows this).
  if (id_ == res.coordinator && gc_interval > 0 && !hlrc_) {
    if (gc_pass) shared_.canonical->EndPass();
    shared_.gc_history.push_back(res.global_vc);
    while (shared_.gc_history.size() > gc_lag) {
      shared_.gc_history.pop_front();
    }
  }
  if (gc_due) GcPruneOwn(gc_through);
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
  if (num_procs() == 1) return;
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
  if (!hlrc_) {
    lock_subphase_ = static_cast<std::uint32_t>(grant.chain_pos);
  }

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
  if (num_procs() == 1) return;
  CloseInterval();  // no-op when the protocol is off
  // Detector release strictly before the service release: the next
  // grantee's acquire hook must find this release's clock on the lock.
  if (race_ != nullptr) race_->OnLockRelease(id_, lock_id);
  shared_.locks->Release(lock_id, id_, vc_, clock_.now());
}

}  // namespace dsm
