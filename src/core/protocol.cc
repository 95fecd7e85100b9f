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
      lrc(config, heap.num_units(), heap.unit_bytes()),
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
      aggregator_(shared.heap.num_units(), shared.config.max_group_pages),
      vc_(shared.config.num_procs),
      notices_seen_(shared.config.num_procs) {}

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
  if (s == UnitState::kInvalid || s == UnitState::kUpdatedInvalid) {
    ValidateUnit(unit);
  }
  // A unit validated with its twin alive is dirty again; any other gets a
  // twin, which under LRC's lazy diffing may be free (Lrc::Twin).
  const bool twin = table_.state(unit) == UnitState::kReadValid;
  const bool is_free =
      twin && !hlrc_ && shared_.lrc.Twin(id_, unit, s == UnitState::kReadValid);
  if (!is_free) {
    comm_stats_.counters().write_faults += 1;
    clock_.Advance(cost.fault_overhead);
  }
  if (!twin) return;
  table_.MakeTwin(unit, UnitSpan(unit));
  table_.RecordDirty(unit);
  table_.set_state(unit, UnitState::kDirty);
  comm_stats_.counters().twins_created += 1;
  if (!is_free) clock_.Advance(cost.TwinCost(unit_bytes_) + cost.mprotect_op);
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

  // The faulting unit first, then every invalid member of its group: a
  // unit goes invalid only when a write notice names it, so each has
  // something to fetch.
  std::vector<UnitId>& fetch = fetch_scratch_;
  fetch.assign(1, unit);
  if (dynamic) {
    for (UnitId member : aggregator_.GroupOf(unit)) {
      if (member != unit && table_.state(member) == UnitState::kInvalid) {
        fetch.push_back(member);
      }
    }
  }
  if (hlrc_) {
    shared_.homes.Fetch(*this, fetch);
  } else {
    shared_.lrc.Fetch(*this, fetch);
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

void Node::CloseInterval() {
  if (!protocol_enabled()) return;
  if (table_.dirty_units().empty()) return;

  IntervalDraft& draft = draft_scratch_;
  draft.Clear();
  if (hlrc_) {
    shared_.homes.Flush(*this, draft);
  } else {
    shared_.lrc.Close(*this, draft);
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
    // HLRC fetches whole units from their homes, so a unit's kInvalid
    // state is all it needs to know.
    if (!hlrc_) shared_.lrc.Queue(id_, rec);
    for (UnitId unit : rec->units()) {
      if (table_.state(unit) != UnitState::kInvalid) {
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
  // so cross-node state can be read and reset deterministically until
  // the closing rendezvous.  LRC drains the lazy-diffing requests and
  // collects its GC stripe in it; HLRC prunes its notice log and applies
  // crash re-home batches.  After it, LRC closes the GC pass and prunes
  // the node's own archive.
  const bool is_coordinator = id_ == res.coordinator;
  if (hlrc_) {
    shared_.homes.OnBarrier(*this, is_coordinator);
  } else {
    shared_.lrc.OnBarrier(*this, is_coordinator);
  }
  shared_.barrier->Rendezvous();
  if (!hlrc_) shared_.lrc.AfterBarrier(*this, is_coordinator, res.global_vc);
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
