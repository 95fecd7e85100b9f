// Node: one logical DSM processor.
//
// Owns the node's private image of the shared address space, its page table
// (unit protection states + twins), its word tracker, virtual clock, vector
// clock, and statistics, and runs the access fast path and the write-notice
// exchange of the paper's lazy release consistency protocol:
//
//   read fault   → make the unit current (the backend's fetch)
//   write fault  → validate if needed, then twin the unit
//   release      → close interval: the backend diffs every twinned unit,
//                  the record is archived, its write notices go out
//   acquire      → merge clocks, invalidate units named by newly covered
//                  write notices
//
// Each backend's release, fault, barrier and crash paths live in its own
// module, picked by one branch per seam: Lrc (core/lrc.h), the paper's
// distributed diffs fetched lazily from every concurrent writer, and Homes
// (core/hlrc.h), home-based LRC.  With AggregationMode::kDynamic the fault
// path consults the per-node DynamicAggregator and fetches whole page
// groups (paper §4).
//
// Threading: a Node is driven only by its own thread.  Peers touch a node
// exclusively through its immutable-once-appended IntervalArchive (under
// its mutex) and the sync services; inside the barrier window HLRC peers
// read its consumed-notice clock (core/hlrc.h).
#pragma once

#include <cstring>
#include <memory>
#include <vector>

#include "common/check.h"
#include "core/aggregation.h"
#include "core/comm_stats.h"
#include "core/config.h"
#include "core/hlrc.h"
#include "core/lrc.h"
#include "core/sync.h"
#include "core/vector_clock.h"
#include "core/write_notice.h"
#include "mem/global_heap.h"
#include "mem/page_table.h"
#include "mem/word_tracker.h"
#include "net/net_stats.h"
#include "sim/virtual_clock.h"

namespace dsm {

class Node;
class FaultInjector;        // core/fault.h
class RecoveryCoordinator;  // core/fault.h
class RaceDetector;         // analysis/race_detector.h

// Everything shared between nodes; owned by Runtime.
struct SharedState {
  const RuntimeConfig config;
  GlobalHeap heap;
  NetworkModel net;
  std::vector<std::unique_ptr<IntervalArchive>> archives;  // per proc
  std::unique_ptr<BarrierService> barrier;
  std::unique_ptr<LockService> locks;
  // The LRC backend (DESIGN.md §4 and §6): every node's pending notices,
  // lazy-diffing flags and reclaimed history.  Empty unless the backend is
  // kLrc.
  Lrc lrc;
  ArchiveTelemetry archive_telemetry;
  // BackendKind::kReference: the single image all processors access
  // directly (null under the LRC backend, where every node owns a private
  // image).  Race-free programs touch disjoint words between
  // synchronizations, so direct concurrent access is well-defined.
  HeapImage reference_image;
  // Home-based LRC (DESIGN.md §7): the home image, its re-home table and
  // the nodes' HLRC scratch.  Empty unless the backend is kHlrc.
  Homes homes;

  // Deterministic fault injection (DESIGN.md §9): null unless
  // config.fault is armed.
  std::unique_ptr<FaultInjector> fault;
  // Happens-before race detection (DESIGN.md §10): null unless
  // config.race_check.  Observational only — nodes feed it access and
  // synchronization events; it never touches modelled state.
  std::unique_ptr<RaceDetector> race;

  // Barrier coordinator for `sync_phase`: proc 0 unless an at-barrier
  // event kills it at that phase, in which case the lowest surviving rank
  // assumes the coordinator roles (GC pass count, canonical-base peak fold
  // and checkpoint watermark, HLRC re-home apply, barrier-manager cost
  // asymmetry) for exactly that barrier.  Collecting the units and
  // pruning the logs are not among them: every node, the victim included,
  // collects its own GC stripe and prunes its own log.  A pure function
  // of the armed schedule and the phase, so every node computes the same
  // answer with no communication; always 0 when no schedule is armed.
  ProcId CoordinatorFor(std::uint32_t sync_phase) const;
  // Peer access for the HLRC notice-log prune, which reads every peer's
  // consumed-notice clock; filled in by Runtime after node construction.
  std::vector<Node*> nodes;

  explicit SharedState(const RuntimeConfig& cfg);
  // Out-of-line: FaultInjector is incomplete here (unique_ptr member).
  ~SharedState();
};

class Node {
 public:
  Node(ProcId id, SharedState& shared);

  ProcId id() const { return id_; }
  int num_procs() const { return shared_.config.num_procs; }

  // --- application-facing memory access (hot path) -------------------------
  // `addr` must be word-aligned, `bytes` a multiple of kWordBytes.
  void ReadBytes(GlobalAddr addr, void* out, std::size_t bytes);
  void WriteBytes(GlobalAddr addr, const void* in, std::size_t bytes);

  // Charge `flops` floating-point operations of private compute.
  void Compute(std::uint64_t flops) {
    clock_.Advance(static_cast<VirtualNanos>(flops) *
                   shared_.config.cost.flop);
  }

  // --- synchronization ------------------------------------------------------
  void Barrier();
  void AcquireLock(int lock_id);
  void ReleaseLock(int lock_id);

  // --- introspection ---------------------------------------------------------
  VirtualClock& clock() { return clock_; }
  const VirtualClock& clock() const { return clock_; }
  CommStats& comm_stats() { return comm_stats_; }
  NetStats& net_stats() { return net_stats_; }

  // Close the current open interval (normally driven by release/barrier;
  // public for tests and for Runtime teardown).
  void CloseInterval();

 private:
  // Crash recovery rebuilds this node's volatile state in place
  // (core/fault.h); it needs the same access the node's own protocol
  // methods have.  The backends (core/lrc.h, core/hlrc.h) close, fetch,
  // prune and rebuild for the node.
  friend class RecoveryCoordinator;
  friend class Homes;
  friend class Lrc;

  // The protocol machinery runs unless the run uses the sequentially
  // consistent reference oracle.  Fixed at construction; cached so the
  // access fast path pays one bool load instead of a config read.
  bool protocol_enabled() const { return protocol_enabled_; }

  std::span<std::byte> UnitSpan(UnitId unit) {
    return {data_ + shared_.heap.UnitBase(unit), unit_bytes_};
  }

  // Accesses spanning multiple consistency units (rare): the per-unit
  // chunk loop behind the inline single-unit fast path.
  void ReadBytesSlow(GlobalAddr addr, void* out, std::size_t bytes);
  void WriteBytesSlow(GlobalAddr addr, const void* in, std::size_t bytes);

  // Race-detector feed (out of line so the inline access paths pay one
  // null test and nothing else when the checker is off).
  void RaceOnAccess(UnitId unit, std::size_t offset_in_unit,
                    std::size_t bytes, bool is_write);

  void ReadFault(UnitId unit);
  void WriteFault(UnitId unit);

  // Make an invalid/updated-invalid unit readable.  Does not charge the
  // fault trap itself (callers do).
  void ValidateUnit(UnitId unit);

  // Lazy-diffing phase key: barrier phase in the upper half, lock-chain
  // sub-phase in the lower (see IntervalRecord::stamps).  Barrier programs
  // keep the sub-phase at 0, reducing to pure barrier-phase quantization.
  std::uint64_t stamp_key() const {
    return (std::uint64_t{sync_phase_} << 32) | lock_subphase_;
  }

  // Collect archive records newly covered by `target` (all procs except
  // self), in (proc, seq) order, into `out` (cleared first; callers pass
  // the reusable notice_scratch_).  Returns their total write-notice
  // payload size.
  std::size_t CollectNotices(const VectorClock& target,
                             std::vector<const IntervalRecord*>& out);

  // Invalidate the units named in `records`; under LRC, queue their
  // notices (Lrc::Queue).
  void InvalidateFrom(const std::vector<const IntervalRecord*>& records);

  // Write-notice payload this node ships at a release (its own intervals
  // not yet sent), advancing last_sent_seq_.
  std::size_t OutgoingNoticeBytes();

  const ProcId id_;
  SharedState& shared_;
  const std::size_t unit_bytes_;
  const int unit_shift_;
  const bool protocol_enabled_;
  // Home-based LRC backend active (BackendKind::kHlrc): releases flush
  // to homes and faults fetch whole units (core/hlrc.h); otherwise, with
  // the protocol enabled, the LRC backend runs (core/lrc.h).
  const bool hlrc_;
  // Per-word cost of a shared access, cached off the config for the
  // fast path.
  const VirtualNanos shared_access_cost_;
  // Cached shared_.race.get(): null unless config.race_check, so the
  // access fast paths gate the observational feed on one pointer test.
  RaceDetector* const race_;

  HeapImage image_;                     // private image (LRC; null for ref)
  std::byte* data_;                     // accesses go here (image_ or shared)
  PageTable table_;
  WordTracker tracker_;
  // Completed barrier phases (identical on every node at any given phase).
  std::uint32_t sync_phase_ = 0;
  // Lock-chain sub-phase: the service-wide position of this node's most
  // recent lock token transfer (0 until the first non-cached acquire
  // after a barrier).  Combined with sync_phase_ into stamp_key().
  std::uint32_t lock_subphase_ = 0;
  DynamicAggregator aggregator_;

  VirtualClock clock_;
  VectorClock vc_;
  // Highest seq per peer whose notices this node has already processed.
  VectorClock notices_seen_;
  Seq last_sent_seq_ = 0;

  CommStats comm_stats_;
  NetStats net_stats_;

  // Scratch reused across faults and synchronizations (vector capacity
  // persists between calls).
  std::vector<UnitId> fetch_scratch_;                 // ValidateUnit
  // Records a sync collects notices from, and the release's own unsent
  // ones (Barrier/AcquireLock).
  std::vector<const IntervalRecord*> notice_scratch_;
  IntervalDraft draft_scratch_;                       // CloseInterval
};

// ---------------------------------------------------------------------------
// Hot-path inline definitions.
// ---------------------------------------------------------------------------

inline void Node::ReadBytes(GlobalAddr addr, void* out, std::size_t bytes) {
  DSM_DCHECK(addr % kWordBytes == 0 && bytes % kWordBytes == 0);
  DSM_DCHECK(addr + bytes <= shared_.heap.heap_bytes());
  const UnitId unit = static_cast<UnitId>(addr >> unit_shift_);
  const std::size_t offset_in_unit = addr & (unit_bytes_ - 1);
  if (offset_in_unit + bytes <= unit_bytes_) [[likely]] {
    // Single-unit fast path (the overwhelmingly common case): one inline
    // protection-state load, one fresh-count check, one memcpy, one
    // batched clock update.
    if (protocol_enabled_) {
      if (table_.NeedsFaultOnRead(unit)) [[unlikely]] {
        ReadFault(unit);
      }
      tracker_.OnRead(unit,
                      static_cast<std::uint32_t>(offset_in_unit / kWordBytes),
                      static_cast<std::uint32_t>(bytes / kWordBytes),
                      [this](std::uint32_t msg) { comm_stats_.Credit(msg); });
    }
    if (race_ != nullptr) [[unlikely]] {
      RaceOnAccess(unit, offset_in_unit, bytes, /*is_write=*/false);
    }
    std::memcpy(out, data_ + addr, bytes);
    clock_.Advance(static_cast<VirtualNanos>(bytes / kWordBytes) *
                   shared_access_cost_);
    return;
  }
  ReadBytesSlow(addr, out, bytes);
}

inline void Node::WriteBytes(GlobalAddr addr, const void* in,
                             std::size_t bytes) {
  DSM_DCHECK(addr % kWordBytes == 0 && bytes % kWordBytes == 0);
  DSM_DCHECK(addr + bytes <= shared_.heap.heap_bytes());
  const UnitId unit = static_cast<UnitId>(addr >> unit_shift_);
  const std::size_t offset_in_unit = addr & (unit_bytes_ - 1);
  if (offset_in_unit + bytes <= unit_bytes_) [[likely]] {
    if (protocol_enabled_) {
      if (table_.NeedsFaultOnWrite(unit)) [[unlikely]] {
        WriteFault(unit);
      }
      tracker_.OnWrite(unit,
                       static_cast<std::uint32_t>(offset_in_unit / kWordBytes),
                       static_cast<std::uint32_t>(bytes / kWordBytes));
    }
    if (race_ != nullptr) [[unlikely]] {
      RaceOnAccess(unit, offset_in_unit, bytes, /*is_write=*/true);
    }
    std::memcpy(data_ + addr, in, bytes);
    clock_.Advance(static_cast<VirtualNanos>(bytes / kWordBytes) *
                   shared_access_cost_);
    return;
  }
  WriteBytesSlow(addr, in, bytes);
}

}  // namespace dsm
