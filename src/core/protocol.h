// Node: one logical DSM processor.
//
// Owns the node's private image of the shared address space, its page table
// (unit protection states + twins), its word tracker, virtual clock, vector
// clock, pending write notices, and statistics.  Implements the full lazy
// release consistency + multiple-writer protocol of the paper:
//
//   read fault   → fetch diffs from all concurrent writers with pending
//                  notices (combined per writer; writers answer in
//                  parallel), apply in happens-before order
//   write fault  → validate if needed, then twin the unit
//   release      → close interval: diff every twinned unit, archive, emit
//                  write notices
//   acquire      → merge clocks, invalidate units named by newly covered
//                  write notices
//
// With AggregationMode::kDynamic the fault path consults the per-node
// DynamicAggregator and fetches whole page groups (paper §4).
//
// Threading: a Node is driven only by its own thread.  Peers touch a node
// exclusively through its immutable-once-appended IntervalArchive (under
// its mutex) and the sync services; inside the barrier window the archive
// GC's stripes (core/gc.h) rewrite its pending notices and HLRC peers read
// its consumed-notice clock (core/hlrc.h).
#pragma once

#include <algorithm>
#include <cstring>
#include <atomic>
#include <deque>
#include <memory>
#include <vector>

#include "common/check.h"
#include "core/aggregation.h"
#include "core/comm_stats.h"
#include "core/config.h"
#include "core/gc.h"
#include "core/hlrc.h"
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
  // Archive GC (DESIGN.md §6): all reclaimed history, and the archives'
  // footprint telemetry.
  ArchiveGc gc;
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
  // Peer access for the lazy-diffing cost flags; filled in by Runtime
  // after node construction.
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
  const VectorClock& vector_clock() const { return vc_; }
  // The memory this node's accesses hit: its private image under LRC, the
  // single shared image under the reference backend.
  std::byte* image() { return data_; }

  // Close the current open interval (normally driven by release/barrier;
  // public for tests and for Runtime teardown).
  void CloseInterval();

 private:
  // Crash recovery rebuilds this node's volatile state in place
  // (core/fault.h); it needs the same access the node's own protocol
  // methods have.  The archive GC flattens every node's pending notices.
  // The HLRC paths (core/hlrc.h) flush, fetch and prune for the node.
  friend class RecoveryCoordinator;
  friend class ArchiveGc;
  friend class Homes;

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

  // Fetch and apply all pending diffs for `units` (all must have pending
  // notices), combining requests per writer.  Each writer's consecutive
  // intervals reach the reader as chains of one form: an optional
  // reclaimed head whose words are copied from the canonical base, then
  // the live diffs absorbed into it, applied oldest first.  A chain's wire
  // size, delivered words and apply cost are those of one combined diff
  // over the union of its members' runs (Diff::MergeRuns).  Records
  // exchanges, the fault record, and all modelled costs.
  void FetchUnits(const std::vector<UnitId>& units);

  // Mark a clean unit dirty (twin + unprotect).  `cheap` re-twins carry no
  // modelled cost (lazy-diffing regime, see WriteFault).
  void TwinUnit(UnitId unit, bool cheap = false);

  // Collect archive records newly covered by `target` (all procs except
  // self), in (proc, seq) order, into `out` (cleared first; callers pass
  // the reusable notice_scratch_).  Returns their total write-notice
  // payload size.
  std::size_t CollectNotices(const VectorClock& target,
                             std::vector<const IntervalRecord*>& out);

  // Invalidate the units named in `records` and queue pending notices.
  void InvalidateFrom(const std::vector<const IntervalRecord*>& records);

  // Write-notice payload this node ships at a release (its own intervals
  // not yet sent), advancing last_sent_seq_.
  std::size_t OutgoingNoticeBytes();

  // A write notice this node has not yet applied: the record and the
  // index of the unit's diff in it, so the fault path and the GC read the
  // diff without searching the archive.  Under LRC the record outlives
  // the notice: the GC flattens every pending notice of a dominated
  // record before its owner prunes it.  HLRC's watermark prune may free a
  // record that is still pending here, so under HLRC a pending notice is
  // never dereferenced: a unit keeps at most one, which only says that the
  // unit has something to fetch.
  struct PendingInterval {
    const IntervalRecord* rec;
    std::uint32_t index;
  };

  const ProcId id_;
  SharedState& shared_;
  const std::size_t unit_bytes_;
  const int unit_shift_;
  const bool protocol_enabled_;
  // Home-based LRC backend active (BackendKind::kHlrc): releases flush
  // to homes and faults fetch whole units (core/hlrc.h).
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
  std::vector<std::vector<PendingInterval>> pending_;
  // Lazy-diffing cost model (see protocol.cc): a unit whose twin was just
  // diffed at a release can be re-dirtied for free — in real TreadMarks
  // the twin simply persists across the release — unless a peer has
  // requested a diff of the unit in an earlier barrier phase (which in
  // the lazy regime forces diff creation, twin discard, and re-protection
  // at the writer).  Peers set diff_requested_ asynchronously; Barrier
  // drains it into diff_request_seen_ (the only flag WriteFault consults)
  // inside the extended barrier window, so the cheap/expensive decision is
  // quantized to phases and replays deterministically.
  std::vector<std::uint8_t> retwin_cheap_;
  std::vector<std::atomic<std::uint8_t>> diff_requested_;
  std::vector<std::uint8_t> diff_request_seen_;
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

  // Scratch buffers reused across faults and synchronizations, so the
  // steady-state fault path performs few allocations (vector capacity
  // persists between calls).
  //
  // One per-writer coalesced chain the fault must fetch: an optional
  // reclaimed head (its words live in the canonical base), then the live
  // diffs absorbed into it, oldest first.
  struct NeedEntry {
    UnitId unit;
    HbKey key;                    // chain tail's happens-before sort key
    const FlattenedChain* head;   // reclaimed head, or null
    // Union of every member's runs: the head's or the only record's own
    // list, or a merged list in merged_runs_scratch_.
    std::span<const DiffRun> runs;
    std::size_t payload_words;    // == Diff::RunWords(runs)
    // Live diffs, oldest first: indices into live_diffs_scratch_.
    std::uint32_t live_begin;
    std::uint32_t live_count;
    std::uint32_t exchange_id;
    bool needs_scan;  // server must materialize (this requester pays)

    // Wire size of the chain as one combined diff.
    std::size_t EncodedBytes() const {
      return Diff::WireBytes(runs.size(), payload_words);
    }
  };
  // One live pending diff: the record and the unit's index in it.
  struct LiveDiff {
    const IntervalRecord* rec;
    std::uint32_t index;
  };
  struct ResolvedDiff {
    LiveDiff diff;
    bool pays_for_scan;
  };
  std::vector<std::vector<NeedEntry>> needs_by_writer_;  // indexed by proc
  std::vector<ResolvedDiff> resolved_scratch_;        // FetchUnits
  std::vector<const ResolvedDiff*> chain_scratch_;    // FetchUnits
  std::vector<Seq> foreign_vcw_scratch_;              // FetchUnits
  // Merged run lists of multi-member chains; a deque keeps NeedEntry::runs
  // views stable as it grows.
  std::deque<std::vector<DiffRun>> merged_runs_scratch_;  // FetchUnits
  std::vector<NeedEntry> apply_scratch_;              // FetchUnits
  std::vector<LiveDiff> live_diffs_scratch_;          // FetchUnits
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
