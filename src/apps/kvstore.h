// KV: a partitioned key-value store laid out over the DSM heap — the
// request-shaped workload the scientific suite never exercises (ROADMAP
// "serve real traffic").  Each shard is a fixed-capacity open-addressed
// hash table guarded by its own LockService lock; every processor drives
// a seeded Zipfian-skewed request stream (GET / additive UPDATE) against
// the shared table, barrier-delimited into rounds.  Shards are packed
// contiguously, NOT unit-padded: how many shards share one consistency
// unit is exactly the aggregation-vs-false-sharing knob the paper
// studies, now under lock-sharded request traffic instead of SPMD bands.
//
// The checksum must be bit-comparable across backends even though lock
// grant order is host-scheduled, so it is built only from commuting and
// per-proc-deterministic parts (the requirement DESIGN.md §11 documents
// for every lock-scheduled app):
//
//   * UPDATEs are additive (value += delta, deltas a pure function of the
//     proc's seeded stream) — integer addition commutes, so the final
//     key/value words are exact no matter how the host interleaves the
//     shard-lock hand-offs,
//   * GET values are read under the shard lock but feed NOTHING: a read
//     taken mid-stream depends on the schedule, so only the per-proc op
//     tallies (counts, derived from the seeded stream alone) are summed,
//   * after the final barrier every processor reads the whole table
//     (master-reads pattern) and folds the key/value words plus the
//     reduced tallies into the result.
//
// Like Fuzz/Water/TSP, the *modelled* state is host-order dependent
// (lock chains), so its conformance scenario has an exact golden with
// modelled_stable == false.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "apps/app_common.h"

namespace dsm::apps {

struct KvParams {
  std::string label;
  std::size_t num_keys;    // power of two; keyspace of the store
  int num_shards;          // power of two; one LockService lock per shard
  int phases;              // barrier-delimited request rounds
  int ops_per_phase;       // requests per processor per round
  int read_percent;        // GET share of the mix (rest: additive UPDATE)
  int hot_percent;         // share of requests redirected to the hot set
  int hot_ranks;           // size of the hot set (hottest Zipf ranks)
  int zipf_exp;            // integer Zipf exponent (1 or 2; see .cc)
  std::uint64_t seed;      // expanded per processor
};

// Named datasets: "tiny" (conformance-sized), and the bench mixes
// "read-mostly" / "write-heavy" / "hot" — each sized so the default
// 8-processor sweep drives >= 1M modelled requests per row.
KvParams KvDataset(const std::string& label);

class KvStore : public Application {
 public:
  explicit KvStore(KvParams params);

  const char* name() const override { return "KV"; }
  std::string dataset() const override { return params_.label; }
  std::size_t heap_bytes() const override;

  void Setup(Runtime& rt) override;
  void Body(Proc& p) override;
  double result() const override { return result_; }

  // Requests a run at `num_procs` models (procs × phases × ops_per_phase)
  // — the denominator of bench_wallclock's modelled_requests_per_sec.
  std::uint64_t ModelledRequests(int num_procs) const;

  const KvParams& params() const { return params_; }

 protected:
  // RacyKv hook: called once at the top of every request phase, BEFORE
  // the proc takes any shard lock in that phase.  The ordering matters
  // for the exact-match race fixture: a fresh barrier departure leaves
  // the detector's lock-chain sub-phase at 0, so accesses planted here
  // carry deterministic (phase, 0) stamps even though the later locked
  // traffic advances host-order-dependent chain positions.
  virtual void PhaseStart(Proc& p, int phase) {
    (void)p;
    (void)phase;
  }

  std::size_t shard_capacity() const;  // slots per shard (load factor 1/2)

  KvParams params_;
  // Precomputed in the constructor, identically on every process/backend:
  // global slot index (shard * capacity + probe slot) per key, and the
  // integer Zipf cumulative weights the request streams sample from.
  std::vector<std::uint32_t> slot_of_key_;
  std::vector<std::uint64_t> zipf_cum_;

  SharedArray<std::int32_t> table_;  // [2 * slot] = key tag, [+1] = value
  Reducer reducer_;
  double result_ = 0.0;
};

// RacyKv: the deliberately under-locked variant for the race detector's
// KV regression gate — the classic "metrics counter updated outside the
// shard lock" bug, planted deterministically.  Same seeded, correctly
// locked request traffic as KvStore, plus ONE unsynchronized word per
// request phase: a dedicated stats slot racy_[k] that proc k % nprocs
// writes and proc (k + 1) % nprocs reads (even phases) or writes (odd
// phases) with no ordering between them.  Both accesses happen at the
// top of the phase, before either proc touches a shard lock, so the
// report stamps are (phase, subphase 0) — deterministic despite the
// host-scheduled lock chains around them (mirrors RacyFuzz).  The racy
// values never feed the checksum, so the result stays bit-identical
// across every cell while the report list is exactly ExpectedRaces().
class RacyKv : public KvStore {
 public:
  explicit RacyKv(KvParams params);

  const char* name() const override { return "RacyKv"; }
  std::size_t heap_bytes() const override;

  void Setup(Runtime& rt) override;

  // The injected-race schedule, normalized and ordered exactly as
  // RaceDetector::Collect reports it.  Valid after Setup (needs racy_'s
  // address) for a run at `num_procs` processors and `unit_bytes` units.
  std::vector<RaceReport> ExpectedRaces(int num_procs,
                                        std::size_t unit_bytes) const;

 protected:
  void PhaseStart(Proc& p, int phase) override;

 private:
  SharedArray<std::int32_t> racy_;  // one unsynchronized word per phase
};

}  // namespace dsm::apps
