// Semantic communication statistics: the paper's measurement methodology.
//
// Every page fault that sends messages contacts some set of concurrent
// writers; the exchange with each writer is one request + one response
// (diffs).  CommStats records one ExchangeRecord per writer contacted and
// one FaultRecord per fault.  WordTracker credits exchanges with useful
// words as delivered words are read.  Finalize() then computes the
// breakdowns shown in Figures 1–3:
//
//   * useful / useless messages  (a message is useless iff the exchange
//     delivered no word that was read before being overwritten),
//   * useful data / piggybacked useless data (useless words on useful
//     messages) / useless data on useless messages,
//   * the false sharing signature: histogram over faults of the number of
//     concurrent writers contacted, split useful/useless per exchange.
#pragma once

#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "mem/types.h"

namespace dsm {

// Finalized communication breakdown for one run (or one node).
struct CommBreakdown {
  // Message counts.  Each exchange contributes 2 messages (request +
  // response), classified together, matching the paper's examples ("the
  // messages exchanged with p2 are useless messages").
  std::uint64_t useful_messages = 0;
  std::uint64_t useless_messages = 0;
  std::uint64_t sync_messages = 0;  // barrier/lock traffic (always useful)

  // Data volumes, in bytes of diff payload words.
  std::uint64_t useful_data_bytes = 0;
  std::uint64_t piggyback_useless_bytes = 0;  // useless words on useful msgs
  std::uint64_t useless_msg_data_bytes = 0;   // words on useless msgs
  // Independent tally of diff payload: incremented by the protocol once
  // per APPLIED diff (Lrc::Fetch's apply loop), a different code path
  // from the per-exchange word bookkeeping that Finalize() classifies.
  // Invariant: total_data_bytes() == delivered_data_bytes — every applied
  // word must be accounted for by the useful/useless split, so a missed
  // AddDelivered, a double-count across merged chains, or an over-credit
  // breaks the equality.
  std::uint64_t delivered_data_bytes = 0;

  // Home-based LRC traffic (BackendKind::kHlrc, DESIGN.md §7).  Fetch
  // exchanges (home → reader) go through the regular exchange machinery,
  // so their words land in the useful/useless split and in
  // delivered_data_bytes — the accounting invariant covers them
  // unchanged.  Flush traffic (writer → home) moves data nobody has read
  // yet; it is outside the paper's reader-side taxonomy and is tallied
  // separately here (and in NetStats under the kHome* kinds).  Counters
  // cover remote homes only: self-homed units flush and fetch locally,
  // with no messages.
  std::uint64_t home_flush_messages = 0;  // flush + ack, 2 per home contacted
  std::uint64_t home_flushes = 0;         // units flushed to a remote home
  std::uint64_t home_flush_bytes = 0;     // diff payload absorbed by homes
  std::uint64_t home_fetches = 0;         // whole units fetched from homes
  std::uint64_t home_fetch_bytes = 0;     // full-unit payload delivered

  // Crash-recovery traffic (DESIGN.md §9).  Like home-flush traffic, the
  // rebuild data is outside the paper's reader-side useful/useless
  // taxonomy (the victim re-reads everything; classifying the copies
  // would poison the false-sharing signature) and outside
  // delivered_data_bytes, whose invariant covers fault-path deliveries
  // only.  All zero — and skipped by ToString and the bench fingerprint —
  // unless a fault schedule event actually fired.
  std::uint64_t recoveries = 0;             // crash-recovery episodes
  std::uint64_t recovery_messages = 0;      // requests + replies, all sources
  std::uint64_t recovery_data_bytes = 0;    // checkpoint/home/log payload
  std::uint64_t recovery_units = 0;         // units rebuilt into the image
  std::uint64_t recovery_records = 0;       // archive records replayed (LRC)
  // HLRC home-crash retransmits: an exchange addressed to a crashed,
  // re-homed unit times out and is re-sent to the new home.  Each node
  // pays this once per re-home batch, at its first home contact after the
  // batch takes effect (it learns the new map from the timeout).  Like
  // the other recovery counters: zero, fingerprint-skipped, and outside
  // the reader-side taxonomy unless a schedule actually fired.
  std::uint64_t recovery_retransmits = 0;       // timed-out, re-sent requests
  std::uint64_t recovery_retransmit_bytes = 0;  // request payload re-sent
  // Modelled latency the rebuilds charged to the victims' clocks (ns).
  std::uint64_t recovery_modelled_ns = 0;

  // False sharing signature (Figure 3): bucket k = faults that contacted k
  // concurrent writers; per bucket, exchanges split useful/useless.
  SplitHistogram signature;

  // Protocol event counters.
  std::uint64_t read_faults = 0;
  std::uint64_t write_faults = 0;
  std::uint64_t silent_validations = 0;  // updated-invalid unit validated
  std::uint64_t twins_created = 0;
  std::uint64_t diffs_created = 0;
  std::uint64_t diffs_applied = 0;
  std::uint64_t units_invalidated = 0;
  std::uint64_t group_prefetch_units = 0;  // units fetched via page groups

  std::uint64_t total_messages() const {
    return useful_messages + useless_messages + sync_messages +
           home_flush_messages + recovery_messages + recovery_retransmits;
  }
  std::uint64_t total_data_bytes() const {
    return useful_data_bytes + piggyback_useless_bytes +
           useless_msg_data_bytes;
  }
  std::uint64_t useless_data_bytes() const {
    return piggyback_useless_bytes + useless_msg_data_bytes;
  }

  void Merge(const CommBreakdown& other);
  std::string ToString() const;
};

// The counter schema: every std::uint64_t member of CommBreakdown, declared
// once.  Merge, ToString and the modelled-state visitor
// (ForEachModelledValue, core/runtime.h) — and through it the bench
// fingerprint and every A/B comparison — iterate these rows instead of
// naming fields.  Add a counter by adding its member and one row;
// tests/test_substrates.cc fails a member that has no row.
//
// Rows are listed group by group, in fingerprint order.  A skip_if_zero
// group contributes nothing — no ToString line, no fingerprint bytes —
// while every value in it is zero; counters added after fingerprints were
// committed go in such a group, so those fingerprints hold.
enum class CounterGroup : std::uint8_t {
  kMessages,
  kData,
  kEvents,
  kHome,
  kRecovery,
};

struct CounterGroupInfo {
  const char* name;  // ToString line label
  bool skip_if_zero;
};

// Indexed by CounterGroup.
inline constexpr CounterGroupInfo kCounterGroups[] = {
    {"messages", false},
    {"data bytes", false},
    {"events", false},
    {"home", true},      // HLRC only (DESIGN.md §7)
    {"recovery", true},  // a fault fired (DESIGN.md §9)
};

struct CounterRow {
  const char* name;
  std::uint64_t CommBreakdown::*member;
  CounterGroup group;
};

#define DSM_COUNTER_ROW(member, group) \
  { #member, &CommBreakdown::member, CounterGroup::group }
inline constexpr CounterRow kCounterRows[] = {
    DSM_COUNTER_ROW(useful_messages, kMessages),
    DSM_COUNTER_ROW(useless_messages, kMessages),
    DSM_COUNTER_ROW(sync_messages, kMessages),
    DSM_COUNTER_ROW(useful_data_bytes, kData),
    DSM_COUNTER_ROW(piggyback_useless_bytes, kData),
    DSM_COUNTER_ROW(useless_msg_data_bytes, kData),
    DSM_COUNTER_ROW(delivered_data_bytes, kData),
    DSM_COUNTER_ROW(read_faults, kEvents),
    DSM_COUNTER_ROW(write_faults, kEvents),
    DSM_COUNTER_ROW(silent_validations, kEvents),
    DSM_COUNTER_ROW(twins_created, kEvents),
    DSM_COUNTER_ROW(diffs_created, kEvents),
    DSM_COUNTER_ROW(diffs_applied, kEvents),
    DSM_COUNTER_ROW(units_invalidated, kEvents),
    DSM_COUNTER_ROW(group_prefetch_units, kEvents),
    DSM_COUNTER_ROW(home_flush_messages, kHome),
    DSM_COUNTER_ROW(home_flushes, kHome),
    DSM_COUNTER_ROW(home_flush_bytes, kHome),
    DSM_COUNTER_ROW(home_fetches, kHome),
    DSM_COUNTER_ROW(home_fetch_bytes, kHome),
    DSM_COUNTER_ROW(recoveries, kRecovery),
    DSM_COUNTER_ROW(recovery_messages, kRecovery),
    DSM_COUNTER_ROW(recovery_data_bytes, kRecovery),
    DSM_COUNTER_ROW(recovery_units, kRecovery),
    DSM_COUNTER_ROW(recovery_records, kRecovery),
    DSM_COUNTER_ROW(recovery_retransmits, kRecovery),
    DSM_COUNTER_ROW(recovery_retransmit_bytes, kRecovery),
    DSM_COUNTER_ROW(recovery_modelled_ns, kRecovery),
};
#undef DSM_COUNTER_ROW

// Per-node, single-threaded statistics collector.
class CommStats {
 public:
  CommStats() = default;

  // Open a new exchange with one writer or home; returns its id, which
  // WordTracker uses to tag delivered words.
  std::uint32_t NewExchange();

  void AddDelivered(std::uint32_t exchange_id, std::uint32_t words);
  // One delivered word was read before being overwritten.
  void Credit(std::uint32_t exchange_id) {
    exchanges_[exchange_id].useful_words += 1;
  }

  // A fault contacted `num_writers` distinct writers whose exchanges are
  // [first_exchange, first_exchange + num_writers).
  void RecordFault(int num_writers, std::uint32_t first_exchange);

  std::uint32_t num_exchanges() const {
    return static_cast<std::uint32_t>(exchanges_.size());
  }

  // Event counters, incremented by the protocol.
  CommBreakdown& counters() { return counters_; }

  // Classify all exchanges and produce the breakdown.  Words still fresh
  // (never read) count as useless.  Idempotent snapshot.  Checks that no
  // exchange credited more words than it delivered.
  CommBreakdown Finalize() const;

 private:
  // One per exchange, kept until the run ends: only what Finalize reads.
  struct ExchangeRecord {
    std::uint32_t delivered_words = 0;
    std::uint32_t useful_words = 0;
  };
  struct FaultRecord {
    std::uint32_t first_exchange = 0;
    std::uint16_t num_writers = 0;
  };

  std::vector<ExchangeRecord> exchanges_;
  std::vector<FaultRecord> faults_;
  CommBreakdown counters_;  // event counters + sync messages live here
};

}  // namespace dsm
