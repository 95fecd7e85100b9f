#include "core/runtime.h"

#include <algorithm>
#include <cstring>
#include <exception>
#include <iterator>
#include <map>
#include <sstream>
#include <thread>
#include <utility>

#include "core/fault.h"

namespace dsm {

std::string RunStats::ToString() const {
  std::ostringstream out;
  out << "exec_time: " << exec_seconds() << " s\n";
  if (comm.recoveries > 0) {
    out << "recovery host time: " << recovery_wall_ns << " ns\n";
  }
  if (races.checked) out << races.ToString();
  out << comm.ToString();
  out << "network:\n" << net.ToString();
  return out.str();
}

void ForEachModelledValue(const RunStats& stats, const ModelledValueFn& fn) {
  // Values are gathered one group at a time, so a skip_if_zero group can
  // be dropped whole.
  std::vector<std::pair<std::string, std::uint64_t>> group;
  auto emit = [&](bool skip_if_zero, bool in_fingerprint) {
    const bool all_zero =
        std::all_of(group.begin(), group.end(),
                    [](const auto& v) { return v.second == 0; });
    if (!skip_if_zero || !all_zero) {
      for (const auto& [name, value] : group) fn(name, value, in_fingerprint);
    }
    group.clear();
  };

  group.emplace_back("exec_time", static_cast<std::uint64_t>(stats.exec_time));
  for (std::size_t p = 0; p < stats.node_times.size(); ++p) {
    group.emplace_back("node_times[" + std::to_string(p) + "]",
                       static_cast<std::uint64_t>(stats.node_times[p]));
  }
  emit(false, true);

  for (std::size_t g = 0; g < std::size(kCounterGroups); ++g) {
    for (const CounterRow& row : kCounterRows) {
      if (static_cast<std::size_t>(row.group) == g) {
        group.emplace_back(row.name, stats.comm.*row.member);
      }
    }
    emit(kCounterGroups[g].skip_if_zero, true);
  }

  const SplitHistogram& sig = stats.comm.signature;
  for (std::size_t k = 0; k < sig.num_buckets(); ++k) {
    const std::string bucket = "signature[" + std::to_string(k) + "]";
    group.emplace_back(bucket + ".useful", sig.useful(k));
    group.emplace_back(bucket + ".useless", sig.useless(k));
  }
  emit(false, false);

  for (std::size_t k = 0; k < kNumMessageKinds; ++k) {
    const auto kind = static_cast<MessageKind>(k);
    const std::string net = std::string("net.") + MessageKindName(kind);
    group.emplace_back(net + ".msgs", stats.net.messages(kind));
    group.emplace_back(net + ".bytes", stats.net.bytes(kind));
    // The kinds appended for HLRC are skipped while zero, so fingerprints
    // committed before they existed hold.
    emit(k >= kFirstHomeMessageKind, true);
  }
}

std::string ModelledStateDiff(const RunStats& a, const RunStats& b) {
  // Keyed by name: an all-zero skip_if_zero group yields nothing, so a
  // value only one side yields reads as 0 on the other.
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> values;
  ForEachModelledValue(a, [&](std::string_view name, std::uint64_t v, bool) {
    values[std::string(name)].first = v;
  });
  ForEachModelledValue(b, [&](std::string_view name, std::uint64_t v, bool) {
    values[std::string(name)].second = v;
  });
  std::ostringstream out;
  for (const auto& [name, v] : values) {
    if (v.first != v.second) {
      out << name << ": " << v.first << " vs " << v.second << "\n";
    }
  }
  return out.str();
}

std::uint64_t ModelledFingerprint(double result, const RunStats& stats) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  auto mix = [&hash](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (v >> (8 * i)) & 0xff;
      hash *= 0x100000001b3ull;
    }
  };
  std::uint64_t result_bits = 0;
  std::memcpy(&result_bits, &result, sizeof(result_bits));
  mix(result_bits);
  ForEachModelledValue(
      stats, [&](std::string_view, std::uint64_t v, bool in_fingerprint) {
        if (in_fingerprint) mix(v);
      });
  return hash;
}

Runtime::Runtime(RuntimeConfig cfg) : shared_(cfg) {
  nodes_.reserve(cfg.num_procs);
  for (int p = 0; p < cfg.num_procs; ++p) {
    nodes_.push_back(std::make_unique<Node>(p, shared_));
    shared_.nodes.push_back(nodes_.back().get());
  }
}

Runtime::~Runtime() = default;

void Runtime::Run(const std::function<void(Proc&)>& body) {
  DSM_CHECK(!ran_) << "Runtime::Run may only be called once";
  ran_ = true;

  const int nprocs = shared_.config.num_procs;
  std::vector<std::thread> threads;
  std::exception_ptr first_error;
  std::mutex error_mutex;

  auto run_one = [&](ProcId p) {
    Proc proc(*nodes_[p]);
    try {
      body(proc);
    } catch (...) {
      {
        std::lock_guard lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
      // Every processor blocked on this one throws out of its barrier or
      // lock wait, so the joins below return; the error recorded first is
      // the one rethrown.
      shared_.barrier->Abort();
      shared_.locks->Abort();
    }
  };

  threads.reserve(nprocs - 1);
  for (int p = 1; p < nprocs; ++p) {
    threads.emplace_back(run_one, p);
  }
  run_one(0);
  for (auto& t : threads) t.join();

  if (first_error) std::rethrow_exception(first_error);
}

RunStats Runtime::CollectStats() const {
  RunStats stats;
  for (const auto& node : nodes_) {
    stats.node_times.push_back(node->clock().now());
    stats.exec_time = std::max(stats.exec_time, node->clock().now());
    stats.comm.Merge(node->comm_stats().Finalize());
    stats.net.Merge(node->net_stats());
  }
  // Every applied word is classified useful or useless exactly once
  // (CommBreakdown::delivered_data_bytes).
  DSM_CHECK_EQ(stats.comm.total_data_bytes(), stats.comm.delivered_data_bytes);
  stats.mem = shared_.lrc.Footprint(shared_);
  if (shared_.fault != nullptr) {
    stats.recovery_wall_ns = shared_.fault->recovery_wall_ns();
  }
  if (shared_.race != nullptr) stats.races = shared_.race->Collect();
  return stats;
}

}  // namespace dsm
