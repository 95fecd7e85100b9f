#include "core/comm_stats.h"

#include <sstream>

#include "common/check.h"

namespace dsm {

void CommBreakdown::Merge(const CommBreakdown& other) {
  for (const CounterRow& row : kCounterRows) {
    this->*row.member += other.*row.member;
  }
  signature.Merge(other.signature);
}

std::string CommBreakdown::ToString() const {
  std::ostringstream out;
  for (std::size_t g = 0; g < std::size(kCounterGroups); ++g) {
    std::ostringstream line;
    bool any = false;
    for (const CounterRow& row : kCounterRows) {
      if (static_cast<std::size_t>(row.group) != g) continue;
      line << ' ' << row.name << '=' << this->*row.member;
      any = any || this->*row.member != 0;
    }
    if (any || !kCounterGroups[g].skip_if_zero) {
      out << kCounterGroups[g].name << ':' << line.str() << '\n';
    }
  }
  out << "signature:\n" << signature.ToString();
  return out.str();
}

std::uint32_t CommStats::NewExchange() {
  exchanges_.emplace_back();
  return static_cast<std::uint32_t>(exchanges_.size() - 1);
}

void CommStats::AddDelivered(std::uint32_t exchange_id, std::uint32_t words) {
  exchanges_[exchange_id].delivered_words += words;
}

void CommStats::RecordFault(int num_writers, std::uint32_t first_exchange) {
  DSM_CHECK_GT(num_writers, 0);
  faults_.push_back(
      {first_exchange, static_cast<std::uint16_t>(num_writers)});
}

CommBreakdown CommStats::Finalize() const {
  CommBreakdown out = counters_;

  for (const auto& e : exchanges_) {
    // A word is credited at most once per delivery.
    DSM_CHECK_LE(e.useful_words, e.delivered_words);
    const bool useful = e.useful_words > 0;
    const std::uint64_t useful_bytes =
        static_cast<std::uint64_t>(e.useful_words) * kWordBytes;
    const std::uint64_t useless_bytes =
        static_cast<std::uint64_t>(e.delivered_words - e.useful_words) *
        kWordBytes;
    if (useful) {
      out.useful_messages += 2;  // request + response
      out.useful_data_bytes += useful_bytes;
      out.piggyback_useless_bytes += useless_bytes;
    } else {
      out.useless_messages += 2;
      out.useless_msg_data_bytes += useless_bytes;
    }
  }

  for (const auto& f : faults_) {
    for (std::uint16_t i = 0; i < f.num_writers; ++i) {
      const auto& e = exchanges_[f.first_exchange + i];
      if (e.useful_words > 0) {
        out.signature.AddUseful(f.num_writers);
      } else {
        out.signature.AddUseless(f.num_writers);
      }
    }
  }
  return out;
}

}  // namespace dsm
