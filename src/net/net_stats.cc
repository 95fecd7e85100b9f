#include "net/net_stats.h"

#include <sstream>

namespace dsm {

std::uint64_t NetStats::total_messages() const {
  std::uint64_t n = 0;
  for (const auto& e : entries_) n += e.messages;
  return n;
}

void NetStats::Merge(const NetStats& other) {
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    entries_[i].messages += other.entries_[i].messages;
    entries_[i].bytes += other.entries_[i].bytes;
  }
}

std::string NetStats::ToString() const {
  std::ostringstream out;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].messages == 0) continue;
    out << "  " << MessageKindName(static_cast<MessageKind>(i)) << ": "
        << entries_[i].messages << " msgs, " << entries_[i].bytes
        << " bytes\n";
  }
  return out.str();
}

}  // namespace dsm
