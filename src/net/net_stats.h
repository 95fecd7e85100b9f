// Raw per-kind message and byte accounting.
//
// NetStats counts what crossed the simulated wire.  The *semantic*
// classification (useful vs. useless messages and data — which needs to know
// whether delivered words were ever read) lives in core/comm_stats.h;
// NetStats is the physical layer's view.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "net/network_model.h"

namespace dsm {

class NetStats {
 public:
  NetStats() = default;

  void Record(MessageKind kind, std::size_t payload_bytes) {
    auto& e = entries_[static_cast<std::size_t>(kind)];
    e.messages += 1;
    e.bytes += payload_bytes;
  }

  std::uint64_t messages(MessageKind kind) const {
    return entries_[static_cast<std::size_t>(kind)].messages;
  }
  std::uint64_t bytes(MessageKind kind) const {
    return entries_[static_cast<std::size_t>(kind)].bytes;
  }

  std::uint64_t total_messages() const;

  void Merge(const NetStats& other);

  std::string ToString() const;

 private:
  struct Entry {
    std::uint64_t messages = 0;
    std::uint64_t bytes = 0;
  };
  std::array<Entry, kNumMessageKinds> entries_{};
};

}  // namespace dsm
