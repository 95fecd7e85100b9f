// Word-level usefulness instrumentation (paper §5.3).
//
// The authors instrumented all loads/stores and diff applications:
//   "After applying a diff to a region of a page, if a word from that
//    region is read before being overwritten, that word is counted as
//    useful data.  If a word is never read or overwritten before being
//    read, it is counted as useless data.  A useless message is a message
//    that carries no useful data."
//
// WordTracker implements exactly that, per node.  Every word delivered by a
// diff is marked *fresh* and tagged with the delivering message's id.  The
// first subsequent local read credits the message with one useful word and
// clears the mark; a local write clears the mark without credit; a newer
// delivery overwrites the tag (the older message never gets the credit).
// At finalization, a message's useless words = delivered − credited.
//
// Storage is one uint32 per word, allocated lazily per consistency unit, so
// only units that ever receive diffs pay for tracking.  Value 0 = not
// fresh; value v>0 = fresh from message id v-1.  A per-unit count of live
// fresh tags makes the hot path O(1) once a unit's deliveries have all
// been read or overwritten: OnRead/OnWrite on an exhausted unit is a
// single counter load, and the word loop stops as soon as the last live
// tag in range dies.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/check.h"
#include "mem/types.h"

namespace dsm {

class WordTracker {
 public:
  // `words_per_unit` = unit_bytes / kWordBytes.
  WordTracker(std::size_t num_units, std::size_t words_per_unit);

  // Message `msg_id` delivered the `count` consecutive words starting at
  // (unit, first_word): one call per diff run or whole-unit fetch.  Each
  // word is tagged fresh from `msg_id`; redelivery to an already-fresh
  // word re-tags it without recounting.
  void Deliver(UnitId unit, std::uint32_t first_word, std::uint32_t count,
               std::uint32_t msg_id) {
    DSM_DCHECK(std::size_t{first_word} + count <= words_per_unit_);
    std::uint32_t* tags = units_[unit].get();
    if (tags == nullptr) tags = EnsureUnit(unit);
    tags += first_word;
    std::uint32_t newly_fresh = 0;
    for (std::uint32_t i = 0; i < count; ++i) newly_fresh += (tags[i] == 0);
    std::fill_n(tags, count, msg_id + 1);
    fresh_[unit] += newly_fresh;
  }

  // Local read of `count` consecutive words.  Calls `credit(msg_id)` once
  // per fresh word consumed.  Hot path: units with no live fresh tag take
  // a single counter check (fresh_[unit] > 0 implies tag storage exists).
  template <typename Fn>
  void OnRead(UnitId unit, std::uint32_t word_in_unit, std::uint32_t count,
              Fn&& credit) {
    std::uint32_t live = fresh_[unit];
    if (live == 0) return;
    std::uint32_t* tags = units_[unit].get();
    for (std::uint32_t i = 0; i < count; ++i) {
      std::uint32_t& tag = tags[word_in_unit + i];
      if (tag != 0) {
        credit(tag - 1);
        tag = 0;
        if (--live == 0) break;  // rest of the unit holds no fresh word
      }
    }
    fresh_[unit] = live;
  }

  // Local write of `count` consecutive words: fresh marks die uncredited.
  void OnWrite(UnitId unit, std::uint32_t word_in_unit, std::uint32_t count) {
    std::uint32_t live = fresh_[unit];
    if (live == 0) return;
    std::uint32_t* tags = units_[unit].get();
    for (std::uint32_t i = 0; i < count; ++i) {
      std::uint32_t& tag = tags[word_in_unit + i];
      if (tag != 0) {
        tag = 0;
        if (--live == 0) break;
      }
    }
    fresh_[unit] = live;
  }

  bool HasTracking(UnitId unit) const { return units_[unit] != nullptr; }

  // Live fresh tags in `unit` (0 = the hot paths early-out).
  std::uint32_t fresh_count(UnitId unit) const { return fresh_[unit]; }

  // Testing hook: raw tag for one word (0 = not fresh).
  std::uint32_t Tag(UnitId unit, std::uint32_t word_in_unit) const;

 private:
  std::uint32_t* EnsureUnit(UnitId unit);

  std::size_t words_per_unit_;
  std::vector<std::unique_ptr<std::uint32_t[]>> units_;
  std::vector<std::uint32_t> fresh_;  // live (non-zero) tags per unit
};

}  // namespace dsm
