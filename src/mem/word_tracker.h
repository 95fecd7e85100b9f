// Word-level usefulness instrumentation (paper §5.3) and per-node read
// interest.
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
//
// Read interest (archive GC's read-aware flattening, DESIGN.md §6): the
// tracker additionally accumulates a monotone per-unit bitmap of every
// word whose *delivery this node ever consumed* — set at the credit site,
// which already runs only on the slow path (live fresh tags), so the read
// fast path pays nothing.  For foreign-written data this converges on
// "words this node reads" after one delivery cycle: any read of a
// repeatedly-delivered word credits it on the next delivery.  The GC
// consults the bitmap to elide flattened chains none of whose words the
// pending node ever consumed (Water's aux/force slots); a mispredicted
// later read is data-safe — the words are silently refreshed from the
// canonical base at fault time.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/check.h"
#include "mem/diff.h"
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
    if (interest_enabled_) [[unlikely]] {
      // Lock programs only: same loop plus interest marking, kept out of
      // line so the common credit loop below stays tight.
      OnReadWithInterest(unit, word_in_unit, count,
                         static_cast<Fn&&>(credit));
      return;
    }
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

  // --- read interest (monotone; consulted only by the archive GC) ----------

  // Start accumulating read interest (idempotent).  Called by the
  // protocol when this node first touches a lock or learns of a
  // lock-release interval; earlier reads go unrecorded, which is safe —
  // an under-full interest set only means a mispredicted elision, and
  // those refresh from the canonical base.
  void EnableInterest() { interest_enabled_ = true; }

  // True iff this node ever consumed a delivery of any word covered by
  // `runs` in `unit`.
  bool ReadsAnyOf(UnitId unit, const std::vector<DiffRun>& runs) const;

  bool HasTracking(UnitId unit) const { return units_[unit] != nullptr; }

  // Live fresh tags in `unit` (0 = the hot paths early-out).
  std::uint32_t fresh_count(UnitId unit) const { return fresh_[unit]; }

  // Testing hook: raw tag for one word (0 = not fresh).
  std::uint32_t Tag(UnitId unit, std::uint32_t word_in_unit) const;

 private:
  std::uint32_t* EnsureUnit(UnitId unit);
  std::uint64_t* EnsureInterest(UnitId unit);

  // Credit loop for lock programs: consumes fresh tags AND records each
  // consumed word in the interest bitmap.  Out of the inline hot path.
  template <typename Fn>
  [[gnu::noinline]] void OnReadWithInterest(UnitId unit,
                                            std::uint32_t word_in_unit,
                                            std::uint32_t count,
                                            Fn&& credit) {
    std::uint32_t live = fresh_[unit];
    std::uint32_t* tags = units_[unit].get();
    for (std::uint32_t i = 0; i < count; ++i) {
      std::uint32_t& tag = tags[word_in_unit + i];
      if (tag != 0) {
        credit(tag - 1);
        tag = 0;
        NoteCredit(unit, word_in_unit + i);
        if (--live == 0) break;
      }
    }
    fresh_[unit] = live;
  }

  // Mark one consumed-delivery word.  Reached only through
  // OnReadWithInterest, i.e. only once the node has seen lock traffic
  // (EnableInterest): read interest is consulted exclusively for
  // lock-release records, so barrier-only programs never execute this.
  void NoteCredit(UnitId unit, std::uint32_t word_in_unit) {
    std::uint64_t* bits = interest_[unit].get();
    if (bits == nullptr) bits = EnsureInterest(unit);
    bits[word_in_unit >> 6] |= std::uint64_t{1} << (word_in_unit & 63);
  }

  std::size_t words_per_unit_;
  bool interest_enabled_ = false;
  std::vector<std::unique_ptr<std::uint32_t[]>> units_;
  std::vector<std::uint32_t> fresh_;  // live (non-zero) tags per unit
  // One bit per word ever read, lazily allocated per unit (read-interest).
  std::vector<std::unique_ptr<std::uint64_t[]>> interest_;
};

}  // namespace dsm
