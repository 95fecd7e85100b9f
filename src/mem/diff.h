// Twin/diff machinery of the multiple-writer protocol (paper §2).
//
// On the first write to a clean unit the protocol copies it (the *twin*).
// When the writer's interval closes, the twin is word-compared against the
// working copy to produce a *diff*: a run-length-encoded record of modified
// words.  A reader merges concurrent diffs by applying them in turn; for
// race-free programs concurrent diffs touch disjoint words, so application
// order between concurrent writers does not matter.  Consecutive diffs of
// one writer may overlap: they are applied oldest first, so each word ends
// with its newest value, and MergeRuns gives the run list of their union,
// which is what one combined diff would put on the wire.  Diff holds only
// these run-list primitives: a diff's words live packed in the interval
// record a release builds (IntervalRecord, core/write_notice.h), or still
// in the image the runs were found in.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "mem/types.h"

namespace dsm {

// One maximal run of consecutive modified words.
struct DiffRun {
  std::uint32_t word_offset;  // first modified word, relative to unit base
  std::uint32_t word_count;   // number of consecutive modified words
};

class Diff {
 public:
  // The run pass of diffing: append the canonical runs of the words where
  // `current` differs from `twin` (both unit-sized, same length, length a
  // multiple of kWordBytes) to `runs`; returns the words they cover.  An
  // archived interval sizes its one block from it before copying any
  // payload (IntervalRecord, core/write_notice.h).
  static std::size_t FindRuns(std::span<const std::byte> twin,
                              std::span<const std::byte> current,
                              std::vector<DiffRun>& runs);

  // Scatter `payload`, the words of `runs` packed run by run, into `dst`
  // (a unit-sized buffer).
  static void ApplyRuns(std::span<const DiffRun> runs,
                        const std::byte* payload, std::span<std::byte> dst);

  // Copy the words of `runs` from `src` into the same offsets of `dst`
  // (unit-sized buffers of one length): applying a diff whose payload
  // still sits in the image it was found in.  Each run is checked against
  // the unit, as ApplyRuns does.
  static void CopyRuns(std::span<const DiffRun> runs,
                       std::span<const std::byte> src,
                       std::span<std::byte> dst);

  // The canonical (sorted, maximal, disjoint) run decomposition of the
  // union of two canonical run lists.  Used to combat diff accumulation:
  // when a reader fetches several consecutive intervals of one writer and
  // no foreign interval is ordered between them, the intermediate versions
  // of overlapping words can never be observed, so the server ships one
  // combined diff whose runs are this union.  Payload-free, so the fault
  // path and archive GC count that diff's wire size and delivered words
  // from run lists alone, including those of flattened chains whose
  // members the archive has freed (DESIGN.md §6).
  static std::vector<DiffRun> MergeRuns(std::span<const DiffRun> a,
                                        std::span<const DiffRun> b);

  // Total words covered by a canonical run list.
  static std::size_t RunWords(std::span<const DiffRun> runs);

  // Wire size of a diff of `num_runs` runs covering `words` words: header
  // + per-run descriptors + payload.  Used for message byte accounting,
  // bandwidth timing and archive telemetry.
  static constexpr std::size_t WireBytes(std::size_t num_runs,
                                         std::size_t words) {
    return kHeaderBytes + num_runs * kRunDescriptorBytes + words * kWordBytes;
  }

  static constexpr std::size_t kHeaderBytes = 16;
  static constexpr std::size_t kRunDescriptorBytes = 8;
};

}  // namespace dsm
