// The archive GC pass of Lrc (core/lrc.h): barrier-epoch flattening of
// every node's dominated pending notices into chains and canonical bases
// (DESIGN.md §6).
#include "core/lrc.h"

#include "core/protocol.h"

namespace dsm {
namespace {

// A dominated record resolved for one unit, with its happens-before key
// (a chain's tail key, and the base apply order).
struct Resolved {
  const IntervalRecord* rec;
  std::uint32_t index;  // the unit's diff in rec
  HbKey key;
};

// Extend a unit's flattened chains `flat` with its kept dominated records,
// writer by writer, then freeze the blocked verdicts; returns the number
// of chains started.  `foreign_vcw` is per-writer scratch.
std::uint64_t BuildChains(std::vector<FlattenedChain>& flat,
                          const std::vector<Resolved>& kept, int nprocs,
                          std::vector<std::vector<Seq>>& foreign_vcw) {
  for (ProcId w = 0; w < nprocs; ++w) foreign_vcw[w].clear();
  for (const Resolved& q : kept) {
    for (ProcId w = 0; w < nprocs; ++w) {
      if (q.rec->proc() != w) foreign_vcw[w].push_back(q.rec->vc(w));
    }
  }
  for (ProcId w = 0; w < nprocs; ++w) {
    std::sort(foreign_vcw[w].begin(), foreign_vcw[w].end());
  }

  std::uint64_t started = 0;
  for (ProcId w = 0; w < nprocs; ++w) {
    // Only the last existing chain of writer w may be extended.
    std::size_t open = flat.size();
    for (std::size_t i = 0; i < flat.size(); ++i) {
      if (flat[i].writer == w) open = i;
    }
    for (const Resolved& r : kept) {
      if (r.rec->proc() != w) continue;
      const std::span<const DiffRun> runs = r.rec->runs(r.index);
      StampRef stamp{r.rec->stamps(), r.index};
      if (open != flat.size() && !flat[open].blocked &&
          MayAbsorb(foreign_vcw[w], flat[open].first_seq, r.rec->seq())) {
        // Copy-on-write: clones a body shared with the virgin store or
        // other nodes.
        ChainBody& b = flat[open].MutableBody();
        b.runs = Diff::MergeRuns(b.runs, runs);
        b.payload_words = Diff::RunWords(b.runs);
        b.tail = r.key;
        b.older = std::make_shared<const StampNode>(
            StampNode{std::move(b.newest), std::move(b.older)});
        b.newest = std::move(stamp);
      } else {
        FlattenedChain c;
        c.writer = w;
        c.first_seq = r.rec->seq();
        c.body = std::make_shared<ChainBody>(
            ChainBody{{runs.begin(), runs.end()},
                      r.rec->payload_words(r.index),
                      r.key,
                      std::move(stamp),
                      nullptr});
        flat.push_back(std::move(c));
        ++started;
        open = flat.size() - 1;
      }
    }
  }
  // A foreign reclaimed interval ordered after a chain's head means no
  // later interval may ever be absorbed into the chain (the fault path
  // would re-check this against the record, which is about to be
  // reclaimed — freeze the verdict in the flag).
  for (FlattenedChain& c : flat) {
    if (c.blocked) continue;
    const std::vector<Seq>& v = foreign_vcw[c.writer];
    if (!v.empty() && v.back() >= c.first_seq) c.blocked = true;
  }
  return started;
}

}  // namespace

const VectorClock* Lrc::PassTarget(std::uint32_t sync_phase,
                                   const SharedState& shared) const {
  // history_ holds min(completed barriers, lag) clocks, so it is full
  // exactly when sync_phase >= lag.  The coordinator appends only after
  // the closing rendezvous, so it is frozen while any node reads it.
  if (interval_ == 0 || sync_phase < lag_ ||
      (sync_phase + 1) % interval_ != 0) {
    return nullptr;
  }
  const VectorClock& through = history_.front();
  for (ProcId p = 0; p < nprocs_; ++p) {
    if (shared.archives[p]->CountThrough(through[p]) > 0) return &through;
  }
  return nullptr;  // nothing dominated: the pass is skipped
}

// For each unit of the stripe, in ascending order: flatten the dominated
// pending notices of EVERY node, in fixed node order, with the fault
// path's absorption rule over the same record set (live records from
// later epochs can never block a dominated absorption: they happened
// after every dominated interval); then apply every dominated record that
// names the unit to its canonical base, in happens-before order.  Earlier
// passes applied everything they reclaimed, so the base then holds every
// interval at or below `through` and is a complete recovery checkpoint
// (DESIGN.md §9).  A unit's collection touches only that unit's state,
// and the records it reads are frozen until the prune after the window;
// every chain copies what it needs out of its records (run list, tail
// key, stamp), so the prune frees them.
void Lrc::CollectStripe(SharedState& shared, ProcId id, bool is_coordinator,
                        const VectorClock& through) {
  const int nprocs = nprocs_;
  const auto stride = static_cast<UnitId>(nprocs);
  auto dominated = [&through](const Notice& pi) {
    return pi.rec->seq() <= through[pi.rec->proc()];
  };

  // The stripe's share of the dominated records, one entry per unit a
  // record names, in base apply order: by unit, then happens-before
  // (HbKey), so ordered overwrites land newest last.
  std::vector<std::pair<UnitId, Resolved>> to_apply;
  {
    std::vector<const IntervalRecord*> records;
    for (ProcId p = 0; p < nprocs; ++p) {
      shared.archives[p]->Range(0, through[p], records);
    }
    for (const IntervalRecord* rec : records) {
      const HbKey key(*rec);
      const std::span<const UnitId> units = rec->units();
      for (std::uint32_t k = 0; k < units.size(); ++k) {
        if (units[k] % stride != static_cast<UnitId>(id)) continue;
        to_apply.push_back({units[k], Resolved{rec, k, key}});
      }
    }
  }
  std::sort(to_apply.begin(), to_apply.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first < b.first;
              return a.second.key < b.second.key;
            });
  auto next_apply = to_apply.begin();

  std::vector<Notice> live;
  std::vector<Resolved> kept;
  std::vector<std::vector<Seq>> foreign_vcw(nprocs);  // BuildChains scratch
  std::vector<std::uint8_t> dom_writer(static_cast<std::size_t>(nprocs));
  NodeState& own = nodes_[id];

  for (auto u = static_cast<UnitId>(id); u < num_units_; u += stride) {
    std::vector<FlattenedChain>& virgin = virgin_[u];

    // --- virgin-node bookkeeping (DESIGN.md §8) --------------------------
    // A dominated record is pending at every node that never consumed it,
    // so a writer with no dominated record pending anywhere has none
    // entering any build this pass.  A still-virgin node whose OWN
    // records are about to be flattened stops being virgin now: it
    // adopts the shared store — exactly its per-node state, by induction —
    // and takes the per-node path below.  Every remaining virgin's pending
    // therefore holds the identical full dominated batch (pending never
    // holds own records), which is what makes one shared store build
    // exact for all of them.
    std::fill(dom_writer.begin(), dom_writer.end(), 0);
    for (ProcId x = 0; x < nprocs; ++x) {
      for (const Notice& pi : nodes_[x].pending[u]) {
        if (dominated(pi)) dom_writer[pi.rec->proc()] = 1;
      }
    }
    for (ProcId w = 0; w < nprocs; ++w) {
      if (dom_writer[w] != 0) Adopt(w, u);
    }
    const auto first_sharer = sharer_.begin() +
                              static_cast<std::ptrdiff_t>(Slot(0, u));
    if (!virgin.empty() &&
        std::all_of(first_sharer, first_sharer + nprocs,
                    [](std::uint8_t s) { return s != 0; })) {
      // Every node adopted the shared history; nothing will read it again.
      std::vector<FlattenedChain>().swap(virgin);
    }

    // The first virgin with dominated entries flattens the shared batch
    // once into the virgin store; the rest only drop their entries.
    bool virgin_built = false;
    std::uint64_t virgin_new_chains = 0;
    int virgin_consumers = 0;
    for (ProcId x = 0; x < nprocs; ++x) {
      std::vector<Notice>& pend = nodes_[x].pending[u];
      if (pend.empty()) continue;
      const bool is_virgin = sharer_[Slot(x, u)] == 0;
      live.clear();
      kept.clear();
      for (const Notice& pi : pend) {
        if (!dominated(pi)) {
          live.push_back(pi);
        } else if (!is_virgin || !virgin_built) {
          kept.push_back(Resolved{pi.rec, pi.index, HbKey(*pi.rec)});
        }
      }
      if (live.size() == pend.size()) continue;  // nothing dominated
      pend.assign(live.begin(), live.end());
      if (is_virgin) {
        ++virgin_consumers;
        if (virgin_built) continue;
        virgin_built = true;
      }
      (is_virgin ? virgin_new_chains : own.chains_built) +=
          BuildChains(is_virgin ? virgin : chains_[Slot(x, u)], kept, nprocs,
                      foreign_vcw);
    }
    // The store build ran once; credit it as if each consuming virgin had
    // built (shared) it, keeping the counters comparable across runs with
    // different sharer populations.
    if (virgin_consumers > 0) {
      own.chains_built += virgin_new_chains;
      own.chains_shared +=
          virgin_new_chains * static_cast<std::uint64_t>(virgin_consumers - 1);
    }

    // --- the canonical base ----------------------------------------------
    if (next_apply != to_apply.end() && next_apply->first == u) {
      const std::span<std::byte> base = Base(u);
      for (; next_apply != to_apply.end() && next_apply->first == u;
           ++next_apply) {
        next_apply->second.rec->Apply(next_apply->second.index, base);
      }
      has_base_[u] = 1;
    }
  }

  if (is_coordinator) {
    // Checkpoint watermark: everything <= through is in the bases once
    // every stripe is done.  Published before the closing rendezvous,
    // which happens-before any recovery read of it.
    checkpoint_ = through;
    ++passes_;
  }
}

void Lrc::EndBarrier(const VectorClock& global_vc) {
  if (interval_ == 0) return;
  history_.push_back(global_vc);
  while (history_.size() > lag_) history_.pop_front();
}

}  // namespace dsm
