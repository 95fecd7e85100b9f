// Public API of the pagedsm library.
//
// Typical use (see examples/quickstart.cc):
//
//   dsm::RuntimeConfig cfg;
//   cfg.num_procs = 8;
//   cfg.pages_per_unit = 2;                  // 8 KB consistency units
//   dsm::Runtime rt(cfg);
//   auto grid = rt.Alloc<float>(n, "grid");
//   rt.Run([&](dsm::Proc& p) {
//     for (std::size_t i = p.id(); i < n; i += p.nprocs())
//       p.Write(grid, i, Work(p.Read(grid, i)));
//     p.Barrier();
//   });
//   dsm::RunStats stats = rt.CollectStats();
//
// One Runtime = one DSM session: allocate shared memory, run one parallel
// region (one function executed by every logical processor), then collect
// the communication statistics and modelled execution time.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "analysis/race_detector.h"
#include "core/protocol.h"

namespace dsm {

// Typed handle to a shared allocation.  Cheap value type; the data lives in
// the DSM address space and is reached through a Proc.
template <typename T>
class SharedArray {
 public:
  static_assert(std::is_trivially_copyable_v<T>,
                "shared data must be trivially copyable");
  static_assert(sizeof(T) % kWordBytes == 0,
                "shared element size must be a multiple of the 4-byte word");

  SharedArray() = default;
  SharedArray(GlobalAddr base, std::size_t count)
      : base_(base), count_(count) {}

  GlobalAddr base() const { return base_; }
  std::size_t size() const { return count_; }
  GlobalAddr addr_of(std::size_t i) const {
    DSM_DCHECK(i < count_);
    return base_ + i * sizeof(T);
  }

 private:
  GlobalAddr base_ = 0;
  std::size_t count_ = 0;
};

// The per-processor handle passed to the parallel body.
class Proc {
 public:
  explicit Proc(Node& node) : node_(node) {}

  ProcId id() const { return node_.id(); }
  int nprocs() const { return node_.num_procs(); }

  template <typename T>
  T Read(const SharedArray<T>& a, std::size_t i) {
    T out;
    node_.ReadBytes(a.addr_of(i), &out, sizeof(T));
    return out;
  }

  template <typename T>
  void Write(const SharedArray<T>& a, std::size_t i, const T& v) {
    node_.WriteBytes(a.addr_of(i), &v, sizeof(T));
  }

  // Range access: the elements of `a` from `first` on, one per span
  // element, as one Node access.  A whole-vector loop then pays one
  // protection check, one tracker pass and one race-detector call per
  // unit, and one clock advance, instead of one of each per element.  It
  // models exactly the ascending per-element loop over the same span
  // (DESIGN.md §2).  An empty span touches nothing.
  template <typename T>
  void ReadRange(const SharedArray<T>& a, std::size_t first,
                 std::type_identity_t<std::span<T>> out) {
    CheckRange(a, first, out.size());
    if (out.empty()) return;
    node_.ReadBytes(a.addr_of(first), out.data(), out.size_bytes());
  }

  template <typename T>
  void WriteRange(const SharedArray<T>& a, std::size_t first,
                  std::type_identity_t<std::span<const T>> in) {
    CheckRange(a, first, in.size());
    if (in.empty()) return;
    node_.WriteBytes(a.addr_of(first), in.data(), in.size_bytes());
  }

  // Raw-address access, for per-field access into shared structs:
  //   p.ReadAt<float>(bodies.addr_of(i) + offsetof(Body, x))
  template <typename T>
  T ReadAt(GlobalAddr addr) {
    static_assert(sizeof(T) % kWordBytes == 0);
    T out;
    node_.ReadBytes(addr, &out, sizeof(T));
    return out;
  }

  template <typename T>
  void WriteAt(GlobalAddr addr, const T& v) {
    static_assert(sizeof(T) % kWordBytes == 0);
    node_.WriteBytes(addr, &v, sizeof(T));
  }

  void Barrier() { node_.Barrier(); }
  void Lock(int lock_id) { node_.AcquireLock(lock_id); }
  void Unlock(int lock_id) { node_.ReleaseLock(lock_id); }

  // Charge `flops` of private computation to the virtual clock.
  void Compute(std::uint64_t flops) { node_.Compute(flops); }

  VirtualNanos now() const { return node_.clock().now(); }

  Node& node() { return node_; }

 private:
  // Always on: throws unless [first, first + n) lies inside `a`, written
  // so that first + n cannot overflow.
  template <typename T>
  static void CheckRange(const SharedArray<T>& a, std::size_t first,
                         std::size_t n) {
    DSM_CHECK(first <= a.size() && n <= a.size() - first)
        << "range of " << n << " at " << first << " outside an array of "
        << a.size();
  }

  Node& node_;
};

// Aggregated results of one Run.
struct RunStats {
  VirtualNanos exec_time = 0;  // max over nodes (the run's critical path)
  std::vector<VirtualNanos> node_times;
  CommBreakdown comm;
  NetStats net;
  MemoryFootprint mem;
  // Host wall-clock the crash rebuilds took (DESIGN.md §9); their modelled
  // totals are comm's recovery counters.  Zero — and absent from ToString
  // — unless at least one event of the fault schedule fired.
  std::uint64_t recovery_wall_ns = 0;
  // Happens-before race detection (DESIGN.md §10): deduplicated reports
  // in deterministic order.  Default (races.checked == false — and absent
  // from ToString) unless RuntimeConfig::race_check was on.  Host-side
  // observability like `mem`: excluded from fingerprints and modelled
  // equivalence checks.
  RaceStats races;

  double exec_seconds() const {
    return static_cast<double>(exec_time) /
           static_cast<double>(kNanosPerSecond);
  }
  std::string ToString() const;
};

// The modelled state of a run, value by value, in a fixed order: exec_time
// and node_times; the CommBreakdown counter groups of kCounterRows; the
// signature buckets; then one messages/bytes group per NetStats kind.  A
// skip_if_zero group whose values are all zero yields nothing.
// `in_fingerprint` is false for the values ModelledFingerprint leaves out
// (the signature), so fingerprints committed before it was compared do not
// move.  Host-side observations — mem, races, recovery_wall_ns — are not
// modelled state and are never yielded.
using ModelledValueFn = std::function<void(
    std::string_view name, std::uint64_t value, bool in_fingerprint)>;
void ForEachModelledValue(const RunStats& stats, const ModelledValueFn& fn);

// Empty when `a` and `b` agree on every modelled value; otherwise one
// "name: <a> vs <b>" line per value that differs.  The A/B tests assert
// EXPECT_EQ(ModelledStateDiff(a, b), "") to show a host-side mechanism
// left the model untouched.
std::string ModelledStateDiff(const RunStats& a, const RunStats& b);

// 64-bit FNV-1a over the bits of `result`, then every in_fingerprint
// modelled value: the per-row fingerprint of bench_wallclock.
std::uint64_t ModelledFingerprint(double result, const RunStats& stats);

class Runtime {
 public:
  explicit Runtime(RuntimeConfig cfg);
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  // Shared-memory allocation; call before Run.
  template <typename T>
  SharedArray<T> Alloc(std::size_t count, const char* name = nullptr) {
    const std::size_t align =
        alignof(T) > kWordBytes ? alignof(T) : kWordBytes;
    return SharedArray<T>(
        shared_.heap.Alloc(count * sizeof(T), align, name), count);
  }

  // Allocation starting on a consistency-unit boundary.
  template <typename T>
  SharedArray<T> AllocUnitAligned(std::size_t count,
                                  const char* name = nullptr) {
    return SharedArray<T>(
        shared_.heap.AllocUnitAligned(count * sizeof(T), name), count);
  }

  // Execute `body` once per logical processor (proc 0 runs on the calling
  // thread).  May be called once per Runtime.
  void Run(const std::function<void(Proc&)>& body);

  // Finalize and merge per-node statistics.  Call after Run.
  RunStats CollectStats() const;

  const RuntimeConfig& config() const { return shared_.config; }
  GlobalHeap& heap() { return shared_.heap; }
  SharedState& shared() { return shared_; }
  Node& node(ProcId p) { return *nodes_[p]; }

 private:
  SharedState shared_;
  std::vector<std::unique_ptr<Node>> nodes_;
  bool ran_ = false;
};

}  // namespace dsm
