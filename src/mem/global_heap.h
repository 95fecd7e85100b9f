// Global shared address-space layout.
//
// GlobalHeap is pure metadata: a bump allocator handing out offsets into the
// shared address space.  The actual bytes live in one private image per
// logical processor (see core/protocol.h) — exactly like a real software
// DSM, where every node holds its own copy of each page and the protocol
// keeps the copies consistent.
#pragma once

#include <cstddef>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "mem/types.h"

namespace dsm {

class GlobalHeap {
 public:
  // `heap_bytes` must be a multiple of `unit_bytes`; `unit_bytes` must be a
  // power-of-two multiple of the base VM page.
  GlobalHeap(std::size_t heap_bytes, std::size_t unit_bytes);

  // Allocate `bytes` with the given alignment (power of two, >= 4).
  // `name` is kept for diagnostics. Throws CheckError when out of space.
  GlobalAddr Alloc(std::size_t bytes, std::size_t align,
                   const char* name = nullptr);

  // Allocate starting on a fresh consistency-unit boundary.  Used by
  // workloads that want page-aligned arrays (and by tests that need to
  // place data on known units).
  GlobalAddr AllocUnitAligned(std::size_t bytes, const char* name = nullptr);

  std::size_t heap_bytes() const { return heap_bytes_; }
  std::size_t unit_bytes() const { return unit_bytes_; }
  std::size_t num_units() const { return heap_bytes_ / unit_bytes_; }

  UnitId UnitOf(GlobalAddr addr) const {
    return static_cast<UnitId>(addr >> unit_shift_);
  }
  GlobalAddr UnitBase(UnitId unit) const {
    return static_cast<GlobalAddr>(unit) << unit_shift_;
  }
  int unit_shift() const { return unit_shift_; }

  struct Allocation {
    std::string name;
    GlobalAddr addr;
    std::size_t bytes;
  };
  const std::vector<Allocation>& allocations() const { return allocations_; }

 private:
  std::size_t heap_bytes_;
  std::size_t unit_bytes_;
  int unit_shift_;
  std::size_t next_ = 0;
  std::vector<Allocation> allocations_;
};

// A heap-sized byte image (a node's private image, the HLRC home image, the
// reference image), zeroed at allocation.  For large sizes std::calloc maps
// fresh zero pages instead of writing zeros, so allocating touches no
// memory and a page nobody writes never becomes resident.
struct FreeDeleter {
  void operator()(std::byte* p) const { std::free(p); }
};
using HeapImage = std::unique_ptr<std::byte[], FreeDeleter>;
HeapImage AllocZeroedImage(std::size_t bytes);

}  // namespace dsm
