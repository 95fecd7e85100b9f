#include "mem/global_heap.h"

#include <bit>
#include <new>

#include "common/check.h"

namespace dsm {

GlobalHeap::GlobalHeap(std::size_t heap_bytes, std::size_t unit_bytes)
    : heap_bytes_(heap_bytes), unit_bytes_(unit_bytes) {
  DSM_CHECK(std::has_single_bit(unit_bytes))
      << "unit size must be a power of two, got " << unit_bytes;
  DSM_CHECK_GE(unit_bytes, kBasePageBytes);
  DSM_CHECK_EQ(heap_bytes % unit_bytes, 0u)
      << "heap " << heap_bytes << " not a multiple of unit " << unit_bytes;
  unit_shift_ = std::countr_zero(unit_bytes);
}

GlobalAddr GlobalHeap::Alloc(std::size_t bytes, std::size_t align,
                             const char* name) {
  DSM_CHECK(std::has_single_bit(align)) << "alignment must be a power of two";
  DSM_CHECK_GE(align, kWordBytes)
      << "allocations must be at least word-aligned";
  DSM_CHECK_GT(bytes, 0u);
  const std::size_t start = (next_ + align - 1) & ~(align - 1);
  DSM_CHECK_LE(start + bytes, heap_bytes_)
      << "global heap exhausted allocating "
      << (name != nullptr ? name : "<anon>") << " (" << bytes << " bytes, "
      << next_ << " already used of " << heap_bytes_ << ")";
  next_ = start + bytes;
  allocations_.push_back(
      {name != nullptr ? name : "<anon>", static_cast<GlobalAddr>(start),
       bytes});
  return static_cast<GlobalAddr>(start);
}

GlobalAddr GlobalHeap::AllocUnitAligned(std::size_t bytes, const char* name) {
  return Alloc(bytes, unit_bytes_, name);
}

HeapImage AllocZeroedImage(std::size_t bytes) {
  auto* p = static_cast<std::byte*>(std::calloc(bytes, 1));
  if (p == nullptr) throw std::bad_alloc();
  return HeapImage(p);
}

}  // namespace dsm
