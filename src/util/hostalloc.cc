#include "src/util/hostalloc.h"

// <cstddef> drags in the libc feature macros; __GLIBC__ is undefined
// until some libc header has been seen.
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#if defined(__linux__)
#include <sys/mman.h>
#include <unistd.h>
#endif

// AddressSanitizer only bounds-checks heap blocks, so sanitized builds
// keep every device buffer on the heap.
#if defined(__SANITIZE_ADDRESS__)
#define GJOIN_HOSTALLOC_HEAP_ONLY 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define GJOIN_HOSTALLOC_HEAP_ONLY 1
#endif
#endif

#if defined(__linux__) && !defined(GJOIN_HOSTALLOC_HEAP_ONLY)
#define GJOIN_HOSTALLOC_MAPS 1
#endif

namespace gjoin::util {

#if defined(GJOIN_HOSTALLOC_MAPS)
namespace {

bool Mapped(size_t bytes) { return bytes >= kHugePageBytes; }

/// `bytes` rounded up to whole base pages: the unit munmap trims by.
size_t MappedLength(size_t bytes) {
  static const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  return (bytes + page - 1) / page * page;
}

}  // namespace
#endif

void* AllocateZeroed(size_t bytes) {
#if defined(GJOIN_HOSTALLOC_MAPS)
  if (Mapped(bytes)) {
    // Over-map by one huge page and trim both ends to the aligned window,
    // so every whole 2 MiB stretch of the block can take a huge page.
    const size_t len = MappedLength(bytes);
    void* raw = mmap(nullptr, len + kHugePageBytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (raw == MAP_FAILED) throw std::bad_alloc();
    const uintptr_t base = reinterpret_cast<uintptr_t>(raw);
    const uintptr_t start =
        (base + kHugePageBytes - 1) & ~(uintptr_t{kHugePageBytes} - 1);
    const size_t head = start - base;
    const size_t tail = kHugePageBytes - head;
    if (head > 0) munmap(raw, head);
    if (tail > 0) munmap(reinterpret_cast<void*>(start + len), tail);
    void* block = reinterpret_cast<void*>(start);
#if defined(MADV_HUGEPAGE)
    // Advisory: with THP disabled the block keeps base pages.
    madvise(block, len, MADV_HUGEPAGE);
#endif
    return block;
  }
#endif
  void* block = std::calloc(bytes == 0 ? 1 : bytes, 1);
  if (block == nullptr) throw std::bad_alloc();
  return block;
}

void FreeZeroed(void* ptr, [[maybe_unused]] size_t bytes) {
#if defined(GJOIN_HOSTALLOC_MAPS)
  if (ptr != nullptr && Mapped(bytes)) {
    munmap(ptr, MappedLength(bytes));
    return;
  }
#endif
  std::free(ptr);
}

bool MapsLargeBlocks() {
#if defined(GJOIN_HOSTALLOC_MAPS)
  return true;
#else
  return false;
#endif
}

void TuneHostAllocatorForThroughput() {
#if defined(__GLIBC__)
  // 1 GB: effectively "never mmap, never trim" for this workload's
  // allocation sizes, so freed relation and host blocks stay reusable.
  mallopt(M_MMAP_THRESHOLD, 1 << 30);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
#endif
}

}  // namespace gjoin::util
