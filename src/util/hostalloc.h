// Host-memory policy: the backing store of simulated device memory, and
// allocator tuning for throughput runs.
//
// Device buffers. A GPU maps its device memory in large pages; the
// simulator backs every device buffer of at least kHugePageBytes with its
// own kHugePageBytes-aligned anonymous mapping advised for transparent
// huge pages, and smaller buffers with calloc. Every buffer starts
// zeroed: a fresh mapping is zeroed by the kernel as it is first
// touched, without a memset pass, and the host takes one page fault per
// 2 MiB instead of one per 4 KiB. With THP disabled the mapping falls
// back to base pages, which is still correct. Under AddressSanitizer
// every buffer comes from the heap, so device buffers stay
// bounds-checked.
//
// Allocator tuning. The benches allocate and free multi-hundred-MB
// relation and host buffers once per figure point. glibc serves blocks
// above its mmap threshold with a fresh mmap and returns them with
// munmap, so every point re-faults pages the previous point just
// released. Raising the mmap and trim thresholds keeps those blocks on
// the heap free list, so the next point reuses already-resident pages.
// It leaves the device-buffer backing above alone: mapped buffers are
// returned to the kernel when freed and cannot reuse retained heap
// blocks. Purely a host-side wall-clock knob: charged stats and emitted
// figure rows are identical with or without it. Call once at process
// start (the bench harness and micro_kernels do); the mallopt part is a
// no-op on non-glibc platforms.

#ifndef GJOIN_UTIL_HOSTALLOC_H_
#define GJOIN_UTIL_HOSTALLOC_H_

#include <cstddef>

namespace gjoin::util {

/// Size and alignment of a host huge page (x86-64 and arm64 with 4 KiB
/// base pages). Zeroed blocks of at least this size are mapped, not
/// taken from the heap.
inline constexpr size_t kHugePageBytes = size_t{2} << 20;

/// True when AllocateZeroed maps blocks of at least kHugePageBytes:
/// Linux builds without AddressSanitizer. Otherwise every block comes
/// from the heap. Fixed at compile time.
bool MapsLargeBlocks();

/// Returns `bytes` of zeroed host memory, aligned to kHugePageBytes when
/// mapped and to alignof(std::max_align_t) otherwise.
/// Never returns null; throws std::bad_alloc when the host is out of
/// memory, like operator new. Release with FreeZeroed(ptr, bytes).
void* AllocateZeroed(size_t bytes);

/// Releases a block from AllocateZeroed; `bytes` must be the size it was
/// allocated with.
void FreeZeroed(void* ptr, size_t bytes);

/// Retains large freed heap blocks for reuse instead of returning them
/// to the kernel. Trades peak RSS (freed blocks stay resident) for
/// throughput; processes that measure RSS should skip it. Device buffers
/// of at least kHugePageBytes are mapped either way.
void TuneHostAllocatorForThroughput();

}  // namespace gjoin::util

#endif  // GJOIN_UTIL_HOSTALLOC_H_
