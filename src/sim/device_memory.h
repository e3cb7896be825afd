// Simulated GPU device memory: host-backed allocations with device-
// capacity accounting.
//
// Kernels in this reproduction execute on the host, so a "device buffer"
// is host memory — but allocation is accounted against the simulated
// device's capacity (8 GB for the GTX 1080 testbed). Capacity exhaustion
// returns OutOfMemory exactly where a real cudaMalloc would fail, which
// drives the paper's data-placement decisions: in-GPU vs streaming vs
// co-processing (Sections III/IV) and the GPU-residency cutoffs of
// Figures 14/15.
//
// Host backing (util::AllocateZeroed): like a GPU's device memory, every
// buffer of 2 MiB or more is its own 2 MiB-aligned mapping advised for
// huge pages, so the host faults it in 2 MiB at a time; smaller buffers
// come from the heap. Either way every allocation starts zeroed (unlike
// cudaMalloc), so kernels start deterministic, and a mapping is zeroed by
// the kernel as it is touched rather than by a memset up front.

#ifndef GJOIN_SIM_DEVICE_MEMORY_H_
#define GJOIN_SIM_DEVICE_MEMORY_H_

#include <atomic>
#include <cstddef>
#include <string>
#include <type_traits>
#include <utility>

#include "src/util/hostalloc.h"
#include "src/util/status.h"

namespace gjoin::sim {

class DeviceMemory;
class FaultInjector;

/// \brief Move-only typed allocation in simulated device memory.
///
/// Frees its reservation and its host backing on destruction. Kernels
/// (which run on the host) index the backing directly.
template <typename T>
class DeviceBuffer {
 public:
  DeviceBuffer() = default;
  DeviceBuffer(DeviceBuffer&& other) noexcept { *this = std::move(other); }
  DeviceBuffer& operator=(DeviceBuffer&& other) noexcept {
    if (this != &other) {
      Reset();
      data_ = other.data_;
      size_ = other.size_;
      owner_ = other.owner_;
      other.data_ = nullptr;
      other.size_ = 0;
      other.owner_ = nullptr;
    }
    return *this;
  }
  DeviceBuffer(const DeviceBuffer&) = delete;
  DeviceBuffer& operator=(const DeviceBuffer&) = delete;
  ~DeviceBuffer() { Reset(); }

  /// Element access (device-side from kernels, host-side from tests).
  T* data() { return data_; }
  const T* data() const { return data_; }
  T& operator[](size_t i) { return data_[i]; }
  const T& operator[](size_t i) const { return data_[i]; }

  /// Number of elements.
  size_t size() const { return size_; }
  /// Allocation size in bytes.
  size_t bytes() const { return size_ * sizeof(T); }
  /// True iff this buffer holds an allocation.
  bool allocated() const { return data_ != nullptr; }

  /// Releases the allocation and returns capacity to the device.
  void Reset();

 private:
  friend class DeviceMemory;
  DeviceBuffer(T* data, size_t size, DeviceMemory* owner)
      : data_(data), size_(size), owner_(owner) {}

  T* data_ = nullptr;  ///< From util::AllocateZeroed(bytes()).
  size_t size_ = 0;
  DeviceMemory* owner_ = nullptr;
};

/// \brief Capacity-accounted allocator for simulated device memory.
///
/// Thread-safe. Must outlive all DeviceBuffers it hands out.
class DeviceMemory {
 public:
  /// \param capacity_bytes total simulated device memory.
  explicit DeviceMemory(size_t capacity_bytes) : capacity_(capacity_bytes) {}

  DeviceMemory(const DeviceMemory&) = delete;
  DeviceMemory& operator=(const DeviceMemory&) = delete;

  /// Allocates `count` zeroed elements of T; OutOfMemory when the
  /// reservation would exceed the device capacity (the message names
  /// `site`, the requested and the free bytes).
  template <typename T>
  [[nodiscard]]
  util::Result<DeviceBuffer<T>> Allocate(size_t count,
                                         const char* site = "unlabeled") {
    // Zeroed bytes are a valid value only for trivial types.
    static_assert(std::is_trivial_v<T> &&
                  alignof(T) <= alignof(std::max_align_t));
    const size_t bytes = count * sizeof(T);
    GJOIN_RETURN_NOT_OK(Reserve(bytes, site));
    return DeviceBuffer<T>(static_cast<T*>(util::AllocateZeroed(bytes)),
                           count, this);
  }

  /// Bytes currently allocated.
  size_t used() const { return used_.load(std::memory_order_relaxed); }
  /// High-water mark of `used()` over the device's lifetime: the peak
  /// simulated memory pressure. Observed (never charged) — surfaced in
  /// SessionStats::device_peak_bytes and the metrics registry.
  size_t peak_used() const {
    return peak_used_.load(std::memory_order_relaxed);
  }
  /// Total capacity in bytes.
  size_t capacity() const { return capacity_; }
  /// Bytes still available.
  size_t available() const { return capacity_ - used(); }
  /// Cumulative bytes ever successfully reserved (monotonic; the
  /// recovery ladder charges the delta of an aborted attempt as wasted
  /// staging work).
  size_t total_reserved() const {
    return total_reserved_.load(std::memory_order_relaxed);
  }

  /// Arms (or with nullptr disarms) fault injection: every Reserve first
  /// asks `injector` whether this allocation ordinal fails. Not owned;
  /// callers go through sim::Device::ArmFaults, which owns the injector.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }

 private:
  template <typename T>
  friend class DeviceBuffer;

  [[nodiscard]]
  util::Status Reserve(size_t bytes, const char* site = "unlabeled");
  void Release(size_t bytes);

  size_t capacity_;
  std::atomic<size_t> used_{0};
  std::atomic<size_t> peak_used_{0};
  std::atomic<size_t> total_reserved_{0};
  FaultInjector* injector_ = nullptr;
};

template <typename T>
void DeviceBuffer<T>::Reset() {
  if (owner_ != nullptr) {
    owner_->Release(bytes());
    owner_ = nullptr;
  }
  util::FreeZeroed(data_, bytes());
  data_ = nullptr;
  size_ = 0;
}

}  // namespace gjoin::sim

#endif  // GJOIN_SIM_DEVICE_MEMORY_H_
