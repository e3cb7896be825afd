// Device-memory result buffer for materialized join output.
//
// Result pairs are packed as (r.payload << 32 | s.payload) and written
// through the warp-buffered path of Section III-C. The ring wraps when
// the buffer fills — the paper's Figure 17 methodology ("we do not flush
// the results back to the CPU when they overflow the GPU memory ... but
// overwrite them in order to isolate the in-GPU performance"); the
// out-of-GPU strategies instead drain it over PCIe between wraps.
//
// RingEmits carries one kernel launch's output into a ring along the
// three launch phases of sim::Device::Launch (record, assign, place).

#ifndef GJOIN_GPUJOIN_OUTPUT_RING_H_
#define GJOIN_GPUJOIN_OUTPUT_RING_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/sim/device_memory.h"
#include "src/util/status.h"

namespace gjoin::gpujoin {

/// \brief Ring buffer of packed result pairs in device memory.
class OutputRing {
 public:
  /// Allocates a ring of `capacity` pairs (8 bytes each).
  [[nodiscard]]
  static util::Result<OutputRing> Allocate(sim::DeviceMemory* memory,
                                           size_t capacity) {
    if (capacity == 0) return util::Status::Invalid("OutputRing: capacity 0");
    OutputRing ring;
    GJOIN_ASSIGN_OR_RETURN(
        ring.pairs_, memory->Allocate<uint64_t>(capacity, "output-ring"));
    ring.cursor_ = std::make_unique<std::atomic<uint64_t>>(0);
    return ring;
  }

  OutputRing() = default;
  OutputRing(OutputRing&&) = default;
  OutputRing& operator=(OutputRing&&) = default;

  /// Claims space for `count` pairs; returns the starting logical offset
  /// (callers write at offset % capacity). Models the global atomicAdd.
  uint64_t Claim(uint64_t count) {
    return cursor_->fetch_add(count, std::memory_order_relaxed);
  }

  /// Packs one result pair as stored in the ring.
  static uint64_t Pack(uint32_t r_payload, uint32_t s_payload) {
    return (static_cast<uint64_t>(r_payload) << 32) | s_payload;
  }

  /// Writes one pair at logical offset `pos` (wraps internally).
  void Write(uint64_t pos, uint32_t r_payload, uint32_t s_payload) {
    pairs_[pos % pairs_.size()] = Pack(r_payload, s_payload);
  }

  /// Pairs written so far (may exceed capacity; excess wrapped).
  uint64_t total_written() const {
    return cursor_->load(std::memory_order_relaxed);
  }

  /// True iff the ring has wrapped (results were overwritten).
  bool wrapped() const { return total_written() > pairs_.size(); }

  /// Ring capacity in pairs.
  size_t capacity() const { return pairs_.size(); }

  /// Raw pair at ring position i (for verification while un-wrapped).
  uint64_t pair(size_t i) const { return pairs_[i]; }

  /// Resets the cursor (between pipeline chunks).
  void ResetCursor() { cursor_->store(0, std::memory_order_relaxed); }

  /// Most result pairs any one launch staged on the host for this ring
  /// (summed over its blocks). RingEmits bounds it by blocks x capacity,
  /// whatever the output volume.
  uint64_t peak_staged_pairs() const { return peak_staged_pairs_; }

 private:
  friend class RingEmits;

  sim::DeviceBuffer<uint64_t> pairs_;
  std::unique_ptr<std::atomic<uint64_t>> cursor_;
  uint64_t peak_staged_pairs_ = 0;
};

/// \brief One launch's materialized output on its way into an OutputRing.
///
///  - Body: Emit() records a block's pairs in emission order. Only a
///    block's last capacity() pairs can survive its own later writes, so
///    it keeps just those (in a block-private ring) plus its total count.
///    Host staging is thus bounded by blocks x capacity, not by output.
///  - Epilogue: Assign() claims the block's total with one reservation —
///    in ascending block order a block's claims are contiguous anyway.
///  - Placement: Place() writes the block's pairs whose logical position
///    falls in the launch's final window [max(start, end - capacity),
///    end). Every ring slot is written at most once, so blocks place
///    concurrently, and the ring's bytes and cursor equal a serial
///    replay of every claim in block order — wraps, a nonzero starting
///    cursor and slots this launch never reaches included.
/// Nothing here charges: the kernel's emit costs are paid by the body.
class RingEmits {
 public:
  RingEmits(OutputRing* ring, int num_blocks)
      : ring_(ring), blocks_(static_cast<size_t>(num_blocks)) {}

  /// Body: records one result pair of `block`.
  void Emit(int block, uint64_t pair) {
    Staged& st = blocks_[static_cast<size_t>(block)];
    const size_t cap = ring_->capacity();
    if (st.tail.size() < cap) {
      st.tail.push_back(pair);
    } else {
      st.tail[st.next] = pair;
    }
    if (++st.next == cap) st.next = 0;
    ++st.count;
  }

  /// Body: records `n` consecutive result pairs of `block`.
  void Emit(int block, const uint64_t* pairs, size_t n) {
    Staged& st = blocks_[static_cast<size_t>(block)];
    const size_t cap = ring_->capacity();
    if (n >= cap) {
      // Only the last `cap` pairs survive; they fill the whole tail.
      const size_t skip = n - cap;
      st.count += skip;
      st.next = static_cast<size_t>(st.count % cap);
      pairs += skip;
      n = cap;
      st.tail.resize(cap);
    }
    while (n > 0) {
      size_t run;
      if (st.tail.size() < cap) {
        // Still filling: the tail's end is the wrap index.
        run = std::min(n, cap - st.tail.size());
        st.tail.insert(st.tail.end(), pairs, pairs + run);
      } else {
        run = std::min(n, cap - st.next);
        std::copy_n(pairs, run, st.tail.data() + st.next);
      }
      st.next += run;
      if (st.next == cap) st.next = 0;
      st.count += run;
      pairs += run;
      n -= run;
    }
  }

  /// Epilogue (ascending block id): claims the block's ring space.
  void Assign(int block) {
    Staged& st = blocks_[static_cast<size_t>(block)];
    if (st.count > 0) st.start = ring_->Claim(st.count);
    staged_ += st.tail.size();
    if (static_cast<size_t>(block) + 1 == blocks_.size()) {
      ring_->peak_staged_pairs_ =
          std::max(ring_->peak_staged_pairs_, staged_);
      end_ = ring_->total_written();
    }
  }

  /// Placement (concurrent): writes the block's surviving pairs, then
  /// frees its staging.
  void Place(int block) {
    Staged& st = blocks_[static_cast<size_t>(block)];
    const uint64_t cap = ring_->capacity();
    // The block's range [start, start + count) begins at or after the
    // launch's starting cursor, so clipping it to the last `cap`
    // positions yields its share of the final window.
    const uint64_t lo = std::max(st.start, end_ >= cap ? end_ - cap : 0);
    const uint64_t hi = std::min(end_, st.start + st.count);
    for (uint64_t pos = lo; pos < hi;) {
      // Pair i of the block sits at tail[i % cap] and lands in ring slot
      // pos % cap; copy the longest stretch where neither index wraps.
      const uint64_t from = (pos - st.start) % cap;
      const uint64_t to = pos % cap;
      const uint64_t n = std::min({hi - pos, cap - from, cap - to});
      std::copy_n(st.tail.data() + from, n, ring_->pairs_.data() + to);
      pos += n;
    }
    st = Staged();
  }

 private:
  struct Staged {
    std::vector<uint64_t> tail;  ///< Pair i at tail[i % capacity].
    size_t next = 0;             ///< count % capacity: the next pair's slot.
    uint64_t count = 0;          ///< Pairs emitted (may exceed capacity).
    uint64_t start = 0;          ///< First logical position (Assign).
  };

  OutputRing* ring_;
  uint64_t end_ = 0;  ///< Cursor after the last block's Assign.
  uint64_t staged_ = 0;
  std::vector<Staged> blocks_;
};

}  // namespace gjoin::gpujoin

#endif  // GJOIN_GPUJOIN_OUTPUT_RING_H_
