// Tests for simulated device memory: capacity accounting drives the
// paper's data-placement decisions, so it must be exact.

#include "src/sim/device_memory.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "src/util/hostalloc.h"

namespace gjoin::sim {
namespace {

TEST(DeviceMemoryTest, AllocateWithinCapacity) {
  DeviceMemory mem(1 << 20);
  auto buf = mem.Allocate<uint32_t>(1000);
  ASSERT_TRUE(buf.ok());
  EXPECT_EQ(buf->size(), 1000u);
  EXPECT_EQ(mem.used(), 4000u);
  EXPECT_EQ(mem.available(), (1u << 20) - 4000u);
}

TEST(DeviceMemoryTest, ZeroInitialized) {
  DeviceMemory mem(1 << 20);
  auto buf = std::move(mem.Allocate<uint64_t>(128)).ValueOrDie();
  for (size_t i = 0; i < buf.size(); ++i) EXPECT_EQ(buf[i], 0u);
}

TEST(DeviceMemoryTest, ExhaustionReturnsOutOfMemory) {
  DeviceMemory mem(1024);
  auto ok = mem.Allocate<uint8_t>(1024);
  ASSERT_TRUE(ok.ok());
  auto fail = mem.Allocate<uint8_t>(1);
  ASSERT_FALSE(fail.ok());
  EXPECT_EQ(fail.status().code(), util::StatusCode::kOutOfMemory);
}

TEST(DeviceMemoryTest, ExhaustionMessageNamesSiteAndByteCounts) {
  DeviceMemory mem(1024);
  auto base = mem.Allocate<uint8_t>(1000, "test:base");
  ASSERT_TRUE(base.ok());  // held live so the capacity stays reserved
  auto fail = mem.Allocate<uint8_t>(100, "test:overflow");
  ASSERT_FALSE(fail.ok());
  const std::string msg = fail.status().ToString();
  // The message carries everything needed to diagnose the placement
  // decision: the allocation site, the request, and the free/capacity
  // headroom at the moment of failure.
  EXPECT_NE(msg.find("test:overflow"), std::string::npos) << msg;
  EXPECT_NE(msg.find("requested 100 bytes"), std::string::npos) << msg;
  EXPECT_NE(msg.find("24 bytes free of 1024"), std::string::npos) << msg;
}

TEST(DeviceMemoryTest, ExactFitSucceeds) {
  DeviceMemory mem(4096);
  auto buf = mem.Allocate<uint32_t>(1024);
  EXPECT_TRUE(buf.ok());
  EXPECT_EQ(mem.available(), 0u);
}

TEST(DeviceMemoryTest, ResetReturnsCapacity) {
  DeviceMemory mem(1 << 20);
  {
    auto buf = std::move(mem.Allocate<uint32_t>(1000)).ValueOrDie();
    EXPECT_EQ(mem.used(), 4000u);
    buf.Reset();
    EXPECT_EQ(mem.used(), 0u);
  }
  EXPECT_EQ(mem.used(), 0u);
}

TEST(DeviceMemoryTest, DestructorReturnsCapacity) {
  DeviceMemory mem(1 << 20);
  {
    auto buf = std::move(mem.Allocate<uint32_t>(1000)).ValueOrDie();
    EXPECT_GT(mem.used(), 0u);
  }
  EXPECT_EQ(mem.used(), 0u);
}

TEST(DeviceMemoryTest, MoveTransfersOwnership) {
  DeviceMemory mem(1 << 20);
  auto a = std::move(mem.Allocate<uint32_t>(100)).ValueOrDie();
  a[5] = 42;
  DeviceBuffer<uint32_t> b = std::move(a);
  EXPECT_EQ(b[5], 42u);
  EXPECT_FALSE(a.allocated());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(mem.used(), 400u);
  b.Reset();
  EXPECT_EQ(mem.used(), 0u);
}

TEST(DeviceMemoryTest, FreeingAllowsReallocation) {
  DeviceMemory mem(1024);
  for (int round = 0; round < 10; ++round) {
    auto buf = mem.Allocate<uint8_t>(1024);
    ASSERT_TRUE(buf.ok()) << "round " << round;
  }
}

TEST(DeviceMemoryTest, PeakTracksHighWaterMarkAcrossFrees) {
  DeviceMemory mem(1 << 20);
  EXPECT_EQ(mem.peak_used(), 0u);
  {
    auto a = std::move(mem.Allocate<uint32_t>(1000)).ValueOrDie();
    auto b = std::move(mem.Allocate<uint32_t>(500)).ValueOrDie();
    EXPECT_EQ(mem.peak_used(), 6000u);
  }
  // Everything freed: usage drops, the high-water mark stands.
  EXPECT_EQ(mem.used(), 0u);
  EXPECT_EQ(mem.peak_used(), 6000u);
  // A smaller later allocation does not move the peak...
  auto c = std::move(mem.Allocate<uint32_t>(100)).ValueOrDie();
  EXPECT_EQ(mem.peak_used(), 6000u);
  // ...a larger concurrent footprint does.
  auto d = std::move(mem.Allocate<uint32_t>(2000)).ValueOrDie();
  EXPECT_EQ(mem.peak_used(), 8400u);
}

TEST(DeviceMemoryTest, FailedAllocationDoesNotRaisePeak) {
  DeviceMemory mem(1024);
  auto held = std::move(mem.Allocate<uint8_t>(512)).ValueOrDie();
  auto fail = mem.Allocate<uint8_t>(4096);
  ASSERT_FALSE(fail.ok());
  EXPECT_EQ(mem.peak_used(), 512u);
}

TEST(DeviceMemoryTest, GpuCapacityMatchesGtx1080) {
  // The default spec's 8 GB must be representable and enforced.
  DeviceMemory mem(8ull << 30);
  EXPECT_EQ(mem.capacity(), 8ull << 30);
  // A 9 GB request fails without allocating host memory first.
  auto fail = mem.Allocate<uint8_t>(9ull << 30);
  EXPECT_FALSE(fail.ok());
}

// Buffers of at least util::kHugePageBytes are mapped, smaller ones come
// from the heap; both sides of the threshold must behave alike.
constexpr size_t kHuge = util::kHugePageBytes;

bool AllZero(const DeviceBuffer<uint8_t>& buf) {
  for (size_t i = 0; i < buf.size(); ++i) {
    if (buf[i] != 0) return false;
  }
  return true;
}

TEST(DeviceMemoryTest, ZeroedAroundHugePageSizeEvenAfterReuse) {
  DeviceMemory mem(64 * kHuge);
  for (size_t bytes : {kHuge - 8, kHuge, kHuge + 8, 3 * kHuge + 4096}) {
    SCOPED_TRACE("bytes " + std::to_string(bytes));
    for (int round = 0; round < 3; ++round) {
      // Dirty every byte, free, allocate the same size again: the host
      // may hand back the same memory, which must come back zeroed.
      auto buf = std::move(mem.Allocate<uint8_t>(bytes)).ValueOrDie();
      ASSERT_EQ(buf.size(), bytes);
      EXPECT_TRUE(AllZero(buf)) << "round " << round;
      std::memset(buf.data(), 0xAB, bytes);
    }
  }
  EXPECT_EQ(mem.used(), 0u);
}

TEST(DeviceMemoryTest, MappedBuffersAreHugePageAligned) {
  if (!util::MapsLargeBlocks()) {
    GTEST_SKIP() << "this build backs every buffer with the heap";
  }
  DeviceMemory mem(64 * kHuge);
  auto check = [&] {
    for (size_t bytes : {kHuge, kHuge + 8, 5 * kHuge + 12}) {
      auto buf = std::move(mem.Allocate<uint8_t>(bytes)).ValueOrDie();
      EXPECT_EQ(reinterpret_cast<uintptr_t>(buf.data()) % kHuge, 0u)
          << "bytes " << bytes;
      // The whole block is writable, last byte included.
      buf[bytes - 1] = 1;
    }
  };
  check();
  // Heap retention tunes the heap only; device buffers stay mapped.
  util::TuneHostAllocatorForThroughput();
  SCOPED_TRACE("after TuneHostAllocatorForThroughput");
  check();
}

TEST(DeviceMemoryTest, MappedBuffersKeepMessagesAndPeak) {
  const size_t capacity = 8 * kHuge;
  DeviceMemory mem(capacity);
  {
    auto big = std::move(mem.Allocate<uint32_t>(6 * kHuge / 4, "test:big"))
                   .ValueOrDie();
    auto fail = mem.Allocate<uint8_t>(3 * kHuge, "test:overflow");
    ASSERT_FALSE(fail.ok());
    EXPECT_EQ(fail.status().code(), util::StatusCode::kOutOfMemory);
    EXPECT_NE(fail.status().ToString().find(
                  "device memory exhausted at test:overflow: requested " +
                  std::to_string(3 * kHuge) + " bytes, " +
                  std::to_string(2 * kHuge) + " bytes free of " +
                  std::to_string(capacity)),
              std::string::npos)
        << fail.status().ToString();
    EXPECT_EQ(mem.used(), 6 * kHuge);
    EXPECT_EQ(mem.peak_used(), 6 * kHuge);
  }
  EXPECT_EQ(mem.used(), 0u);
  EXPECT_EQ(mem.peak_used(), 6 * kHuge);
  // An exact fit still succeeds and raises the peak to the capacity.
  auto whole = mem.Allocate<uint64_t>(capacity / 8);
  ASSERT_TRUE(whole.ok());
  EXPECT_EQ(mem.available(), 0u);
  EXPECT_EQ(mem.peak_used(), capacity);
  EXPECT_EQ(mem.total_reserved(), 6 * kHuge + capacity);
}

}  // namespace
}  // namespace gjoin::sim
