// Pins the order, site and size of every device allocation the in-GPU
// join entry points make. For each call below, fault injection fails
// allocation k = 1, 2, ... until the call succeeds; each injected
// failure message names the site, the ordinal and the byte count, and
// all of them fold into one FNV-1a digest per call.
//
// The goldens were captured from the implementation that had one
// partitioning entry point per input placement. Two things depend on this
// contract: the fault-injection goldens elsewhere count allocations by
// ordinal and charge the staged bytes, and perfbench's traced path
// re-derives the partitioner's pool sizing by hand. A sizing or ordering
// change therefore fails here first.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>

#include "src/cpu/cpu_partition.h"
#include "src/data/generator.h"
#include "src/gpujoin/partitioned_join.h"
#include "src/hw/cpu_cost.h"
#include "src/outofgpu/streaming_probe.h"
#include "src/sim/device.h"
#include "src/sim/fault.h"
#include "src/util/bits.h"

namespace gjoin {
namespace {

struct AllocTrace {
  uint64_t digest = 14695981039346656037ull;  // FNV-1a offset basis
  int allocations = 0;  ///< Allocations of the successful run.
};

void Fold(AllocTrace* trace, const std::string& text) {
  for (const unsigned char c : text) {
    trace->digest ^= c;
    trace->digest *= 1099511628211ull;  // FNV-1a prime
  }
  trace->digest ^= 0xff;  // message separator
  trace->digest *= 1099511628211ull;
}

/// Fails allocation k = 1, 2, ... of `call` on a fresh device until the
/// call succeeds, folding each injected failure message.
AllocTrace TraceAllocations(
    const hw::HardwareSpec& spec,
    const std::function<util::Status(sim::Device*)>& call) {
  AllocTrace trace;
  for (uint64_t k = 1; k <= 512; ++k) {
    sim::Device device(spec);
    sim::FaultPlan plan;
    plan.fail_allocations = {k};
    device.ArmFaults(plan);
    const util::Status status = call(&device);
    if (status.ok()) {
      trace.allocations = static_cast<int>(k) - 1;
      return trace;
    }
    EXPECT_EQ(status.code(), util::StatusCode::kOutOfMemory) << status;
    EXPECT_NE(status.message().find("injected allocation fault"),
              std::string::npos)
        << status;
    Fold(&trace, status.message());
  }
  ADD_FAILURE() << "call never succeeded";
  return trace;
}

class AllocDigestTest : public ::testing::Test {
 protected:
  AllocDigestTest()
      : r_(data::MakeUniqueUniform(20000, 41)),
        s_(data::MakeUniformProbe(400000, 20000, 42)) {
    // Small enough that the probe's automatic segment count is 3. A small
    // grid and fixed buckets keep pass 1's per-segment producer slack
    // from outgrowing the device.
    spec_.gpu.device_memory_bytes = 8u << 20;
    cfg_.partition.pass_bits = {4, 3};
    cfg_.partition.num_blocks = 8;
    cfg_.partition.bucket_capacity = 128;
  }

  data::Relation r_;
  data::Relation s_;
  hw::HardwareSpec spec_;
  gpujoin::PartitionedJoinConfig cfg_;
};

TEST_F(AllocDigestTest, FromHostAutoSegments) {
  const AllocTrace trace =
      TraceAllocations(spec_, [&](sim::Device* device) {
        return gpujoin::PartitionedJoinFromHost(device, r_, s_, cfg_, 0)
            .status();
      });
  EXPECT_EQ(trace.allocations, 20);
  EXPECT_EQ(trace.digest, 1810937616329902631ull);
}

TEST_F(AllocDigestTest, FromHostFiveSegments) {
  gpujoin::PartitionedJoinConfig cfg = cfg_;
  cfg.join.output = gpujoin::OutputMode::kMaterialize;
  const AllocTrace trace =
      TraceAllocations(spec_, [&](sim::Device* device) {
        return gpujoin::PartitionedJoinFromHost(device, r_, s_, cfg, 5)
            .status();
      });
  EXPECT_EQ(trace.allocations, 25);
  EXPECT_EQ(trace.digest, 9247183824556009527ull);
}

// The co-processing planner's call: one working set of host partitions
// staged as borrowed chunks, partitioned above the CPU's radix bits.
TEST_F(AllocDigestTest, ChunkedWorkingSet) {
  cpu::CpuPartitionConfig cpu_cfg;
  cpu_cfg.radix_bits = 2;
  cpu_cfg.threads = 4;
  const hw::CpuCostModel cpu_model(spec_.cpu);
  auto r_parts = cpu::CpuRadixPartition(r_, cpu_cfg, cpu_model);
  auto s_parts = cpu::CpuRadixPartition(s_, cpu_cfg, cpu_model);
  ASSERT_TRUE(r_parts.ok() && s_parts.ok());
  gpujoin::PartitionedJoinConfig cfg = cfg_;
  cfg.partition.base_shift = cpu_cfg.radix_bits;
  cfg.join.output = gpujoin::OutputMode::kMaterialize;
  uint32_t max_key = 1;
  for (uint32_t k : r_.keys) max_key = std::max(max_key, k);
  cfg.join.key_bits = util::Log2Floor(max_key) + 1;

  const AllocTrace trace =
      TraceAllocations(spec_, [&](sim::Device* device) {
        gpujoin::ChunkedDeviceInput r_in, s_in;
        for (const uint32_t p : {1u, 3u}) {
          r_in.AddBorrowed(r_parts->parts[p].keys, r_parts->parts[p].payloads);
          s_in.AddBorrowed(s_parts->parts[p].keys, s_parts->parts[p].payloads);
        }
        return gpujoin::PartitionedJoin(
                   device, gpujoin::PartitionInput::Chunked(std::move(r_in)),
                   gpujoin::PartitionInput::Chunked(std::move(s_in)), cfg)
            .status();
      });
  EXPECT_EQ(trace.allocations, 13);
  EXPECT_EQ(trace.digest, 4104135968486676706ull);
}

TEST_F(AllocDigestTest, StreamingProbe) {
  outofgpu::StreamingProbeConfig stream_cfg;
  stream_cfg.join = cfg_;
  stream_cfg.chunk_tuples = 100000;
  stream_cfg.materialize_to_host = true;
  const AllocTrace trace =
      TraceAllocations(spec_, [&](sim::Device* device) {
        return outofgpu::StreamingProbeJoin(device, r_, s_, stream_cfg)
            .status();
      });
  EXPECT_EQ(trace.allocations, 44);
  EXPECT_EQ(trace.digest, 858146749537051565ull);
}

}  // namespace
}  // namespace gjoin
