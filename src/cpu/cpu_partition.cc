#include "src/cpu/cpu_partition.h"

#include <algorithm>
#include <mutex>
#include <utility>

#include "src/obs/metrics.h"
#include "src/util/bits.h"
#include "src/util/scatter_buffer.h"

namespace gjoin::cpu {

namespace {

/// Effective scatter-buffer tuples for a given fanout: the resolved knob
/// value, additionally capped so the per-worker staging area (8 bytes
/// per staged tuple) stays within 4 MB at high fanouts. Output is
/// identical at every size, so the cap is purely a host-memory guard.
int EffectiveScatterTuples(int requested, uint32_t fanout) {
  const int resolved = util::ResolveScatterBufferTuples(requested);
  const int cap = static_cast<int>(
      std::max<uint64_t>(1, (uint64_t{1} << 22) / (8ull * fanout)));
  return std::min(resolved, cap);
}

}  // namespace

util::Result<StreamingCpuPartitioner> StreamingCpuPartitioner::Create(
    const CpuPartitionConfig& config, const hw::CpuCostModel& model,
    size_t expected_tuples, util::ThreadPool* pool) {
  if (config.radix_bits < 1 || config.radix_bits > 20) {
    return util::Status::Invalid("CpuRadixPartition: radix_bits out of range");
  }
  if (config.threads < 1) {
    return util::Status::Invalid("CpuRadixPartition: threads must be >= 1");
  }
  StreamingCpuPartitioner part;
  part.config_ = config;
  part.model_ = &model;
  part.pool_ = pool != nullptr ? pool : util::ThreadPool::Default();
  const uint32_t fanout = 1u << config.radix_bits;
  part.out_.radix_bits = config.radix_bits;
  part.out_.parts.resize(fanout);
  if (expected_tuples > 0) {
    // Expected share plus ~3% slack: uniform workloads stay within one
    // reservation; anything else falls back to vector growth.
    const size_t reserve =
        expected_tuples / fanout + expected_tuples / fanout / 32 + 1024;
    for (data::Relation& p : part.out_.parts) p.Reserve(reserve);
  }
  return part;
}

void StreamingCpuPartitioner::Append(const data::RelationView& view) {
  const uint32_t fanout = 1u << config_.radix_bits;
  for (data::Relation& p : out_.parts) {
    p.logical_payload_bytes = view.logical_payload_bytes;
  }
  const size_t n = view.size;
  out_.tuples += n;
  if (n == 0) return;
  const size_t chunk = std::max<size_t>(config_.chunk_tuples, 1);
  const size_t num_chunks = util::CeilDiv(n, chunk);

  // Two-phase counting sort ("a list of buckets per partition" per
  // thread, batched): per-chunk histograms, an exclusive prefix turning
  // them into per-(chunk, partition) write cursors, then a stable
  // parallel scatter straight into the final partition storage — no
  // per-chunk intermediate relations. Cursors continue from the sizes
  // accumulated by earlier Append calls, so the streamed output equals
  // the single-shot partitioning of the concatenated input.
  std::vector<std::vector<size_t>> cursors(num_chunks);
  pool_->ParallelFor(num_chunks, [&](size_t c) {
    const size_t begin = c * chunk;
    const size_t end = std::min(n, begin + chunk);
    auto& histo = cursors[c];
    histo.assign(fanout, 0);
    for (size_t i = begin; i < end; ++i) {
      ++histo[util::RadixOf(view.keys[i], 0, config_.radix_bits)];
    }
  });

  std::vector<size_t> totals(fanout);
  for (uint32_t p = 0; p < fanout; ++p) {
    totals[p] = out_.parts[p].size();
    for (size_t c = 0; c < num_chunks; ++c) {
      // Chunk c's run of partition p starts after all earlier chunks'
      // runs, preserving input order within each partition.
      const size_t count = cursors[c][p];
      cursors[c][p] = totals[p];
      totals[p] += count;
    }
    out_.parts[p].keys.resize(totals[p]);
    out_.parts[p].payloads.resize(totals[p]);
  }

  // Scatter through software-managed per-partition buffers, one set per
  // worker. A worker owns a contiguous chunk range, and chunk c's run of
  // partition p ends exactly where chunk c+1's begins (the prefix above
  // laid them out that way), so each worker's writes into partition p
  // form one contiguous stream starting at cursors[first_chunk][p] —
  // buffered flushes land byte-identically to the per-tuple scatter at
  // any worker count and any buffer size.
  const int scatter_tuples =
      EffectiveScatterTuples(config_.scatter_buffer_tuples, fanout);
  const size_t num_workers =
      std::min<size_t>(num_chunks, std::max<size_t>(1, pool_->num_threads()));
  std::vector<util::ScatterBuffers> buffers(num_workers);
  std::vector<std::vector<size_t>> worker_cursor(num_workers);
  pool_->ParallelForRanges(num_chunks, [&](size_t w, size_t c0, size_t c1) {
    util::ScatterBuffers& sb = buffers[w];
    sb.Init(fanout, scatter_tuples);
    std::vector<size_t>& cur = worker_cursor[w];
    cur = cursors[c0];
    auto flush = [&](uint32_t p, util::ScatterBuffers::RunView run) {
      data::Relation& part = out_.parts[p];
      util::StreamCopyU32(run.keys, part.keys.data() + cur[p], run.count);
      util::StreamCopyU32(run.pays, part.payloads.data() + cur[p], run.count);
      cur[p] += run.count;
    };
    const size_t begin = c0 * chunk;
    const size_t end = std::min(n, c1 * chunk);
    for (size_t i = begin; i < end; ++i) {
      const uint32_t p = util::RadixOf(view.keys[i], 0, config_.radix_bits);
      if (sb.Push(p, view.keys[i], view.payloads[i])) {
        flush(p, sb.Run(p));
        sb.Clear(p);
      }
    }
    sb.DrainAll(flush);
    util::StreamFence();
  });
  for (util::ScatterBuffers& sb : buffers) {
    const util::ScatterBuffers::Counters c = sb.TakeCounters();
    scatter_tuples_total_ += c.flushed_tuples;
    scatter_flushes_total_ += c.flushes;
  }
}

HostPartitions StreamingCpuPartitioner::Finish() && {
  if (config_.metrics != nullptr) {
    config_.metrics
        ->GetCounter("gjoin_partition_scatter_bytes_total",
                     "Bytes moved through the software-managed scatter "
                     "buffers by host partitioning (8 per tuple): the CPU "
                     "partitioner, GPU pass 1 and partition-at-a-time later "
                     "passes (bucket-at-a-time passes sort slices instead).")
        ->Increment(scatter_tuples_total_ * 8);
    config_.metrics
        ->GetCounter("gjoin_partition_scatter_flushes_total",
                     "Scatter-buffer flushes (full-buffer bursts plus "
                     "end-of-scope drains) by host partitioning: the CPU "
                     "partitioner, GPU pass 1 and partition-at-a-time later "
                     "passes.")
        ->Increment(scatter_flushes_total_);
  }
  out_.seconds = CpuPartitionSeconds(
      out_.tuples * data::Relation::kTupleBytes, config_.threads, *model_);
  return std::move(out_);
}

util::Result<HostPartitions> CpuRadixPartition(const data::Relation& rel,
                                               const CpuPartitionConfig& config,
                                               const hw::CpuCostModel& model,
                                               util::ThreadPool* pool) {
  // No reservation hint: a single Append sizes each partition with one
  // exact resize, and a hint would pin unused capacity on skewed inputs.
  GJOIN_ASSIGN_OR_RETURN(
      StreamingCpuPartitioner part,
      StreamingCpuPartitioner::Create(config, model, /*expected_tuples=*/0,
                                      pool));
  part.Append(data::RelationView::Of(rel));
  HostPartitions out = std::move(part).Finish();
  // Empty inputs never reach Append's width propagation.
  for (data::Relation& p : out.parts) {
    p.logical_payload_bytes = rel.logical_payload_bytes;
  }
  return out;
}

double CpuPartitionSeconds(uint64_t bytes, int threads,
                           const hw::CpuCostModel& model) {
  const double gbps = model.PartitionOutputGbps(threads);
  return static_cast<double>(bytes) / (gbps * 1e9);
}

}  // namespace gjoin::cpu
