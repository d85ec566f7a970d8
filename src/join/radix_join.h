// The partitioned (radix) hash join of Section 3.3: partition both
// relations so every partition pair fits in cache, then build+probe each
// pair. This is the pure-CPU join the paper compares the hybrid against.
#pragma once

#include <cstdint>

#include "common/status.h"
#include "common/thread_pool.h"
#include "cpu/partitioner.h"
#include "datagen/relation.h"
#include "join/build_probe.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace fpart {

/// \brief Configuration of the CPU radix join.
struct CpuJoinConfig {
  uint32_t fanout = 8192;
  /// Radix or robust (murmur) partitioning — Section 5.3 compares both.
  HashMethod hash = HashMethod::kRadix;
  size_t num_threads = 1;
  bool use_buffers = true;
  bool non_temporal = true;
  /// Fused single-hash SIMD partitioning path (see CpuPartitionerConfig).
  bool use_simd = true;
  /// Shared worker pool. When null and num_threads > 1 the call builds one
  /// pool and shares it between the partition and build+probe phases
  /// (benchmark loops should pass one and reuse it).
  ThreadPool* pool = nullptr;
};

/// \brief Phase timings and result of one join execution.
struct JoinResult {
  uint64_t matches = 0;
  uint64_t checksum = 0;
  /// Partitioning time for both relations (CPU: measured wall; hybrid:
  /// simulated FPGA seconds).
  double partition_seconds = 0.0;
  /// Build+probe wall time (hybrid: scaled by the coherence penalty).
  double build_probe_seconds = 0.0;
  double total_seconds = 0.0;
  /// (|R| + |S|) / total_seconds, the throughput metric of Section 5.2.
  double mtuples_per_sec = 0.0;
};

/// Execute a partitioned hash join R ⋈ S entirely on the CPU.
template <typename T>
Result<JoinResult> CpuRadixJoin(const CpuJoinConfig& config,
                                const Relation<T>& r, const Relation<T>& s) {
  CpuPartitionerConfig pc;
  pc.fanout = config.fanout;
  pc.hash = config.hash;
  pc.num_threads = config.num_threads;
  pc.use_buffers = config.use_buffers;
  pc.non_temporal = config.non_temporal;
  pc.use_simd = config.use_simd;
  ShardRunner runner(config.pool, config.num_threads);
  pc.pool = runner.pool();

  CpuRunResult<T> pr, ps;
  {
    obs::TraceSpan span("join.radix.partition_r", "join");
    FPART_ASSIGN_OR_RETURN(pr, CpuPartition(pc, r.data(), r.size()));
  }
  {
    obs::TraceSpan span("join.radix.partition_s", "join");
    FPART_ASSIGN_OR_RETURN(ps, CpuPartition(pc, s.data(), s.size()));
  }

  BuildProbeStats bp;
  {
    obs::TraceSpan span("join.radix.build_probe", "join");
    bp = ParallelBuildProbe(pr.output, ps.output, runner.threads(),
                            runner.pool(), static_cast<const T*>(nullptr));
  }
  auto& reg = obs::Registry::Global();
  reg.GetCounter("join.radix.runs", "runs", "CPU radix joins completed")
      ->Add();
  reg.GetCounter("join.matches", "tuples",
                 "join result tuples (radix + hybrid)")
      ->Add(bp.matches);

  JoinResult result;
  result.matches = bp.matches;
  result.checksum = bp.checksum;
  result.partition_seconds = pr.seconds + ps.seconds;
  result.build_probe_seconds = bp.wall_seconds;
  result.total_seconds = result.partition_seconds + result.build_probe_seconds;
  result.mtuples_per_sec =
      result.total_seconds > 0
          ? (r.size() + s.size()) / result.total_seconds / 1e6
          : 0.0;
  return result;
}

}  // namespace fpart
