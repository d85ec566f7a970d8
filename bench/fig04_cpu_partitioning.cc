// Figure 4: CPU partitioning throughput (8 B tuples, 8192 partitions) for
// 1–10 threads, radix partitioning on the four key distributions vs
// murmur hash partitioning.
//
// Host columns are measured on this machine (a single-core host serializes
// the thread sweep); the "Xeon-10" column is the calibrated model of the
// paper's machine, which carries the figure's shape: hash partitioning
// starts ~2x slower but both saturate at the same memory bound.
//
// `--json [n]` emits the fpart.obs.v1 thread-scaling sweep instead: for
// every thread count, one row per affinity setting (`affinity_none` = OS
// placement vs `affinity_<policy>` = pinned workers), each with the phase
// split and — when perf events are available — the `hw.*` cache/TLB
// counter deltas of that run. See docs/observability.md.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "bench/bench_util.h"
#include "common/thread_pool.h"
#include "cpu/partitioner.h"
#include "datagen/workloads.h"
#include "model/cpu_model.h"
#include "obs/report.h"

namespace fpart {
namespace {

/// The "affinity on" policy of the sweep: FPART_AFFINITY when it names a
/// real policy, otherwise numa-local on multi-node hosts and compact on
/// single-node ones (where compact-vs-none is the measurable effect).
AffinityPolicy OnPolicy() {
  const AffinityPolicy env = AffinityPolicyFromEnv();
  if (env != AffinityPolicy::kNone) return env;
  return Topology::Host().num_nodes() > 1 ? AffinityPolicy::kNumaLocal
                                          : AffinityPolicy::kCompact;
}

int JsonMain(size_t n) {
  const uint32_t fanout = 8192;
  const size_t host_max = BenchMaxThreads();
  const AffinityPolicy on = OnPolicy();

  auto rel = GenerateRawRelation(n, KeyDistribution::kRandom, 7);
  if (!rel.ok()) {
    std::fprintf(stderr, "datagen failed\n");
    return 1;
  }

  obs::BenchReport report("fig04_cpu_partitioning");
  report.ConfigUInt("n_tuples", n);
  report.ConfigUInt("fanout", fanout);
  report.ConfigStr("hash", "radix");
  report.ConfigStr("tuple", "Tuple8");
  report.ConfigStr("affinity", AffinityPolicyName(on));
  report.ConfigUInt("max_threads", host_max);
  report.ConfigUInt("num_nodes", Topology::Host().num_nodes());
  report.ConfigStr("hw_counters",
                   obs::HwCountersSupported() ? "available" : "unavailable");

  for (size_t t : {size_t{1}, size_t{2}, size_t{4}, size_t{8}, size_t{10}}) {
    if (t > host_max) continue;
    for (const AffinityPolicy policy : {AffinityPolicy::kNone, on}) {
      // One pool per row, built outside the timed runs (as fig11 does).
      ThreadPool pool(t, "fpart-wkr", policy);
      CpuPartitionerConfig config;
      config.fanout = fanout;
      config.hash = HashMethod::kRadix;
      config.num_threads = t;
      config.pool = &pool;
      // Best-of-3 to filter scheduler noise; hw deltas accumulate over
      // every run of the row (misses per tuple stay comparable because
      // each row runs the same tuple count).
      constexpr int kRuns = 3;
      const bench::HwUsage hw_before = bench::HwUsage::Now();
      double best = -1.0, best_hist = 0.0, best_scatter = 0.0;
      for (int r = 0; r < kRuns; ++r) {
        auto run = CpuPartition(config, rel->data(), rel->size());
        if (!run.ok()) {
          std::fprintf(stderr, "partition run failed: %s\n",
                       run.status().ToString().c_str());
          return 1;
        }
        if (best < 0 || run->seconds < best) {
          best = run->seconds;
          best_hist = run->histogram_seconds;
          best_scatter = run->scatter_seconds;
        }
      }
      auto fields = bench::HwUsage::Now().FieldsSince(hw_before);
      // Normalize the accumulated counters to one run's worth.
      for (auto& [key, value] : fields) value /= kRuns;
      fields.emplace_back("seconds", best);
      fields.emplace_back("mtuples_per_sec", best > 0 ? n / best / 1e6 : 0.0);
      fields.emplace_back("histogram_seconds", best_hist);
      fields.emplace_back("scatter_seconds", best_scatter);
      char row[64];
      std::snprintf(row, sizeof(row), "radix_t%zu_affinity_%s", t,
                    AffinityPolicyName(policy));
      report.Result(row, fields);
    }
  }
  report.Print();
  return 0;
}

int Run() {
  bench::Banner("fig04_cpu_partitioning", "Figure 4");
  const uint32_t fanout = 8192;
  const size_t n = static_cast<size_t>(128e6 * BenchScale() / 8.0);
  const size_t threads[] = {1, 2, 4, 8, 10};
  const size_t host_max = BenchMaxThreads();

  const KeyDistribution dists[] = {
      KeyDistribution::kLinear, KeyDistribution::kRandom,
      KeyDistribution::kGrid, KeyDistribution::kReverseGrid};

  std::printf("Measured on host (Mtuples/s), n=%zu:\n", n);
  std::printf("%8s", "threads");
  for (KeyDistribution d : dists) std::printf(" %14s", KeyDistributionName(d));
  // The last column re-runs kRandom radix with the fused-SIMD fast path
  // off — the PR-1 scalar two-pass baseline — so the fig04 table doubles
  // as the ablation for DESIGN.md "CPU fast paths".
  std::printf(" %14s %14s\n", "hash(all)", "radix-scalar");
  for (size_t t : threads) {
    if (t > host_max) continue;
    std::printf("%8zu", t);
    for (KeyDistribution d : dists) {
      auto rel = GenerateRawRelation(n, d, 7);
      if (!rel.ok()) return 1;
      CpuPartitionerConfig config;
      config.fanout = fanout;
      config.hash = HashMethod::kRadix;
      config.num_threads = t;
      auto run = CpuPartition(config, rel->data(), rel->size());
      std::printf(" %14.0f", run.ok() ? run->mtuples_per_sec : -1.0);
    }
    {
      auto rel = GenerateRawRelation(n, KeyDistribution::kRandom, 7);
      CpuPartitionerConfig config;
      config.fanout = fanout;
      config.hash = HashMethod::kMurmur;
      config.num_threads = t;
      auto run = CpuPartition(config, rel->data(), rel->size());
      std::printf(" %14.0f", run.ok() ? run->mtuples_per_sec : -1.0);
      config.hash = HashMethod::kRadix;
      config.use_simd = false;
      auto scalar = CpuPartition(config, rel->data(), rel->size());
      std::printf(" %14.0f\n",
                  scalar.ok() ? scalar->mtuples_per_sec : -1.0);
    }
  }

  std::printf("\nCalibrated Xeon E5-2680 v2 model (Mtuples/s), the Figure 4 "
              "shape:\n");
  std::printf("%8s %14s %14s\n", "threads", "radix", "hash");
  for (size_t t : threads) {
    std::printf("%8zu %14.0f %14.0f\n", t,
                CpuCostModel::PartitionRateTuplesPerSec(t,
                                                        HashMethod::kRadix) /
                    1e6,
                CpuCostModel::PartitionRateTuplesPerSec(t,
                                                        HashMethod::kMurmur) /
                    1e6);
  }
  std::printf("\nExpected shape (paper): radix delivers the same throughput "
              "for every distribution;\nhash partitioning is slower at few "
              "threads and catches up once memory bound.\n");
  return 0;
}

}  // namespace
}  // namespace fpart

int main(int argc, char** argv) {
  fpart::obs::TraceSession trace(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      size_t n = 16'000'000;
      if (i + 1 < argc) n = std::strtoull(argv[i + 1], nullptr, 10);
      if (n == 0) n = 16'000'000;
      return fpart::JsonMain(n);
    }
  }
  return fpart::Run();
}
