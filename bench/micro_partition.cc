// google-benchmark micro-benchmarks of the partitioners themselves:
// CPU variants per tuple and the simulated-FPGA cycles per tuple.
//
// `--json [n]` switches to a CPU-partitioner throughput report instead:
// single-threaded radix partitioning (the Figure 4 config: fanout 8192,
// 8 B tuples) under the PR-1 scalar path and the fused SIMD+prefetch
// path, plus small-job rows (4K and 8K tuples at fanout 2048 and 8192,
// murmur, the service's short-job shape) that time whole CpuPartition
// calls, printed as a JSON object (see scripts/bench_cpu.sh).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench/bench_util.h"
#include "common/cpu_features.h"
#include "common/timer.h"
#include "cpu/partitioner.h"
#include "datagen/workloads.h"
#include "fpga/partitioner.h"
#include "obs/report.h"

namespace fpart {
namespace {

void BM_CpuPartition(benchmark::State& state) {
  const size_t n = 1 << 20;
  auto rel = GenerateRawRelation(n, KeyDistribution::kRandom, 7);
  CpuPartitionerConfig config;
  config.fanout = static_cast<uint32_t>(state.range(0));
  config.use_buffers = state.range(1) != 0;
  config.use_simd = state.range(2) != 0;
  for (auto _ : state) {
    auto run = CpuPartition(config, rel->data(), rel->size());
    benchmark::DoNotOptimize(run.ok());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_CpuPartition)
    ->Args({1024, 0, 0})
    ->Args({1024, 1, 0})
    ->Args({1024, 1, 1})
    ->Args({8192, 0, 0})
    ->Args({8192, 0, 1})
    ->Args({8192, 1, 0})
    ->Args({8192, 1, 1});

void BM_FpgaSimPartition(benchmark::State& state) {
  const size_t n = 1 << 18;
  auto rel = GenerateRawRelation(n, KeyDistribution::kRandom, 7);
  FpgaPartitionerConfig config;
  config.fanout = static_cast<uint32_t>(state.range(0));
  config.link = LinkKind::kRawWrapper;
  for (auto _ : state) {
    FpgaPartitioner<Tuple8> part(config);
    auto run = part.Partition(rel->data(), rel->size());
    benchmark::DoNotOptimize(run.ok());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_FpgaSimPartition)->Arg(1024)->Arg(8192);

struct PhaseTimes {
  double total = 0.0;
  double histogram = 0.0;
  double scatter = 0.0;
};

// One timed partitioning run; returns false on error.
bool RunOnce(const Relation<Tuple8>& rel, bool use_simd, PhaseTimes* out) {
  CpuPartitionerConfig config;
  config.fanout = 8192;
  config.hash = HashMethod::kRadix;
  config.num_threads = 1;
  config.use_simd = use_simd;
  auto run = CpuPartition(config, rel.data(), rel.size());
  if (!run.ok()) {
    std::fprintf(stderr, "partition run failed: %s\n",
                 run.status().ToString().c_str());
    return false;
  }
  out->total = run->seconds;
  out->histogram = run->histogram_seconds;
  out->scatter = run->scatter_seconds;
  return true;
}

// Small-job rows: the fixed cost per job that dominates the service's
// short jobs. Each row is the best of kSmallRuns whole CpuPartition calls
// (allocation, both phases and the dummy padding, as a service job pays
// them) on one thread with murmur hashing.
bool SmallJobRows(obs::BenchReport* report) {
  constexpr int kSmallRuns = 50;
  for (size_t n : {size_t{4096}, size_t{8192}}) {
    auto rel = GenerateRawRelation(n, KeyDistribution::kRandom, 7);
    if (!rel.ok()) {
      std::fprintf(stderr, "datagen failed\n");
      return false;
    }
    for (uint32_t fanout : {2048u, 8192u}) {
      CpuPartitionerConfig config;
      config.fanout = fanout;
      config.hash = HashMethod::kMurmur;
      config.num_threads = 1;
      double best = 0.0;
      for (int r = 0; r < kSmallRuns; ++r) {
        Timer timer;
        auto run = CpuPartition(config, rel->data(), rel->size());
        const double seconds = timer.Seconds();
        if (!run.ok()) {
          std::fprintf(stderr, "small-job run failed: %s\n",
                       run.status().ToString().c_str());
          return false;
        }
        if (r == 0 || seconds < best) best = seconds;
      }
      const std::string name = "small_n" + std::to_string(n) + "_f" +
                               std::to_string(fanout);
      report->Result(name, {{"n_tuples", static_cast<double>(n)},
                            {"fanout", static_cast<double>(fanout)},
                            {"us_per_run", best * 1e6},
                            {"mtuples_per_sec", n / best / 1e6}});
    }
  }
  return true;
}

int JsonMain(size_t n) {
  auto rel = GenerateRawRelation(n, KeyDistribution::kRandom, 7);
  if (!rel.ok()) {
    std::fprintf(stderr, "datagen failed\n");
    return 1;
  }

  // Interleaved best-of-5: each path's reported time is its fastest run,
  // which filters scheduler noise without favouring either path. The hw.*
  // counters accumulate over each path's five runs and are reported as
  // per-run averages next to the best-of timings.
  constexpr int kRuns = 5;
  PhaseTimes scalar, fused;
  bench::HwUsage scalar_acc, fused_acc;  // per-path counter accumulators
  for (int r = 0; r < kRuns; ++r) {
    PhaseTimes ss, fs;
    const bench::HwUsage m0 = bench::HwUsage::Now();
    if (!RunOnce(*rel, /*use_simd=*/false, &ss)) return 1;
    const bench::HwUsage m1 = bench::HwUsage::Now();
    if (!RunOnce(*rel, /*use_simd=*/true, &fs)) return 1;
    const bench::HwUsage m2 = bench::HwUsage::Now();
    scalar_acc.AddDelta(m0, m1);
    fused_acc.AddDelta(m1, m2);
    if (r == 0 || ss.total < scalar.total) scalar = ss;
    if (r == 0 || fs.total < fused.total) fused = fs;
  }

  auto mtps = [n](double s) { return s > 0 ? n / s / 1e6 : 0.0; };
  obs::BenchReport report("micro_partition");
  report.ConfigUInt("n_tuples", n);
  report.ConfigUInt("fanout", 8192);
  report.ConfigStr("hash", "radix");
  report.ConfigStr("tuple", "Tuple8");
  report.ConfigUInt("num_threads", 1);
  report.ConfigStr("simd_level", SimdLevelName(ActiveSimdLevel()));
  report.ConfigStr("affinity", AffinityPolicyName(AffinityPolicyFromEnv()));
  report.ConfigStr("hw_counters",
                   obs::HwCountersSupported() ? "available" : "unavailable");
  auto row = [&](const char* name, const PhaseTimes& t,
                 std::vector<std::pair<std::string, double>> hw) {
    for (auto& [key, value] : hw) value /= kRuns;
    hw.emplace_back("seconds", t.total);
    hw.emplace_back("mtuples_per_sec", mtps(t.total));
    hw.emplace_back("histogram_seconds", t.histogram);
    hw.emplace_back("scatter_seconds", t.scatter);
    report.Result(name, hw);
  };
  row("scalar", scalar, scalar_acc.FieldsSince(bench::HwUsage()));
  row("fused_simd", fused, fused_acc.FieldsSince(bench::HwUsage()));
  report.ResultDouble("speedup",
                      fused.total > 0 ? scalar.total / fused.total : 0.0);
  if (!SmallJobRows(&report)) return 1;
  report.Print();
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
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
