// Tests of the sim-result memoization cache (src/fpga/sim_cache.h) as the
// partitioner uses it: a memoized run returns CycleStats and output bytes
// identical to the cold run, both engines share entries (they are
// cycle-exact, so the cache key leaves sim_mode out), and concurrent
// probes, inserts and hits stay consistent (run under TSan by
// scripts/check.sh).
//
// Hits share the memoized run's sealed output instead of copying it, so
// the tests also pin that sharing: one buffer address across the filling
// miss and every hit, a hit that outlives its cache entry, and a sealed
// output that offers no mutating accessor.
//
// The suite keeps the name SimAnalyticalTest from the file these tests
// used to share with the (since removed) analytical engine, so their test
// IDs stay stable.
#include <gtest/gtest.h>

#include <algorithm>
#include <concepts>
#include <cstring>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/rng.h"
#include "datagen/tuple.h"
#include "fpga/partitioner.h"

namespace fpart {
namespace {

std::vector<Tuple8> MakeTuples(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Tuple8> tuples(n);
  for (size_t i = 0; i < n; ++i) {
    tuples[i] = Tuple8{static_cast<uint32_t>(rng.Next()) & 0x7fffffffu,
                       static_cast<uint32_t>(i)};
  }
  return tuples;
}

void ExpectIdenticalRuns(const FpgaRunResult<Tuple8>& a,
                         const FpgaRunResult<Tuple8>& b,
                         const std::string& label) {
  EXPECT_EQ(a.stats.cycles, b.stats.cycles) << label;
  EXPECT_EQ(a.stats.histogram_cycles, b.stats.histogram_cycles) << label;
  EXPECT_EQ(a.stats.flush_cycles, b.stats.flush_cycles) << label;
  EXPECT_EQ(a.stats.read_stall_cycles, b.stats.read_stall_cycles) << label;
  EXPECT_EQ(a.stats.write_stall_cycles, b.stats.write_stall_cycles) << label;
  EXPECT_EQ(a.stats.backpressure_cycles, b.stats.backpressure_cycles)
      << label;
  EXPECT_EQ(a.stats.internal_stall_cycles, b.stats.internal_stall_cycles)
      << label;
  EXPECT_EQ(a.stats.input_lines, b.stats.input_lines) << label;
  EXPECT_EQ(a.stats.output_lines, b.stats.output_lines) << label;
  EXPECT_EQ(a.stats.read_lines, b.stats.read_lines) << label;
  EXPECT_EQ(a.stats.dummy_tuples, b.stats.dummy_tuples) << label;
  EXPECT_EQ(a.seconds, b.seconds) << label;
  EXPECT_EQ(a.mtuples_per_sec, b.mtuples_per_sec) << label;
  EXPECT_EQ(a.read_write_ratio, b.read_write_ratio) << label;
  EXPECT_EQ(a.histogram, b.histogram) << label;
  ASSERT_EQ(a.output.num_partitions(), b.output.num_partitions()) << label;
  ASSERT_EQ(a.output.total_cls(), b.output.total_cls()) << label;
  EXPECT_EQ(0, std::memcmp(a.output.line(0), b.output.line(0),
                           a.output.total_cls() * kCacheLineSize))
      << label;
}

TEST(SimAnalyticalTest, CacheHitMatchesColdRun) {
  FpgaPartitioner<Tuple8>::ResultCache().Clear();
  FpgaPartitionerConfig config;
  config.fanout = 512;
  config.output_mode = OutputMode::kHist;
  config.sim_cache = true;
  auto tuples = MakeTuples(30000, /*seed=*/21);

  FpgaPartitioner<Tuple8> part(config);
  auto cold = part.Partition(tuples.data(), tuples.size());
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  auto hit = part.Partition(tuples.data(), tuples.size());
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  ExpectIdenticalRuns(*cold, *hit, "cold vs hit");

  const SimCacheStats stats = FpgaPartitioner<Tuple8>::ResultCache().stats();
  EXPECT_GE(stats.hits, 1u);
  EXPECT_GE(stats.entries, 1u);

  // A different input under the same config must miss and produce a
  // different digest (different bytes, different result).
  auto other = MakeTuples(30000, /*seed=*/22);
  auto miss = part.Partition(other.data(), other.size());
  ASSERT_TRUE(miss.ok()) << miss.status().ToString();
  EXPECT_NE(0, std::memcmp(cold->output.line(0), miss->output.line(0),
                           std::min(cold->output.total_cls(),
                                    miss->output.total_cls()) *
                               kCacheLineSize));
}

TEST(SimAnalyticalTest, CacheWorksForFastModeToo) {
  // kReference and kFast are cycle-exact, so the cache key leaves sim_mode
  // out: a reference run answers from the entry a fast run filled, and
  // the hit is indistinguishable from an uncached reference run.
  FpgaPartitioner<Tuple8>::ResultCache().Clear();
  FpgaPartitionerConfig config;
  config.fanout = 128;
  config.sim_cache = true;
  auto tuples = MakeTuples(20000, /*seed=*/31);
  FpgaPartitioner<Tuple8> fast(config);
  auto cold = fast.Partition(tuples.data(), tuples.size());
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();

  // Clear() drops entries but not the cumulative hit counter.
  const uint64_t hits_before =
      FpgaPartitioner<Tuple8>::ResultCache().stats().hits;
  config.sim_mode = SimMode::kReference;
  FpgaPartitioner<Tuple8> reference(config);
  auto hit = reference.Partition(tuples.data(), tuples.size());
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  EXPECT_EQ(FpgaPartitioner<Tuple8>::ResultCache().stats().hits,
            hits_before + 1);
  ExpectIdenticalRuns(*cold, *hit, "fast cold vs reference hit");

  config.sim_cache = false;
  FpgaPartitioner<Tuple8> uncached(config);
  auto exact = uncached.Partition(tuples.data(), tuples.size());
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  ExpectIdenticalRuns(*exact, *hit, "reference run vs reference hit");
  FpgaPartitioner<Tuple8>::ResultCache().Clear();
}

// Any accessor through which a holder could write the partitions or the
// partition table. Only the producer-side builder may have one.
template <typename O>
concept HasMutatingAccessor =
    requires(O& o) { { o.line(0) } -> std::same_as<uint8_t*>; } ||
    requires(O& o) { { o.part(0) } -> std::same_as<PartitionInfo&>; } ||
    requires(O& o) { { o.partition_data(0) } -> std::same_as<Tuple8*>; } ||
    requires(const std::vector<uint32_t>& caps) { O::Allocate(caps); };
static_assert(HasMutatingAccessor<PartitionedOutputBuilder<Tuple8>>,
              "the concept must detect the builder's writable API");
static_assert(!HasMutatingAccessor<PartitionedOutput<Tuple8>>,
              "a sealed output must be read-only");
static_assert(std::is_copy_constructible_v<PartitionedOutput<Tuple8>> &&
                  !std::is_copy_constructible_v<
                      PartitionedOutputBuilder<Tuple8>>,
              "sealed outputs are shared by copy, builders are move-only");

TEST(SimAnalyticalTest, HitsShareTheBufferTheMissFilled) {
  FpgaPartitioner<Tuple8>::ResultCache().Clear();
  FpgaPartitionerConfig config;
  config.fanout = 2048;
  config.sim_cache = true;
  auto tuples = MakeTuples(16384, /*seed=*/51);

  FpgaPartitioner<Tuple8> part(config);
  auto miss = part.Partition(tuples.data(), tuples.size());
  ASSERT_TRUE(miss.ok()) << miss.status().ToString();
  auto hit1 = part.Partition(tuples.data(), tuples.size());
  ASSERT_TRUE(hit1.ok()) << hit1.status().ToString();
  auto hit2 = part.Partition(tuples.data(), tuples.size());
  ASSERT_TRUE(hit2.ok()) << hit2.status().ToString();
  EXPECT_EQ(FpgaPartitioner<Tuple8>::ResultCache().stats().entries, 1u);
  ASSERT_GT(miss->output.total_cls(), 0u);
  EXPECT_EQ(miss->output.line(0), hit1->output.line(0));
  EXPECT_EQ(miss->output.line(0), hit2->output.line(0));

  config.sim_cache = false;
  FpgaPartitioner<Tuple8> uncached(config);
  auto exact = uncached.Partition(tuples.data(), tuples.size());
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  EXPECT_NE(exact->output.line(0), miss->output.line(0));
  ExpectIdenticalRuns(*exact, *miss, "uncached vs filling miss");
  ExpectIdenticalRuns(*exact, *hit1, "uncached vs first hit");
  ExpectIdenticalRuns(*exact, *hit2, "uncached vs second hit");
  FpgaPartitioner<Tuple8>::ResultCache().Clear();
}

TEST(SimAnalyticalTest, HitOutlivesItsCacheEntry) {
  // The cache's byte budget bounds what the cache holds, not what live
  // results pin: a hit keeps the shared bytes alive after the entry (and
  // the miss that filled it) are gone. Run under ASan by scripts/check.sh.
  FpgaPartitioner<Tuple8>::ResultCache().Clear();
  FpgaPartitionerConfig config;
  config.fanout = 256;
  config.output_mode = OutputMode::kHist;
  config.sim_cache = true;
  auto tuples = MakeTuples(12000, /*seed=*/61);

  FpgaPartitioner<Tuple8> part(config);
  FpgaRunResult<Tuple8> hit;
  {
    auto miss = part.Partition(tuples.data(), tuples.size());
    ASSERT_TRUE(miss.ok()) << miss.status().ToString();
    auto held = part.Partition(tuples.data(), tuples.size());
    ASSERT_TRUE(held.ok()) << held.status().ToString();
    hit = std::move(*held);
  }
  FpgaPartitioner<Tuple8>::ResultCache().Clear();
  EXPECT_EQ(FpgaPartitioner<Tuple8>::ResultCache().stats().entries, 0u);

  config.sim_cache = false;
  FpgaPartitioner<Tuple8> uncached(config);
  auto exact = uncached.Partition(tuples.data(), tuples.size());
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  ExpectIdenticalRuns(*exact, hit, "uncached vs hit held across Clear()");
}

TEST(SimAnalyticalTest, ConcurrentCacheAccessIsConsistent) {
  // Many threads race cold misses, inserts and hits on a small set of
  // (config, input) shapes; every returned run must equal the
  // single-threaded result for its shape. Run under TSan in CI.
  FpgaPartitioner<Tuple8>::ResultCache().Clear();
  constexpr int kShapes = 4;
  constexpr int kThreads = 8;
  constexpr int kRunsPerThread = 6;

  std::vector<std::vector<Tuple8>> inputs;
  std::vector<FpgaRunResult<Tuple8>> expected;
  FpgaPartitionerConfig config;
  config.fanout = 256;
  config.output_mode = OutputMode::kHist;
  config.sim_cache = true;
  for (int s = 0; s < kShapes; ++s) {
    inputs.push_back(MakeTuples(8000 + 512 * s, /*seed=*/40 + s));
    FpgaPartitionerConfig uncached = config;
    uncached.sim_cache = false;
    FpgaPartitioner<Tuple8> part(uncached);
    auto run = part.Partition(inputs[s].data(), inputs[s].size());
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    expected.push_back(std::move(*run));
  }

  std::vector<std::thread> threads;
  std::vector<int> failures(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRunsPerThread; ++r) {
        const int s = (t + r) % kShapes;
        FpgaPartitioner<Tuple8> part(config);
        auto run = part.Partition(inputs[s].data(), inputs[s].size());
        if (!run.ok() ||
            run->output.total_cls() != expected[s].output.total_cls() ||
            run->stats.cycles != expected[s].stats.cycles ||
            std::memcmp(run->output.line(0), expected[s].output.line(0),
                        expected[s].output.total_cls() * kCacheLineSize) !=
                0) {
          ++failures[t];
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(0, failures[t]) << "thread " << t;
  }
  const SimCacheStats stats = FpgaPartitioner<Tuple8>::ResultCache().stats();
  EXPECT_EQ(stats.entries, static_cast<uint64_t>(kShapes));
  EXPECT_GE(stats.hits + stats.misses,
            static_cast<uint64_t>(kThreads * kRunsPerThread));
  FpgaPartitioner<Tuple8>::ResultCache().Clear();
}

}  // namespace
}  // namespace fpart
