// Every public parallel entry point gives the same answer at every thread
// count, with and without a caller-supplied pool: threads {1, 2, 4} x
// pool {null, shared}, each compared against the one-thread, no-pool run.
//
// The join inputs hold 16K unique keys on both sides, so every join must
// report exactly 16,384 matches. At 4 threads with no pool the build+probe
// functions once ran only the first shard and returned a quarter of them.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "cpu/partitioner.h"
#include "datagen/relation.h"
#include "groupby/group_by.h"
#include "join/build_probe.h"
#include "join/hybrid_join.h"
#include "join/materialize.h"
#include "join/no_partition_join.h"
#include "join/radix_join.h"
#include "join/sort_merge_join.h"

namespace fpart {
namespace {

constexpr size_t kKeys = 16384;
constexpr uint32_t kFanout = 64;

// Keys 1..kKeys in a seed-dependent order; payload = position.
Relation<Tuple8> UniqueKeys(uint64_t seed) {
  auto rel = Relation<Tuple8>::Allocate(kKeys);
  EXPECT_TRUE(rel.ok());
  std::vector<uint32_t> keys(kKeys);
  for (size_t i = 0; i < kKeys; ++i) keys[i] = static_cast<uint32_t>(i + 1);
  Rng rng(seed);
  for (size_t i = kKeys - 1; i > 0; --i) {
    std::swap(keys[i], keys[rng.Below(i + 1)]);
  }
  for (size_t i = 0; i < kKeys; ++i) {
    (*rel)[i] = Tuple8{keys[i], static_cast<uint32_t>(i)};
  }
  return std::move(*rel);
}

CpuRunResult<Tuple8> Partition(const Relation<Tuple8>& rel, size_t threads,
                               ThreadPool* pool) {
  CpuPartitionerConfig config;
  config.fanout = kFanout;
  config.num_threads = threads;
  config.pool = pool;
  auto run = CpuPartition(config, rel.data(), rel.size());
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  return std::move(*run);
}

void ExpectSameBytes(const PartitionedOutput<Tuple8>& a,
                     const PartitionedOutput<Tuple8>& b) {
  ASSERT_EQ(a.num_partitions(), b.num_partitions());
  for (size_t p = 0; p < a.num_partitions(); ++p) {
    ASSERT_EQ(a.part(p).base_cl, b.part(p).base_cl) << p;
    ASSERT_EQ(a.part(p).capacity_cls, b.part(p).capacity_cls) << p;
    ASSERT_EQ(a.part(p).written_cls, b.part(p).written_cls) << p;
    ASSERT_EQ(a.part(p).num_tuples, b.part(p).num_tuples) << p;
  }
  ASSERT_EQ(a.total_cls(), b.total_cls());
  EXPECT_EQ(0, std::memcmp(a.line(0), b.line(0),
                           a.total_cls() * kCacheLineSize));
}

void ExpectSameJoin(const JoinResult& got, const JoinResult& want) {
  EXPECT_EQ(got.matches, kKeys);
  EXPECT_EQ(got.matches, want.matches);
  EXPECT_EQ(got.checksum, want.checksum);
}

// (threads, shared pool?)
class ParallelEntryTest
    : public ::testing::TestWithParam<std::tuple<size_t, bool>> {
 protected:
  static void SetUpTestSuite() {
    r_ = new Relation<Tuple8>(UniqueKeys(11));
    s_ = new Relation<Tuple8>(UniqueKeys(23));
  }
  static void TearDownTestSuite() {
    delete r_;
    delete s_;
    r_ = s_ = nullptr;
  }

  void SetUp() override {
    threads_ = std::get<0>(GetParam());
    if (std::get<1>(GetParam())) shared_ = std::make_unique<ThreadPool>(4);
  }

  ThreadPool* pool() const { return shared_.get(); }

  static const Relation<Tuple8>* r_;
  static const Relation<Tuple8>* s_;
  size_t threads_ = 1;
  std::unique_ptr<ThreadPool> shared_;
};

const Relation<Tuple8>* ParallelEntryTest::r_ = nullptr;
const Relation<Tuple8>* ParallelEntryTest::s_ = nullptr;

TEST_P(ParallelEntryTest, CpuPartition) {
  auto want = Partition(*r_, 1, nullptr);
  auto got = Partition(*r_, threads_, pool());
  EXPECT_EQ(got.histogram, want.histogram);
  ExpectSameBytes(got.output, want.output);
}

TEST_P(ParallelEntryTest, ParallelBuildProbe) {
  auto pr = Partition(*r_, 1, nullptr);
  auto ps = Partition(*s_, 1, nullptr);
  const auto* tag = static_cast<const Tuple8*>(nullptr);
  auto want = ParallelBuildProbe(pr.output, ps.output, 1, nullptr, tag);
  auto got = ParallelBuildProbe(pr.output, ps.output, threads_, pool(), tag);
  EXPECT_EQ(got.matches, kKeys);
  EXPECT_EQ(got.matches, want.matches);
  EXPECT_EQ(got.checksum, want.checksum);
}

TEST_P(ParallelEntryTest, ParallelBuildTablesThenProbeTables) {
  auto pr = Partition(*r_, 1, nullptr);
  auto ps = Partition(*s_, 1, nullptr);
  const auto* tag = static_cast<const Tuple8*>(nullptr);
  BuildProbeStats want, got;
  auto want_tables = ParallelBuildTables(pr.output, 1, nullptr, &want, tag);
  ParallelProbeTables(pr.output, ps.output, want_tables, 1, nullptr, &want);
  auto tables = ParallelBuildTables(pr.output, threads_, pool(), &got, tag);
  ParallelProbeTables(pr.output, ps.output, tables, threads_, pool(), &got);
  EXPECT_EQ(got.matches, kKeys);
  EXPECT_EQ(got.matches, want.matches);
  EXPECT_EQ(got.checksum, want.checksum);
}

TEST_P(ParallelEntryTest, MaterializeJoin) {
  // MaterializeJoin takes no pool; the shared-pool rows repeat the null ones.
  auto pr = Partition(*r_, threads_, pool());
  auto ps = Partition(*s_, threads_, pool());
  const auto* tag = static_cast<const Tuple8*>(nullptr);
  auto want = MaterializeJoin(pr.output, ps.output, 1, tag);
  auto got = MaterializeJoin(pr.output, ps.output, threads_, tag);
  EXPECT_EQ(got.rows.size(), kKeys);
  EXPECT_EQ(got.rows, want.rows);
}

TEST_P(ParallelEntryTest, CpuRadixJoin) {
  CpuJoinConfig config;
  config.fanout = kFanout;
  auto want = CpuRadixJoin(config, *r_, *s_);
  config.num_threads = threads_;
  config.pool = pool();
  auto got = CpuRadixJoin(config, *r_, *s_);
  ASSERT_TRUE(want.ok() && got.ok());
  ExpectSameJoin(*got, *want);
}

TEST_P(ParallelEntryTest, HybridJoin) {
  for (bool overlap : {false, true}) {
    SCOPED_TRACE(overlap ? "overlap on" : "overlap off");
    HybridJoinConfig config;
    config.fpga.fanout = kFanout;
    config.fpga.output_mode = OutputMode::kHist;
    config.overlap_partitioning = overlap;
    auto want = HybridJoin(config, *r_, *s_);
    config.num_threads = threads_;
    config.pool = pool();
    auto got = HybridJoin(config, *r_, *s_);
    ASSERT_TRUE(want.ok() && got.ok());
    ExpectSameJoin(*got, *want);
    EXPECT_EQ(got->partition_seconds, want->partition_seconds);
  }
}

TEST_P(ParallelEntryTest, NoPartitionJoin) {
  auto want = NoPartitionJoin(1, *r_, *s_);
  auto got = NoPartitionJoin(threads_, *r_, *s_, pool());
  ASSERT_TRUE(want.ok() && got.ok());
  ExpectSameJoin(*got, *want);
}

TEST_P(ParallelEntryTest, SortMergeJoin) {
  // 16K pairs per side clears the 4096-pair serial cutoff of the sort.
  auto want = SortMergeJoin(1, *r_, *s_);
  auto got = SortMergeJoin(threads_, *r_, *s_, pool());
  ASSERT_TRUE(want.ok() && got.ok());
  ExpectSameJoin(*got, *want);
}

TEST_P(ParallelEntryTest, PartitionedGroupBy) {
  // PartitionedGroupBy takes no pool; the shared-pool rows repeat the null
  // ones. R ++ S holds every key twice.
  auto rel = Relation<Tuple8>::Allocate(2 * kKeys);
  ASSERT_TRUE(rel.ok());
  std::memcpy(rel->data(), r_->data(), kKeys * sizeof(Tuple8));
  std::memcpy(rel->data() + kKeys, s_->data(), kKeys * sizeof(Tuple8));
  for (Engine engine : {Engine::kCpu, Engine::kFpgaSim}) {
    SCOPED_TRACE(EngineName(engine));
    GroupByConfig config;
    config.engine = engine;
    config.fanout = kFanout;
    auto want = PartitionedGroupBy(config, *rel);
    config.num_threads = threads_;
    auto got = PartitionedGroupBy(config, *rel);
    ASSERT_TRUE(want.ok() && got.ok());
    EXPECT_EQ(got->groups.size(), kKeys);
    EXPECT_EQ(got->groups, want->groups);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsByPool, ParallelEntryTest,
    ::testing::Combine(::testing::Values(size_t{1}, size_t{2}, size_t{4}),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<ParallelEntryTest::ParamType>& info) {
      return "t" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_shared_pool" : "_no_pool");
    });

// The reported case, spelled out: 16K unique keys, fanout 64, 4 threads,
// no pool. Every partition pair must be joined, not just the first shard.
TEST(ParallelBuildProbeTest, FourThreadsWithoutPoolJoinEveryPartition) {
  auto r = UniqueKeys(11);
  auto s = UniqueKeys(23);
  auto pr = Partition(r, 1, nullptr);
  auto ps = Partition(s, 1, nullptr);
  const auto* tag = static_cast<const Tuple8*>(nullptr);
  EXPECT_EQ(ParallelBuildProbe(pr.output, ps.output, 4, nullptr, tag).matches,
            16384u);
  BuildProbeStats split;
  auto tables = ParallelBuildTables(pr.output, 4, nullptr, &split, tag);
  ParallelProbeTables(pr.output, ps.output, tables, 4, nullptr, &split);
  EXPECT_EQ(split.matches, 16384u);
}

}  // namespace
}  // namespace fpart
