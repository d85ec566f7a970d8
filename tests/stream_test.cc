// Tests for the continuous-ingest streaming store (src/stream/): layout
// invariants of split/merge epoch flips (no lost or duplicated keys, ever),
// the hot-spot detector's anti-ping-pong damping, deterministic replay
// stability across thread counts, kRebalance jobs through the svc
// scheduler, the drifting-Zipf generator, and a TSan-raced
// ingest/read/repartition stress.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/rng.h"
#include "datagen/workloads.h"
#include "datagen/zipf.h"
#include "obs/metrics.h"
#include "stream/hotspot.h"
#include "stream/ingest.h"
#include "stream/repartition.h"
#include "svc/scheduler.h"

namespace fpart {
namespace {

using stream::HotspotConfig;
using stream::HotspotDetector;
using stream::kMaxActionsPerTick;
using stream::ReadResult;
using stream::RebalanceAction;
using stream::RepartitionConfig;
using stream::RepartitionManager;
using stream::StreamStore;
using stream::StreamStoreConfig;

std::vector<Tuple8> MakeTuples(const std::vector<uint32_t>& keys) {
  std::vector<Tuple8> out;
  out.reserve(keys.size());
  uint32_t payload = 0;
  for (uint32_t k : keys) {
    Tuple8 t;
    t.key = k;
    t.payload = payload++;
    out.push_back(t);
  }
  return out;
}

uint64_t ExpectedChecksum(const std::vector<uint32_t>& keys) {
  uint64_t sum = 0;
  for (uint32_t k : keys) sum += StreamStore::KeyFingerprint(k);
  return sum;
}

void IngestAll(StreamStore* store, const std::vector<Tuple8>& tuples) {
  ASSERT_TRUE(store->Ingest(tuples.data(), tuples.size()).ok());
  ASSERT_TRUE(store->Flush().ok());
}

std::vector<uint32_t> RandomKeys(size_t n, uint64_t seed,
                                 uint32_t universe = 1 << 16) {
  Rng rng(seed);
  std::vector<uint32_t> keys(n);
  for (auto& k : keys) k = static_cast<uint32_t>(rng.Below(universe));
  return keys;
}

TEST(StreamStoreTest, IngestFlushRead) {
  StreamStoreConfig cfg;
  cfg.initial_depth = 2;
  cfg.buffer_tuples = 64;
  StreamStore store(cfg);

  const std::vector<uint32_t> keys = RandomKeys(1000, 7);
  IngestAll(&store, MakeTuples(keys));

  EXPECT_EQ(store.total_tuples(), keys.size());
  EXPECT_EQ(store.ingested_tuples(), keys.size());
  EXPECT_EQ(store.buffered_tuples(), 0u);
  EXPECT_EQ(store.KeyChecksum(), ExpectedChecksum(keys));

  std::map<uint32_t, uint64_t> want;
  for (uint32_t k : keys) ++want[k];
  for (const auto& [k, n] : want) {
    const ReadResult r = store.Read(k);
    EXPECT_EQ(r.matches, n) << "key " << k;
    EXPECT_GE(r.scanned, r.matches);
  }
  EXPECT_EQ(store.Read(0xdeadbeefu).matches, 0u);
}

TEST(StreamStoreTest, RejectsDummyKeys) {
  StreamStore store(StreamStoreConfig{});
  Tuple8 t;
  t.key = static_cast<uint32_t>(kDummyKey);
  t.payload = 0;
  EXPECT_FALSE(store.Ingest(&t, 1).ok());
}

TEST(StreamStoreTest, SplitPreservesEveryKey) {
  StreamStoreConfig cfg;
  cfg.initial_depth = 2;
  cfg.buffer_tuples = 128;
  StreamStore store(cfg);

  const std::vector<uint32_t> keys = RandomKeys(4000, 11);
  IngestAll(&store, MakeTuples(keys));
  const uint64_t checksum = store.KeyChecksum();
  ASSERT_EQ(store.epoch(), 0u);
  ASSERT_EQ(store.num_buckets(), 4u);

  auto staged = store.PrepareSplit(/*pattern=*/1, /*depth=*/2);
  ASSERT_TRUE(staged.ok()) << staged.status().message();
  ASSERT_TRUE(store.Commit(std::move(staged).ValueUnsafe()).ok());

  EXPECT_EQ(store.epoch(), 1u);
  EXPECT_EQ(store.num_buckets(), 5u);
  EXPECT_EQ(store.global_depth(), 3u);  // directory doubled
  EXPECT_EQ(store.total_tuples(), keys.size());
  EXPECT_EQ(store.KeyChecksum(), checksum);

  std::map<uint32_t, uint64_t> want;
  for (uint32_t k : keys) ++want[k];
  for (const auto& [k, n] : want) {
    EXPECT_EQ(store.Read(k).matches, n) << "key " << k;
  }
  ASSERT_EQ(store.FlipLog().size(), 1u);
  EXPECT_TRUE(store.FlipLog()[0].split);
  EXPECT_EQ(store.FlipLog()[0].pattern, 1u);
}

TEST(StreamStoreTest, MergePreservesEveryKeyAndShrinksDirectory) {
  StreamStoreConfig cfg;
  cfg.initial_depth = 3;
  cfg.min_depth = 2;
  cfg.buffer_tuples = 128;
  StreamStore store(cfg);

  const std::vector<uint32_t> keys = RandomKeys(3000, 13);
  IngestAll(&store, MakeTuples(keys));
  const uint64_t checksum = store.KeyChecksum();

  // Merge every buddy pair at depth 3: the directory shrinks to depth 2
  // once the last depth-3 bucket is gone.
  for (uint64_t parent = 0; parent < 4; ++parent) {
    auto staged = store.PrepareMerge(parent, /*child_depth=*/3);
    ASSERT_TRUE(staged.ok()) << staged.status().message();
    ASSERT_TRUE(store.Commit(std::move(staged).ValueUnsafe()).ok());
  }

  EXPECT_EQ(store.epoch(), 4u);
  EXPECT_EQ(store.num_buckets(), 4u);
  EXPECT_EQ(store.global_depth(), 2u);
  EXPECT_EQ(store.total_tuples(), keys.size());
  EXPECT_EQ(store.KeyChecksum(), checksum);

  std::map<uint32_t, uint64_t> want;
  for (uint32_t k : keys) ++want[k];
  for (const auto& [k, n] : want) {
    EXPECT_EQ(store.Read(k).matches, n) << "key " << k;
  }
}

TEST(StreamStoreTest, StaleCommitRejectedAndCounted) {
  StreamStoreConfig cfg;
  cfg.initial_depth = 2;
  StreamStore store(cfg);
  IngestAll(&store, MakeTuples(RandomKeys(500, 17)));

  auto first = store.PrepareSplit(0, 2);
  auto second = store.PrepareSplit(0, 2);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(store.Commit(std::move(first).ValueUnsafe()).ok());
  // The layout moved: the second rebuild's source bucket is gone.
  EXPECT_FALSE(store.Commit(std::move(second).ValueUnsafe()).ok());
  EXPECT_EQ(store.stale_commits(), 1u);
  EXPECT_EQ(store.epoch(), 1u);
  EXPECT_EQ(store.total_tuples(), 500u);
}

TEST(StreamStoreTest, StaleCommitFailpointForcesTheStalePath) {
  // Fault injection: the forced-stale branch must behave exactly like a
  // real epoch race — typed error, counted, store layout untouched — and
  // the same staged rebuild pattern must succeed once the point disarms.
  auto& reg = FailpointRegistry::Global();
  reg.ClearAll();

  StreamStoreConfig cfg;
  cfg.initial_depth = 2;
  StreamStore store(cfg);
  IngestAll(&store, MakeTuples(RandomKeys(500, 29)));
  const uint64_t checksum = store.KeyChecksum();

  reg.Arm("stream.commit.stale", 1);
  auto staged = store.PrepareSplit(0, 2);
  ASSERT_TRUE(staged.ok());
  Status st = store.Commit(std::move(staged).ValueUnsafe());
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(reg.fired("stream.commit.stale"), 1u);
  EXPECT_EQ(store.stale_commits(), 1u);
  // The rejected commit must not have flipped the layout or lost a key.
  EXPECT_EQ(store.epoch(), 0u);
  EXPECT_EQ(store.total_tuples(), 500u);
  EXPECT_EQ(store.KeyChecksum(), checksum);

  // Budget spent: a fresh prepare/commit cycle goes through.
  auto retry = store.PrepareSplit(0, 2);
  ASSERT_TRUE(retry.ok());
  EXPECT_TRUE(store.Commit(std::move(retry).ValueUnsafe()).ok());
  EXPECT_EQ(store.epoch(), 1u);
  EXPECT_EQ(store.KeyChecksum(), checksum);
  reg.ClearAll();
}

TEST(StreamStoreTest, IngestSurvivesForcedStaleCommits) {
  // Keep the failpoint armed across several cycles: every commit fails,
  // ingest keeps running, and after disarming the store repartitions
  // normally — the retry loop a production caller would run.
  auto& reg = FailpointRegistry::Global();
  reg.ClearAll();
  reg.Arm("stream.commit.stale", 3);

  StreamStoreConfig cfg;
  cfg.initial_depth = 2;
  StreamStore store(cfg);
  std::vector<uint32_t> all = RandomKeys(400, 31);
  IngestAll(&store, MakeTuples(all));
  for (int round = 0; round < 3; ++round) {
    auto staged = store.PrepareSplit(0, 2);
    ASSERT_TRUE(staged.ok());
    EXPECT_FALSE(store.Commit(std::move(staged).ValueUnsafe()).ok());
    const std::vector<uint32_t> more = RandomKeys(100, 100 + round);
    IngestAll(&store, MakeTuples(more));
    all.insert(all.end(), more.begin(), more.end());
  }
  EXPECT_EQ(store.stale_commits(), 3u);
  EXPECT_EQ(store.epoch(), 0u);
  auto staged = store.PrepareSplit(0, 2);
  ASSERT_TRUE(staged.ok());
  EXPECT_TRUE(store.Commit(std::move(staged).ValueUnsafe()).ok());
  EXPECT_EQ(store.epoch(), 1u);
  EXPECT_EQ(store.total_tuples(), all.size());
  EXPECT_EQ(store.KeyChecksum(), ExpectedChecksum(all));
  reg.ClearAll();
}

TEST(StreamStoreTest, CommitScattersTheDeltaIngestedAfterPrepare) {
  StreamStoreConfig cfg;
  cfg.initial_depth = 2;
  cfg.buffer_tuples = 64;
  StreamStore store(cfg);

  const std::vector<uint32_t> before = RandomKeys(800, 19);
  IngestAll(&store, MakeTuples(before));

  auto staged = store.PrepareSplit(3, 2);
  ASSERT_TRUE(staged.ok());

  // Keys arriving between prepare and commit land in the old bucket and
  // must be carried across the flip by the delta scatter.
  const std::vector<uint32_t> delta = RandomKeys(800, 23);
  IngestAll(&store, MakeTuples(delta));
  ASSERT_TRUE(store.Commit(std::move(staged).ValueUnsafe()).ok());

  std::vector<uint32_t> all = before;
  all.insert(all.end(), delta.begin(), delta.end());
  EXPECT_EQ(store.total_tuples(), all.size());
  EXPECT_EQ(store.KeyChecksum(), ExpectedChecksum(all));
}

TEST(StreamStoreTest, SplitRespectsMaxDepth) {
  StreamStoreConfig cfg;
  cfg.initial_depth = 2;
  cfg.max_depth = 2;
  StreamStore store(cfg);
  EXPECT_FALSE(store.PrepareSplit(0, 2).ok());
}

TEST(StreamStoreTest, MergeRespectsMinDepth) {
  StreamStoreConfig cfg;
  cfg.initial_depth = 2;
  cfg.min_depth = 2;
  StreamStore store(cfg);
  EXPECT_FALSE(store.PrepareMerge(0, 2).ok());
}

// -- Hot-spot detector ----------------------------------------------------

std::vector<StreamStore::BucketStat> FlatStats(size_t buckets,
                                               uint64_t tuples_each,
                                               uint32_t depth) {
  std::vector<StreamStore::BucketStat> stats(buckets);
  for (size_t i = 0; i < buckets; ++i) {
    stats[i].pattern = i;
    stats[i].depth = depth;
    stats[i].tuples = tuples_each;
    stats[i].appended = tuples_each;
  }
  return stats;
}

TEST(HotspotDetectorTest, HysteresisSuppressesOscillation) {
  HotspotConfig cfg;
  cfg.hysteresis_ticks = 2;
  cfg.split_min_tuples = 64;
  HotspotDetector det(cfg);

  // Bucket 0 is hot on every *other* tick: the one-tick streak never
  // reaches the hysteresis bar, so nothing ever fires.
  for (int tick = 0; tick < 20; ++tick) {
    auto stats = FlatStats(4, 1000, 2);
    if (tick % 2 == 0) stats[0].tuples = 1 << 20;
    EXPECT_TRUE(det.Tick(stats).empty()) << "tick " << tick;
  }
  EXPECT_GT(det.suppressed_hysteresis(), 0u);
  EXPECT_EQ(det.split_decisions(), 0u);
  EXPECT_EQ(det.merge_decisions(), 0u);
}

TEST(HotspotDetectorTest, PersistentHotBucketSplitsExactlyOnceThenCoolsDown) {
  HotspotConfig cfg;
  cfg.hysteresis_ticks = 2;
  cfg.cooldown_ticks = 4;
  cfg.split_min_tuples = 64;
  HotspotDetector det(cfg);

  auto hot = FlatStats(4, 1000, 2);
  hot[0].tuples = 1 << 20;

  std::vector<int> fired_at;
  for (int tick = 0; tick < 12; ++tick) {
    const auto actions = det.Tick(hot);
    if (!actions.empty()) {
      ASSERT_EQ(actions.size(), 1u);
      EXPECT_TRUE(actions[0].split);
      EXPECT_EQ(actions[0].pattern, 0u);
      fired_at.push_back(tick);
    }
  }
  // First fire once the hysteresis streak is reached; refires (the stats
  // are frozen here, as if the split never applied) must be separated by
  // at least the cooldown — never back-to-back.
  ASSERT_FALSE(fired_at.empty());
  EXPECT_EQ(fired_at[0], cfg.hysteresis_ticks - 1);
  for (size_t i = 1; i < fired_at.size(); ++i) {
    EXPECT_GE(fired_at[i] - fired_at[i - 1], cfg.cooldown_ticks)
        << "ping-pong between fires " << i - 1 << " and " << i;
  }
  EXPECT_GT(det.suppressed_cooldown(), 0u);
}

TEST(HotspotDetectorTest, SplitChildrenAreNotMergeCandidates) {
  // The log2 band gap: a just-split bucket's children sit far above the
  // merge threshold, so applying the detector's own split never produces
  // a merge of the same range — the no-ping-pong property.
  HotspotConfig cfg;
  cfg.hysteresis_ticks = 1;
  cfg.cooldown_ticks = 0;  // even with damping off, the band gap holds
  cfg.split_min_tuples = 64;
  HotspotDetector det(cfg);

  auto stats = FlatStats(8, 4096, 3);
  stats[0].tuples = 1 << 16;
  for (int round = 0; round < 16; ++round) {
    const auto actions = det.Tick(stats);
    for (const RebalanceAction& act : actions) {
      ASSERT_TRUE(act.split)
          << "merge emitted for pattern " << act.pattern << " depth "
          << act.depth << " right after the range was split";
      // Apply the split: halve the bucket into its two children.
      for (auto& b : stats) {
        if (b.pattern == act.pattern && b.depth == act.depth) {
          StreamStore::BucketStat hi = b;
          b.depth++;
          b.tuples /= 2;
          b.appended /= 2;
          hi.depth = b.depth;
          hi.pattern |= uint64_t{1} << act.depth;
          hi.tuples = b.tuples;
          hi.appended = b.appended;
          stats.push_back(hi);
          break;
        }
      }
    }
  }
  EXPECT_GT(det.split_decisions(), 0u);
  EXPECT_EQ(det.merge_decisions(), 0u);
}

TEST(HotspotDetectorTest, ColdBuddiesMergeAndRespectMinDepth) {
  HotspotConfig cfg;
  cfg.hysteresis_ticks = 1;
  cfg.min_depth = 2;
  HotspotDetector det(cfg);

  // One huge bucket drags the mean up; the tiny depth-3 buddies qualify
  // for merging (the hot bucket itself may legitimately emit a split —
  // its pair (3,7) is not cold, so it is never merged).
  std::vector<StreamStore::BucketStat> stats = FlatStats(8, 4, 3);
  stats[7].tuples = 1 << 20;
  const auto actions = det.Tick(stats);
  ASSERT_FALSE(actions.empty());
  uint64_t merges = 0;
  for (const auto& act : actions) {
    if (act.split) {
      EXPECT_EQ(act.pattern, 7u);  // only the hot bucket splits
      continue;
    }
    ++merges;
    EXPECT_EQ(act.depth, 3u);
    EXPECT_LT(act.pattern, 4u);  // parent pattern at depth 2
    EXPECT_NE(act.pattern, 3u);  // the hot pair stays
  }
  EXPECT_GT(merges, 0u);

  // At min_depth, cold buckets must never emit merges.
  HotspotDetector det2(cfg);
  auto shallow = FlatStats(4, 4, 2);
  shallow[3].tuples = 1 << 20;
  for (const auto& act : det2.Tick(shallow)) EXPECT_TRUE(act.split);
}

TEST(HotspotDetectorTest, PerTickCapTakesHottestSplitsBeforeMerges) {
  HotspotConfig cfg;
  cfg.hysteresis_ticks = 1;
  // 16 depth-4 buckets of 4 tuples; the listed patterns are ~2^20 each,
  // hotter with rising pattern. Both layouts also hold cold buddy pairs.
  auto layout = [](const std::vector<uint64_t>& hot) {
    auto stats = FlatStats(16, 4, 4);
    for (uint64_t p : hot) stats[p].tuples = (uint64_t{1} << 20) + p * 1024;
    return stats;
  };

  // Six hot buckets: the cap admits only the hottest splits, hottest
  // first, and leaves no room for the cold pairs' merges.
  HotspotDetector det(cfg);
  const auto six = det.Tick(layout({0, 1, 2, 3, 4, 5}));
  ASSERT_EQ(six.size(), kMaxActionsPerTick);
  for (size_t i = 0; i < six.size(); ++i) {
    EXPECT_TRUE(six[i].split) << i;
    EXPECT_EQ(six[i].pattern, 5 - i) << i;
  }
  EXPECT_EQ(det.split_decisions(), kMaxActionsPerTick);
  EXPECT_EQ(det.merge_decisions(), 0u);

  // Two hot buckets: both splits come first, then the cold pairs (all of
  // equal size, so by parent pattern 2, 3, ...) fill the rest of the cap.
  HotspotDetector det2(cfg);
  const auto two = det2.Tick(layout({0, 1}));
  ASSERT_EQ(two.size(), kMaxActionsPerTick);
  EXPECT_TRUE(two[0].split);
  EXPECT_EQ(two[0].pattern, 1u);
  EXPECT_TRUE(two[1].split);
  EXPECT_EQ(two[1].pattern, 0u);
  for (size_t i = 2; i < two.size(); ++i) {
    EXPECT_FALSE(two[i].split) << i;
    EXPECT_EQ(two[i].pattern, i) << i;
    EXPECT_EQ(two[i].depth, 4u) << i;
  }
}

// -- Deterministic replay --------------------------------------------------

// A miniature ext_stream: replay a fixed ingest stream through a
// deterministic scheduler + manager across `threads` clients and fold the
// observable outcome. Bit-equal results across thread counts is the
// replay guarantee the CI gate enforces on the full bench.
uint64_t ReplayFingerprint(size_t threads) {
  StreamStoreConfig scfg;
  scfg.initial_depth = 2;
  scfg.buffer_tuples = 128;
  StreamStore store(scfg);

  svc::SchedulerConfig sched_cfg;
  sched_cfg.num_workers = 2;
  sched_cfg.deterministic = true;
  sched_cfg.queue_capacity = 4096;
  svc::Scheduler scheduler(sched_cfg);

  RepartitionConfig mcfg;
  mcfg.deterministic = true;
  mcfg.tick_every_drains = 2;
  mcfg.flip_delay_ticks = 1;
  mcfg.detector.split_log2_delta = 1;
  mcfg.detector.split_min_tuples = 256;
  mcfg.detector.hysteresis_ticks = 2;
  RepartitionManager manager(&store, &scheduler, mcfg);

  // Skewed stream: one hot bucket emerges and is split mid-replay.
  ZipfSampler zipf(64, 1.3, 99);
  std::vector<std::vector<Tuple8>> batches(120);
  for (auto& b : batches) {
    std::vector<uint32_t> keys(64);
    for (auto& k : keys) k = static_cast<uint32_t>(zipf.Next());
    b = MakeTuples(keys);
  }

  stream::OpSequencer seq;
  // One OnDrain per completed drain, issued inside the sequenced region:
  // the cadence (and thus every tick and flip) is identical regardless of
  // which client thread happens to execute which op.
  uint64_t acked_drains = 0;
  std::vector<std::thread> clients;
  for (size_t c = 0; c < threads; ++c) {
    clients.emplace_back([&, c] {
      for (size_t i = c; i < batches.size(); i += threads) {
        seq.Enter(i);
        EXPECT_TRUE(store.Ingest(batches[i].data(), batches[i].size()).ok());
        for (const uint64_t drains = store.drains(); acked_drains < drains;
             ++acked_drains) {
          manager.OnDrain();
        }
        seq.Exit();
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_TRUE(store.Flush().ok());
  manager.Quiesce();
  scheduler.Shutdown();

  uint64_t h = 0xcbf29ce484222325ULL;
  auto fold = [&h](uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (b * 8)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (const auto& f : store.FlipLog()) {
    fold(f.epoch);
    fold(f.split ? 1 : 0);
    fold(f.pattern);
    fold(f.depth);
    fold(f.watermark);
  }
  fold(store.KeyChecksum());
  fold(store.total_tuples());
  fold(store.epoch());
  fold(store.global_depth());
  EXPECT_GT(store.epoch(), 0u) << "replay produced no flips to compare";
  return h;
}

TEST(StreamReplayTest, FingerprintStableAcrossThreadCounts) {
  const uint64_t h1 = ReplayFingerprint(1);
  const uint64_t h3 = ReplayFingerprint(3);
  EXPECT_EQ(h1, h3);
}

// -- kRebalance through the svc scheduler ---------------------------------

TEST(StreamSvcTest, RebalanceJobRunsOnCpuBackend) {
  svc::SchedulerConfig cfg;
  cfg.num_workers = 2;
  svc::Scheduler scheduler(cfg);

  std::atomic<bool> ran{false};
  svc::RebalanceJobSpec spec;
  spec.cost_tuples = 10000;
  spec.work = [&ran](const std::atomic<bool>*) -> Status {
    ran.store(true);
    return Status::OK();
  };
  auto handle = scheduler.Submit(spec);
  ASSERT_TRUE(handle.ok());
  const svc::JobOutcome& out = handle.ValueOrDie().Wait();
  EXPECT_EQ(out.state, svc::JobState::kCompleted);
  EXPECT_EQ(out.backend, svc::Backend::kCpu);
  EXPECT_TRUE(ran.load());
  scheduler.Shutdown();
}

TEST(StreamSvcTest, RebalanceJobRequiresWork) {
  svc::Scheduler scheduler(svc::SchedulerConfig{});
  EXPECT_FALSE(scheduler.Submit(svc::RebalanceJobSpec{}).ok());
  scheduler.Shutdown();
}

TEST(StreamSvcTest, PlacementErrorHistogramRecords) {
  obs::Histogram* hist = obs::Registry::Global().GetHistogram(
      "svc.place.err_pct.cpu.small", "pct",
      "abs(run-estimate)/run placement error");
  const uint64_t before = hist->Merged().count;

  auto rel = GenerateRawRelation(4096, KeyDistribution::kRandom, 5);
  ASSERT_TRUE(rel.ok());
  const Relation<Tuple8> input = std::move(rel).ValueUnsafe();

  svc::SchedulerConfig cfg;
  cfg.num_workers = 1;
  svc::Scheduler scheduler(cfg);
  svc::PartitionJobSpec spec;
  spec.input = &input;
  spec.request.fanout = 64;
  svc::JobOptions opts;
  opts.pinned = svc::Backend::kCpu;
  auto handle = scheduler.Submit(spec, opts);
  ASSERT_TRUE(handle.ok());
  EXPECT_EQ(handle.ValueOrDie().Wait().state, svc::JobState::kCompleted);
  scheduler.Shutdown();

  EXPECT_GT(hist->Merged().count, before);
}

// -- Manager end to end ----------------------------------------------------

TEST(RepartitionManagerTest, SplitsHotBucketLive) {
  StreamStoreConfig scfg;
  scfg.initial_depth = 2;
  scfg.buffer_tuples = 256;
  StreamStore store(scfg);

  svc::SchedulerConfig sched_cfg;
  sched_cfg.num_workers = 2;
  svc::Scheduler scheduler(sched_cfg);

  RepartitionConfig mcfg;
  mcfg.tick_every_drains = 1;
  mcfg.detector.split_log2_delta = 1;
  mcfg.detector.split_min_tuples = 256;
  mcfg.detector.hysteresis_ticks = 1;
  RepartitionManager manager(&store, &scheduler, mcfg);

  // All keys identical: one bucket takes everything.
  std::vector<uint32_t> keys(6000, 12345);
  // Plus a sprinkle elsewhere so the mean stays low.
  for (uint32_t k = 0; k < 64; ++k) keys.push_back(k);
  const auto tuples = MakeTuples(keys);
  uint64_t acked = 0;
  for (size_t off = 0; off < tuples.size(); off += 200) {
    const size_t n = std::min<size_t>(200, tuples.size() - off);
    ASSERT_TRUE(store.Ingest(tuples.data() + off, n).ok());
    for (const uint64_t drains = store.drains(); acked < drains; ++acked) {
      manager.OnDrain();
    }
  }
  ASSERT_TRUE(store.Flush().ok());
  manager.Quiesce();
  scheduler.Shutdown();

  EXPECT_GT(manager.jobs_submitted(), 0u);
  EXPECT_GT(store.epoch(), 0u);
  EXPECT_EQ(store.total_tuples(), keys.size());
  EXPECT_EQ(store.KeyChecksum(), ExpectedChecksum(keys));
  EXPECT_EQ(store.Read(12345).matches, 6000u);
}

// -- Concurrency stress (the check.sh tsan target) -------------------------

TEST(StreamStressTest, RacedIngestReadRepartitionLosesNothing) {
  StreamStoreConfig scfg;
  scfg.initial_depth = 3;
  scfg.buffer_tuples = 256;
  StreamStore store(scfg);

  constexpr size_t kWriters = 2;
  constexpr size_t kBatches = 60;
  constexpr size_t kBatch = 128;

  std::vector<std::vector<Tuple8>> batches(kWriters * kBatches);
  std::vector<uint32_t> all_keys;
  for (size_t i = 0; i < batches.size(); ++i) {
    auto keys = RandomKeys(kBatch, 1000 + i, 1 << 12);
    batches[i] = MakeTuples(keys);
    all_keys.insert(all_keys.end(), keys.begin(), keys.end());
  }

  std::atomic<bool> done{false};
  std::atomic<uint64_t> epoch_regressions{0};

  std::vector<std::thread> threads;
  for (size_t w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (size_t b = 0; b < kBatches; ++b) {
        const auto& batch = batches[w * kBatches + b];
        ASSERT_TRUE(store.Ingest(batch.data(), batch.size()).ok());
      }
    });
  }
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&, r] {
      Rng rng(77 + r);
      uint64_t last_epoch = 0;
      while (!done.load(std::memory_order_acquire)) {
        const ReadResult res =
            store.Read(static_cast<uint32_t>(rng.Below(1 << 12)));
        if (res.epoch < last_epoch) epoch_regressions.fetch_add(1);
        last_epoch = std::max(last_epoch, res.epoch);
      }
    });
  }
  threads.emplace_back([&] {
    // Repartitioner: alternately split the currently largest bucket and
    // merge the smallest buddy pair, racing the writers and readers.
    Rng rng(5);
    while (!done.load(std::memory_order_acquire)) {
      auto stats = store.Stats(/*reset_appended=*/false);
      if (stats.empty()) continue;
      const auto hot = std::max_element(
          stats.begin(), stats.end(),
          [](const auto& a, const auto& b) { return a.tuples < b.tuples; });
      if (rng.Below(2) == 0 && hot->depth < scfg.max_depth) {
        auto staged = store.PrepareSplit(hot->pattern, hot->depth);
        if (staged.ok()) {
          (void)store.Commit(std::move(staged).ValueUnsafe());
        }
      } else {
        for (const auto& s : stats) {
          if (s.depth > scfg.min_depth &&
              (s.pattern & (uint64_t{1} << (s.depth - 1))) == 0) {
            auto staged = store.PrepareMerge(
                s.pattern & ((uint64_t{1} << (s.depth - 1)) - 1), s.depth);
            if (staged.ok()) {
              (void)store.Commit(std::move(staged).ValueUnsafe());
              break;
            }
          }
        }
      }
    }
  });

  for (size_t w = 0; w < kWriters; ++w) threads[w].join();
  ASSERT_TRUE(store.Flush().ok());
  done.store(true, std::memory_order_release);
  for (size_t t = kWriters; t < threads.size(); ++t) threads[t].join();

  EXPECT_EQ(epoch_regressions.load(), 0u);
  EXPECT_EQ(store.total_tuples(), all_keys.size());
  EXPECT_EQ(store.KeyChecksum(), ExpectedChecksum(all_keys));
}

// -- Drifting Zipf ---------------------------------------------------------

TEST(DriftingZipfTest, SameScheduleSameSequence) {
  ZipfDriftSchedule sched;
  sched.theta0 = 0.4;
  sched.theta1 = 1.3;
  sched.shift_start = 100;
  sched.shift_end = 400;
  sched.rotate_every = 250;
  sched.seed = 7;
  DriftingZipfSampler a(1000, sched);
  DriftingZipfSampler b(1000, sched);
  for (uint64_t t = 0; t < 600; ++t) {
    EXPECT_EQ(a.NextAt(t), b.NextAt(t)) << "t=" << t;
  }
}

TEST(DriftingZipfTest, ThetaRampIsMonotoneAndClamped) {
  ZipfDriftSchedule sched;
  sched.theta0 = 0.5;
  sched.theta1 = 1.2;
  sched.shift_start = 1000;
  sched.shift_end = 2000;
  DriftingZipfSampler s(100, sched);
  EXPECT_DOUBLE_EQ(s.ThetaAt(0), 0.5);
  EXPECT_DOUBLE_EQ(s.ThetaAt(999), 0.5);
  EXPECT_DOUBLE_EQ(s.ThetaAt(2000), 1.2);
  EXPECT_DOUBLE_EQ(s.ThetaAt(1u << 20), 1.2);
  double prev = 0.0;
  for (uint64_t t = 1000; t < 2000; t += 50) {
    const double th = s.ThetaAt(t);
    EXPECT_GE(th, prev);
    EXPECT_GE(th, 0.5);
    EXPECT_LE(th, 1.2);
    prev = th;
  }
  EXPECT_GT(prev, 0.5);
}

TEST(DriftingZipfTest, ShiftSharpensTheHotKey) {
  ZipfDriftSchedule sched;
  sched.theta0 = 0.1;
  sched.theta1 = 1.4;
  sched.shift_start = 2000;
  sched.shift_end = 2001;  // step
  sched.seed = 3;
  DriftingZipfSampler s(256, sched);

  auto top_share = [&](uint64_t t0, uint64_t n) {
    std::map<uint64_t, uint64_t> freq;
    for (uint64_t t = t0; t < t0 + n; ++t) ++freq[s.NextAt(t)];
    uint64_t best = 0;
    for (const auto& [k, c] : freq) best = std::max(best, c);
    return static_cast<double>(best) / static_cast<double>(n);
  };
  const double before = top_share(0, 2000);
  const double after = top_share(2001, 2000);
  EXPECT_GT(after, before * 2.0);
}

TEST(DriftingZipfTest, RotationMovesTheHotKey) {
  ZipfDriftSchedule sched;
  sched.theta0 = 1.5;
  sched.theta1 = 1.5;
  sched.rotate_every = 1000;
  sched.seed = 11;
  DriftingZipfSampler s(4096, sched);
  EXPECT_EQ(s.GenerationAt(999), 0u);
  EXPECT_EQ(s.GenerationAt(1000), 1u);

  auto mode_of = [&](uint64_t t0) {
    std::map<uint64_t, uint64_t> freq;
    for (uint64_t t = t0; t < t0 + 800; ++t) ++freq[s.NextAt(t)];
    uint64_t mode = 0, best = 0;
    for (const auto& [k, c] : freq) {
      if (c > best) {
        best = c;
        mode = k;
      }
    }
    return mode;
  };
  EXPECT_NE(mode_of(0), mode_of(1000));
}

TEST(DriftingZipfTest, NextUsesInternalClock) {
  ZipfDriftSchedule sched;
  sched.seed = 21;
  DriftingZipfSampler a(100, sched);
  DriftingZipfSampler b(100, sched);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(a.Next(), b.NextAt(static_cast<uint64_t>(i)));
  }
}

TEST(OpSequencerTest, EnforcesGlobalOrderAcrossThreads) {
  stream::OpSequencer seq;
  constexpr uint64_t kOps = 500;
  constexpr size_t kThreads = 4;
  std::vector<uint64_t> order;
  order.reserve(kOps);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kThreads; ++c) {
    threads.emplace_back([&, c] {
      for (uint64_t i = c; i < kOps; i += kThreads) {
        seq.Enter(i);
        order.push_back(i);  // safe: the sequencer serializes
        seq.Exit();
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_EQ(order.size(), kOps);
  for (uint64_t i = 0; i < kOps; ++i) EXPECT_EQ(order[i], i);
}

}  // namespace
}  // namespace fpart
