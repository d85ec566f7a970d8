// Online hot/cold partition detection for the streaming store.
//
// The detector classifies each bucket's size into the same log2 buckets
// the obs histograms use (obs::Histogram::BucketOf) and compares against
// the log2 class of the mean bucket size — an integer, branch-cheap
// criterion that is deterministic across replays:
//
//   split  bucket b:  log2(|b|) >= log2(mean) + split_log2_delta
//                     and |b| >= split_min_tuples
//   merge  buddies (lo,hi): log2(|lo|+|hi|) <= log2(mean) - kMergeLog2Delta
//
// With split_log2_delta at its default 2 (kMergeLog2Delta is 2), a freshly
// split bucket's children (each ~half of a >=4x-mean parent) sit at least
// four log2 classes above the merge criterion, so a split can never be
// immediately undone by a merge — the band gap is the first anti-ping-pong
// defence. The second is hysteresis: a condition must hold for
// `hysteresis_ticks` *consecutive* ticks before an action fires, so
// oscillating load that crosses a threshold for one tick does nothing. The
// third is a per-pattern cooldown after a flip, so even a persistent
// borderline signal cannot thrash one bucket. tests/stream_test.cc pins
// all three properties.
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "stream/ingest.h"

namespace fpart::stream {

/// log2 classes below the mean a buddy pair's combined size must stay
/// under to be "cold".
inline constexpr int kMergeLog2Delta = 2;
/// Cap on actions emitted per tick: hottest splits first, then the
/// coldest merges.
inline constexpr size_t kMaxActionsPerTick = 4;

/// \brief Detector thresholds and damping knobs.
struct HotspotConfig {
  /// log2 classes above the mean a bucket must reach to be "hot".
  int split_log2_delta = 2;
  /// Absolute floor: never split a bucket smaller than this (a skewed but
  /// tiny store needs no rebalancing).
  uint64_t split_min_tuples = 4096;
  /// Consecutive ticks a condition must hold before an action fires.
  int hysteresis_ticks = 2;
  /// Ticks a pattern (and the buckets a flip produced) is immune after an
  /// action was emitted for it.
  int cooldown_ticks = 4;
  /// Layout bounds (mirrors StreamStoreConfig; actions respect them).
  uint32_t max_depth = 12;
  uint32_t min_depth = 2;
};

/// \brief One decision: split the bucket (pattern, depth), or merge the
/// buddy children of parent `pattern` at child depth `depth`.
struct RebalanceAction {
  bool split = true;
  uint64_t pattern = 0;
  uint32_t depth = 0;
  /// Tuples involved at decision time (the rebalance job's WFQ cost).
  uint64_t tuples = 0;
};

/// \brief Per-bucket rate/size hot-spot detector. Not thread-safe; the
/// RepartitionManager serializes ticks.
class HotspotDetector {
 public:
  explicit HotspotDetector(HotspotConfig config);

  /// Feed one sampling tick (bucket stats from StreamStore::Stats) and
  /// collect the actions whose conditions have persisted long enough.
  std::vector<RebalanceAction> Tick(
      const std::vector<StreamStore::BucketStat>& buckets);

  uint64_t ticks() const { return ticks_; }
  uint64_t split_decisions() const { return split_decisions_; }
  uint64_t merge_decisions() const { return merge_decisions_; }
  /// Conditions seen but not yet persistent enough to act on.
  uint64_t suppressed_hysteresis() const { return suppressed_hysteresis_; }
  /// Conditions suppressed by a recent flip's cooldown.
  uint64_t suppressed_cooldown() const { return suppressed_cooldown_; }

  const HotspotConfig& config() const { return config_; }

 private:
  struct Streak {
    int hot = 0;
    int cold = 0;
    int cooldown = 0;
  };
  using Key = std::pair<uint64_t, uint32_t>;  // (pattern, depth)

  HotspotConfig config_;
  /// Ordered map: iteration order is canonical, keeping tick output
  /// replay-stable.
  std::map<Key, Streak> state_;
  uint64_t ticks_ = 0;
  uint64_t split_decisions_ = 0;
  uint64_t merge_decisions_ = 0;
  uint64_t suppressed_hysteresis_ = 0;
  uint64_t suppressed_cooldown_ = 0;
};

}  // namespace fpart::stream
