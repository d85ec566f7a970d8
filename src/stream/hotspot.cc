#include "stream/hotspot.h"

#include <algorithm>

#include "obs/metrics.h"

namespace fpart::stream {
namespace {

struct HotspotMetrics {
  obs::Counter* ticks;
  obs::Counter* splits;
  obs::Counter* merges;
  obs::Counter* suppressed_hysteresis;
  obs::Counter* suppressed_cooldown;
};

HotspotMetrics& Metrics() {
  static HotspotMetrics m = [] {
    auto& reg = obs::Registry::Global();
    HotspotMetrics x;
    x.ticks = reg.GetCounter("stream.hotspot.ticks", "ticks",
                             "detector sampling ticks");
    x.splits = reg.GetCounter("stream.hotspot.split_decisions", "actions",
                              "split actions emitted");
    x.merges = reg.GetCounter("stream.hotspot.merge_decisions", "actions",
                              "merge actions emitted");
    x.suppressed_hysteresis =
        reg.GetCounter("stream.hotspot.suppressed_hysteresis", "conditions",
                       "hot/cold conditions below the hysteresis streak");
    x.suppressed_cooldown =
        reg.GetCounter("stream.hotspot.suppressed_cooldown", "conditions",
                       "hot/cold conditions muted by a flip cooldown");
    return x;
  }();
  return m;
}

}  // namespace

HotspotDetector::HotspotDetector(HotspotConfig config) : config_(config) {
  if (config_.hysteresis_ticks < 1) config_.hysteresis_ticks = 1;
  if (config_.cooldown_ticks < 0) config_.cooldown_ticks = 0;
}

std::vector<RebalanceAction> HotspotDetector::Tick(
    const std::vector<StreamStore::BucketStat>& buckets) {
  ++ticks_;
  Metrics().ticks->Add();
  std::vector<RebalanceAction> actions;
  if (buckets.empty()) return actions;

  uint64_t sum = 0;
  for (const auto& b : buckets) sum += b.tuples;
  const uint64_t mean = sum / buckets.size();
  const int mean_class = obs::Histogram::BucketOf(mean);

  for (auto& [key, streak] : state_) {
    if (streak.cooldown > 0) --streak.cooldown;
  }

  // -- Hot buckets -> split candidates ----------------------------------
  std::vector<RebalanceAction> split_cands;
  for (const auto& b : buckets) {
    Streak& s = state_[{b.pattern, b.depth}];
    const bool hot =
        b.depth < config_.max_depth && b.tuples >= config_.split_min_tuples &&
        obs::Histogram::BucketOf(b.tuples) >=
            mean_class + config_.split_log2_delta;
    if (!hot) {
      s.hot = 0;
      continue;
    }
    ++s.hot;
    if (s.cooldown > 0) {
      ++suppressed_cooldown_;
      Metrics().suppressed_cooldown->Add();
      continue;
    }
    if (s.hot < config_.hysteresis_ticks) {
      ++suppressed_hysteresis_;
      Metrics().suppressed_hysteresis->Add();
      continue;
    }
    RebalanceAction act;
    act.split = true;
    act.pattern = b.pattern;
    act.depth = b.depth;
    act.tuples = b.tuples;
    split_cands.push_back(act);
  }

  // -- Cold buddy pairs -> merge candidates -----------------------------
  // A pair is addressable only when both children exist at the same
  // depth; the lo child (buddy bit clear) speaks for the pair, and its
  // streak entry doubles as the pair's state (one flip cooldown then
  // covers both re-split and re-merge of the same pattern).
  std::map<Key, uint64_t> size_at;
  for (const auto& b : buckets) size_at[{b.pattern, b.depth}] = b.tuples;
  std::vector<RebalanceAction> merge_cands;
  for (const auto& b : buckets) {
    if (b.depth <= config_.min_depth) continue;
    const uint64_t bit = uint64_t{1} << (b.depth - 1);
    if (b.pattern & bit) continue;
    auto buddy = size_at.find({b.pattern | bit, b.depth});
    if (buddy == size_at.end()) continue;
    const uint64_t combined = b.tuples + buddy->second;
    Streak& s = state_[{b.pattern, b.depth}];
    const bool cold = obs::Histogram::BucketOf(combined) <=
                      mean_class - kMergeLog2Delta;
    if (!cold) {
      s.cold = 0;
      continue;
    }
    ++s.cold;
    if (s.cooldown > 0) {
      ++suppressed_cooldown_;
      Metrics().suppressed_cooldown->Add();
      continue;
    }
    if (s.cold < config_.hysteresis_ticks) {
      ++suppressed_hysteresis_;
      Metrics().suppressed_hysteresis->Add();
      continue;
    }
    RebalanceAction act;
    act.split = false;
    act.pattern = b.pattern;
    act.depth = b.depth;
    act.tuples = combined;
    merge_cands.push_back(act);
  }

  // Hottest splits first, then coldest merges, capped per tick.
  std::sort(split_cands.begin(), split_cands.end(),
            [](const RebalanceAction& a, const RebalanceAction& b) {
              return a.tuples != b.tuples ? a.tuples > b.tuples
                                          : a.pattern < b.pattern;
            });
  std::sort(merge_cands.begin(), merge_cands.end(),
            [](const RebalanceAction& a, const RebalanceAction& b) {
              return a.tuples != b.tuples ? a.tuples < b.tuples
                                          : a.pattern < b.pattern;
            });
  for (const auto& act : split_cands) {
    if (actions.size() >= kMaxActionsPerTick) break;
    actions.push_back(act);
  }
  for (const auto& act : merge_cands) {
    if (actions.size() >= kMaxActionsPerTick) break;
    actions.push_back(act);
  }

  // Reset the acted streaks and arm cooldowns on every pattern the flip
  // will produce, so the new layout gets `cooldown_ticks` of grace.
  for (const auto& act : actions) {
    Streak& s = state_[{act.pattern, act.depth}];
    s.hot = 0;
    s.cold = 0;
    s.cooldown = config_.cooldown_ticks;
    if (act.split) {
      ++split_decisions_;
      Metrics().splits->Add();
      state_[{act.pattern, act.depth + 1}].cooldown = config_.cooldown_ticks;
      state_[{act.pattern | (uint64_t{1} << act.depth), act.depth + 1}]
          .cooldown = config_.cooldown_ticks;
    } else {
      ++merge_decisions_;
      Metrics().merges->Add();
      state_[{act.pattern, act.depth - 1}].cooldown = config_.cooldown_ticks;
      state_[{act.pattern | (uint64_t{1} << (act.depth - 1)), act.depth}]
          .cooldown = config_.cooldown_ticks;
    }
  }

  // Drop fully quiescent entries so the state map tracks the live layout
  // instead of growing with its history.
  for (auto it = state_.begin(); it != state_.end();) {
    const Streak& s = it->second;
    if (s.hot == 0 && s.cold == 0 && s.cooldown == 0) {
      it = state_.erase(it);
    } else {
      ++it;
    }
  }
  return actions;
}

}  // namespace fpart::stream
