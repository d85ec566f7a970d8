// Sort-merge equi-join baseline.
//
// The paper's motivation (Schuh et al. [31]) is that partitioned radix
// hash joins beat sort-based joins on large unskewed inputs; this baseline
// lets the repository reproduce that comparison context. Sorting is done
// with per-thread chunk sorts followed by pairwise merges.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "datagen/relation.h"
#include "join/radix_join.h"

namespace fpart {
namespace internal {

/// Parallel sort of (key, payload-id) pairs: chunk sort + merge rounds.
/// Inputs under 4096 pairs sort serially (hand-off would dominate).
inline void ParallelSortPairs(std::vector<std::pair<uint64_t, uint64_t>>* v,
                              ShardRunner& runner) {
  const size_t n = v->size();
  if (runner.threads() == 1 || n < 4096) {
    std::sort(v->begin(), v->end());
    return;
  }
  std::vector<size_t> bounds(runner.threads() + 1, n);
  runner.Split(n, [&](size_t t, size_t begin, size_t end) {
    bounds[t] = begin;
    std::sort(v->begin() + begin, v->begin() + end);
  });
  // Pairwise merge rounds until a single sorted run remains.
  while (bounds.size() > 2) {
    std::vector<size_t> next;
    next.push_back(0);
    size_t pairs = (bounds.size() - 1) / 2;
    runner.Run(pairs, [&](size_t i) {
      std::inplace_merge(v->begin() + bounds[2 * i],
                         v->begin() + bounds[2 * i + 1],
                         v->begin() + bounds[2 * i + 2]);
    });
    for (size_t i = 2; i < bounds.size(); i += 2) next.push_back(bounds[i]);
    if ((bounds.size() - 1) % 2 == 1) next.push_back(bounds.back());
    bounds = std::move(next);
  }
}

}  // namespace internal

/// Execute R ⋈ S by sorting both relations on the key and merging.
/// `shared_pool` runs the sorts; when null and num_threads > 1 the call
/// builds one pool for itself.
template <typename T>
Result<JoinResult> SortMergeJoin(size_t num_threads, const Relation<T>& r,
                                 const Relation<T>& s,
                                 ThreadPool* shared_pool = nullptr) {
  ShardRunner runner(shared_pool, num_threads);

  std::vector<std::pair<uint64_t, uint64_t>> rs(r.size()), ss(s.size());
  for (size_t i = 0; i < r.size(); ++i) {
    rs[i] = {static_cast<uint64_t>(r[i].key), GetPayloadId(r[i])};
  }
  for (size_t i = 0; i < s.size(); ++i) {
    ss[i] = {static_cast<uint64_t>(s[i].key), GetPayloadId(s[i])};
  }

  Timer sort_timer;
  internal::ParallelSortPairs(&rs, runner);
  internal::ParallelSortPairs(&ss, runner);
  double sort_seconds = sort_timer.Seconds();

  // Merge: for each equal-key run, matches += |run_R| × |run_S|.
  Timer merge_timer;
  uint64_t matches = 0, checksum = 0;
  size_t i = 0, j = 0;
  while (i < rs.size() && j < ss.size()) {
    if (rs[i].first < ss[j].first) {
      ++i;
    } else if (rs[i].first > ss[j].first) {
      ++j;
    } else {
      const uint64_t key = rs[i].first;
      size_t ri = i, sj = j;
      uint64_t r_run_sum = 0;
      while (ri < rs.size() && rs[ri].first == key) {
        r_run_sum += rs[ri].second;
        ++ri;
      }
      while (sj < ss.size() && ss[sj].first == key) ++sj;
      matches += static_cast<uint64_t>(ri - i) * (sj - j);
      checksum += r_run_sum * (sj - j);
      i = ri;
      j = sj;
    }
  }

  JoinResult result;
  result.matches = matches;
  result.checksum = checksum;
  // The sort plays the role of the partitioning pass.
  result.partition_seconds = sort_seconds;
  result.build_probe_seconds = merge_timer.Seconds();
  result.total_seconds = sort_seconds + result.build_probe_seconds;
  result.mtuples_per_sec =
      result.total_seconds > 0
          ? (r.size() + s.size()) / result.total_seconds / 1e6
          : 0.0;
  return result;
}

}  // namespace fpart
