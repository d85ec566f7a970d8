// Non-partitioned (global hash table) join baseline.
//
// Schuh et al. [31] — the study motivating this paper — compare partitioned
// radix joins against non-partitioned hash joins; we include the latter so
// the repository can reproduce that comparison context (Section 7).
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "datagen/relation.h"
#include "hash/murmur.h"
#include "join/radix_join.h"

namespace fpart {

/// Execute R ⋈ S with one shared chained hash table: parallel lock-free
/// build (CAS on bucket heads), parallel probe. No partitioning pass, but
/// every probe is a cache/TLB miss on large relations. `shared_pool` runs
/// both phases; when null and num_threads > 1 the call builds one pool for
/// itself.
template <typename T>
Result<JoinResult> NoPartitionJoin(size_t num_threads, const Relation<T>& r,
                                   const Relation<T>& s,
                                   ThreadPool* shared_pool = nullptr) {
  ShardRunner runner(shared_pool, num_threads);
  num_threads = runner.threads();
  size_t num_buckets = 16;
  while (num_buckets < r.size()) num_buckets <<= 1;
  const uint32_t mask = static_cast<uint32_t>(num_buckets - 1);

  std::vector<std::atomic<int64_t>> buckets(num_buckets);
  for (auto& b : buckets) b.store(-1, std::memory_order_relaxed);
  std::vector<int64_t> next(r.size());

  auto bucket_of = [mask](uint64_t key) -> uint32_t {
    if constexpr (sizeof(decltype(T{}.key)) == 4) {
      return Murmur32(static_cast<uint32_t>(key)) & mask;
    } else {
      return static_cast<uint32_t>(Murmur64(key)) & mask;
    }
  };

  const T* r_data = r.data();
  const T* s_data = s.data();

  Timer build_timer;
  runner.Split(r.size(), [&](size_t, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      uint32_t b = bucket_of(r_data[i].key);
      int64_t head = buckets[b].load(std::memory_order_relaxed);
      do {
        next[i] = head;
      } while (!buckets[b].compare_exchange_weak(
          head, static_cast<int64_t>(i), std::memory_order_release,
          std::memory_order_relaxed));
    }
  });
  double build_seconds = build_timer.Seconds();

  Timer probe_timer;
  std::vector<uint64_t> matches(num_threads, 0), sums(num_threads, 0);
  runner.Split(s.size(), [&](size_t t, size_t begin, size_t end) {
    uint64_t m = 0, sum = 0;
    for (size_t j = begin; j < end; ++j) {
      // The global table guarantees a miss per probe; keep a window of
      // bucket-head loads in flight (same lookahead as the radix probe).
      if (j + kDefaultProbePrefetchDistance < end) {
        PrefetchForRead(
            &buckets[bucket_of(s_data[j + kDefaultProbePrefetchDistance].key)]);
      }
      uint64_t key = s_data[j].key;
      for (int64_t i = buckets[bucket_of(key)].load(std::memory_order_acquire);
           i >= 0; i = next[i]) {
        if (r_data[i].key == static_cast<decltype(T{}.key)>(key)) {
          ++m;
          sum += GetPayloadId(r_data[i]);
        }
      }
    }
    matches[t] = m;
    sums[t] = sum;
  });

  JoinResult result;
  result.partition_seconds = 0.0;
  result.build_probe_seconds = build_seconds + probe_timer.Seconds();
  result.total_seconds = result.build_probe_seconds;
  for (size_t t = 0; t < num_threads; ++t) {
    result.matches += matches[t];
    result.checksum += sums[t];
  }
  result.mtuples_per_sec =
      result.total_seconds > 0
          ? (r.size() + s.size()) / result.total_seconds / 1e6
          : 0.0;
  return result;
}

}  // namespace fpart
