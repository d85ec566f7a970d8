// Hardware-conscious partitioned GROUP BY aggregation.
//
// Section 6 of the paper points out that the FPGA partitioner applies
// beyond joins, citing the FPGA-accelerated group-by of Absalyamov et
// al. [1]: partition the input on the group key so each partition's group
// set fits in cache, then aggregate each partition independently. This
// module implements that operator on both engines (CPU partitioner or the
// simulated FPGA circuit) plus a single-pass hash-aggregation baseline.
#pragma once

#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/timer.h"
#include "core/engine.h"
#include "datagen/relation.h"
#include "hash/murmur.h"
#include "qpi/coherence.h"

namespace fpart {

/// \brief Aggregates of one group (key = the tuple key; value = payload).
struct GroupResult {
  uint32_t key = 0;
  uint64_t count = 0;
  uint64_t sum = 0;
  uint32_t min = std::numeric_limits<uint32_t>::max();
  uint32_t max = 0;

  bool operator==(const GroupResult&) const = default;
};

/// \brief Configuration of the partitioned group-by.
struct GroupByConfig {
  /// Partitioning engine: CPU baseline or the simulated FPGA circuit.
  Engine engine = Engine::kFpgaSim;
  uint32_t fanout = 1024;
  HashMethod hash = HashMethod::kMurmur;
  OutputMode output_mode = OutputMode::kHist;
  /// PAD-mode padding. Group keys cluster tuples, so partitioned
  /// aggregation needs more slack than a join input would.
  double pad_fraction = 1.0;
  size_t num_threads = 1;
  /// Apply the Table 1 snoop penalty to the aggregation phase after FPGA
  /// partitioning (sequential scan of FPGA-written partitions).
  bool coherence_penalty = true;
};

/// \brief Result of a group-by execution.
struct GroupByOutput {
  /// One entry per distinct key, sorted by key.
  std::vector<GroupResult> groups;
  /// Partitioning time (measured on CPU, simulated on FPGA).
  double partition_seconds = 0.0;
  /// Aggregation time (measured; penalty-scaled after FPGA partitioning).
  double aggregate_seconds = 0.0;
  double total_seconds = 0.0;
};

namespace internal {

/// Aggregate one partition with a small open-addressing table; appends the
/// partition's groups to `out` (unsorted).
template <typename T>
void AggregatePartition(const T* data, size_t slots,
                        std::vector<GroupResult>* out) {
  if (slots == 0) return;
  size_t cap = 16;
  while (cap < slots * 2) cap <<= 1;
  std::vector<int32_t> table(cap, -1);
  std::vector<GroupResult> groups;
  groups.reserve(slots / 4 + 4);
  const uint32_t mask = static_cast<uint32_t>(cap - 1);
  for (size_t i = 0; i < slots; ++i) {
    if (IsDummy(data[i])) continue;
    const uint32_t key = static_cast<uint32_t>(data[i].key);
    const uint32_t value = static_cast<uint32_t>(GetPayloadId(data[i]));
    uint32_t slot = Murmur32(key) & mask;
    for (;;) {
      int32_t g = table[slot];
      if (g < 0) {
        table[slot] = static_cast<int32_t>(groups.size());
        groups.push_back(GroupResult{key, 1, value, value, value});
        break;
      }
      if (groups[g].key == key) {
        ++groups[g].count;
        groups[g].sum += value;
        if (value < groups[g].min) groups[g].min = value;
        if (value > groups[g].max) groups[g].max = value;
        break;
      }
      slot = (slot + 1) & mask;
    }
  }
  out->insert(out->end(), groups.begin(), groups.end());
}

}  // namespace internal

/// Partitioned group-by over a row-store relation: keys are group keys,
/// payloads are the aggregated values.
Result<GroupByOutput> PartitionedGroupBy(const GroupByConfig& config,
                                         const Relation<Tuple8>& relation);

/// Single-pass hash aggregation baseline (no partitioning): one big table,
/// cache-unfriendly for large group counts.
Result<GroupByOutput> HashGroupBy(const Relation<Tuple8>& relation);

}  // namespace fpart
