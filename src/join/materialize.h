// Materializing join execution: produce the actual joined rows instead of
// only counting matches. Covers the materialization cost the paper
// discusses for VRID mode (Section 5.2): after partitioning a column store
// by key, payloads are gathered through the virtual record ids.
#pragma once

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "datagen/partitioned_output.h"
#include "join/build_probe.h"
#include "join/hash_table.h"

namespace fpart {

/// \brief One materialized join result row.
struct JoinedRow {
  uint32_t key = 0;
  /// Payload (or VRID) of the matching R tuple.
  uint64_t r_payload = 0;
  /// Payload (or VRID) of the probing S tuple.
  uint64_t s_payload = 0;

  bool operator==(const JoinedRow&) const = default;
};

/// \brief Result of a materializing join.
struct MaterializedJoin {
  /// All joined rows, grouped by partition (concatenated in partition
  /// order; rows within a partition follow probe order).
  std::vector<JoinedRow> rows;
  double build_probe_seconds = 0.0;
  /// Extra time spent gathering real payloads through VRIDs (0 when the
  /// inputs were materialized RID tuples already).
  double gather_seconds = 0.0;
};

/// Build+probe over matching partition pairs, emitting joined rows.
/// Thread-parallel across partitions; each thread fills a private buffer
/// and the buffers are concatenated in partition order afterwards.
template <typename RPart, typename SPart, typename T>
MaterializedJoin MaterializeJoin(const RPart& r, const SPart& s,
                                 size_t num_threads, const T* /*tag*/) {
  ShardRunner runner(nullptr, num_threads);
  std::vector<std::vector<JoinedRow>> per_thread(runner.threads());

  Timer timer;
  runner.Split(r.num_partitions(), [&](size_t t, size_t begin, size_t end) {
    BucketChainTable<T> table;
    std::vector<JoinedRow>& out = per_thread[t];
    for (size_t p = begin; p < end; ++p) {
      const T* r_data = r.partition_data(p);
      const T* s_data = s.partition_data(p);
      size_t r_slots = r.partition_slots(p);
      size_t s_slots = s.partition_slots(p);
      if (r_slots == 0 || s_slots == 0) continue;
      BuildPartitionTable(&table, r_data, r_slots);
      for (size_t j = 0; j < s_slots; ++j) {
        if (j + kDefaultProbePrefetchDistance < s_slots &&
            !IsDummy(s_data[j + kDefaultProbePrefetchDistance])) {
          table.PrefetchBucket(s_data[j + kDefaultProbePrefetchDistance].key);
        }
        if (IsDummy(s_data[j])) continue;
        table.Probe(r_data, s_data[j].key, [&](uint32_t i) {
          out.push_back(JoinedRow{static_cast<uint32_t>(s_data[j].key),
                                  GetPayloadId(r_data[i]),
                                  GetPayloadId(s_data[j])});
        });
      }
    }
  });

  MaterializedJoin result;
  size_t total = 0;
  for (const auto& rows : per_thread) total += rows.size();
  result.rows.reserve(total);
  for (auto& rows : per_thread) {
    result.rows.insert(result.rows.end(), rows.begin(), rows.end());
  }
  result.build_probe_seconds = timer.Seconds();
  return result;
}

/// VRID late materialization (Section 5.2): replace the virtual record ids
/// in `rows` with the real payloads gathered from the original columns.
/// This is the "additional materialization cost" of VRID mode.
template <typename PayloadT>
void GatherPayloads(const PayloadT* r_payloads, const PayloadT* s_payloads,
                    MaterializedJoin* join) {
  Timer timer;
  for (JoinedRow& row : join->rows) {
    row.r_payload = static_cast<uint64_t>(r_payloads[row.r_payload]);
    row.s_payload = static_cast<uint64_t>(s_payloads[row.s_payload]);
  }
  join->gather_seconds = timer.Seconds();
}

}  // namespace fpart
