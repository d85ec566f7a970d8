// Shared helpers for the table/figure reproduction binaries.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/env.h"
#include "obs/metrics.h"
#include "obs/perf_counters.h"

namespace fpart {
namespace bench {

/// Print the standard experiment banner with the active scale factor.
inline void Banner(const char* experiment, const char* paper_ref) {
  std::printf("=== %s — reproduces %s ===\n", experiment, paper_ref);
  std::printf("(FPART_SCALE=%.4g of paper size; FPART_THREADS up to %zu)\n\n",
              BenchScale(), BenchMaxThreads());
}

/// Relative deviation in percent (measured vs paper), for the
/// paper-vs-measured columns.
inline double DeltaPct(double measured, double paper) {
  return paper != 0 ? (measured - paper) / paper * 100.0 : 0.0;
}

/// One FNV-1a step over the eight little-endian bytes of `v`; the replay
/// benches fold their determinism hashes with it.
inline uint64_t Fnv1a(uint64_t h, uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (b * 8)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Match argv[*i] against `flag`, accepting both "--flag value" and
/// "--flag=value"; on a match store the value and advance *i past it.
inline bool ParseFlag(int argc, char** argv, int* i, const char* flag,
                      std::string* value) {
  const size_t len = std::strlen(flag);
  if (std::strncmp(argv[*i], flag, len) != 0) return false;
  if (argv[*i][len] == '=') {
    *value = argv[*i] + len + 1;
    return true;
  }
  if (argv[*i][len] == '\0' && *i + 1 < argc) {
    *value = argv[++*i];
    return true;
  }
  return false;
}

/// The eight job size classes (tuples) of the service replays, scaled by
/// FPART_SCALE. Zipf rank 1 maps to the smallest class: a service sees
/// many small requests and few huge ones.
inline std::vector<size_t> SizeClasses() {
  const double scale = BenchScale();
  std::vector<size_t> classes;
  for (size_t base = 4096; base <= 524288; base *= 2) {
    classes.push_back(
        std::max<size_t>(512, static_cast<size_t>(base * scale)));
  }
  return classes;
}

/// \brief Snapshot of the cumulative `hw.<phase>.*` registry counters that
/// HwPhaseScope accumulates, so a bench can attribute counter deltas to a
/// single run. When hardware counters are unsupported (no PMU, CI
/// container, FPART_HW_COUNTERS=0) FieldsSince returns an empty list and
/// the `hw.*` columns are simply absent from the report.
struct HwUsage {
  static constexpr const char* kPhases[] = {"histogram", "scatter"};
  static constexpr size_t kNumPhases = 2;
  uint64_t v[kNumPhases][obs::kNumHwEvents] = {};

  static HwUsage Now() {
    HwUsage u;
    if (!obs::HwCountersSupported()) return u;
    for (size_t p = 0; p < kNumPhases; ++p) {
      for (size_t e = 0; e < obs::kNumHwEvents; ++e) {
        u.v[p][e] = obs::HwPhaseCounter(kPhases[p], e)->Value();
      }
    }
    return u;
  }

  /// Accumulate the counter movement of one interval into this snapshot
  /// (for benches interleaving runs of different variants, so each
  /// variant only sums its own intervals).
  void AddDelta(const HwUsage& before, const HwUsage& after) {
    for (size_t p = 0; p < kNumPhases; ++p) {
      for (size_t e = 0; e < obs::kNumHwEvents; ++e) {
        v[p][e] += after.v[p][e] - before.v[p][e];
      }
    }
  }

  /// "hw.<phase>.<event>" delta fields accumulated since `before`.
  std::vector<std::pair<std::string, double>> FieldsSince(
      const HwUsage& before) const {
    std::vector<std::pair<std::string, double>> fields;
    if (!obs::HwCountersSupported()) return fields;
    for (size_t p = 0; p < kNumPhases; ++p) {
      for (size_t e = 0; e < obs::kNumHwEvents; ++e) {
        fields.emplace_back(
            std::string("hw.") + kPhases[p] + "." + obs::kHwEventNames[e],
            static_cast<double>(v[p][e] - before.v[p][e]));
      }
    }
    return fields;
  }
};

}  // namespace bench
}  // namespace fpart
