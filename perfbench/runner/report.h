// Shared pieces of the benchmark runner: the fixed metric catalogue, the
// in-memory span recorder of the traced run, and small statistics helpers.
//
// Every run prints the same metric names whatever the workload (the
// catalogue below, mirrored in BENCHMARK.json): a metric a workload does
// not exercise reads 0 in the per-layer set, and the end-to-end set is
// defined so that every workload has each metric.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Command-line options shared by the workloads.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the timed window; rounds keep starting until it has passed.
  double seconds = 10.0;
  /// 1 = traced run (per-layer metrics), 0 = end-to-end metrics.
  bool trace = false;
  /// Traced run only: where the recorded spans are written (empty = not
  /// written).
  std::string trace_out;
};

double NowSeconds();
/// Nearest-rank percentile, q in [0, 1]; 0 for an empty sample.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);
/// Peak resident set of this process (getrusage), MiB.
double PeakRssMb();

/// \brief Times the workload's set-up kSetups times in a run: once before
/// anything else, the rest spread evenly over the timed window, between
/// rounds. setup_s is their median; spreading them keeps it from resting on
/// one moment of host noise, as back-to-back repetitions would.
class SetupTimer {
 public:
  static constexpr size_t kSetups = 5;

  explicit SetupTimer(double window_seconds) : window_(window_seconds) {}

  /// Runs `setup` and records how long it took.
  template <typename Fn>
  void Time(Fn&& setup) {
    const double t0 = NowSeconds();
    setup();
    seconds_.push_back(NowSeconds() - t0);
  }
  /// Whether the next repetition is due `elapsed` seconds into the window.
  bool Due(double elapsed) const {
    return !Done() && elapsed >= static_cast<double>(seconds_.size()) *
                                     window_ / kSetups;
  }
  bool Done() const { return seconds_.size() >= kSetups; }
  double MedianSeconds() const { return Median(seconds_); }

 private:
  double window_;
  std::vector<double> seconds_;
};

/// FNV-1a fold of one 64-bit word (the determinism hash of a round).
inline uint64_t Fnv1a(uint64_t h, uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (b * 8)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}
inline constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

/// \brief One run's metrics: every name of the end-to-end or per-layer
/// catalogue, zero until set.
class MetricSet {
 public:
  explicit MetricSet(bool per_layer);
  /// Aborts on a name outside the catalogue (a runner bug).
  void Set(const std::string& name, double value);
  /// `"metrics": {...}` body of the result line.
  std::string ToJson() const;

 private:
  struct Entry {
    std::string name;
    std::string unit;
    double value = 0.0;
  };
  std::vector<Entry> entries_;
};

/// \brief Window statistics that shrug off host noise. Rounds of one
/// stream do identical work, and noise from other tenants of the host
/// (CPU steal, contention for shared cores and memory bandwidth) only ever
/// slows a round down, in episodes lasting seconds. So the figures come
/// from each stream's quiet rounds: the fastest tenth, those at or below
/// the stream's 10th-percentile round time. A window holds dozens of
/// rounds per stream, so the quiet rounds are several rounds, averaged,
/// not one extreme sample.
class WindowStats {
 public:
  explicit WindowStats(size_t streams) : rounds_(streams) {}

  void AddRound(size_t stream, double seconds, uint64_t ops, uint64_t tuples,
                const std::vector<double>& latency_us);

  /// One round of every stream's operations (or tuples) over
  /// CycleSeconds().
  double OpsPerSecond() const;
  double TuplesPerSecond() const;
  /// Latency percentile over every sample of the quiet rounds.
  double LatencyUs(double q) const;
  /// Sum over streams of the mean quiet-round time.
  double CycleSeconds() const;

  static constexpr double kQuiet = 0.1;

 private:
  struct Round {
    double seconds;
    uint64_t ops;
    uint64_t tuples;
    // Single precision: the samples are microseconds, and the buffer is
    // the one part of the runner's memory that grows with throughput.
    std::vector<float> latency_us;
  };
  std::vector<const Round*> Quiet(size_t stream) const;

  std::vector<std::vector<Round>> rounds_;  // per stream
};

/// The modules a span is charged to. kHarness is the benchmark's own time
/// (loop bookkeeping, input preparation), so the shares sum to the wall.
enum Layer { kHarness, kSvc, kCpu, kFpga, kJoin, kStream, kNumLayers };
const char* LayerName(Layer layer);

/// \brief Single-threaded span recorder (the runner's client thread).
/// Spans nest strictly; a span's self time is its duration minus the time
/// its direct children cover. Every span counts toward the per-layer
/// totals; the first kKeptSpans to finish are kept for WriteJson, which
/// bounds the recorder's memory and the trace file.
class SpanRecorder {
 public:
  static constexpr size_t kKeptSpans = 50000;

  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  /// `op` marks the span as one unit of the layer's work (its count);
  /// `id` groups the spans of one job or op. Returns the span's number.
  int64_t Begin(const char* name, Layer layer, uint64_t id, bool op = true);
  /// Ends the innermost open span, which must be `number`.
  void End(int64_t number);

  struct LayerTotals {
    uint64_t count = 0;
    double busy_seconds = 0.0;
  };
  const std::array<LayerTotals, kNumLayers>& totals() const {
    return totals_;
  }
  /// Chrome trace-event JSON of the kept spans; false on an I/O error.
  bool WriteJson(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    Layer layer;
    bool op;
    uint64_t id;
    int64_t number;
    int64_t parent;  // -1 for a root span
    double start;
    double end;
    double child_seconds;  // time covered by direct children
  };
  bool enabled_;
  int64_t next_number_ = 0;
  std::vector<Span> open_;  // innermost last
  std::vector<Span> kept_;
  std::array<LayerTotals, kNumLayers> totals_{};
};

/// RAII span; a no-op when the recorder is disabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name, Layer layer, uint64_t id,
             bool op = true)
      : rec_(rec), number_(rec->enabled() ? rec->Begin(name, layer, id, op)
                                          : -1) {}
  ~ScopedSpan() {
    if (number_ >= 0) rec_->End(number_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  int64_t number_;
};

struct RunResult;

/// Finishes a traced run: the per-layer count/busy/wait/share metrics, the
/// share-sum check, trace_overhead_pct and the span file. `wall` is the
/// traced wall time as the workload's own round timer measured it (not
/// derived from the spans), so a lost or double-counted span shows as a
/// share sum away from 1. `wait` holds each layer's measured wait seconds;
/// `traced` holds the traced rounds' times less any extra work they did.
void FinishTrace(const Options& opt, const SpanRecorder& rec, double wall,
                 const std::array<double, kNumLayers>& wait,
                 const WindowStats& untraced, const WindowStats& traced,
                 RunResult* result);

/// \brief What a workload hands back to main().
struct RunResult {
  MetricSet metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Output checks and audits passed.
  bool correct = true;
  /// Replay identity of one round (identical in every round of a seed).
  uint64_t det_hash = 0;
  /// Exact per-round counts, for the determinism tests.
  std::vector<std::pair<std::string, uint64_t>> exact;
  uint64_t rounds = 0;
  std::vector<std::string> errors;

  explicit RunResult(bool per_layer) : metrics(per_layer) {}
  void Fail(std::string message);
};

RunResult RunSvcWorkload(const Options& opt, bool cold);
RunResult RunStreamWorkload(const Options& opt);

}  // namespace perfbench
