#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Mirrored in BENCHMARK.json (end_to_end). The workload README explains
// what each name measures on each workload.
constexpr MetricDef kEndToEnd[] = {
    {"ops_per_s", "1/s"},      {"tuples_per_s", "1/s"},
    {"latency_p50_us", "us"},  {"latency_p99_us", "us"},
    {"setup_s", "s"},          {"peak_rss_mb", "MiB"},
};

// Mirrored in BENCHMARK.json (per_layer).
constexpr MetricDef kPerLayer[] = {
    {"svc.submit_us.p50", "us"},
    {"svc.overhead_us.p50", "us"},
    {"svc.queue_us.p50", "us"},
    {"svc.placed_cpu", "count"},
    {"svc.placed_fpga", "count"},
    {"svc.placed_hybrid", "count"},
    {"svc.virt_jobs_per_s", "1/s"},
    {"svc.virt_p99_ms", "ms"},
    {"fpga.hit.count", "count"},
    {"fpga.hit_us.p50", "us"},
    {"fpga.hit_us.sum", "us"},
    {"fpga.miss.count", "count"},
    {"fpga.miss_us.p50", "us"},
    {"fpga.sim_ns_per_tuple", "ns"},
    {"fpga.hit_ratio", "ratio"},
    {"fpga.cycles", "count"},
    {"fpga.model_gap_pct", "%"},
    {"cpu.small_us.p50", "us"},
    {"cpu.mtuples_per_s", "Mtuple/s"},
    {"join.us.p50", "us"},
    {"stream.append_us.p50", "us"},
    {"stream.ingest_us.p99", "us"},
    {"stream.drain_us.p50", "us"},
    {"stream.drain_us.p99", "us"},
    {"stream.drain_kernel_us.p50", "us"},
    {"stream.read_us.p50", "us"},
    {"stream.read_us.p99", "us"},
    {"stream.scan_per_read", "tuples"},
    {"stream.splits", "count"},
    {"stream.merges", "count"},
    {"stream.rebalance_jobs", "count"},
    {"harness.count", "count"},
    {"harness.busy_s", "s"},
    {"harness.wait_s", "s"},
    {"harness.share", "ratio"},
    {"svc.count", "count"},
    {"svc.busy_s", "s"},
    {"svc.wait_s", "s"},
    {"svc.share", "ratio"},
    {"cpu.count", "count"},
    {"cpu.busy_s", "s"},
    {"cpu.wait_s", "s"},
    {"cpu.share", "ratio"},
    {"fpga.count", "count"},
    {"fpga.busy_s", "s"},
    {"fpga.wait_s", "s"},
    {"fpga.share", "ratio"},
    {"join.count", "count"},
    {"join.busy_s", "s"},
    {"join.wait_s", "s"},
    {"join.share", "ratio"},
    {"stream.count", "count"},
    {"stream.busy_s", "s"},
    {"stream.wait_s", "s"},
    {"stream.share", "ratio"},
    {"trace.share_sum", "ratio"},
    {"trace_overhead_pct", "%"},
};

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

double PeakRssMb() {
  struct rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

MetricSet::MetricSet(bool per_layer) {
  if (per_layer) {
    for (const MetricDef& d : kPerLayer) entries_.push_back({d.name, d.unit});
  } else {
    for (const MetricDef& d : kEndToEnd) entries_.push_back({d.name, d.unit});
  }
}

void MetricSet::Set(const std::string& name, double value) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      return;
    }
  }
  std::fprintf(stderr, "perfbench: metric %s is not in the catalogue\n",
               name.c_str());
  std::abort();
}

std::string MetricSet::ToJson() const {
  std::string out = "{";
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + entries_[i].name + "\": {\"value\": " +
           JsonNumber(entries_[i].value) + ", \"unit\": \"" +
           entries_[i].unit + "\"}";
  }
  return out + "}";
}

void WindowStats::AddRound(size_t stream, double seconds, uint64_t ops,
                           uint64_t tuples,
                           const std::vector<double>& latency_us) {
  rounds_[stream].push_back(Round{
      seconds, ops, tuples,
      std::vector<float>(latency_us.begin(), latency_us.end())});
}

std::vector<const WindowStats::Round*> WindowStats::Quiet(
    size_t stream) const {
  std::vector<double> times;
  for (const Round& r : rounds_[stream]) times.push_back(r.seconds);
  const double threshold = Percentile(times, kQuiet);
  std::vector<const Round*> quiet;
  for (const Round& r : rounds_[stream]) {
    if (r.seconds <= threshold) quiet.push_back(&r);
  }
  return quiet;
}

double WindowStats::CycleSeconds() const {
  double total = 0.0;
  for (size_t s = 0; s < rounds_.size(); ++s) {
    const auto quiet = Quiet(s);
    if (quiet.empty()) continue;
    double sum = 0.0;
    for (const Round* r : quiet) sum += r->seconds;
    total += sum / static_cast<double>(quiet.size());
  }
  return total;
}

double WindowStats::OpsPerSecond() const {
  double ops = 0.0;
  for (const auto& stream : rounds_) {
    if (!stream.empty()) ops += static_cast<double>(stream.back().ops);
  }
  const double seconds = CycleSeconds();
  return seconds > 0 ? ops / seconds : 0.0;
}

double WindowStats::TuplesPerSecond() const {
  double tuples = 0.0;
  for (const auto& stream : rounds_) {
    if (!stream.empty()) tuples += static_cast<double>(stream.back().tuples);
  }
  const double seconds = CycleSeconds();
  return seconds > 0 ? tuples / seconds : 0.0;
}

double WindowStats::LatencyUs(double q) const {
  std::vector<double> samples;
  for (size_t s = 0; s < rounds_.size(); ++s) {
    for (const Round* r : Quiet(s)) {
      samples.insert(samples.end(), r->latency_us.begin(),
                     r->latency_us.end());
    }
  }
  return Percentile(std::move(samples), q);
}

const char* LayerName(Layer layer) {
  switch (layer) {
    case kHarness:
      return "harness";
    case kSvc:
      return "svc";
    case kCpu:
      return "cpu";
    case kFpga:
      return "fpga";
    case kJoin:
      return "join";
    case kStream:
      return "stream";
    case kNumLayers:
      break;
  }
  return "unknown";
}

int64_t SpanRecorder::Begin(const char* name, Layer layer, uint64_t id,
                            bool op) {
  const int64_t parent = open_.empty() ? -1 : open_.back().number;
  open_.push_back(
      Span{name, layer, op, id, next_number_, parent, NowSeconds(), 0.0, 0.0});
  return next_number_++;
}

void SpanRecorder::End(int64_t number) {
  if (open_.empty() || open_.back().number != number) {
    std::fprintf(stderr, "perfbench: span %lld ended out of order\n",
                 static_cast<long long>(number));
    std::abort();
  }
  Span span = open_.back();
  open_.pop_back();
  span.end = NowSeconds();
  const double duration = span.end - span.start;
  LayerTotals& t = totals_[span.layer];
  if (span.op) ++t.count;
  t.busy_seconds += duration - span.child_seconds;
  if (!open_.empty()) open_.back().child_seconds += duration;
  if (kept_.size() < kKeptSpans) kept_.push_back(span);
}

bool SpanRecorder::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  double t0 = 0.0;
  for (size_t i = 0; i < kept_.size(); ++i) {
    if (i == 0 || kept_[i].start < t0) t0 = kept_[i].start;
  }
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (size_t i = 0; i < kept_.size(); ++i) {
    const Span& s = kept_[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1, "
                 "\"args\": {\"id\": %llu, \"span\": %lld, "
                 "\"parent\": %lld}}",
                 i == 0 ? "" : ",\n", s.name, LayerName(s.layer),
                 (s.start - t0) * 1e6, (s.end - s.start) * 1e6,
                 static_cast<unsigned long long>(s.id),
                 static_cast<long long>(s.number),
                 static_cast<long long>(s.parent));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

void FinishTrace(const Options& opt, const SpanRecorder& rec, double wall,
                 const std::array<double, kNumLayers>& wait,
                 const WindowStats& untraced, const WindowStats& traced,
                 RunResult* result) {
  MetricSet& m = result->metrics;
  const auto& totals = rec.totals();
  double share_sum = 0.0;
  for (int l = 0; l < kNumLayers; ++l) {
    const std::string name = LayerName(static_cast<Layer>(l));
    const double share = wall > 0.0 ? totals[l].busy_seconds / wall : 0.0;
    share_sum += share;
    m.Set(name + ".count", static_cast<double>(totals[l].count));
    m.Set(name + ".busy_s", totals[l].busy_seconds);
    m.Set(name + ".wait_s", wait[l]);
    m.Set(name + ".share", share);
  }
  m.Set("trace.share_sum", share_sum);
  if (std::abs(share_sum - 1.0) > 0.05) {
    result->Fail("per-layer shares sum to " + std::to_string(share_sum) +
                 " of the traced wall time");
  }
  const double base = untraced.CycleSeconds();
  m.Set("trace_overhead_pct",
        base > 0 ? (traced.CycleSeconds() - base) / base * 100 : 0.0);
  if (!opt.trace_out.empty() && !rec.WriteJson(opt.trace_out)) {
    result->Fail("could not write " + opt.trace_out);
  }
}

void RunResult::Fail(std::string message) {
  correct = false;
  if (errors.size() < 20) errors.push_back(std::move(message));
}

}  // namespace perfbench
