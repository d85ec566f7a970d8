// stream_mixed: a StreamStore with a RepartitionManager in deterministic
// mode, CPU drains, driven through StreamStore::Ingest and Read.
//
// One client thread alternates strictly between a 256-tuple ingest batch
// and a point read. Keys follow a Zipf distribution whose exponent drifts
// from 0.5 to 1.2 between 40% and 60% of the round, so hot buckets appear
// and the manager splits them through svc rebalance jobs. A round is one
// fresh store, scheduler and manager replaying a fixed op stream; a cycle
// is kStreams rounds over different op streams of the seed, and a run
// measures whole cycles. The reads, drains, flips and the determinism hash
// repeat exactly in every cycle of a seed.
//
// Read's visibility rule: a read counts the tuples of the drained
// buckets; staged (undrained) tuples are invisible. Drains happen exactly
// when the buffer fills, so the set-up computes every read's expected
// match count from the op stream alone.
//
// The traced run alternates untraced cycles with traced ones; a traced
// round records spans around Ingest, OnDrain and Read, and re-runs each
// drained batch through RunPartition(kCpu) at the drain's fanout to show
// how much of a drain is the partitioning kernel.
#include <algorithm>
#include <string>
#include <vector>

#include "core/engine.h"
#include "datagen/relation.h"
#include "datagen/zipf.h"
#include "report.h"
#include "stream/repartition.h"
#include "svc/scheduler.h"

namespace perfbench {
namespace {

using fpart::Relation;
using fpart::Tuple8;

constexpr uint64_t kKeys = 65536;
constexpr size_t kBatch = 256;
constexpr size_t kBuffer = 2048;       // drain every kBuffer / kBatch ingests
constexpr double kTheta0 = 0.5;
constexpr double kTheta1 = 1.2;
constexpr double kShiftStart = 0.4;    // fraction of the round's ops
constexpr double kShiftEnd = 0.6;
constexpr double kOpsPerVirtualSecond = 20000.0;
constexpr uint64_t kRoundOps = 4000;
constexpr size_t kStreams = 8;  // op streams (rounds) per cycle

// The op stream of one round plus everything the checks need.
struct Inputs {
  std::vector<Tuple8> ingest;            // flat, kBatch per ingest op
  std::vector<uint32_t> read_keys;       // per read op
  std::vector<uint64_t> expected_matches;  // per read op
  uint64_t fingerprint = 0;              // sum of KeyFingerprint
  uint64_t ops = 0;
};

bool IsIngest(uint64_t op) { return op % 2 == 0; }

Inputs Setup(uint64_t seed, uint64_t ops) {
  Inputs in;
  in.ops = ops;
  fpart::ZipfDriftSchedule sched;
  sched.theta0 = kTheta0;
  sched.theta1 = kTheta1;
  sched.shift_start = static_cast<uint64_t>(kShiftStart * ops);
  sched.shift_end = static_cast<uint64_t>(kShiftEnd * ops);
  sched.seed = seed;
  // Writers and readers share the op index as the drift clock, so their
  // hot sets stay aligned.
  fpart::DriftingZipfSampler write_keys(kKeys, sched);
  sched.seed = seed ^ 0x726561642d6b6579ULL;
  fpart::DriftingZipfSampler read_keys(kKeys, sched);
  std::vector<uint64_t> visible(kKeys, 0);
  size_t drained = 0;  // tuples of `ingest` already visible
  uint32_t payload = 0;
  for (uint64_t i = 0; i < ops; ++i) {
    if (IsIngest(i)) {
      for (size_t t = 0; t < kBatch; ++t) {
        Tuple8 tup;
        tup.key = static_cast<uint32_t>(write_keys.NextAt(i));
        tup.payload = payload++;
        in.ingest.push_back(tup);
        in.fingerprint += fpart::stream::StreamStore::KeyFingerprint(tup.key);
      }
      const size_t now_visible = in.ingest.size() / kBuffer * kBuffer;
      for (; drained < now_visible; ++drained) {
        ++visible[in.ingest[drained].key];
      }
    } else {
      const uint32_t key = static_cast<uint32_t>(read_keys.NextAt(i));
      in.read_keys.push_back(key);
      in.expected_matches.push_back(visible[key]);
    }
  }
  return in;
}

// What one round observed; checked when the round's timer has stopped.
struct RoundRecord {
  std::vector<uint64_t> matches;  // per read op
  uint64_t scanned = 0;
  uint64_t failures = 0;  // refused ingests, flushes or kernel re-runs
  uint64_t drains = 0;
  uint64_t splits = 0;
  uint64_t merges = 0;
  uint64_t rebalance_jobs = 0;
  uint64_t resident = 0;
  bool checksum_ok = false;
  uint64_t hash = kFnvBasis;
};

// Wall-time samples of one round (microseconds).
struct RoundTimes {
  std::vector<double> read_us, append_us, drain_us, ingest_us, kernel_us;
  double seconds = 0.0;
};

fpart::svc::SchedulerConfig SchedulerConfig() {
  fpart::svc::SchedulerConfig cfg;
  cfg.num_workers = 2;
  cfg.deterministic = true;
  cfg.queue_capacity = 4096;
  cfg.affinity = fpart::AffinityPolicy::kNone;
  cfg.name = "stream";
  return cfg;
}

void RunRound(const Inputs& in, SpanRecorder* rec, uint64_t round,
              Relation<Tuple8>* kernel_input, RoundRecord* out,
              RoundTimes* times) {
  *out = RoundRecord{};
  const double t0 = NowSeconds();
  fpart::stream::StreamStoreConfig store_cfg;
  store_cfg.drain_engine = fpart::Engine::kCpu;
  store_cfg.buffer_tuples = kBuffer;
  fpart::stream::StreamStore store(store_cfg);
  fpart::svc::Scheduler scheduler(SchedulerConfig());
  double virtual_now = 0.0;
  fpart::stream::RepartitionConfig mgr_cfg;
  mgr_cfg.deterministic = true;
  mgr_cfg.detector.max_depth = store.config().max_depth;
  mgr_cfg.detector.min_depth = store.config().min_depth;
  mgr_cfg.virtual_now = [&virtual_now] { return virtual_now; };
  fpart::stream::RepartitionManager manager(&store, &scheduler, mgr_cfg);

  out->matches.reserve(in.read_keys.size());
  size_t next_read = 0;
  size_t next_tuple = 0;
  for (uint64_t i = 0; i < in.ops; ++i) {
    const uint64_t id = round * in.ops + i;
    virtual_now = static_cast<double>(i) / kOpsPerVirtualSecond;
    if (!IsIngest(i)) {
      const uint32_t key = in.read_keys[next_read++];
      const double r0 = NowSeconds();
      fpart::stream::ReadResult r;
      {
        ScopedSpan span(rec, "stream.read", kStream, id);
        r = store.Read(key);
      }
      times->read_us.push_back((NowSeconds() - r0) * 1e6);
      out->matches.push_back(r.matches);
      out->scanned += r.scanned;
      out->hash = Fnv1a(out->hash, i);
      out->hash = Fnv1a(out->hash, r.matches);
      out->hash = Fnv1a(out->hash, r.scanned);
      out->hash = Fnv1a(out->hash, r.epoch);
      continue;
    }
    const Tuple8* batch = in.ingest.data() + next_tuple;
    next_tuple += kBatch;
    // The drain runs inside Ingest at the directory's fanout; in
    // deterministic mode the directory only changes in OnDrain below.
    const uint32_t depth = rec->enabled() ? store.global_depth() : 0;
    const uint64_t drains0 = store.drains();
    const double i0 = NowSeconds();
    {
      ScopedSpan span(rec, "stream.ingest", kStream, id);
      if (!store.Ingest(batch, kBatch).ok()) ++out->failures;
    }
    const uint64_t drains1 = store.drains();
    if (drains1 > drains0) {
      ScopedSpan span(rec, "stream.repartition", kStream, id, /*op=*/false);
      for (uint64_t d = drains0; d < drains1; ++d) manager.OnDrain();
    }
    const double us = (NowSeconds() - i0) * 1e6;
    times->ingest_us.push_back(us);
    (drains1 > drains0 ? times->drain_us : times->append_us).push_back(us);
    out->hash = Fnv1a(out->hash, i);
    out->hash = Fnv1a(out->hash, drains1);
    out->hash = Fnv1a(out->hash, store.epoch());
    if (rec->enabled() && drains1 > drains0) {
      // The drained batch is the last kBuffer ingested tuples.
      std::copy(in.ingest.data() + next_tuple - kBuffer,
                in.ingest.data() + next_tuple, kernel_input->begin());
      fpart::PartitionRequest req;
      req.engine = fpart::Engine::kCpu;
      req.fanout = 1u << depth;
      req.hash = store.config().hash;
      req.output_mode = fpart::OutputMode::kHist;
      req.num_threads = 1;
      const double k0 = NowSeconds();
      {
        ScopedSpan span(rec, "cpu.drain_kernel", kCpu, id);
        if (!fpart::RunPartition<Tuple8>(req, *kernel_input).ok()) {
          ++out->failures;
        }
      }
      times->kernel_us.push_back((NowSeconds() - k0) * 1e6);
    }
  }
  {
    ScopedSpan span(rec, "stream.flush", kStream, round, /*op=*/false);
    if (!store.Flush().ok()) ++out->failures;
    manager.Quiesce();
  }
  {
    ScopedSpan span(rec, "svc.shutdown", kSvc, round, /*op=*/false);
    scheduler.Shutdown();
  }
  times->seconds = NowSeconds() - t0;

  // Audit, outside the round's time: zero keys lost or duplicated.
  out->drains = store.drains();
  out->resident = store.total_tuples();
  const uint64_t checksum = store.KeyChecksum();
  out->checksum_ok = checksum == in.fingerprint;
  for (const auto& flip : store.FlipLog()) {
    (flip.split ? out->splits : out->merges)++;
    out->hash = Fnv1a(out->hash, flip.epoch);
    out->hash = Fnv1a(out->hash, flip.split ? 1 : 0);
    out->hash = Fnv1a(out->hash, flip.pattern);
    out->hash = Fnv1a(out->hash, flip.depth);
    out->hash = Fnv1a(out->hash, flip.watermark);
  }
  out->rebalance_jobs = manager.jobs_submitted();
  out->hash = Fnv1a(out->hash, checksum);
  out->hash = Fnv1a(out->hash, out->resident);
}

void VerifyRound(const Inputs& in, const RoundRecord& r, RunResult* result) {
  result->attempted += in.ops;
  uint64_t bad = r.failures;
  for (size_t j = 0; j < in.expected_matches.size(); ++j) {
    if (j >= r.matches.size() || r.matches[j] != in.expected_matches[j]) ++bad;
  }
  if (bad > 0) {
    result->failed += bad;
    result->Fail(std::to_string(bad) + " ingests or reads failed or "
                 "returned a wrong match count");
  }
  if (!r.checksum_ok || r.resident != in.ingest.size()) {
    ++result->failed;
    result->Fail("key audit: " + std::to_string(r.resident) + " resident of " +
                 std::to_string(in.ingest.size()) + " ingested, checksum " +
                 (r.checksum_ok ? "ok" : "mismatch"));
  }
}

}  // namespace

RunResult RunStreamWorkload(const Options& opt) {
  RunResult result(opt.trace);

  // Set-up, repeated through the run (SetupTimer); each repetition
  // rebuilds identical op streams.
  std::vector<Inputs> streams;
  SetupTimer setup(opt.seconds);
  auto set_up = [&]() {
    streams.clear();
    setup.Time([&] {
      for (size_t k = 0; k < kStreams; ++k) {
        streams.push_back(Setup(opt.seed * kStreams + k, kRoundOps));
      }
    });
  };
  set_up();
  auto kernel_input = Relation<Tuple8>::Allocate(kBuffer);
  if (!kernel_input.ok()) {
    result.Fail("allocation failed: " + kernel_input.status().message());
    return result;
  }
  Relation<Tuple8> kernel_rel = std::move(kernel_input).ValueUnsafe();
  std::vector<uint64_t> stream_hash(kStreams, 0);
  // Checks of one finished round, outside its timed section. Done round by
  // round so the runner's memory stays flat: keeping every round's reads
  // would make peak_rss_mb grow with throughput.
  auto check = [&](size_t stream, const RoundRecord& rec) {
    VerifyRound(streams[stream], rec, &result);
    if (rec.hash != stream_hash[stream]) {
      result.Fail("a round's determinism hash differs from its stream's");
    }
    ++result.rounds;
  };

  // -- Warm-up cycle, untimed; its rounds define each stream's hash and
  // the exact counts --------------------------------------------------------
  SpanRecorder off(false);
  uint64_t splits = 0, merges = 0, jobs = 0, drains = 0, scanned = 0,
           reads = 0;
  result.det_hash = kFnvBasis;
  for (size_t k = 0; k < kStreams; ++k) {
    RoundRecord rec;
    RoundTimes t;
    RunRound(streams[k], &off, k, &kernel_rel, &rec, &t);
    stream_hash[k] = rec.hash;
    result.det_hash = Fnv1a(result.det_hash, rec.hash);
    splits += rec.splits;
    merges += rec.merges;
    jobs += rec.rebalance_jobs;
    drains += rec.drains;
    scanned += rec.scanned;
    reads += streams[k].read_keys.size();
    check(k, rec);
  }
  result.exact = {{"splits", splits},   {"merges", merges},
                  {"rebalance_jobs", jobs}, {"drains", drains},
                  {"scanned", scanned}};

  // -- Timed window: whole cycles; a traced run alternates untraced and
  // traced cycles ------------------------------------------------------------
  SpanRecorder tracer(opt.trace);
  RoundTimes traced;
  WindowStats untraced(kStreams), traced_phase(kStreams);
  double traced_wall_s = 0.0;
  const uint64_t min_cycles = opt.trace ? 2 : 1;
  uint64_t round = kStreams;  // round ids continue after the warm-up
  const double start = NowSeconds();
  for (uint64_t cycle = 0;
       cycle < min_cycles || NowSeconds() - start < opt.seconds; ++cycle) {
    if (setup.Due(NowSeconds() - start)) set_up();
    const bool trace_cycle = opt.trace && cycle % 2 == 1;
    for (size_t k = 0; k < kStreams; ++k, ++round) {
      RoundRecord rec;
      RoundTimes t;
      if (trace_cycle) {
        const double t0 = NowSeconds();
        const int64_t root = tracer.Begin("round", kHarness, round);
        RunRound(streams[k], &tracer, round, &kernel_rel, &rec, &t);
        tracer.End(root);
        traced_wall_s += NowSeconds() - t0;
        double kernel_s = 0.0;
        for (double us : t.kernel_us) kernel_s += us * 1e-6;
        traced_phase.AddRound(k, t.seconds - kernel_s, 0, 0, {});
        for (auto [dst, src] : {std::pair{&traced.read_us, &t.read_us},
                                {&traced.append_us, &t.append_us},
                                {&traced.drain_us, &t.drain_us},
                                {&traced.ingest_us, &t.ingest_us},
                                {&traced.kernel_us, &t.kernel_us}}) {
          dst->insert(dst->end(), src->begin(), src->end());
        }
      } else {
        RunRound(streams[k], &off, round, &kernel_rel, &rec, &t);
        untraced.AddRound(k, t.seconds, streams[k].ops,
                          streams[k].ingest.size(), t.read_us);
      }
      check(k, rec);
    }
  }
  while (!setup.Done()) set_up();

  MetricSet& m = result.metrics;
  if (!opt.trace) {
    m.Set("ops_per_s", untraced.OpsPerSecond());
    m.Set("tuples_per_s", untraced.TuplesPerSecond());
    m.Set("latency_p50_us", untraced.LatencyUs(0.50));
    m.Set("latency_p99_us", untraced.LatencyUs(0.99));
    m.Set("setup_s", setup.MedianSeconds());
    m.Set("peak_rss_mb", PeakRssMb());
    return result;
  }

  m.Set("stream.append_us.p50", Percentile(traced.append_us, 0.5));
  m.Set("stream.ingest_us.p99", Percentile(traced.ingest_us, 0.99));
  m.Set("stream.drain_us.p50", Percentile(traced.drain_us, 0.5));
  m.Set("stream.drain_us.p99", Percentile(traced.drain_us, 0.99));
  m.Set("stream.drain_kernel_us.p50", Percentile(traced.kernel_us, 0.5));
  double kernel_us = 0.0;
  for (double us : traced.kernel_us) kernel_us += us;
  m.Set("cpu.mtuples_per_s",
        kernel_us > 0 ? traced.kernel_us.size() * kBuffer / kernel_us : 0.0);
  m.Set("stream.read_us.p50", Percentile(traced.read_us, 0.5));
  m.Set("stream.read_us.p99", Percentile(traced.read_us, 0.99));
  m.Set("stream.scan_per_read",
        reads > 0 ? static_cast<double>(scanned) / reads : 0.0);
  m.Set("stream.splits", static_cast<double>(splits));
  m.Set("stream.merges", static_cast<double>(merges));
  m.Set("stream.rebalance_jobs", static_cast<double>(jobs));

  const std::array<double, kNumLayers> wait{};
  // Tracing overhead: traced rounds without their kernel re-runs (extra
  // work, not overhead) against untraced rounds of the same streams.
  FinishTrace(opt, tracer, traced_wall_s, wait, untraced, traced_phase,
              &result);
  return result;
}

}  // namespace perfbench
