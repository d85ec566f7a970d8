// svc_hot / svc_cold: a deterministic-mode service replay driven through
// svc::Scheduler::Submit and JobHandle::Wait.
//
// One client thread keeps a closed-loop window of kWindow jobs in flight
// and retires them in submission order; job k arrives on the virtual
// clock when job k - kWindow completed on it. A round is one fresh
// scheduler replaying a fixed job stream; a cycle is kStreams rounds over
// kStreams different streams of the seed, and a run measures whole cycles.
// Placement, virtual latencies and the determinism hash repeat exactly in
// every cycle of a seed, and averaging over several streams keeps one
// stream's placement luck out of the figures.
//
// svc_hot serves every device run from the sim-result cache, warmed
// during set-up. svc_cold gives every job input bytes no other run has
// seen (a unique payload word in a ring of input copies), so every device
// run misses the cache and the simulator sits on the critical path; the
// keys, and with them every checksum, are the same as in svc_hot.
//
// The traced run alternates untraced cycles (the tracing-overhead
// baseline) with traced ones. A traced round records a span around every
// Submit and Wait, then replays each completed job directly through the
// entry point of the backend placement chose (RunPartition, CpuRadixJoin,
// HybridPartition + ParallelBuildProbe): the scheduler makes those calls
// on its workers, out of the runner's reach.
#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "core/engine.h"
#include "datagen/workloads.h"
#include "fpga/partitioner.h"
#include "hash/hash_function.h"
#include "join/build_probe.h"
#include "join/hybrid_join.h"
#include "join/radix_join.h"
#include "model/cost_model.h"
#include "obs/metrics.h"
#include "report.h"
#include "svc/scheduler.h"

namespace perfbench {
namespace {

using fpart::Relation;
using fpart::Tuple8;

constexpr size_t kClasses = 8;          // 4K .. 512K tuples, doubling
constexpr size_t kBaseTuples = 4096;
constexpr double kClassZipf = 0.9;      // size-class popularity
constexpr uint32_t kFanout = 2048;
constexpr size_t kWindow = 4;           // outstanding jobs per client
constexpr size_t kJoinEvery = 64;       // every 64th job is a join
constexpr size_t kRing = kWindow + 1;   // svc_cold input copies per table
constexpr size_t kJoinR = 32768;
constexpr size_t kJoinS = 131072;
constexpr uint64_t kRoundJobs = 64;
constexpr size_t kStreams = 8;          // job streams (rounds) per cycle
constexpr size_t kSmallTuples = 8192;   // cpu.small_us: jobs this size or less

size_t ClassTuples(size_t cls) { return kBaseTuples << cls; }

fpart::PartitionRequest JobRequest() {
  fpart::PartitionRequest req;
  req.fanout = kFanout;
  req.hash = fpart::HashMethod::kMurmur;
  req.output_mode = fpart::OutputMode::kHist;
  req.sim_mode = fpart::SimMode::kFast;
  req.sim_cache = true;
  req.num_threads = 1;
  return req;
}

// The device configuration the scheduler builds for a hybrid join's two
// partitioning passes (Scheduler::RunJoinJob); the set-up warms the cache
// and the traced replay runs with exactly this one.
fpart::FpgaPartitionerConfig JoinDeviceConfig() {
  fpart::FpgaPartitionerConfig fpga;
  fpga.fanout = kFanout;
  fpga.hash = fpart::HashMethod::kMurmur;
  fpga.output_mode = fpart::OutputMode::kHist;
  fpga.layout = fpart::LayoutMode::kRid;
  fpga.link = fpart::LinkKind::kXeonFpga;
  fpga.sim_mode = fpart::SimMode::kFast;
  fpga.sim_cache = true;
  return fpga;
}

fpart::CpuJoinConfig CpuJoinConfig() {
  fpart::CpuJoinConfig config;
  config.fanout = kFanout;
  config.hash = fpart::HashMethod::kMurmur;
  config.num_threads = 1;
  return config;
}

fpart::svc::SchedulerConfig SchedulerConfig() {
  fpart::svc::SchedulerConfig cfg;
  cfg.num_workers = 2;
  cfg.fpga_devices = 2;
  cfg.deterministic = true;
  cfg.queue_capacity = 64;
  cfg.sim_mode = fpart::SimMode::kFast;
  cfg.sim_cache = true;
  cfg.affinity = fpart::AffinityPolicy::kNone;
  cfg.name = "bench";
  return cfg;
}

uint64_t PartitionChecksum(const Relation<Tuple8>& rel) {
  const fpart::PartitionFn fn(fpart::HashMethod::kMurmur, kFanout);
  std::vector<uint64_t> counts(kFanout, 0);
  for (const Tuple8& t : rel) ++counts[fn(t.key)];
  return fpart::svc::HistogramChecksum(counts.data(), counts.size());
}

fpart::Result<Relation<Tuple8>> Copy(const Relation<Tuple8>& src) {
  FPART_ASSIGN_OR_RETURN(Relation<Tuple8> dst,
                         Relation<Tuple8>::Allocate(src.size()));
  std::copy(src.begin(), src.end(), dst.begin());
  return dst;
}

struct JobDesc {
  bool join = false;
  size_t cls = 0;  // partition jobs
};

// The job stream of one round. Size classes are stratified: the round
// holds the Zipf(0.9) class mix exactly (largest-remainder rounding) and
// the seed only shuffles the order, so rounds of different seeds carry the
// same work and differ in order and data.
std::vector<JobDesc> BuildJobStream(uint64_t jobs, uint64_t seed) {
  const uint64_t joins = jobs / kJoinEvery;
  const uint64_t parts = jobs - joins;
  double weights[kClasses];
  double total = 0.0;
  for (size_t c = 0; c < kClasses; ++c) {
    weights[c] = 1.0 / std::pow(static_cast<double>(c + 1), kClassZipf);
    total += weights[c];
  }
  uint64_t counts[kClasses];
  std::vector<std::pair<double, size_t>> remainders;
  uint64_t assigned = 0;
  for (size_t c = 0; c < kClasses; ++c) {
    const double exact = static_cast<double>(parts) * weights[c] / total;
    counts[c] = static_cast<uint64_t>(exact);
    assigned += counts[c];
    remainders.push_back({exact - static_cast<double>(counts[c]), c});
  }
  std::sort(remainders.begin(), remainders.end(),
            [](const auto& a, const auto& b) {
              return a.first > b.first ||
                     (a.first == b.first && a.second < b.second);
            });
  for (size_t i = 0; assigned < parts; ++i, ++assigned) {
    ++counts[remainders[i % kClasses].second];
  }
  std::vector<size_t> classes;
  for (size_t c = 0; c < kClasses; ++c) {
    classes.insert(classes.end(), counts[c], c);
  }
  fpart::Rng rng(seed ^ 0x7376632d6a6f6273ULL);
  for (size_t i = classes.size(); i > 1; --i) {
    std::swap(classes[i - 1], classes[rng.Below(i)]);
  }
  std::vector<JobDesc> stream;
  stream.reserve(jobs);
  size_t next = 0;
  for (uint64_t k = 0; k < jobs; ++k) {
    if (k % kJoinEvery == kJoinEvery - 1) {
      stream.push_back(JobDesc{true, 0});
    } else {
      stream.push_back(JobDesc{false, classes[next++]});
    }
  }
  return stream;
}

// Everything the set-up builds: resident tables (svc_cold: kRing copies
// each), the expected outputs, the job streams and, for svc_hot, a warm
// sim-result cache.
struct Inputs {
  std::vector<std::vector<Relation<Tuple8>>> tables;  // [class][copy]
  std::vector<uint64_t> expected_checksum;            // per class
  std::vector<Relation<Tuple8>> join_r, join_s;       // [copy]
  uint64_t join_checksum = 0;  // sum of matched R payloads
  uint64_t join_r0_matches = 0;  // S tuples matching R[0]
  uint32_t join_r0_payload = 0;
  std::vector<std::vector<JobDesc>> streams;  // one per round of a cycle
};

fpart::Status Setup(uint64_t seed, bool cold, Inputs* in) {
  fpart::FpgaPartitioner<Tuple8>::ResultCache().Clear();
  const size_t copies = cold ? kRing : 1;
  in->tables.clear();
  in->tables.resize(kClasses);
  in->expected_checksum.assign(kClasses, 0);
  for (size_t c = 0; c < kClasses; ++c) {
    FPART_ASSIGN_OR_RETURN(
        Relation<Tuple8> base,
        fpart::GenerateRawRelation(ClassTuples(c),
                                   fpart::KeyDistribution::kRandom,
                                   seed * 131 + c));
    in->expected_checksum[c] = PartitionChecksum(base);
    for (size_t k = 1; k < copies; ++k) {
      FPART_ASSIGN_OR_RETURN(Relation<Tuple8> copy, Copy(base));
      in->tables[c].push_back(std::move(copy));
    }
    in->tables[c].push_back(std::move(base));
  }

  fpart::WorkloadSpec spec{fpart::WorkloadId::kA, "perfbench", kJoinR, kJoinS,
                           fpart::KeyDistribution::kRandom, 0.0};
  FPART_ASSIGN_OR_RETURN(fpart::JoinInput join,
                         fpart::GenerateWorkload(spec, seed + 7));
  std::unordered_map<uint32_t, uint32_t> payload_of;
  payload_of.reserve(join.r.size());
  for (const Tuple8& t : join.r) payload_of.emplace(t.key, t.payload);
  in->join_checksum = 0;
  in->join_r0_matches = 0;
  for (const Tuple8& t : join.s) {
    auto it = payload_of.find(t.key);
    if (it != payload_of.end()) in->join_checksum += it->second;
    if (t.key == join.r[0].key) ++in->join_r0_matches;
  }
  in->join_r0_payload = join.r[0].payload;
  in->join_r.clear();
  in->join_s.clear();
  for (size_t k = 1; k < copies; ++k) {
    FPART_ASSIGN_OR_RETURN(Relation<Tuple8> r, Copy(join.r));
    FPART_ASSIGN_OR_RETURN(Relation<Tuple8> s, Copy(join.s));
    in->join_r.push_back(std::move(r));
    in->join_s.push_back(std::move(s));
  }
  in->join_r.push_back(std::move(join.r));
  in->join_s.push_back(std::move(join.s));

  in->streams.clear();
  for (size_t i = 0; i < kStreams; ++i) {
    in->streams.push_back(BuildJobStream(kRoundJobs, seed * kStreams + i));
  }

  if (!cold) {
    // Warm the cache with exactly the device runs the scheduler will ask
    // for, so every measured device run is a hit.
    fpart::PartitionRequest req = JobRequest();
    req.engine = fpart::Engine::kFpgaSim;
    for (size_t c = 0; c < kClasses; ++c) {
      FPART_RETURN_NOT_OK(
          fpart::RunPartition<Tuple8>(req, in->tables[c][0]).status());
    }
    const fpart::FpgaPartitionerConfig fpga = JoinDeviceConfig();
    FPART_RETURN_NOT_OK(
        fpart::internal::HybridPartition(fpga, in->join_r[0]).status());
    FPART_RETURN_NOT_OK(
        fpart::internal::HybridPartition(fpga, in->join_s[0]).status());
  }
  return fpart::Status::OK();
}

// One job as the runner saw it; checked when the round's timer has stopped.
struct JobRecord {
  bool submitted = false;
  fpart::svc::JobState state = fpart::svc::JobState::kQueued;
  fpart::svc::Backend backend = fpart::svc::Backend::kCpu;
  uint64_t checksum = 0;
  uint64_t matches = 0;
  uint64_t expected_checksum = 0;
  double submit_start = 0.0;
  double submit_end = 0.0;
  double completed = 0.0;  // when the scheduler completed the job
  double queue_seconds = 0.0;
  double virtual_done = 0.0;
  double virtual_latency = 0.0;
  std::string status;
};

// Per-round input preparation. svc_cold rewrites a payload word of the
// ring copy the job will read, so its input digest is new; the ring is one
// longer than the window, so the copy is never in use.
class InputFeed {
 public:
  InputFeed(Inputs* in, bool cold) : in_(in), cold_(cold) {}

  // Returns the relation(s) for job `k` and its expected checksum.
  const Relation<Tuple8>* Partition(size_t cls, uint64_t k) {
    if (!cold_) return &in_->tables[cls][0];
    Relation<Tuple8>& rel = in_->tables[cls][k % kRing];
    rel[0].payload = NextUnique();
    return &rel;
  }
  std::pair<const Relation<Tuple8>*, const Relation<Tuple8>*> Join(
      uint64_t k, uint64_t* expected_checksum) {
    *expected_checksum = in_->join_checksum;
    if (!cold_) return {&in_->join_r[0], &in_->join_s[0]};
    Relation<Tuple8>& r = in_->join_r[k % kRing];
    Relation<Tuple8>& s = in_->join_s[k % kRing];
    r[0].payload = NextUnique();
    s[0].payload = NextUnique();
    // The checksum sums matched R payloads: R[0] now carries a new one.
    *expected_checksum += (static_cast<uint64_t>(r[0].payload) -
                           static_cast<uint64_t>(in_->join_r0_payload)) *
                          in_->join_r0_matches;
    return {&r, &s};
  }

 private:
  uint32_t NextUnique() { return unique_++; }

  Inputs* in_;
  bool cold_;
  uint32_t unique_ = 0x80000000u;
};

uint64_t JobTuples(const JobDesc& job) {
  return job.join ? kJoinR + kJoinS : ClassTuples(job.cls);
}

// One fresh scheduler replaying the job stream `jobs`. Returns the wall
// seconds of the round.
double RunRound(const Inputs& in, const std::vector<JobDesc>& jobs,
                InputFeed* feed, SpanRecorder* rec, uint64_t round,
                std::vector<JobRecord>* records, RunResult* result) {
  const size_t n = jobs.size();
  records->assign(n, JobRecord{});
  std::vector<fpart::svc::JobHandle> handles(n);
  std::vector<double> virtual_arrival(n, 0.0);
  // Completion stamps, written by the JobOptions::on_complete hook on the
  // completing thread. The hook runs just after Wait() is released, so the
  // retiring client waits for the stamp too.
  std::unique_ptr<std::atomic<double>[]> completed(
      new std::atomic<double>[n]);
  for (size_t j = 0; j < n; ++j) completed[j].store(0.0);
  const double t0 = NowSeconds();
  std::unique_ptr<fpart::svc::Scheduler> scheduler;
  {
    ScopedSpan span(rec, "svc.start", kSvc, round, /*op=*/false);
    scheduler = std::make_unique<fpart::svc::Scheduler>(SchedulerConfig());
  }
  auto retire = [&](size_t j) {
    JobRecord& r = (*records)[j];
    if (!r.submitted) return;
    ScopedSpan span(rec, "svc.wait", kSvc, round * n + j, /*op=*/false);
    const fpart::svc::JobOutcome& out = handles[j].Wait();
    double stamp = 0.0;
    while ((stamp = completed[j].load(std::memory_order_acquire)) == 0.0) {
      std::this_thread::yield();
    }
    r.completed = stamp;
    r.state = out.state;
    r.backend = out.backend;
    r.checksum = out.checksum;
    r.matches = out.matches;
    r.queue_seconds = out.queue_seconds;
    r.virtual_latency = out.virtual_queue_seconds + out.virtual_run_seconds;
    r.virtual_done = virtual_arrival[j] + r.virtual_latency;
    r.status = out.status.ok() ? "" : out.status.message();
  };
  size_t submitted = 0;
  for (size_t k = 0; k < n; ++k) {
    if (k >= kWindow) {
      retire(k - kWindow);
      virtual_arrival[k] = (*records)[k - kWindow].virtual_done;
    }
    const JobDesc& job = jobs[k];
    JobRecord& r = (*records)[k];
    fpart::svc::JobOptions opts;
    opts.arrival_seq = k;
    opts.virtual_arrival_seconds = virtual_arrival[k];
    std::atomic<double>* stamp = &completed[k];
    opts.on_complete = [stamp](const fpart::svc::JobOutcome&) {
      stamp->store(NowSeconds(), std::memory_order_release);
    };
    fpart::Result<fpart::svc::JobHandle> handle =
        fpart::Status::Internal("not submitted");
    if (job.join) {
      auto [rel_r, rel_s] = feed->Join(round * n + k, &r.expected_checksum);
      fpart::svc::JoinJobSpec spec;
      spec.r = rel_r;
      spec.s = rel_s;
      spec.fanout = kFanout;
      spec.hash = fpart::HashMethod::kMurmur;
      ScopedSpan span(rec, "svc.submit", kSvc, round * n + k);
      r.submit_start = NowSeconds();
      handle = scheduler->Submit(spec, opts);
      r.submit_end = NowSeconds();
    } else {
      fpart::svc::PartitionJobSpec spec;
      spec.input = feed->Partition(job.cls, round * n + k);
      spec.request = JobRequest();
      r.expected_checksum = in.expected_checksum[job.cls];
      ScopedSpan span(rec, "svc.submit", kSvc, round * n + k);
      r.submit_start = NowSeconds();
      handle = scheduler->Submit(spec, opts);
      r.submit_end = NowSeconds();
    }
    if (!handle.ok()) {
      // Deterministic dispatch waits for every arrival sequence number,
      // so a refused submission ends the round.
      result->Fail("submit refused: " + handle.status().message());
      break;
    }
    handles[k] = std::move(handle).ValueUnsafe();
    r.submitted = true;
    submitted = k + 1;
  }
  for (size_t j = submitted > kWindow ? submitted - kWindow : 0;
       j < submitted; ++j) {
    retire(j);
  }
  {
    ScopedSpan span(rec, "svc.shutdown", kSvc, round, /*op=*/false);
    scheduler->Shutdown();
  }
  return NowSeconds() - t0;
}

// Output checks of one round, outside every timed section.
void VerifyRound(const std::vector<JobDesc>& jobs,
                 const std::vector<JobRecord>& records, RunResult* result) {
  for (size_t k = 0; k < records.size(); ++k) {
    const JobRecord& r = records[k];
    const JobDesc& job = jobs[k];
    ++result->attempted;
    bool ok = r.submitted && r.state == fpart::svc::JobState::kCompleted;
    if (ok && job.join) {
      ok = r.matches == kJoinS && r.checksum == r.expected_checksum;
    } else if (ok) {
      ok = r.checksum == r.expected_checksum;
    }
    if (!ok) {
      ++result->failed;
      result->Fail("job " + std::to_string(k) + " (" +
                   (job.join ? "join" : "partition") + ") state " +
                   fpart::svc::JobStateName(r.state) + " " + r.status);
    }
  }
}

uint64_t RoundHash(const std::vector<JobDesc>& jobs,
                   const std::vector<JobRecord>& records) {
  uint64_t h = kFnvBasis;
  for (size_t k = 0; k < records.size(); ++k) {
    const JobRecord& r = records[k];
    h = Fnv1a(h, k);
    h = Fnv1a(h, static_cast<uint64_t>(r.backend));
    // Join checksums follow svc_cold's unique payloads; their match counts
    // (and the checks above) do not.
    h = Fnv1a(h, jobs[k].join ? r.matches : r.checksum);
    h = Fnv1a(h, std::bit_cast<uint64_t>(r.virtual_latency));
  }
  return h;
}

// Per-layer samples collected by the direct replay of traced rounds.
struct ReplayStats {
  std::vector<double> fpga_hit_us, fpga_miss_us, cpu_small_us, join_us,
      overhead_us;
  double fpga_miss_tuples = 0.0, fpga_miss_seconds = 0.0;
  double cpu_tuples = 0.0, cpu_seconds = 0.0;
  uint64_t cycles = 0;  // first traced cycle
  double model_seconds = 0.0;
  bool first_cycle = true;
};

uint64_t CacheHits() {
  static fpart::obs::Counter* hits =
      fpart::obs::Registry::Global().GetCounter("sim.cache.hits");
  return hits->Value();
}
uint64_t CacheMisses() {
  static fpart::obs::Counter* misses =
      fpart::obs::Registry::Global().GetCounter("sim.cache.misses");
  return misses->Value();
}

// One device run through the sim cache, classified by the cache counters
// (the replay is single-threaded, so the deltas are this run's).
template <typename Fn>
fpart::Status DeviceRun(SpanRecorder* rec, const char* name, uint64_t id,
                        size_t tuples, ReplayStats* st, Fn&& run) {
  const uint64_t hits0 = CacheHits();
  const double t0 = NowSeconds();
  fpart::CycleStats stats;
  {
    ScopedSpan span(rec, name, kFpga, id);
    FPART_ASSIGN_OR_RETURN(stats, run());
  }
  const double seconds = NowSeconds() - t0;
  if (CacheHits() > hits0) {
    st->fpga_hit_us.push_back(seconds * 1e6);
  } else {
    st->fpga_miss_us.push_back(seconds * 1e6);
    st->fpga_miss_tuples += static_cast<double>(tuples);
    st->fpga_miss_seconds += seconds;
  }
  if (st->first_cycle) {
    st->cycles += stats.cycles;
    st->model_seconds +=
        fpart::FpgaCostModel(sizeof(Tuple8), kFanout)
            .PredictSeconds(tuples, fpart::OutputMode::kHist,
                            fpart::LayoutMode::kRid,
                            fpart::LinkKind::kXeonFpga);
  }
  return fpart::Status::OK();
}

// Direct replay of one completed job on the backend placement chose.
// Returns the direct call's seconds.
fpart::Result<double> ReplayJob(const Inputs& in, InputFeed* feed,
                                SpanRecorder* rec, uint64_t id,
                                const JobDesc& job, const JobRecord& r,
                                ReplayStats* st) {
  using fpart::svc::Backend;
  const double t0 = NowSeconds();
  if (job.join) {
    uint64_t expected = 0;
    auto [rel_r, rel_s] = feed->Join(id, &expected);
    fpart::JoinResult jr;
    if (r.backend == Backend::kCpu) {
      ScopedSpan span(rec, "join.radix", kJoin, id);
      FPART_ASSIGN_OR_RETURN(
          jr, fpart::CpuRadixJoin(CpuJoinConfig(), *rel_r, *rel_s));
    } else {
      ScopedSpan span(rec, "join.hybrid", kJoin, id);
      const fpart::FpgaPartitionerConfig fpga = JoinDeviceConfig();
      fpart::FpgaRunResult<Tuple8> pr, ps;
      FPART_RETURN_NOT_OK(DeviceRun(
          rec, "fpga.partition_r", id, rel_r->size(), st,
          [&]() -> fpart::Result<fpart::CycleStats> {
            FPART_ASSIGN_OR_RETURN(
                pr, fpart::internal::HybridPartition(fpga, *rel_r));
            return pr.stats;
          }));
      FPART_RETURN_NOT_OK(DeviceRun(
          rec, "fpga.partition_s", id, rel_s->size(), st,
          [&]() -> fpart::Result<fpart::CycleStats> {
            FPART_ASSIGN_OR_RETURN(
                ps, fpart::internal::HybridPartition(fpga, *rel_s));
            return ps.stats;
          }));
      const fpart::BuildProbeStats bp = fpart::ParallelBuildProbe(
          pr.output, ps.output, 1, nullptr, static_cast<const Tuple8*>(nullptr),
          /*prefetch_distance=*/16);
      jr.matches = bp.matches;
      jr.checksum = bp.checksum;
    }
    const double seconds = NowSeconds() - t0;
    st->join_us.push_back(seconds * 1e6);
    if (jr.matches != kJoinS || jr.checksum != expected) {
      return fpart::Status::Internal("replayed join output mismatch");
    }
    return seconds;
  }

  const Relation<Tuple8>* input = feed->Partition(job.cls, id);
  fpart::PartitionRequest req = JobRequest();
  std::vector<uint64_t> counts;
  auto collect = [&counts](const fpart::PartitionedOutput<Tuple8>& out) {
    counts.resize(out.num_partitions());
    for (size_t p = 0; p < counts.size(); ++p) {
      counts[p] = out.part(p).num_tuples;
    }
  };
  if (r.backend == Backend::kCpu) {
    req.engine = fpart::Engine::kCpu;
    ScopedSpan span(rec, "cpu.partition", kCpu, id);
    FPART_ASSIGN_OR_RETURN(auto report,
                           fpart::RunPartition<Tuple8>(req, *input));
    collect(report.output);
  } else {
    req.engine = fpart::Engine::kFpgaSim;
    FPART_RETURN_NOT_OK(DeviceRun(
        rec, "fpga.partition", id, input->size(), st,
        [&]() -> fpart::Result<fpart::CycleStats> {
          FPART_ASSIGN_OR_RETURN(auto report,
                                 fpart::RunPartition<Tuple8>(req, *input));
          collect(report.output);
          return report.stats;
        }));
  }
  const double seconds = NowSeconds() - t0;
  if (r.backend == Backend::kCpu) {
    if (input->size() <= kSmallTuples) st->cpu_small_us.push_back(seconds * 1e6);
    st->cpu_tuples += static_cast<double>(input->size());
    st->cpu_seconds += seconds;
  }
  if (fpart::svc::HistogramChecksum(counts.data(), counts.size()) !=
      in.expected_checksum[job.cls]) {
    return fpart::Status::Internal("replayed partition checksum mismatch");
  }
  return seconds;
}

}  // namespace

RunResult RunSvcWorkload(const Options& opt, bool cold) {
  RunResult result(opt.trace);

  // Set-up, repeated through the run (SetupTimer); each repetition
  // rebuilds identical inputs and cache contents.
  Inputs in;
  SetupTimer setup(opt.seconds);
  auto set_up = [&]() {
    in = Inputs{};
    fpart::Status st;
    setup.Time([&] { st = Setup(opt.seed, cold, &in); });
    if (!st.ok()) result.Fail("set-up failed: " + st.message());
    return st.ok();
  };
  if (!set_up()) return result;
  InputFeed feed(&in, cold);
  SpanRecorder off(false);
  // svc_cold starts every round from an empty cache, as its set-up does;
  // this keeps the cache's memory to one round's results.
  auto reset_cache = [cold] {
    if (cold) fpart::FpgaPartitioner<Tuple8>::ResultCache().Clear();
  };
  std::vector<JobRecord> records;
  std::vector<uint64_t> stream_hash(kStreams, 0);
  // Checks of one finished round, outside its timed section. Done round by
  // round so the runner's memory stays flat: keeping every round's records
  // would make peak_rss_mb grow with throughput.
  auto check = [&](size_t stream) {
    VerifyRound(in.streams[stream], records, &result);
    if (RoundHash(in.streams[stream], records) != stream_hash[stream]) {
      result.Fail("a round's determinism hash differs from its stream's");
    }
    ++result.rounds;
  };

  // -- Warm-up cycle, untimed: thread start-up, allocator and page
  // warm-up. Its rounds define each stream's hash and the exact counts.
  uint64_t placed[3] = {0, 0, 0};  // indexed by svc::Backend
  double virtual_makespan = 0.0;   // summed over the cycle's rounds
  std::vector<double> virtual_latency;
  result.det_hash = kFnvBasis;
  for (size_t i = 0; i < kStreams; ++i) {
    reset_cache();
    RunRound(in, in.streams[i], &feed, &off, i, &records, &result);
    stream_hash[i] = RoundHash(in.streams[i], records);
    result.det_hash = Fnv1a(result.det_hash, stream_hash[i]);
    double makespan = 0.0;
    for (const JobRecord& r : records) {
      ++placed[static_cast<size_t>(r.backend)];
      makespan = std::max(makespan, r.virtual_done);
      virtual_latency.push_back(r.virtual_latency);
    }
    virtual_makespan += makespan;
    check(i);
  }
  result.exact = {{"placed_cpu", placed[0]},
                  {"placed_fpga", placed[1]},
                  {"placed_hybrid", placed[2]}};

  // -- Timed window: whole cycles; a traced run alternates untraced and
  // traced cycles ----------------------------------------------------------
  SpanRecorder tracer(opt.trace);
  WindowStats untraced(kStreams), traced_phase(kStreams);
  std::vector<double> latency_us, submit_us, queue_us;
  double traced_wall_s = 0.0, svc_wait_s = 0.0, lease_wait_s = 0.0;
  uint64_t probe_hits = 0, probe_misses = 0;
  ReplayStats replay;
  fpart::obs::Histogram* lease_wait =
      fpart::obs::Registry::Global().GetHistogram("svc.fpga.lease_wait_us");
  const uint64_t min_cycles = opt.trace ? 2 : 1;
  uint64_t round = kStreams;  // round ids continue after the warm-up
  const double start = NowSeconds();
  for (uint64_t cycle = 0;
       cycle < min_cycles || NowSeconds() - start < opt.seconds; ++cycle) {
    if (setup.Due(NowSeconds() - start) && !set_up()) return result;
    const bool traced = opt.trace && cycle % 2 == 1;
    for (size_t i = 0; i < kStreams; ++i, ++round) {
      const std::vector<JobDesc>& jobs = in.streams[i];
      reset_cache();
      if (!traced) {
        const double s =
            RunRound(in, jobs, &feed, &off, round, &records, &result);
        uint64_t done = 0, tuples = 0;
        latency_us.clear();
        for (size_t k = 0; k < records.size(); ++k) {
          const JobRecord& r = records[k];
          if (r.state != fpart::svc::JobState::kCompleted) continue;
          ++done;
          tuples += JobTuples(jobs[k]);
          latency_us.push_back((r.completed - r.submit_start) * 1e6);
        }
        untraced.AddRound(i, s, done, tuples, latency_us);
        check(i);
        continue;
      }
      // Traced round: the service replay with client-side spans, then the
      // direct replay of every completed job.
      const double t0 = NowSeconds();
      const int64_t root = tracer.Begin("round", kHarness, round);
      const uint64_t hits0 = CacheHits(), misses0 = CacheMisses();
      const uint64_t lease0 = lease_wait->Merged().sum;
      RunRound(in, jobs, &feed, &tracer, round, &records, &result);
      traced_phase.AddRound(i, NowSeconds() - t0, 0, 0, {});
      probe_hits += CacheHits() - hits0;
      probe_misses += CacheMisses() - misses0;
      lease_wait_s +=
          static_cast<double>(lease_wait->Merged().sum - lease0) * 1e-6;
      for (size_t k = 0; k < records.size(); ++k) {
        const JobRecord& r = records[k];
        if (r.state != fpart::svc::JobState::kCompleted) continue;
        const uint64_t id = round * records.size() + k;
        fpart::Result<double> direct =
            ReplayJob(in, &feed, &tracer, id, jobs[k], r, &replay);
        if (!direct.ok()) {
          ++result.failed;
          result.Fail("replay of job " + std::to_string(k) + ": " +
                      direct.status().message());
          continue;
        }
        submit_us.push_back((r.submit_end - r.submit_start) * 1e6);
        queue_us.push_back(r.queue_seconds * 1e6);
        svc_wait_s += r.queue_seconds;
        replay.overhead_us.push_back(((r.completed - r.submit_start) -
                                      r.queue_seconds - direct.ValueOrDie()) *
                                     1e6);
      }
      tracer.End(root);
      traced_wall_s += NowSeconds() - t0;
      check(i);
    }
    if (traced) replay.first_cycle = false;
  }
  while (!setup.Done()) {
    if (!set_up()) return result;
  }

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

  for (const auto& [key, count] : result.exact) {
    m.Set("svc." + key, static_cast<double>(count));
  }
  m.Set("svc.virt_jobs_per_s",
        virtual_makespan > 0 ? virtual_latency.size() / virtual_makespan
                             : 0.0);
  m.Set("svc.virt_p99_ms", Percentile(virtual_latency, 0.99) * 1e3);
  m.Set("svc.submit_us.p50", Percentile(submit_us, 0.5));
  m.Set("svc.queue_us.p50", Percentile(queue_us, 0.5));
  m.Set("svc.overhead_us.p50", Percentile(replay.overhead_us, 0.5));
  m.Set("fpga.hit.count", static_cast<double>(replay.fpga_hit_us.size()));
  m.Set("fpga.hit_us.p50", Percentile(replay.fpga_hit_us, 0.5));
  double hit_sum = 0.0;
  for (double us : replay.fpga_hit_us) hit_sum += us;
  m.Set("fpga.hit_us.sum", hit_sum);
  m.Set("fpga.miss.count", static_cast<double>(replay.fpga_miss_us.size()));
  m.Set("fpga.miss_us.p50", Percentile(replay.fpga_miss_us, 0.5));
  m.Set("fpga.sim_ns_per_tuple",
        replay.fpga_miss_tuples > 0
            ? replay.fpga_miss_seconds * 1e9 / replay.fpga_miss_tuples
            : 0.0);
  const uint64_t probes = probe_hits + probe_misses;
  m.Set("fpga.hit_ratio",
        probes > 0 ? static_cast<double>(probe_hits) / probes : 0.0);
  m.Set("fpga.cycles", static_cast<double>(replay.cycles));
  const double sim_seconds =
      static_cast<double>(replay.cycles) / fpart::kFpgaClockHz;
  m.Set("fpga.model_gap_pct",
        replay.model_seconds > 0
            ? (sim_seconds - replay.model_seconds) / replay.model_seconds * 100
            : 0.0);
  m.Set("cpu.small_us.p50", Percentile(replay.cpu_small_us, 0.5));
  m.Set("cpu.mtuples_per_s", replay.cpu_seconds > 0
                                 ? replay.cpu_tuples / replay.cpu_seconds / 1e6
                                 : 0.0);
  m.Set("join.us.p50", Percentile(replay.join_us, 0.5));

  std::array<double, kNumLayers> wait{};
  wait[kSvc] = svc_wait_s;
  wait[kFpga] = lease_wait_s;
  // Tracing overhead: the traced rounds' service phase (spans on) against
  // untraced rounds of the same streams.
  FinishTrace(opt, tracer, traced_wall_s, wait, untraced, traced_phase,
              &result);
  return result;
}

}  // namespace perfbench
