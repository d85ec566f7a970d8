// Tests of the svc runtime: placement policy (including boundary
// conditions), admission control, the multi-FPGA device pool (lease
// exclusivity, least-backlogged grants, cancellation handoff),
// deterministic replay across device counts, stress under racing
// submitters and cancellations, and cross-backend result parity.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/rng.h"
#include "core/engine.h"
#include "datagen/workloads.h"
#include "datagen/zipf.h"
#include "obs/metrics.h"
#include "svc/fpga_arbiter.h"
#include "svc/job_queue.h"
#include "svc/placement.h"
#include "svc/scheduler.h"

namespace fpart::svc {
namespace {

Relation<Tuple8> MakeRelation(size_t n, uint64_t seed = 7) {
  auto rel = GenerateRawRelation(n, KeyDistribution::kRandom, seed);
  EXPECT_TRUE(rel.ok());
  return std::move(rel).ValueUnsafe();
}

// ---------------------------------------------------------------- placement

TEST(PlacementTest, FpgaWinsWithEmptyQueues) {
  // A large partition job: the device streams at QPI bandwidth while one
  // CPU thread runs an order of magnitude slower.
  PlacementInput in;
  in.kind = JobKind::kPartition;
  in.n_tuples = 1 << 22;
  PlacementDecision d = DecidePlacement(in);
  EXPECT_EQ(d.backend, Backend::kFpga);
  EXPECT_LT(d.est_fpga_seconds, d.est_cpu_seconds);
  EXPECT_DOUBLE_EQ(d.device_seconds, d.est_fpga_seconds);
}

TEST(PlacementTest, BacklogExceedingCpuEstimateFallsBackToCpu) {
  PlacementInput in;
  in.kind = JobKind::kPartition;
  in.n_tuples = 1 << 20;
  PlacementDecision base = DecidePlacement(in);
  ASSERT_EQ(base.backend, Backend::kFpga);
  // Pile enough queued device work onto the arbiter that waiting it out
  // costs more than just running on the host.
  in.fpga_backlog_seconds = base.est_cpu_seconds * 2.0;
  PlacementDecision d = DecidePlacement(in);
  EXPECT_EQ(d.backend, Backend::kCpu);
  EXPECT_GT(d.fpga_latency_seconds, d.cpu_latency_seconds);
}

TEST(PlacementTest, TieWithinEpsilonPrefersFpga) {
  PlacementInput in;
  in.kind = JobKind::kPartition;
  in.n_tuples = 1 << 20;
  PlacementDecision base = DecidePlacement(in);
  // Backlog tuned so the device path is nominally slower, but within the
  // tie epsilon: the device still wins because it frees the host cores.
  const double gap = base.est_cpu_seconds - base.est_fpga_seconds;
  in.fpga_backlog_seconds =
      gap + 0.5 * kPlacementTieEpsilon * base.est_cpu_seconds;
  PlacementDecision d = DecidePlacement(in);
  EXPECT_EQ(d.backend, Backend::kFpga);
  EXPECT_TRUE(d.tie);
  EXPECT_GT(d.fpga_latency_seconds, d.cpu_latency_seconds);
}

TEST(PlacementTest, JoinChoosesHybridOrCpuNeverPlainFpga) {
  PlacementInput in;
  in.kind = JobKind::kJoin;
  in.r_tuples = 1 << 20;
  in.s_tuples = 1 << 20;
  PlacementDecision fast = DecidePlacement(in);
  EXPECT_EQ(fast.backend, Backend::kHybrid);
  EXPECT_LT(fast.device_seconds, fast.est_fpga_seconds)
      << "hybrid estimate must include the CPU build+probe share";
  in.fpga_backlog_seconds = fast.est_cpu_seconds * 3.0;
  PlacementDecision slow = DecidePlacement(in);
  EXPECT_EQ(slow.backend, Backend::kCpu);
}

TEST(PlacementTest, IsPureAndDeterministic) {
  PlacementInput in;
  in.kind = JobKind::kPartition;
  in.n_tuples = 123456;
  in.fpga_backlog_seconds = 0.001;
  in.cpu_backlog_seconds = 0.0005;
  PlacementDecision a = DecidePlacement(in);
  PlacementDecision b = DecidePlacement(in);
  EXPECT_EQ(a.backend, b.backend);
  EXPECT_DOUBLE_EQ(a.fpga_latency_seconds, b.fpga_latency_seconds);
  EXPECT_DOUBLE_EQ(a.cpu_latency_seconds, b.cpu_latency_seconds);
}

// ------------------------------------------- placement boundary conditions

TEST(PlacementTest, TieEpsilonEdgeIsInclusive) {
  PlacementInput in;
  in.kind = JobKind::kPartition;
  in.n_tuples = 1 << 20;
  PlacementDecision base = DecidePlacement(in);
  ASSERT_EQ(base.backend, Backend::kFpga);
  const double gap = base.est_cpu_seconds - base.est_fpga_seconds;
  // At the margin: fpga_latency - cpu_latency == eps * fpga_latency solves
  // to backlog = gap + eps/(1-eps) * cpu_latency; the <= comparison keeps
  // the FPGA there. Shave one part in 10^3 off so float rounding in the
  // margin product cannot tip the exact-equality case either way.
  const double eps = kPlacementTieEpsilon;
  in.fpga_backlog_seconds =
      (gap + eps / (1.0 - eps) * base.est_cpu_seconds) * 0.999;
  PlacementDecision at_edge = DecidePlacement(in);
  EXPECT_EQ(at_edge.backend, Backend::kFpga);
  EXPECT_TRUE(at_edge.tie);
  // Nudged past the margin: the CPU wins.
  in.fpga_backlog_seconds *= 1.01;
  PlacementDecision past_edge = DecidePlacement(in);
  EXPECT_EQ(past_edge.backend, Backend::kCpu);
  EXPECT_FALSE(past_edge.tie);
}

TEST(PlacementTest, ZeroTupleJobsRunOnCpuWithFiniteEstimates) {
  for (JobKind kind : {JobKind::kPartition, JobKind::kJoin}) {
    PlacementInput in;
    in.kind = kind;
    in.n_tuples = 0;
    in.r_tuples = 0;
    in.s_tuples = 0;
    PlacementDecision d = DecidePlacement(in);
    EXPECT_EQ(d.backend, Backend::kCpu);
    EXPECT_FALSE(std::isnan(d.est_fpga_seconds));
    EXPECT_FALSE(std::isnan(d.est_cpu_seconds));
    EXPECT_FALSE(std::isnan(d.fpga_latency_seconds));
    EXPECT_FALSE(std::isnan(d.cpu_latency_seconds));
    EXPECT_DOUBLE_EQ(d.est_cpu_seconds, 0.0);
    EXPECT_DOUBLE_EQ(d.device_seconds, 0.0);
  }
}

TEST(PlacementTest, SaturatedPoolSpillsToCpuUntilADeviceFrees) {
  PlacementInput in;
  in.kind = JobKind::kPartition;
  in.n_tuples = 1 << 20;
  PlacementDecision base = DecidePlacement(in);
  ASSERT_EQ(base.backend, Backend::kFpga);
  // Every device clock saturated past the CPU estimate: the pool minimum
  // the scheduler hands in is saturated too, so the job spills to the CPU.
  in.fpga_backlog_seconds = base.est_cpu_seconds * 4.0;
  EXPECT_EQ(DecidePlacement(in).backend, Backend::kCpu);
  // One device drains: the pool minimum drops to zero and the FPGA wins
  // again (DevicePoolTest.PerDeviceBacklogAccounting pins the minimum).
  in.fpga_backlog_seconds = 0.0;
  PlacementDecision d = DecidePlacement(in);
  EXPECT_EQ(d.backend, Backend::kFpga);
  EXPECT_DOUBLE_EQ(d.fpga_latency_seconds, d.est_fpga_seconds);
}

// ---------------------------------------------------------------- job queue

TEST(JobQueueTest, PopsInDeadlineThenFifoOrder) {
  JobQueue queue(16, /*strict_seq=*/false);
  auto make = [](uint64_t seq, double deadline_key) {
    auto rec = std::make_shared<JobRecord>();
    rec->seq = seq;
    rec->deadline_key = deadline_key;
    return rec;
  };
  ASSERT_TRUE(queue.Push(make(0, 5.0)).ok());
  ASSERT_TRUE(queue.Push(make(1, 1.0)).ok());
  ASSERT_TRUE(
      queue.Push(make(2, std::numeric_limits<double>::infinity())).ok());
  ASSERT_TRUE(queue.Push(make(3, 1.0)).ok());
  EXPECT_EQ(queue.Pop()->seq, 1u);  // earliest deadline
  EXPECT_EQ(queue.Pop()->seq, 3u);  // same deadline, FIFO
  EXPECT_EQ(queue.Pop()->seq, 0u);
  EXPECT_EQ(queue.Pop()->seq, 2u);  // no deadline last
}

TEST(JobQueueTest, StrictSeqPopsInArrivalOrderAcrossInterleaving) {
  JobQueue queue(16, /*strict_seq=*/true);
  auto make = [](uint64_t seq) {
    auto rec = std::make_shared<JobRecord>();
    rec->seq = seq;
    return rec;
  };
  // Out-of-order push (any client interleaving) still pops 0,1,2,3.
  ASSERT_TRUE(queue.Push(make(2)).ok());
  ASSERT_TRUE(queue.Push(make(0)).ok());
  ASSERT_TRUE(queue.Push(make(3)).ok());
  ASSERT_TRUE(queue.Push(make(1)).ok());
  for (uint64_t want = 0; want < 4; ++want) {
    EXPECT_EQ(queue.Pop()->seq, want);
  }
}

TEST(JobQueueTest, FullQueueShedsWithCapacityError) {
  JobQueue queue(2, /*strict_seq=*/false);
  auto make = [](uint64_t seq) {
    auto rec = std::make_shared<JobRecord>();
    rec->seq = seq;
    return rec;
  };
  ASSERT_TRUE(queue.Push(make(0)).ok());
  ASSERT_TRUE(queue.Push(make(1)).ok());
  Status st = queue.Push(make(2));
  EXPECT_TRUE(st.IsCapacityError());
  EXPECT_EQ(queue.shed(), 1u);
  EXPECT_EQ(queue.pushed(), 2u);
}

// ------------------------------------------------------------- device pool

TEST(DevicePoolTest, SingleDeviceLeaseIsExclusive) {
  DevicePool pool(1);
  JobRecord a, b;
  a.seq = 0;
  b.seq = 1;
  ASSERT_TRUE(pool.Acquire(&a).ok());
  EXPECT_EQ(a.device, 0);
  std::atomic<bool> b_granted{false};
  std::thread waiter([&] {
    ASSERT_TRUE(pool.Acquire(&b).ok());
    b_granted.store(true);
    pool.Release(&b);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(b_granted.load()) << "lease must be exclusive";
  pool.Release(&a);
  waiter.join();
  EXPECT_TRUE(b_granted.load());
  EXPECT_EQ(pool.grants(), 2u);
}

TEST(DevicePoolTest, TwoDevicesServeTwoHoldersConcurrently) {
  DevicePool pool(2);
  JobRecord a, b, c;
  a.seq = 0;
  b.seq = 1;
  c.seq = 2;
  ASSERT_TRUE(pool.Acquire(&a).ok());
  ASSERT_TRUE(pool.Acquire(&b).ok());
  // Both devices held, and they are distinct.
  EXPECT_NE(a.device, b.device);
  std::atomic<bool> c_granted{false};
  std::thread waiter([&] {
    ASSERT_TRUE(pool.Acquire(&c).ok());
    c_granted.store(true);
    pool.Release(&c);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(c_granted.load()) << "pool of 2 cannot grant a third lease";
  pool.Release(&a);
  waiter.join();
  EXPECT_TRUE(c_granted.load());
  pool.Release(&b);
  EXPECT_EQ(pool.grants(), 3u);
}

TEST(DevicePoolTest, GrantPicksLeastBackloggedFreeDevice) {
  DevicePool pool(3);
  // Load the per-device backlog clocks unevenly: device 1 is lightest.
  EXPECT_EQ(pool.ChargeLeastLoaded(0.5), 0);   // dev0 = 0.5
  EXPECT_EQ(pool.ChargeLeastLoaded(0.2), 1);   // dev1 = 0.2
  EXPECT_EQ(pool.ChargeLeastLoaded(0.4), 2);   // dev2 = 0.4
  JobRecord a;
  a.seq = 0;
  ASSERT_TRUE(pool.Acquire(&a).ok());
  EXPECT_EQ(a.device, 1);
  // With device 1 held, the next grant takes device 2 (0.4 < 0.5).
  JobRecord b;
  b.seq = 1;
  ASSERT_TRUE(pool.Acquire(&b).ok());
  EXPECT_EQ(b.device, 2);
  pool.Release(&a);
  pool.Release(&b);
}

TEST(DevicePoolTest, OwnChargeIsDiscountedWhenPickingADevice) {
  DevicePool pool(2);
  JobRecord a;
  a.seq = 0;
  // The job's own estimate was charged to device 0; without the discount
  // the charge would repel the job onto device 1.
  a.charged_device = pool.ChargeLeastLoaded(0.5);
  a.placed_estimate_seconds = 0.5;
  ASSERT_EQ(a.charged_device, 0);
  ASSERT_TRUE(pool.Acquire(&a).ok());
  EXPECT_EQ(a.device, 0);
  pool.Release(&a);
  pool.Credit(a.charged_device, 0.5);
  EXPECT_DOUBLE_EQ(pool.total_backlog_seconds(), 0.0);
}

TEST(DevicePoolTest, CancelledWaiterHandsLeaseToNextPerDevice) {
  DevicePool pool(2);
  JobRecord a, a2, b, c;
  a.seq = 0;
  a2.seq = 1;
  b.seq = 2;
  c.seq = 3;
  ASSERT_TRUE(pool.Acquire(&a).ok());
  ASSERT_TRUE(pool.Acquire(&a2).ok());  // both devices held

  Status b_status, c_status;
  std::thread tb([&] { b_status = pool.Acquire(&b); });
  std::thread tc([&] {
    c_status = pool.Acquire(&c);
    if (c_status.ok()) pool.Release(&c);
  });
  // Wait until both are registered waiters, then cancel B while it waits.
  while (pool.waiters() < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  b.cancel.store(true);
  pool.NotifyCancelled();
  tb.join();
  EXPECT_TRUE(b_status.IsCancelled());

  // One device frees; its lease must go to C (B is gone), not stall.
  pool.Release(&a);
  tc.join();
  EXPECT_TRUE(c_status.ok());
  pool.Release(&a2);
  EXPECT_EQ(pool.grants(), 3u);  // A, A2 and C; B never held a device
}

TEST(DevicePoolTest, PerDeviceBacklogAccounting) {
  DevicePool pool(2);
  EXPECT_EQ(pool.ChargeLeastLoaded(0.25), 0);
  EXPECT_EQ(pool.ChargeLeastLoaded(0.5), 1);
  EXPECT_EQ(pool.ChargeLeastLoaded(0.25), 0);  // dev0 = 0.5, dev1 = 0.5
  EXPECT_DOUBLE_EQ(pool.device_backlog_seconds(0), 0.5);
  EXPECT_DOUBLE_EQ(pool.device_backlog_seconds(1), 0.5);
  EXPECT_DOUBLE_EQ(pool.total_backlog_seconds(), 1.0);
  pool.Credit(1, 0.5);
  EXPECT_DOUBLE_EQ(pool.backlog_seconds(), 0.0);  // pool minimum
  EXPECT_DOUBLE_EQ(pool.device_backlog_seconds(0), 0.5);
  pool.Credit(0, 10.0);  // never negative
  EXPECT_DOUBLE_EQ(pool.device_backlog_seconds(0), 0.0);
  pool.Credit(-1, 1.0);  // CPU placements carry no device charge: no-op
  EXPECT_DOUBLE_EQ(pool.total_backlog_seconds(), 0.0);
}

// --------------------------------------------------------------- scheduler

TEST(SchedulerTest, PartitionJobChecksumMatchesDirectRun) {
  Relation<Tuple8> rel = MakeRelation(1 << 15);

  PartitionJobSpec spec;
  spec.input = &rel;
  spec.request.fanout = 512;
  spec.request.hash = HashMethod::kMurmur;
  spec.request.output_mode = OutputMode::kHist;

  // Reference: run the same request directly on both engines.
  PartitionRequest direct = spec.request;
  direct.engine = Engine::kCpu;
  auto cpu_run = RunPartition<Tuple8>(direct, rel);
  ASSERT_TRUE(cpu_run.ok());
  std::vector<uint64_t> counts(cpu_run->output.num_partitions());
  for (size_t p = 0; p < counts.size(); ++p) {
    counts[p] = cpu_run->output.part(p).num_tuples;
  }
  const uint64_t want = HistogramChecksum(counts.data(), counts.size());

  SchedulerConfig config;
  config.num_workers = 2;
  Scheduler scheduler(config);
  JobOptions cpu_pin, fpga_pin;
  cpu_pin.pinned = Backend::kCpu;
  fpga_pin.pinned = Backend::kFpga;
  auto on_cpu = scheduler.Submit(spec, cpu_pin);
  auto on_fpga = scheduler.Submit(spec, fpga_pin);
  ASSERT_TRUE(on_cpu.ok());
  ASSERT_TRUE(on_fpga.ok());
  const JobOutcome& cpu_out = on_cpu->Wait();
  const JobOutcome& fpga_out = on_fpga->Wait();
  EXPECT_EQ(cpu_out.state, JobState::kCompleted);
  EXPECT_EQ(fpga_out.state, JobState::kCompleted);
  EXPECT_EQ(cpu_out.backend, Backend::kCpu);
  EXPECT_EQ(fpga_out.backend, Backend::kFpga);
  // Same fanout + hash => same histogram on either backend.
  EXPECT_EQ(cpu_out.checksum, want);
  EXPECT_EQ(fpga_out.checksum, want);
  EXPECT_GT(fpga_out.device_seconds, 0.0);
  EXPECT_EQ(cpu_out.device_seconds, 0.0);
}

TEST(SchedulerTest, JoinJobMatchesOnBothBackends) {
  auto r = GenerateUniqueRelation(1 << 13, KeyDistribution::kRandom, 3);
  auto s = GenerateUniqueRelation(1 << 13, KeyDistribution::kRandom, 3);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(s.ok());

  JoinJobSpec spec;
  spec.r = &*r;
  spec.s = &*s;
  spec.fanout = 256;

  SchedulerConfig config;
  config.num_workers = 2;
  Scheduler scheduler(config);
  JobOptions cpu_pin, hybrid_pin;
  cpu_pin.pinned = Backend::kCpu;
  hybrid_pin.pinned = Backend::kHybrid;
  auto on_cpu = scheduler.Submit(spec, cpu_pin);
  auto on_hybrid = scheduler.Submit(spec, hybrid_pin);
  ASSERT_TRUE(on_cpu.ok());
  ASSERT_TRUE(on_hybrid.ok());
  const JobOutcome& cpu_out = on_cpu->Wait();
  const JobOutcome& hybrid_out = on_hybrid->Wait();
  ASSERT_EQ(cpu_out.state, JobState::kCompleted) << cpu_out.status.ToString();
  ASSERT_EQ(hybrid_out.state, JobState::kCompleted)
      << hybrid_out.status.ToString();
  // Identical unique key sets: every tuple matches, on either backend.
  EXPECT_EQ(cpu_out.matches, r->size());
  EXPECT_EQ(hybrid_out.matches, r->size());
  EXPECT_EQ(cpu_out.checksum, hybrid_out.checksum);
  EXPECT_GT(hybrid_out.device_seconds, 0.0);
}

// ------------------------------------------------------------- failpoints

TEST(SchedulerTest, DeviceRunFailpointFailsTheJobAndReleasesTheLease) {
  Relation<Tuple8> rel = MakeRelation(1 << 14);
  auto& reg = FailpointRegistry::Global();
  reg.ClearAll();
  reg.Arm("svc.device.run", 1);

  SchedulerConfig config;
  config.num_workers = 1;
  config.fpga_devices = 1;
  Scheduler scheduler(config);

  PartitionJobSpec spec;
  spec.input = &rel;
  spec.request.fanout = 512;
  spec.request.output_mode = OutputMode::kHist;
  JobOptions opts;
  opts.pinned = Backend::kFpga;

  auto failed = scheduler.Submit(spec, opts);
  ASSERT_TRUE(failed.ok());
  JobHandle failed_handle = std::move(failed).ValueUnsafe();
  const JobOutcome& bad = failed_handle.Wait();
  EXPECT_EQ(bad.state, JobState::kFailed);
  EXPECT_FALSE(bad.status.ok());
  EXPECT_NE(bad.status.ToString().find("failpoint"), std::string::npos);
  EXPECT_EQ(reg.fired("svc.device.run"), 1u);

  // The budget is spent, and — critically — the lease was released on the
  // forced-failure path: the next device job acquires and completes.
  auto ok = scheduler.Submit(spec, opts);
  ASSERT_TRUE(ok.ok());
  JobHandle ok_handle = std::move(ok).ValueUnsafe();
  const JobOutcome& good = ok_handle.Wait();
  EXPECT_EQ(good.state, JobState::kCompleted) << good.status.ToString();
  EXPECT_EQ(good.backend, Backend::kFpga);
  scheduler.Shutdown();
  EXPECT_EQ(scheduler.device_pool().grants(), 2u);
  EXPECT_EQ(scheduler.device_pool().waiters(), 0u);
  reg.ClearAll();
}

TEST(SchedulerTest, QueueFullFailpointForcesTheShedPath) {
  Relation<Tuple8> rel = MakeRelation(1 << 12);
  auto& reg = FailpointRegistry::Global();
  reg.ClearAll();

  SchedulerConfig config;
  config.queue_capacity = 1024;  // plenty of room: only the failpoint sheds
  config.num_workers = 1;
  Scheduler scheduler(config);

  PartitionJobSpec spec;
  spec.input = &rel;
  spec.request.fanout = 64;

  reg.Arm("svc.queue.full", 2);
  for (int i = 0; i < 2; ++i) {
    auto h = scheduler.Submit(spec);
    ASSERT_FALSE(h.ok());
    EXPECT_TRUE(h.status().IsCapacityError()) << h.status().ToString();
  }
  EXPECT_EQ(scheduler.jobs_shed(), 2u);
  // Budget exhausted: submissions flow again.
  auto h = scheduler.Submit(spec);
  ASSERT_TRUE(h.ok());
  JobHandle flowing = std::move(h).ValueUnsafe();
  EXPECT_EQ(flowing.Wait().state, JobState::kCompleted);
  scheduler.Shutdown();
  reg.ClearAll();
}

TEST(JobQueueTest, PerClassRejectCountersPopulatedInBothModes) {
  // Regression: the svc.q.rejected.<class> counters (and the queue's own
  // per-class shed tallies) must be bumped on every shed path — live WFQ
  // and deterministic strict-seq alike.
  auto& interactive_rejects = *obs::Registry::Global().GetCounter(
      "svc.q.rejected.interactive");
  for (int deterministic = 0; deterministic < 2; ++deterministic) {
    const uint64_t before = interactive_rejects.Value();
    JobQueue queue(/*capacity=*/1, /*strict_seq=*/deterministic == 1);
    uint64_t seq = 0;
    auto push = [&](JobClass cls) {
      auto rec = std::make_shared<JobRecord>();
      rec->cls = cls;
      rec->wfq_cost = 1.0;
      rec->seq = seq++;
      return queue.Push(rec);
    };
    EXPECT_TRUE(push(JobClass::kBatch).ok());
    for (int i = 0; i < 3; ++i) {
      Status st = push(JobClass::kInteractive);
      EXPECT_TRUE(st.IsCapacityError());
    }
    EXPECT_EQ(queue.shed(), 3u) << "deterministic=" << deterministic;
    EXPECT_EQ(queue.shed(JobClass::kInteractive), 3u);
    EXPECT_EQ(queue.shed(JobClass::kBatch), 0u);
    EXPECT_EQ(queue.shed(JobClass::kBestEffort), 0u);
    EXPECT_EQ(interactive_rejects.Value(), before + 3)
        << "deterministic=" << deterministic;
  }
}

TEST(SchedulerTest, FullQueueShedsAndReportsCapacityError) {
  Relation<Tuple8> rel = MakeRelation(1 << 12);
  auto& shed_counter = *obs::Registry::Global().GetCounter("svc.jobs.shed");
  const uint64_t shed_before = shed_counter.Value();

  SchedulerConfig config;
  config.queue_capacity = 2;
  config.num_workers = 1;
  config.start_paused = true;  // nothing drains until Resume
  Scheduler scheduler(config);

  PartitionJobSpec spec;
  spec.input = &rel;
  spec.request.fanout = 64;

  std::vector<JobHandle> admitted;
  int shed = 0;
  for (int i = 0; i < 5; ++i) {
    auto h = scheduler.Submit(spec);
    if (h.ok()) {
      admitted.push_back(std::move(h).ValueUnsafe());
    } else {
      EXPECT_TRUE(h.status().IsCapacityError()) << h.status().ToString();
      ++shed;
    }
  }
  EXPECT_EQ(admitted.size(), 2u);
  EXPECT_EQ(shed, 3);
  EXPECT_EQ(scheduler.jobs_shed(), 3u);
  EXPECT_EQ(shed_counter.Value(), shed_before + 3);

  scheduler.Resume();
  for (const JobHandle& h : admitted) {
    EXPECT_EQ(h.Wait().state, JobState::kCompleted);
  }
  scheduler.Shutdown();
}

TEST(SchedulerTest, CancelQueuedJobCompletesAsCancelled) {
  Relation<Tuple8> rel = MakeRelation(1 << 12);
  SchedulerConfig config;
  config.num_workers = 1;
  config.start_paused = true;
  Scheduler scheduler(config);

  PartitionJobSpec spec;
  spec.input = &rel;
  spec.request.fanout = 64;
  auto h = scheduler.Submit(spec);
  ASSERT_TRUE(h.ok());
  scheduler.Cancel(*h);
  scheduler.Resume();
  const JobOutcome& out = h->Wait();
  EXPECT_EQ(out.state, JobState::kCancelled);
  EXPECT_TRUE(out.status.IsCancelled());
}

TEST(SchedulerTest, PlacementPoliciesPinBackends) {
  Relation<Tuple8> rel = MakeRelation(1 << 13);
  PartitionJobSpec spec;
  spec.input = &rel;
  spec.request.fanout = 256;
  spec.request.output_mode = OutputMode::kHist;

  {
    SchedulerConfig config;
    config.policy = PlacementPolicy::kCpuOnly;
    Scheduler scheduler(config);
    auto h = scheduler.Submit(spec);
    ASSERT_TRUE(h.ok());
    EXPECT_EQ(h->Wait().backend, Backend::kCpu);
  }
  {
    SchedulerConfig config;
    config.policy = PlacementPolicy::kFpgaOnly;
    Scheduler scheduler(config);
    auto h = scheduler.Submit(spec);
    ASSERT_TRUE(h.ok());
    EXPECT_EQ(h->Wait().backend, Backend::kFpga);
  }
}

// The acceptance property of deterministic mode: the same Zipf job stream
// submitted from several racing client threads lands on identical
// backends (and produces identical checksums) on every replay.
TEST(SchedulerTest, DeterministicPlacementUnderConcurrentSubmission) {
  const size_t kClasses = 4;
  const uint64_t kJobs = 200;
  const size_t kClients = 4;
  std::vector<Relation<Tuple8>> tables;
  for (size_t c = 0; c < kClasses; ++c) {
    tables.push_back(MakeRelation(size_t{1} << (11 + c), 50 + c));
  }
  ZipfSampler zipf(kClasses, 0.9, 99);
  std::vector<size_t> job_class(kJobs);
  for (auto& jc : job_class) jc = static_cast<size_t>(zipf.Next() - 1);

  auto replay = [&] {
    SchedulerConfig config;
    config.deterministic = true;
    config.num_workers = 2;
    config.queue_capacity = kJobs;
    Scheduler scheduler(config);
    std::vector<JobHandle> handles(kJobs);
    std::vector<std::thread> clients;
    for (size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (uint64_t i = c; i < kJobs; i += kClients) {
          PartitionJobSpec spec;
          spec.input = &tables[job_class[i]];
          spec.request.fanout = 256;
          spec.request.output_mode = OutputMode::kHist;
          JobOptions opts;
          opts.arrival_seq = i;
          opts.virtual_arrival_seconds = i * 1e-5;
          auto h = scheduler.Submit(spec, opts);
          ASSERT_TRUE(h.ok());
          handles[i] = std::move(h).ValueUnsafe();
        }
      });
    }
    for (auto& t : clients) t.join();
    scheduler.Shutdown();
    std::vector<std::pair<Backend, uint64_t>> out(kJobs);
    for (uint64_t i = 0; i < kJobs; ++i) {
      auto outcome = handles[i].TryGet();
      EXPECT_TRUE(outcome.has_value());
      EXPECT_EQ(outcome->state, JobState::kCompleted);
      out[i] = {outcome->backend, outcome->checksum};
    }
    return out;
  };

  auto first = replay();
  auto second = replay();
  ASSERT_EQ(first.size(), second.size());
  size_t on_cpu = 0, on_fpga = 0;
  for (uint64_t i = 0; i < kJobs; ++i) {
    EXPECT_EQ(first[i].first, second[i].first) << "job " << i;
    EXPECT_EQ(first[i].second, second[i].second) << "job " << i;
    (first[i].first == Backend::kCpu ? on_cpu : on_fpga) += 1;
  }
  // The stream is fast enough that the device backlogs: both backends
  // must actually be exercised for the test to mean anything.
  EXPECT_GT(on_cpu, 0u);
  EXPECT_GT(on_fpga, 0u);
}

TEST(SchedulerTest, DrainsOnShutdownWithManyClients) {
  Relation<Tuple8> rel = MakeRelation(1 << 12);
  SchedulerConfig config;
  config.num_workers = 3;
  config.queue_capacity = 1024;
  Scheduler scheduler(config);
  std::vector<JobHandle> handles;
  std::mutex mu;
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&] {
      for (int i = 0; i < 25; ++i) {
        PartitionJobSpec spec;
        spec.input = &rel;
        spec.request.fanout = 128;
        spec.request.output_mode = OutputMode::kHist;
        auto h = scheduler.Submit(spec);
        if (h.ok()) {
          std::unique_lock<std::mutex> lock(mu);
          handles.push_back(std::move(h).ValueUnsafe());
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  scheduler.Shutdown();
  EXPECT_EQ(handles.size(), 100u);
  for (const JobHandle& h : handles) {
    auto out = h.TryGet();
    ASSERT_TRUE(out.has_value()) << "job not drained by Shutdown";
    EXPECT_EQ(out->state, JobState::kCompleted);
  }
}

// Stress the device pool under TSan: racing submitters firing device-pinned
// jobs of every priority class at a 2-device pool while randomly cancelling
// a third of them in flight. Every job must reach a terminal state and the
// pool's backlog accounting must balance back to zero.
TEST(SchedulerTest, StressRacingSubmittersAndCancellationsOnDevicePool) {
  Relation<Tuple8> rel = MakeRelation(1 << 12);
  const size_t kClients = 4;
  const size_t kJobsPerClient = 40;

  SchedulerConfig config;
  config.fpga_devices = 2;
  config.num_workers = 4;
  config.queue_capacity = kClients * kJobsPerClient;
  Scheduler scheduler(config);

  std::vector<JobHandle> handles(kClients * kJobsPerClient);
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(0x57e55ULL * (c + 1));
      for (size_t i = 0; i < kJobsPerClient; ++i) {
        PartitionJobSpec spec;
        spec.input = &rel;
        spec.request.fanout = 64;
        spec.request.output_mode = OutputMode::kHist;
        JobOptions opts;
        // Everything goes through the device pool; classes and deadlines
        // exercise the WFQ queue and the pool's deadline-ordered waiters.
        opts.pinned = Backend::kFpga;
        opts.job_class = static_cast<JobClass>(rng.Below(kNumJobClasses));
        if (rng.NextDouble() < 0.5) {
          opts.deadline_seconds = 0.001 + rng.NextDouble() * 0.05;
        }
        auto h = scheduler.Submit(spec, opts);
        ASSERT_TRUE(h.ok());
        handles[c * kJobsPerClient + i] = std::move(h).ValueUnsafe();
        if (rng.NextDouble() < 0.33) {
          // Race the cancel against admission, placement, the lease wait
          // and execution — all four interleavings happen across seeds.
          scheduler.Cancel(handles[c * kJobsPerClient + i]);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  scheduler.Shutdown();

  size_t completed = 0, cancelled = 0;
  for (const JobHandle& h : handles) {
    auto out = h.TryGet();
    ASSERT_TRUE(out.has_value()) << "job not drained by Shutdown";
    ASSERT_TRUE(out->state == JobState::kCompleted ||
                out->state == JobState::kCancelled)
        << JobStateName(out->state) << ": " << out->status.ToString();
    (out->state == JobState::kCompleted ? completed : cancelled) += 1;
  }
  // With a 33% cancel rate both outcomes must actually occur.
  EXPECT_GT(completed, 0u);
  EXPECT_GT(cancelled, 0u);

  const DevicePool& pool = scheduler.device_pool();
  EXPECT_EQ(pool.waiters(), 0u);
  // Every placement charge was credited back on completion/cancellation.
  EXPECT_NEAR(pool.total_backlog_seconds(), 0.0, 1e-9);
  uint64_t device_grants = 0;
  for (size_t i = 0; i < pool.num_devices(); ++i) {
    device_grants += pool.device_grants(i);
  }
  EXPECT_EQ(device_grants, pool.grants());
  EXPECT_LE(pool.grants(), completed + cancelled);
}

// Determinism regression across pool sizes: for each device count the
// fixed-seed job stream must replay to a bit-identical trace regardless of
// how many client threads race the submissions. The stream mixes partition
// jobs with a join every 16th job and a no-op rebalance job every 32nd, and
// the hash folds each job's backend and checksum plus the bit patterns of
// its virtual queue and run times and of the virtual makespan. The values
// are pinned: a deliberate placement change updates the constants and says
// why in CHANGES.md.
TEST(SchedulerTest, DeterministicTraceHashStableAcrossDeviceCounts) {
  const size_t kTables = 4;
  const uint64_t kJobs = 160;
  std::vector<Relation<Tuple8>> tables;
  for (size_t c = 0; c < kTables; ++c) {
    tables.push_back(MakeRelation(size_t{1} << (11 + c), 90 + c));
  }
  ZipfSampler zipf(kTables, 0.9, 1234);
  std::vector<size_t> table_of(kJobs);
  for (auto& t : table_of) t = static_cast<size_t>(zipf.Next() - 1);
  Rng class_rng(0xdecaf);
  std::vector<JobClass> class_of(kJobs);
  for (auto& cls : class_of) {
    cls = static_cast<JobClass>(class_rng.Below(kNumJobClasses));
  }

  auto trace_hash = [&](size_t devices, size_t clients) {
    SchedulerConfig config;
    config.deterministic = true;
    config.fpga_devices = devices;
    config.num_workers = 2;  // worker virtual clocks are part of the model
    config.queue_capacity = kJobs;
    Scheduler scheduler(config);
    std::vector<JobHandle> handles(kJobs);
    std::vector<std::thread> threads;
    for (size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        for (uint64_t i = c; i < kJobs; i += clients) {
          JobOptions opts;
          opts.arrival_seq = i;
          opts.virtual_arrival_seconds = i * 1e-5;
          opts.job_class = class_of[i];
          auto submit = [&]() -> Result<JobHandle> {
            if (i % 32 == 31) {
              RebalanceJobSpec spec;
              spec.work = [](const std::atomic<bool>*) {
                return Status::OK();
              };
              spec.cost_tuples = 4096 + i;
              return scheduler.Submit(spec, opts);
            }
            if (i % 16 == 15) {
              JoinJobSpec spec;
              spec.r = &tables[0];
              spec.s = &tables[table_of[i]];
              spec.fanout = 256;
              return scheduler.Submit(spec, opts);
            }
            PartitionJobSpec spec;
            spec.input = &tables[table_of[i]];
            spec.request.fanout = 256;
            spec.request.output_mode = OutputMode::kHist;
            return scheduler.Submit(spec, opts);
          };
          auto h = submit();
          ASSERT_TRUE(h.ok());
          handles[i] = std::move(h).ValueUnsafe();
        }
      });
    }
    for (auto& t : threads) t.join();
    scheduler.Shutdown();
    uint64_t h = 0xcbf29ce484222325ULL;
    auto fold = [&h](uint64_t v) {
      for (int b = 0; b < 8; ++b) {
        h ^= (v >> (b * 8)) & 0xff;
        h *= 0x100000001b3ULL;
      }
    };
    for (uint64_t i = 0; i < kJobs; ++i) {
      auto out = handles[i].TryGet();
      EXPECT_TRUE(out.has_value());
      EXPECT_EQ(out->state, JobState::kCompleted);
      fold(static_cast<uint64_t>(out->backend));
      fold(out->checksum);
      fold(std::bit_cast<uint64_t>(out->virtual_queue_seconds));
      fold(std::bit_cast<uint64_t>(out->virtual_run_seconds));
    }
    fold(std::bit_cast<uint64_t>(scheduler.virtual_makespan_seconds()));
    return h;
  };

  // With two workers at most two device jobs overlap, so four devices
  // replay the same trace as two.
  const std::pair<size_t, uint64_t> kPinned[] = {
      {1, 16838048778643212500ULL},
      {2, 8440048377803024574ULL},
      {4, 8440048377803024574ULL}};
  for (const auto& [devices, pinned] : kPinned) {
    const uint64_t solo = trace_hash(devices, 1);
    const uint64_t replay = trace_hash(devices, 1);
    const uint64_t racing = trace_hash(devices, 4);
    EXPECT_EQ(solo, replay) << devices << " devices: replay diverged";
    EXPECT_EQ(solo, racing)
        << devices << " devices: client interleaving changed the trace";
    EXPECT_EQ(solo, pinned) << devices << " devices: replay values changed";
  }
}

}  // namespace
}  // namespace fpart::svc
