// The svc scheduler's clock: the one object placement reads queueing
// delays from and charges placed work to (scheduler.h). Placement compares
// each backend's Section 4.6/4.8 service estimate plus the delay a job
// arriving at t would see there; how that delay is kept is the only
// difference between the scheduler's two modes:
//
//  * VirtualClock (deterministic mode) — list scheduling on virtual time:
//    a job starts at the later of its virtual arrival and the earliest
//    free worker (and, for a device job, the earliest free device), and
//    advances those free times by its modelled service time. Starts are
//    exact, so a replay is a pure function of the job stream.
//  * WallClock (live mode) — backlog ledgers in model seconds: one CPU
//    backlog shared by the active workers and DevicePool's per-device
//    clocks, charged at placement and credited back at completion.
//
// Both measure host wall time (Now()) from one epoch: queue and run
// durations and lease busy stamps are wall time in either mode.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <vector>

#include "obs/metrics.h"
#include "svc/fpga_arbiter.h"
#include "svc/job.h"

namespace fpart::svc {

class Clock {
 public:
  /// Queueing delays (model seconds) per backend. A device job queues on
  /// the least-loaded device, so `fpga` is that device's delay.
  struct Waits {
    double cpu = 0.0;
    double fpga = 0.0;
  };

  virtual ~Clock() = default;

  /// Host wall seconds since the scheduler started.
  double Now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch_)
        .count();
  }

  /// True for the virtual clock: starts are exact and the worker set is
  /// fixed, so the live-only feedback (EWMA learning, interference
  /// marking, autoscaling, submit-time admission) is off.
  virtual bool exact() const = 0;
  virtual double Arrival(const JobRecord& rec) const = 0;
  virtual Waits WaitsAt(double t) const = 0;
  /// Start on `backend` of a job arriving at t, were it charged now. Reads
  /// only: admission judges a job before anything is charged.
  virtual double Start(Backend backend, double t) const = 0;
  /// Charge `service` seconds of a worker (the whole run) and, for a
  /// device job, `device_seconds` of a device (the lease phase).
  virtual void Charge(JobRecord* rec, Backend backend, double t,
                      double service, double device_seconds) = 0;
  virtual void Credit(const JobRecord& rec) = 0;
  virtual double cpu_backlog_seconds() const = 0;
  virtual double makespan() const = 0;

 private:
  const std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
};

/// Deterministic mode. Dispatcher-only, except makespan(), which callers
/// read after Shutdown() joined the dispatcher.
class VirtualClock final : public Clock {
 public:
  VirtualClock(size_t workers, size_t devices)
      : worker_free_(workers, 0.0), device_free_(devices, 0.0) {}

  bool exact() const override { return true; }
  double Arrival(const JobRecord& rec) const override {
    return rec.opts.virtual_arrival_seconds;
  }
  Waits WaitsAt(double t) const override {
    Waits w;
    w.cpu = std::max(0.0, *Earliest(worker_free_) - t);
    w.fpga = std::max(0.0, *Earliest(device_free_) - t);
    return w;
  }
  double Start(Backend backend, double t) const override {
    const double worker = *Earliest(worker_free_);
    if (backend == Backend::kCpu) return std::max(t, worker);
    return std::max({t, *Earliest(device_free_), worker});
  }
  void Charge(JobRecord* rec, Backend backend, double t, double service,
              double device_seconds) override {
    const double start = Start(backend, t);
    if (backend != Backend::kCpu) {
      *Earliest(device_free_) = start + device_seconds;
    }
    *Earliest(worker_free_) = start + service;
    rec->outcome.virtual_queue_seconds = start - t;
    rec->outcome.virtual_run_seconds = service;
  }
  void Credit(const JobRecord&) override {}
  double cpu_backlog_seconds() const override { return 0.0; }
  double makespan() const override {
    double makespan = 0.0;
    for (double t : device_free_) makespan = std::max(makespan, t);
    for (double t : worker_free_) makespan = std::max(makespan, t);
    return makespan;
  }

 private:
  /// The first least-free clock: list scheduling's pick.
  template <typename Clocks>
  static auto Earliest(Clocks& clocks) -> decltype(clocks.begin()) {
    return std::min_element(clocks.begin(), clocks.end());
  }

  std::vector<double> worker_free_;
  std::vector<double> device_free_;
};

/// Live mode. Thread-safe: clients read the waits at submit, the
/// dispatcher charges, workers credit.
class WallClock final : public Clock {
 public:
  WallClock(DevicePool* pool, const std::atomic<size_t>* active_workers,
            obs::Gauge* cpu_gauge, obs::Gauge* fpga_gauge)
      : pool_(pool),
        active_workers_(active_workers),
        cpu_gauge_(cpu_gauge),
        fpga_gauge_(fpga_gauge) {}

  bool exact() const override { return false; }
  double Arrival(const JobRecord& rec) const override {
    return rec.submit_seconds;
  }
  Waits WaitsAt(double) const override {
    const size_t workers = std::max<size_t>(
        1, active_workers_->load(std::memory_order_acquire));
    Waits w;
    w.fpga = pool_->backlog_seconds();
    std::unique_lock<std::mutex> lock(mu_);
    w.cpu = cpu_backlog_ / static_cast<double>(workers);
    return w;
  }
  double Start(Backend backend, double t) const override {
    const Waits w = WaitsAt(t);
    return t + (backend == Backend::kCpu ? w.cpu : w.fpga);
  }
  void Charge(JobRecord* rec, Backend backend, double, double service,
              double device_seconds) override {
    if (backend == Backend::kCpu) return AddCpu(service);
    rec->charged_device = pool_->ChargeLeastLoaded(device_seconds);
    fpga_gauge_->Set(pool_->backlog_seconds());
  }
  void Credit(const JobRecord& rec) override {
    if (rec.outcome.backend == Backend::kCpu) {
      return AddCpu(-rec.placed_estimate_seconds);
    }
    pool_->Credit(rec.charged_device, rec.placed_estimate_seconds);
    fpga_gauge_->Set(pool_->backlog_seconds());
  }
  double cpu_backlog_seconds() const override {
    std::unique_lock<std::mutex> lock(mu_);
    return cpu_backlog_;
  }
  double makespan() const override { return 0.0; }

 private:
  void AddCpu(double seconds) {
    std::unique_lock<std::mutex> lock(mu_);
    cpu_backlog_ = std::max(0.0, cpu_backlog_ + seconds);
    cpu_gauge_->Set(cpu_backlog_);
  }

  DevicePool* pool_;
  const std::atomic<size_t>* active_workers_;
  obs::Gauge* cpu_gauge_;
  obs::Gauge* fpga_gauge_;
  mutable std::mutex mu_;
  double cpu_backlog_ = 0.0;  ///< placed-but-unfinished CPU model seconds
};

}  // namespace fpart::svc
