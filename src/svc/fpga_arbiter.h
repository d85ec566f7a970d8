// Lease arbitration for a pool of N (simulated) FPGA devices.
//
// The paper's platform has one QPI-attached FPGA shared by everything on
// the machine (Section 2.1); multi-FPGA deployments are the established
// scaling path for partitioning accelerators (RePart, PAPERS.md). The svc
// runtime serializes access through this pool: every device is an
// exclusive lease, and a job holds exactly one device while it runs on
// the simulator.
//
// Grant order: waiters are granted earliest-deadline-first, FIFO (arrival
// sequence) among equal or absent deadlines — the same intra-class
// ordering the admission queue uses, so a job's position cannot invert
// between queue and device. The granted waiter takes the *least
// backlogged free* device (its own placement charge discounted), which
// keeps the per-device backlog clocks balanced.
//
// Cancellation: a waiter whose job's cancel token fires leaves the wait
// set and returns Status::Cancelled; free devices are handed to the next
// waiter immediately (no orphaned grant, no stalled queue — per device).
// The scheduler calls NotifyCancelled() after setting a token so sleeping
// waiters re-check it.
//
// Backlog accounting: each device keeps its own backlog clock — the
// summed *model-time* estimate of work charged to it at placement but not
// yet credited back at completion. Placement reads the pool minimum as
// the device queueing delay (WallClock, svc/clock.h) and falls back to
// the CPU when that delay makes the device path slower.
//
// Observability: device i publishes svc.device.<i>.grants,
// svc.device.<i>.busy_us and svc.device.<i>.backlog_seconds
// (docs/observability.md).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <set>
#include <utility>
#include <vector>

#include "common/status.h"
#include "svc/job.h"

namespace fpart::obs {
class Counter;
class Gauge;
}  // namespace fpart::obs

namespace fpart::svc {

class DevicePool {
 public:
  /// \param num_devices  FPGA devices in the pool (0 is clamped to 1).
  explicit DevicePool(size_t num_devices = 1);
  FPART_DISALLOW_COPY_AND_ASSIGN(DevicePool);

  /// Block until `rec` holds one exclusive device lease (rec->device is
  /// set to its index), or until its cancel token fires
  /// (Status::Cancelled; the reservation is removed and the remaining
  /// waiters woken). On OK the caller MUST Release(rec).
  Status Acquire(JobRecord* rec);

  /// Return rec's device lease and hand it to the best remaining waiter.
  void Release(JobRecord* rec);

  /// Wake sleeping waiters so they re-check their cancel tokens.
  void NotifyCancelled();

  /// Charge `est_seconds` of placed work to the least-backlogged device's
  /// clock; returns the device index (the caller records it and credits
  /// the same device at completion).
  int ChargeLeastLoaded(double est_seconds);
  /// Credit work charged by ChargeLeastLoaded (device < 0 is a no-op).
  void Credit(int device, double est_seconds);

  /// Wall time spent holding device leases (svc.device.<i>.busy_us).
  void RecordBusy(int device, double wall_seconds);

  /// Smallest per-device backlog — the queueing delay a new device job
  /// would see on the pool.
  double backlog_seconds() const;
  /// Summed backlog across all devices.
  double total_backlog_seconds() const;
  double device_backlog_seconds(size_t device) const;

  /// Lifetime grant counts, pool-wide and per device.
  uint64_t grants() const;
  uint64_t device_grants(size_t device) const;
  size_t waiters() const;
  size_t num_devices() const { return devices_.size(); }

 private:
  using WaitKey = std::pair<double, uint64_t>;  // (deadline_key, seq)

  struct Device {
    const JobRecord* holder = nullptr;
    double backlog_seconds = 0.0;
    uint64_t grants = 0;
    obs::Counter* grants_metric = nullptr;
    obs::Counter* busy_us_metric = nullptr;
    obs::Gauge* backlog_metric = nullptr;
  };

  /// Least-backlogged free device for `rec` (its own placement charge
  /// discounted), or -1 when every device is held. Lock held.
  int PickFreeDeviceLocked(const JobRecord* rec) const;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Device> devices_;
  std::set<WaitKey> waiters_;
  size_t held_ = 0;
};

}  // namespace fpart::svc
