//===- serve/ExecutionScheduler.h - Overload-hardened request scheduler ---===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The service layer over VmFleet (DESIGN.md §12/§14): per-tenant
/// admission control, priority lanes, and deadline-aware load shedding in
/// front of a pool of execution worker threads. submit() never blocks —
/// every overload condition turns into an immediate typed response:
///
///  - a tenant over its token-bucket rate or in-flight cap gets
///    TenantQuotaExceeded with a computed RetryAfterMs backoff hint;
///  - a request whose estimated queue wait already exceeds its wall
///    deadline is shed at admission ("deadline-unmeetable") instead of
///    rotting in the queue;
///  - a full priority lane gets QueueFull (per-lane depth bounds — a
///    batch flood fills the batch lane, not the interactive one).
///
/// Queued requests are drained by weighted-deficit dequeue across the
/// Interactive/Normal/Batch lanes (FleetConfig::LaneWeights), and a
/// request whose deadline expired while it sat in the queue is rejected
/// typed at dequeue ("wall-deadline") without consuming a VM or a worker
/// slice.
///
/// Shutdown has two modes: shutdown(true) drains —
/// queued requests all execute before the workers exit; shutdown(false)
/// cancels — in-flight requests complete, still-queued requests are
/// rejected with a typed ExecStatus::ShutDown response. Either way every
/// accepted promise is fulfilled (no broken futures, no leaks) and the
/// destructor performs a cancelling shutdown.
///
//===----------------------------------------------------------------------===//

#ifndef ILDP_SERVE_EXECUTIONSCHEDULER_H
#define ILDP_SERVE_EXECUTIONSCHEDULER_H

#include "serve/AdmissionControl.h"
#include "serve/VmFleet.h"
#include "support/WorkQueue.h"

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

namespace ildp {
namespace serve {

/// Asynchronous multi-tenant execution service.
class ExecutionScheduler {
public:
  /// Opens the shared store (read-only) and spawns Config.Workers
  /// execution threads.
  explicit ExecutionScheduler(const FleetConfig &Config);
  ~ExecutionScheduler(); // Cancelling shutdown.

  ExecutionScheduler(const ExecutionScheduler &) = delete;
  ExecutionScheduler &operator=(const ExecutionScheduler &) = delete;

  /// Enqueues \p Request into its priority lane and returns the future
  /// response. Never blocks: a stopped scheduler, an exhausted tenant
  /// quota, an unmeetable deadline, or a full lane fulfills the future
  /// immediately with a typed rejection (ShutDown / TenantQuotaExceeded /
  /// DeadlineExceeded / QueueFull). Every returned future is eventually
  /// fulfilled. DeadlineMicros is measured from this call — queueing time
  /// counts against the deadline.
  std::future<ExecResponse> submit(ExecRequest Request);

  /// Stops the service. With \p FinishQueued, workers complete every
  /// queued request first (drain); otherwise queued requests are
  /// rejected with ExecStatus::ShutDown (cancel) — in-flight requests
  /// complete either way. Joins the workers. Returns the number of
  /// queued requests cancelled. Idempotent.
  size_t shutdown(bool FinishQueued);

  bool stopped() const { return Stopped.load(std::memory_order_acquire); }

  VmFleet &fleet() { return Fleet; }
  const VmFleet &fleet() const { return Fleet; }
  unsigned workerCount() const { return NumWorkers; }

  /// Requests accepted into the queue so far.
  uint64_t submittedCount() const {
    return Submitted.load(std::memory_order_relaxed);
  }

  /// Admission-control state (quotas, in-flight counts, service EWMA).
  const AdmissionControl &admission() const { return Admission; }

  /// Estimated queue wait for a request entering \p Lane right now, in
  /// microseconds: the requests the weighted-deficit dequeue would serve
  /// first, priced at the observed mean service time and divided across
  /// the workers. Zero until the first completion (no sample, no shed).
  uint64_t estimateQueueWaitMicros(Priority Lane) const;

private:
  using Clock = std::chrono::steady_clock;

  struct Job {
    ExecRequest Request;
    std::promise<ExecResponse> Promise;
    Clock::time_point Deadline{};
    bool HasDeadline = false;
  };

  void workerMain(unsigned Id);
  static ExecResponse makeReject(ExecStatus Status, const char *Detail,
                                 uint32_t RetryAfterMs = 0);

  VmFleet Fleet;
  AdmissionControl Admission;
  MultiLaneQueue<Job> Queue;
  /// Fixed at construction. submit() prices retry hints by it while
  /// shutdown() may be tearing Workers down — it must not read the
  /// vector.
  unsigned NumWorkers = 0;
  std::vector<std::thread> Workers;
  std::atomic<bool> Stopped{false};
  /// Set by a cancelling shutdown: workers reject (rather than execute)
  /// everything still queued.
  std::atomic<bool> CancelQueued{false};
  std::atomic<uint64_t> Submitted{0};
  std::atomic<uint64_t> Cancelled{0};
};

} // namespace serve
} // namespace ildp

#endif // ILDP_SERVE_EXECUTIONSCHEDULER_H
