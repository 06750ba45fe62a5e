//===- serve/VmFleet.h - Multi-tenant VM execution fleet ------------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The execution substrate of the fleet service (DESIGN.md §12): a pool
/// of pre-configured VM slots that all warm-start from ONE shared
/// read-only CacheStore, opened once at fleet construction. The paper's
/// amortization argument — pay translation once, reap it across
/// executions — extended across tenants: every request served warm does
/// zero translation work, and a thousand concurrent warm starts contend
/// on nothing (CacheStore::openReadOnly never takes the save lock, and
/// lookup() is a const walk over immutable payload bytes).
///
/// VmFleet itself is the synchronous, in-process core: execute() runs one
/// request to a typed ExecResponse, enforcing per-request instruction
/// ceilings, wall-clock deadlines (as budget slices over the resumable
/// VM), and per-tenant code-cache byte budgets (the PR-4 eviction
/// machinery, one budget per tenant). ExecutionScheduler puts the bounded
/// queue and the worker threads on top.
///
//===----------------------------------------------------------------------===//

#ifndef ILDP_SERVE_VMFLEET_H
#define ILDP_SERVE_VMFLEET_H

#include "persist/CacheStore.h"
#include "serve/AdmissionControl.h"
#include "serve/ExecRequest.h"
#include "vm/VirtualMachine.h"

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace ildp {
namespace serve {

/// Fleet-wide configuration.
struct FleetConfig {
  /// Execution worker slots (ExecutionScheduler threads; VmFleet::execute
  /// itself is callable from any of them concurrently).
  unsigned Workers = 1;
  /// Default per-lane bound of the request queue; a full lane rejects
  /// QueueFull. Lanes may be bounded individually via LaneDepths.
  size_t QueueDepth = 64;
  /// Per-lane depth bounds, indexed by Priority (0 = use QueueDepth).
  std::array<size_t, NumPriorities> LaneDepths{{0, 0, 0}};
  /// Weighted-deficit dequeue grants per round, indexed by Priority: the
  /// long-run served mix under sustained pressure on every lane. The
  /// default serves 8 interactive : 3 normal : 1 batch, so interactive
  /// latency stays bounded under a batch backlog while batch never
  /// starves (0 entries are clamped to 1).
  std::array<unsigned, NumPriorities> LaneWeights{{8, 3, 1}};
  /// Per-tenant admission quotas (token-bucket rate + max in-flight).
  /// Tenants not listed use DefaultQuota.
  std::map<std::string, TenantQuota> TenantQuotas;
  /// Quota for tenants without an entry. Fully permissive by default, so
  /// admission control is opt-in.
  TenantQuota DefaultQuota;
  /// Template VM configuration for every request. PersistPath/PersistSave
  /// are ignored (fleet VMs never write a store); the DbtConfig half
  /// participates in image fingerprints, so it must match the
  /// configuration that produced the warm store.
  vm::VmConfig BaseVm;
  /// Warm store: opened read-only once at construction and shared by
  /// every request VM. Empty = cold fleet (every request translates for
  /// itself).
  std::string StorePath;
  /// Per-tenant translation-cache byte budgets (0 = unbounded). Tenants
  /// not listed get an unbounded cache.
  std::map<std::string, uint64_t> TenantCacheBytes;
};

/// The fleet: shared warm store + image registry + request executor.
class VmFleet {
public:
  explicit VmFleet(const FleetConfig &Config);

  VmFleet(const VmFleet &) = delete;
  VmFleet &operator=(const VmFleet &) = delete;

  /// Registers \p Image for execution by fingerprint or name and returns
  /// its fingerprint (under the fleet's DbtConfig — the same identity the
  /// warm store slots use). Re-registering a fingerprint or name replaces
  /// the previous entry. NOT thread-safe against concurrent execute();
  /// populate the registry before serving.
  uint64_t registerImage(GuestImage Image);

  /// Registers all twelve paper workloads at \p Scale. Returns the count.
  size_t registerWorkloads(unsigned Scale = 1);

  /// Executes one request synchronously on the calling thread and returns
  /// its typed response. Thread-safe: any number of workers may execute
  /// concurrently (each request gets a fresh VM; the shared store is
  /// read-only). \p Worker tags the response with the executing slot.
  /// Request.DeadlineMicros is measured from this call.
  ExecResponse execute(const ExecRequest &Request, unsigned Worker = 0);

  /// As execute(), but against an absolute wall deadline established at
  /// admission time — the scheduler path, where queueing time counts
  /// against the deadline. An already-expired deadline rejects typed
  /// ("wall-deadline") before a VM is constructed.
  ExecResponse
  executeUntil(const ExecRequest &Request, unsigned Worker,
               std::chrono::steady_clock::time_point Deadline);

  /// Counts a scheduler-level rejection (queue-full / quota / shutdown /
  /// shed) in the fleet statistics, so serve.* totals cover every
  /// submitted request. \p Tenant additionally attributes the rejection
  /// to "serve.tenant.<id>.rejected.<reason>" for quota tuning.
  void countRejected(ExecStatus Status, const std::string &Tenant);
  void countRejected(ExecStatus Status) {
    countRejected(Status, std::string());
  }

  /// Counts a deadline-aware load shed under "serve.shed.<kind>" on top
  /// of its typed rejection: \p Kind is "expired_in_queue" (dequeue-time
  /// re-check) or "deadline_unmeetable" (admission-time estimate).
  void countShed(const char *Kind, ExecStatus Status,
                 const std::string &Tenant);

  /// Counts one request served from lane \p P ("serve.lane.<name>.served").
  void countLaneServed(Priority P);

  /// The shared warm store (empty when StorePath was empty or bad).
  const persist::CacheStore &store() const { return Store; }
  /// Status of the read-only store open (Ok also when StorePath empty —
  /// a cold fleet is not an error; FileNotFound etc. otherwise).
  persist::StoreStatus storeStatus() const { return StoreState; }
  /// True when requests warm-start from the shared store.
  bool storeLoaded() const { return StoreLoaded; }

  const FleetConfig &config() const { return Config; }

  /// Fleet-level statistics ("serve.*"): request counts by status, guest
  /// instructions served, translation work paid, evictions, warm hits.
  /// Thread-safe; materialized from atomics on call.
  StatisticSet stats() const;

private:
  const char *materialize(const ExecRequest &Request, GuestMemory &Mem,
                          uint64_t &EntryPc) const;
  uint64_t resolveCacheBudget(const ExecRequest &Request) const;
  ExecResponse executeImpl(const ExecRequest &Request, unsigned Worker,
                           bool HasDeadline,
                           std::chrono::steady_clock::time_point Deadline);
  void countTenantRejected(const std::string &Tenant, ExecStatus Status);

  FleetConfig Config;
  persist::CacheStore Store;
  persist::StoreStatus StoreState = persist::StoreStatus::Ok;
  bool StoreLoaded = false;

  /// Image registry (fixed after setup; see registerImage).
  std::vector<GuestImage> Images;
  std::unordered_map<uint64_t, size_t> ImageByFingerprint;
  std::unordered_map<std::string, size_t> ImageByName;

  /// Lock-free accounting: execute() runs on many workers at once.
  struct Counters {
    std::atomic<uint64_t> Requests{0};
    std::array<std::atomic<uint64_t>, NumExecStatuses> ByStatus{};
    std::atomic<uint64_t> GuestInsts{0};
    std::atomic<uint64_t> TranslationUnits{0};
    std::atomic<uint64_t> Evictions{0};
    std::atomic<uint64_t> Bailouts{0};
    std::atomic<uint64_t> StoreHits{0};
    std::atomic<uint64_t> StoreMisses{0};
    std::atomic<uint64_t> WallMicros{0};
    std::array<std::atomic<uint64_t>, NumPriorities> LaneServed{};
  };
  Counters Count;

  /// Per-tenant rejection counts by reason and shed counts by kind
  /// ("serve.tenant.<id>.rejected.<reason>", "serve.shed.<kind>").
  /// Rejections are rare relative to execution, so a mutex-guarded map is
  /// the right tool — the hot path (Finish on an Ok response) never takes
  /// it.
  mutable std::mutex RejectMutex;
  std::map<std::string, std::array<uint64_t, NumExecStatuses>>
      TenantRejected;
  std::map<std::string, uint64_t> ShedCounts;
};

} // namespace serve
} // namespace ildp

#endif // ILDP_SERVE_VMFLEET_H
