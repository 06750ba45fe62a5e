//===- serve/VmFleet.cpp - Multi-tenant VM execution fleet ----------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//

#include "serve/VmFleet.h"

#include "persist/Fingerprint.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <chrono>

using namespace ildp;
using namespace ildp::serve;

namespace {

/// Guest-instruction ceiling for requests that do not set their own.
constexpr uint64_t DefaultMaxGuestInsts = 400'000'000;
/// Deadline enforcement granularity: wall-clock checks happen between
/// budget slices of this many guest instructions.
constexpr uint64_t DeadlineSliceInsts = 1'000'000;
/// Translation-cache budget of tenants without a TenantCacheBytes entry.
constexpr uint64_t DefaultCacheBytes = 0; // Unbounded.

} // namespace

VmFleet::VmFleet(const FleetConfig &Config) : Config(Config) {
  // Normalize the VM template: fleet VMs never open or write a store
  // themselves — the one read-only store below is their only warm source.
  this->Config.BaseVm.PersistPath.clear();
  this->Config.BaseVm.PersistSave = false;
  this->Config.BaseVm.SharedStore = nullptr;
  if (this->Config.Workers == 0)
    this->Config.Workers = 1;

  if (!Config.StorePath.empty()) {
    StoreState = Store.openReadOnly(Config.StorePath);
    // Report-and-degrade: a missing or corrupt store serves cold, it does
    // not kill the fleet. (The VM-level persist.* taxonomy already counts
    // per-reason rejections; storeStatus() exposes the open status.)
    StoreLoaded = StoreState == persist::StoreStatus::Ok;
  }
}

uint64_t VmFleet::registerImage(GuestImage Image) {
  GuestMemory Mem;
  if (buildGuestMemory(Image, Mem) != nullptr)
    return 0;
  uint64_t Fingerprint =
      persist::fingerprint(Mem, Image.EntryPc, Config.BaseVm.Dbt);
  size_t Index;
  auto Existing = ImageByFingerprint.find(Fingerprint);
  if (Existing != ImageByFingerprint.end()) {
    Index = Existing->second;
    Images[Index] = std::move(Image);
  } else {
    Index = Images.size();
    Images.push_back(std::move(Image));
    ImageByFingerprint.emplace(Fingerprint, Index);
  }
  ImageByName[Images[Index].Name] = Index;
  return Fingerprint;
}

size_t VmFleet::registerWorkloads(unsigned Scale) {
  for (const std::string &Name : workloads::workloadNames())
    registerImage(imageFromWorkload(Name, Scale));
  return workloads::workloadNames().size();
}

const char *VmFleet::materialize(const ExecRequest &Request, GuestMemory &Mem,
                                 uint64_t &EntryPc) const {
  const GuestImage *Image = nullptr;
  if (!Request.Image.empty()) {
    Image = &Request.Image;
  } else if (Request.ImageFingerprint != 0) {
    auto It = ImageByFingerprint.find(Request.ImageFingerprint);
    if (It == ImageByFingerprint.end())
      return "unknown-fingerprint";
    Image = &Images[It->second];
  } else if (!Request.Workload.empty()) {
    auto It = ImageByName.find(Request.Workload);
    if (It == ImageByName.end())
      return "unknown-workload";
    Image = &Images[It->second];
  } else {
    return "no-image";
  }
  EntryPc = Image->EntryPc;
  return buildGuestMemory(*Image, Mem);
}

uint64_t VmFleet::resolveCacheBudget(const ExecRequest &Request) const {
  if (Request.CodeCacheBytes != InheritCacheBudget)
    return Request.CodeCacheBytes;
  auto It = Config.TenantCacheBytes.find(Request.Tenant);
  if (It != Config.TenantCacheBytes.end())
    return It->second;
  return DefaultCacheBytes;
}

void VmFleet::countTenantRejected(const std::string &Tenant,
                                  ExecStatus Status) {
  std::lock_guard<std::mutex> Lock(RejectMutex);
  TenantRejected[Tenant][size_t(Status)] += 1;
}

void VmFleet::countRejected(ExecStatus Status, const std::string &Tenant) {
  Count.Requests.fetch_add(1, std::memory_order_relaxed);
  Count.ByStatus[size_t(Status)].fetch_add(1, std::memory_order_relaxed);
  countTenantRejected(Tenant, Status);
}

void VmFleet::countShed(const char *Kind, ExecStatus Status,
                        const std::string &Tenant) {
  countRejected(Status, Tenant);
  std::lock_guard<std::mutex> Lock(RejectMutex);
  ShedCounts[Kind] += 1;
}

void VmFleet::countLaneServed(Priority P) {
  Count.LaneServed[size_t(P)].fetch_add(1, std::memory_order_relaxed);
}

ExecResponse VmFleet::execute(const ExecRequest &Request, unsigned Worker) {
  using Clock = std::chrono::steady_clock;
  bool HasDeadline = Request.DeadlineMicros != 0;
  return executeImpl(Request, Worker, HasDeadline,
                     Clock::now() +
                         std::chrono::microseconds(Request.DeadlineMicros));
}

ExecResponse
VmFleet::executeUntil(const ExecRequest &Request, unsigned Worker,
                      std::chrono::steady_clock::time_point Deadline) {
  return executeImpl(Request, Worker, /*HasDeadline=*/true, Deadline);
}

ExecResponse
VmFleet::executeImpl(const ExecRequest &Request, unsigned Worker,
                     bool HasDeadline,
                     std::chrono::steady_clock::time_point Deadline) {
  using Clock = std::chrono::steady_clock;
  Clock::time_point Start = Clock::now();

  ExecResponse Resp;
  Resp.Worker = Worker;

  auto Finish = [&](ExecStatus Status, const char *Detail) -> ExecResponse & {
    Resp.Status = Status;
    Resp.Detail = Detail;
    Resp.WallMicros = std::chrono::duration<double, std::micro>(
                          Clock::now() - Start)
                          .count();
    Count.Requests.fetch_add(1, std::memory_order_relaxed);
    Count.ByStatus[size_t(Status)].fetch_add(1, std::memory_order_relaxed);
    Count.GuestInsts.fetch_add(Resp.GuestInsts, std::memory_order_relaxed);
    Count.WallMicros.fetch_add(uint64_t(Resp.WallMicros),
                               std::memory_order_relaxed);
    Count.TranslationUnits.fetch_add(Resp.Stats.get("dbt.cost.total"),
                                     std::memory_order_relaxed);
    Count.Evictions.fetch_add(Resp.Stats.get("cache.evictions"),
                              std::memory_order_relaxed);
    Count.Bailouts.fetch_add(Resp.Stats.get("robust.bailouts"),
                             std::memory_order_relaxed);
    Count.StoreHits.fetch_add(Resp.Stats.get("persist.store_hit"),
                              std::memory_order_relaxed);
    Count.StoreMisses.fetch_add(Resp.Stats.get("persist.store_miss"),
                                std::memory_order_relaxed);
    if (Status != ExecStatus::Ok && Status != ExecStatus::Trapped)
      countTenantRejected(Request.Tenant, Status);
    return Resp;
  };

  // Belt-and-braces deadline re-check: a request whose deadline already
  // passed (it expired between the scheduler's dequeue check and here, or
  // the caller handed in a stale deadline) must not consume a VM or a
  // budget slice — reject typed before any work.
  if (HasDeadline && Start >= Deadline)
    return Finish(ExecStatus::DeadlineExceeded, "wall-deadline");

  GuestMemory Mem;
  uint64_t EntryPc = 0;
  if (const char *Bad = materialize(Request, Mem, EntryPc))
    return Finish(ExecStatus::BadImage, Bad);

  vm::VmConfig VmConf = Config.BaseVm;
  if (StoreLoaded)
    VmConf.SharedStore = &Store;
  VmConf.CodeCacheBytes = resolveCacheBudget(Request);

  uint64_t Ceiling =
      Request.MaxGuestInsts ? Request.MaxGuestInsts : DefaultMaxGuestInsts;
  // With a deadline the VM runs in budget slices so the wall clock is
  // checked at bounded guest-instruction intervals; run() is resumable
  // after a Budget stop (setGuestInstBudget raises the ceiling in place).
  VmConf.MaxGuestInsts =
      HasDeadline ? std::min(Ceiling, DeadlineSliceInsts) : Ceiling;

  vm::VirtualMachine Vm(Mem, EntryPc, VmConf);

  ExecStatus Status = ExecStatus::Ok;
  const char *Detail = "";
  for (;;) {
    vm::RunResult Run = Vm.run();
    if (Run.Reason == vm::StopReason::Halted)
      break;
    if (Run.Reason == vm::StopReason::Trapped) {
      Status = ExecStatus::Trapped;
      Detail = "guest-trap";
      break;
    }
    // Budget stop: the ceiling, the deadline slice, or both.
    if (Vm.guestInsts() >= Ceiling) {
      Status = ExecStatus::InstBudgetExceeded;
      Detail = "guest-inst-ceiling";
      break;
    }
    if (HasDeadline && Clock::now() >= Deadline) {
      Status = ExecStatus::DeadlineExceeded;
      Detail = "wall-deadline";
      break;
    }
    Vm.setGuestInstBudget(
        std::min(Ceiling, Vm.guestInsts() + DeadlineSliceInsts));
  }

  Resp.Arch = Vm.interpreter().state();
  Resp.Checksum = Resp.Arch.readGpr(alpha::RegV0);
  Resp.GuestInsts = Vm.guestInsts();
  Resp.Stats = Vm.statsDelta();
  return Finish(Status, Detail);
}

StatisticSet VmFleet::stats() const {
  StatisticSet S;
  S.set("serve.workers", Config.Workers);
  S.set("serve.queue_depth", Config.QueueDepth);
  S.set("serve.registered_images", Images.size());
  S.set("serve.store_loaded", StoreLoaded ? 1 : 0);
  if (StoreLoaded) {
    S.set("serve.store_images", Store.imageCount());
    S.set("serve.store_bytes", Store.totalPayloadBytes());
  }
  S.set("serve.requests", Count.Requests.load(std::memory_order_relaxed));
  for (unsigned I = 0; I != NumExecStatuses; ++I) {
    uint64_t N = Count.ByStatus[I].load(std::memory_order_relaxed);
    if (I == size_t(ExecStatus::Ok))
      S.set("serve.ok", N);
    else if (I == size_t(ExecStatus::Trapped))
      S.set("serve.trapped", N); // An outcome, not a rejection.
    else if (N)
      S.set(std::string("serve.rejected.") +
                getExecStatusName(ExecStatus(I)),
            N);
  }
  for (unsigned I = 0; I != NumPriorities; ++I) {
    uint64_t N = Count.LaneServed[I].load(std::memory_order_relaxed);
    if (N)
      S.set(std::string("serve.lane.") + getPriorityName(Priority(I)) +
                ".served",
            N);
  }
  {
    std::lock_guard<std::mutex> Lock(RejectMutex);
    for (const auto &[Tenant, ByStatus] : TenantRejected) {
      std::string Prefix = "serve.tenant." +
                           (Tenant.empty() ? std::string("default") : Tenant) +
                           ".rejected.";
      for (unsigned I = 0; I != NumExecStatuses; ++I)
        if (ByStatus[I])
          S.set(Prefix + getExecStatusName(ExecStatus(I)), ByStatus[I]);
    }
    for (const auto &[Kind, N] : ShedCounts)
      S.set(std::string("serve.shed.") + Kind, N);
  }
  S.set("serve.guest_insts", Count.GuestInsts.load(std::memory_order_relaxed));
  S.set("serve.translation_units",
        Count.TranslationUnits.load(std::memory_order_relaxed));
  S.set("serve.cache_evictions",
        Count.Evictions.load(std::memory_order_relaxed));
  S.set("serve.robust_bailouts",
        Count.Bailouts.load(std::memory_order_relaxed));
  S.set("serve.store_hits", Count.StoreHits.load(std::memory_order_relaxed));
  S.set("serve.store_misses",
        Count.StoreMisses.load(std::memory_order_relaxed));
  S.set("serve.wall_micros", Count.WallMicros.load(std::memory_order_relaxed));
  return S;
}
