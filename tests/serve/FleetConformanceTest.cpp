//===- tests/serve/FleetConformanceTest.cpp -------------------------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fleet service's correctness contract: every ExecResponse is
/// bit-identical — architected register state and checksum — to a
/// standalone cold VM run of the same workload, across the full cell
/// matrix of {1, 4, 8 fleet workers} x {warm shared store, cold} x
/// {no faults, armed import/codegen fault on every request} x {unbounded,
/// tiny per-tenant code-cache budget}. Concurrency, warm starts, injected
/// faults, and eviction pressure may change how a request is served —
/// never what it computes. The warm no-fault unbounded cells additionally
/// prove the point of the fleet: ZERO translation work across all twelve
/// workloads, all served by one read-only store.
///
//===----------------------------------------------------------------------===//

#include "serve/ExecutionScheduler.h"
#include "support/Injector.h"
#include "workloads/Workloads.h"

#include <cstdio>
#include <future>
#include <gtest/gtest.h>
#include <map>
#include <string>
#include <tuple>
#include <unistd.h>
#include <vector>

using namespace ildp;
using namespace ildp::serve;
using support::InjectSite;
using support::Injector;

namespace {

constexpr uint64_t TinyBudget = 4096; // Same pressure point as VmConformance.
const char *const TinyTenant = "tiny-tenant";

/// Reference final state from a standalone cold default-config VM,
/// computed once per workload and reused by every cell.
const ArchState &referenceRun(const std::string &Name) {
  static std::map<std::string, ArchState> Cache;
  auto It = Cache.find(Name);
  if (It != Cache.end())
    return It->second;
  GuestMemory Mem;
  workloads::WorkloadImage Img = workloads::buildWorkload(Name, Mem, 1);
  vm::VirtualMachine Vm(Mem, Img.EntryPc, vm::VmConfig{});
  EXPECT_EQ(Vm.run().Reason, vm::StopReason::Halted) << Name;
  return Cache.emplace(Name, Vm.interpreter().state()).first->second;
}

/// One shared warm store serving every workload, seeded once by cold
/// default-config saving runs (the VmConformanceTest recipe).
const std::string &sharedStorePath() {
  static std::string Path;
  if (!Path.empty())
    return Path;
  // Pid-unique: parallel ctest runs every cell in its own process, each
  // with its own lazy seeding pass over this path.
  Path = testing::TempDir() + "/fleet-conformance." +
         std::to_string(getpid()) + ".tstore";
  std::remove(Path.c_str());
  for (const std::string &W : workloads::workloadNames()) {
    GuestMemory Mem;
    workloads::WorkloadImage Img = workloads::buildWorkload(W, Mem, 1);
    vm::VmConfig Config;
    Config.PersistPath = Path;
    vm::VirtualMachine Vm(Mem, Img.EntryPc, Config);
    EXPECT_EQ(Vm.run().Reason, vm::StopReason::Halted) << "seeding " << W;
  }
  return Path;
}

void expectSameGprs(const ArchState &Got, const ArchState &Ref,
                    const std::string &Context) {
  for (unsigned Reg = 0; Reg != alpha::NumGprs; ++Reg)
    EXPECT_EQ(Got.readGpr(Reg), Ref.readGpr(Reg))
        << Context << ": register r" << Reg << " diverged";
}

struct Cell {
  unsigned Workers = 1;
  bool Warm = false;
  bool Fault = false;
  bool Tiny = false;
};

} // namespace

class FleetConformance
    : public ::testing::TestWithParam<std::tuple<unsigned, bool, bool, bool>> {
};

TEST_P(FleetConformance, ResponsesBitIdenticalToStandaloneRuns) {
  Cell C;
  std::tie(C.Workers, C.Warm, C.Fault, C.Tiny) = GetParam();
  std::string Suffix = "/w" + std::to_string(C.Workers) +
                       (C.Warm ? "/warm" : "/cold") +
                       (C.Fault ? "/fault" : "") + (C.Tiny ? "/tiny" : "");

  FleetConfig Config;
  Config.Workers = C.Workers;
  Config.QueueDepth = 64;
  if (C.Warm)
    Config.StorePath = sharedStorePath();
  if (C.Tiny)
    Config.TenantCacheBytes[TinyTenant] = TinyBudget;

  // Every request trips the fault site: warm cells lose their import
  // (degrade to a counted cold start), cold cells lose their first
  // code-generation attempt (degrade to interpret-and-retry).
  Injector Inj;
  if (C.Fault) {
    Inj.armAlways(C.Warm ? InjectSite::PersistImport : InjectSite::CodeGen);
    Config.BaseVm.Dbt.Fault = &Inj;
  }

  ExecutionScheduler Sched(Config);
  ASSERT_EQ(Sched.fleet().storeLoaded(), C.Warm);
  ASSERT_EQ(Sched.fleet().registerWorkloads(),
            workloads::workloadNames().size());

  std::vector<std::string> Names = workloads::workloadNames();
  std::vector<std::future<ExecResponse>> Futures;
  for (const std::string &W : Names) {
    ExecRequest Req;
    Req.Workload = W;
    if (C.Tiny)
      Req.Tenant = TinyTenant;
    Futures.push_back(Sched.submit(Req));
  }

  for (size_t I = 0; I != Names.size(); ++I) {
    ExecResponse Resp = Futures[I].get();
    std::string Context = Names[I] + Suffix;
    const ArchState &Ref = referenceRun(Names[I]);

    ASSERT_EQ(Resp.Status, ExecStatus::Ok) << Context << ": " << Resp.Detail;
    expectSameGprs(Resp.Arch, Ref, Context);
    EXPECT_EQ(Resp.Checksum, Ref.readGpr(alpha::RegV0)) << Context;
    EXPECT_LT(Resp.Worker, C.Workers) << Context;
    EXPECT_GT(Resp.GuestInsts, 0u) << Context;

    if (C.Tiny) {
      EXPECT_LE(Resp.Stats.get("cache.budget_high_water"), TinyBudget)
          << Context;
    }

    if (C.Warm && !C.Fault) {
      // Every request hits its slot in the one shared read-only store.
      EXPECT_EQ(Resp.Stats.get("persist.store_readonly"), 1u) << Context;
      EXPECT_EQ(Resp.Stats.get("persist.store_hit"), 1u) << Context;
      if (!C.Tiny) {
        // The fleet's reason to exist: warm requests do ZERO translation.
        EXPECT_EQ(Resp.Stats.get("dbt.fragments"), 0u) << Context;
        EXPECT_EQ(Resp.Stats.get("dbt.cost.total"), 0u) << Context;
      }
    } else if (C.Warm && C.Fault) {
      EXPECT_EQ(Resp.Stats.get("persist.import_rejected.injected-fault"), 1u)
          << Context;
      EXPECT_GT(Resp.Stats.get("dbt.fragments"), 0u) << Context;
    }
  }

  // Fleet-level accounting covers exactly these requests.
  StatisticSet S = Sched.fleet().stats();
  EXPECT_EQ(S.get("serve.requests"), Names.size());
  EXPECT_EQ(S.get("serve.ok"), Names.size());
  if (C.Warm && !C.Fault) {
    EXPECT_EQ(S.get("serve.store_hits"), Names.size());
  }

  EXPECT_EQ(Sched.shutdown(/*FinishQueued=*/true), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, FleetConformance,
    ::testing::Combine(::testing::Values(1u, 4u, 8u), ::testing::Bool(),
                       ::testing::Bool(), ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<unsigned, bool, bool, bool>>
           &Info) {
      return "Workers" + std::to_string(std::get<0>(Info.param)) +
             (std::get<1>(Info.param) ? "Warm" : "Cold") +
             (std::get<2>(Info.param) ? "Fault" : "NoFault") +
             (std::get<3>(Info.param) ? "Tiny" : "Unbounded");
    });

/// The three image-transport routes — registered name, registered
/// fingerprint, inline bytes — must be indistinguishable in results, and
/// the inline route must still warm from the shared store (the snapshot
/// is page-identical, so the fingerprint matches).
TEST(FleetConformance, ImageTransportRoutesAreEquivalent) {
  const std::string Name = workloads::workloadNames().front();
  const ArchState &Ref = referenceRun(Name);

  FleetConfig Config;
  Config.StorePath = sharedStorePath();
  VmFleet Fleet(Config);
  ASSERT_TRUE(Fleet.storeLoaded());
  uint64_t Fingerprint = Fleet.registerImage(imageFromWorkload(Name));
  ASSERT_NE(Fingerprint, 0u);

  ExecRequest ByName;
  ByName.Workload = Name;
  ExecRequest ByFingerprint;
  ByFingerprint.ImageFingerprint = Fingerprint;
  ExecRequest Inline;
  Inline.Image = imageFromWorkload(Name);

  for (ExecRequest *Req : {&ByName, &ByFingerprint, &Inline}) {
    ExecResponse Resp = Fleet.execute(*Req);
    ASSERT_EQ(Resp.Status, ExecStatus::Ok) << Resp.Detail;
    expectSameGprs(Resp.Arch, Ref, "transport");
    EXPECT_EQ(Resp.Checksum, Ref.readGpr(alpha::RegV0));
    // All three routes reach the same store slot.
    EXPECT_EQ(Resp.Stats.get("persist.store_hit"), 1u);
    EXPECT_EQ(Resp.Stats.get("dbt.cost.total"), 0u);
  }
}
