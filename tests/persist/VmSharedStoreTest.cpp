//===- tests/persist/VmSharedStoreTest.cpp --------------------------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// VmConfig::SharedStore — the in-process warm-start path of the fleet
/// service: a VM handed an already-open read-only CacheStore warms from it
/// without any file I/O of its own, counts the mode under
/// "persist.store_readonly", never writes the store back, degrades
/// cleanly on a fingerprint miss or an injected import fault, and clamps
/// the import under a tiny code-cache budget exactly like the file path.
///
//===----------------------------------------------------------------------===//

#include "persist/CacheStore.h"
#include "support/Injector.h"
#include "vm/VirtualMachine.h"
#include "workloads/Workloads.h"

#include <cstdio>
#include <fstream>
#include <gtest/gtest.h>
#include <string>
#include <unistd.h>

using namespace ildp;
using namespace ildp::vm;
using namespace ildp::persist;
using support::InjectSite;
using support::Injector;

namespace {

const std::string &workloadName() {
  static const std::string Name = workloads::workloadNames().front();
  return Name;
}

/// Seeds a store with the first workload's translations (cold run + save)
/// and returns the path. Built once; every test shares it read-only.
const std::string &seededStorePath() {
  static std::string Path;
  if (!Path.empty())
    return Path;
  // Pid-unique: parallel ctest runs each test in its own process, each
  // with its own lazy seeding pass over this path.
  Path = testing::TempDir() + "/shared-vm." + std::to_string(getpid()) +
         ".tstore";
  std::remove(Path.c_str());
  GuestMemory Mem;
  workloads::WorkloadImage Img =
      workloads::buildWorkload(workloadName(), Mem, 1);
  VmConfig Config;
  Config.PersistPath = Path;
  VirtualMachine Vm(Mem, Img.EntryPc, Config);
  EXPECT_EQ(Vm.run().Reason, StopReason::Halted);
  EXPECT_EQ(Vm.stats().get("persist.save_ok"), 1u);
  return Path;
}

const CacheStore &sharedStore() {
  static CacheStore Store;
  static bool Opened = false;
  if (!Opened) {
    EXPECT_EQ(Store.openReadOnly(seededStorePath()), StoreStatus::Ok);
    Opened = true;
  }
  return Store;
}

} // namespace

TEST(VmSharedStore, WarmStartDoesZeroTranslationWork) {
  GuestMemory Mem;
  workloads::WorkloadImage Img =
      workloads::buildWorkload(workloadName(), Mem, 1);
  VmConfig Config;
  Config.SharedStore = &sharedStore();
  VirtualMachine Vm(Mem, Img.EntryPc, Config);
  EXPECT_EQ(Vm.run().Reason, StopReason::Halted);

  const StatisticSet &S = Vm.stats();
  EXPECT_EQ(S.get("persist.store_readonly"), 1u);
  EXPECT_EQ(S.get("persist.store_hit"), 1u);
  EXPECT_GT(S.get("persist.fragments_imported"), 0u);
  EXPECT_EQ(S.get("dbt.fragments"), 0u);
  EXPECT_EQ(S.get("dbt.cost.total"), 0u);
}

TEST(VmSharedStore, SharedStoreWinsOverPersistPathAndNeverSaves) {
  std::string Decoy = testing::TempDir() + "/shared-vm-decoy.tstore";
  std::remove(Decoy.c_str());

  GuestMemory Mem;
  workloads::WorkloadImage Img =
      workloads::buildWorkload(workloadName(), Mem, 1);
  VmConfig Config;
  Config.SharedStore = &sharedStore();
  Config.PersistPath = Decoy; // Must be ignored entirely.
  VirtualMachine Vm(Mem, Img.EntryPc, Config);
  EXPECT_EQ(Vm.run().Reason, StopReason::Halted);
  EXPECT_EQ(Vm.stats().get("persist.store_hit"), 1u);
  EXPECT_EQ(Vm.stats().get("persist.save_ok"), 0u);
  std::ifstream In(Decoy);
  EXPECT_FALSE(In.good()) << "shared-store VM wrote a file";
}

TEST(VmSharedStore, FingerprintMissRunsColdAndCounted) {
  // Same workload at a different scale: different memory image, different
  // fingerprint, no slot in the store.
  GuestMemory Mem;
  workloads::WorkloadImage Img =
      workloads::buildWorkload(workloadName(), Mem, 2);
  VmConfig Config;
  Config.SharedStore = &sharedStore();
  VirtualMachine Vm(Mem, Img.EntryPc, Config);
  EXPECT_EQ(Vm.run().Reason, StopReason::Halted);
  EXPECT_EQ(Vm.stats().get("persist.store_readonly"), 1u);
  EXPECT_EQ(Vm.stats().get("persist.store_miss"), 1u);
  EXPECT_GT(Vm.stats().get("dbt.fragments"), 0u);
}

TEST(VmSharedStore, InjectedImportFaultDegradesCold) {
  GuestMemory Mem;
  workloads::WorkloadImage Img =
      workloads::buildWorkload(workloadName(), Mem, 1);
  Injector Inj;
  Inj.armCount(InjectSite::PersistImport, 1);
  VmConfig Config;
  Config.SharedStore = &sharedStore();
  Config.Dbt.Fault = &Inj;
  VirtualMachine Vm(Mem, Img.EntryPc, Config);
  EXPECT_EQ(Vm.run().Reason, StopReason::Halted);
  EXPECT_EQ(Vm.stats().get("persist.import_rejected.injected-fault"), 1u);
  EXPECT_EQ(Vm.stats().get("persist.fragments_imported"), 0u);
  EXPECT_GT(Vm.stats().get("dbt.fragments"), 0u);
}

TEST(VmSharedStore, TinyBudgetClampsImport) {
  constexpr uint64_t TinyBudget = 4096;
  GuestMemory Mem;
  workloads::WorkloadImage Img =
      workloads::buildWorkload(workloadName(), Mem, 1);
  VmConfig Config;
  Config.SharedStore = &sharedStore();
  Config.CodeCacheBytes = TinyBudget;
  VirtualMachine Vm(Mem, Img.EntryPc, Config);
  EXPECT_EQ(Vm.run().Reason, StopReason::Halted);
  EXPECT_EQ(Vm.stats().get("persist.store_hit"), 1u);
  EXPECT_LE(Vm.stats().get("cache.budget_high_water"), TinyBudget);
}
