//===- tests/persist/VmWarmStartTest.cpp ----------------------------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end warm-start behavior of the co-designed VM: a cold run saves
/// its translation cache; a warm run of the same image imports it, executes
/// with ZERO fragments translated, and reaches the same architected state.
/// Every failure mode — truncated file, flipped payload byte, configuration
/// or guest-image fingerprint mismatch, a file in the retired single-image
/// format — must fall back to a correct cold run, counted under the right
/// statistic, and never crash.
///
//===----------------------------------------------------------------------===//

#include "persist/CacheStore.h"
#include "persist/Fingerprint.h"
#include "vm/VirtualMachine.h"
#include "workloads/Workloads.h"

#include <cstdio>
#include <fstream>
#include <gtest/gtest.h>

using namespace ildp;

namespace {

struct Outcome {
  uint64_t Checksum = 0;
  StatisticSet Stats;
};

Outcome runWorkload(const std::string &Name, const vm::VmConfig &Config) {
  GuestMemory Mem;
  workloads::WorkloadImage Image = workloads::buildWorkload(Name, Mem, 1);
  vm::VirtualMachine Vm(Mem, Image.EntryPc, Config);
  vm::RunResult Result = Vm.run();
  EXPECT_EQ(Result.Reason, vm::StopReason::Halted);
  Outcome Out;
  Out.Checksum = Vm.interpreter().state().readGpr(alpha::RegV0);
  Out.Stats = Vm.stats();
  return Out;
}

std::string tempPath(const char *Name) {
  std::string Path = testing::TempDir() + "/" + Name;
  std::remove(Path.c_str());
  return Path;
}

void corruptByte(const std::string &Path, long FromEnd) {
  std::fstream F(Path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(F.good());
  F.seekg(0, std::ios::end);
  long Size = long(F.tellg());
  ASSERT_GT(Size, FromEnd);
  char Byte = 0;
  F.seekg(Size - FromEnd);
  F.read(&Byte, 1);
  Byte = char(Byte ^ 0x5A);
  F.seekp(Size - FromEnd);
  F.write(&Byte, 1);
}

void truncateFile(const std::string &Path, size_t Keep) {
  std::ifstream In(Path, std::ios::binary);
  std::vector<char> Bytes((std::istreambuf_iterator<char>(In)),
                          std::istreambuf_iterator<char>());
  In.close();
  ASSERT_GT(Bytes.size(), Keep);
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(Bytes.data(), std::streamsize(Keep));
}

} // namespace

TEST(VmWarmStart, WarmRunTranslatesNothingAndMatchesCold) {
  std::string Path = tempPath("warm.tcache");
  vm::VmConfig Config;
  Config.PersistPath = Path;

  Outcome Cold = runWorkload("gzip", Config);
  EXPECT_EQ(Cold.Stats.get("persist.load_nofile"), 1u);
  EXPECT_EQ(Cold.Stats.get("persist.save_ok"), 1u);
  ASSERT_GT(Cold.Stats.get("dbt.fragments"), 0u);

  Outcome Warm = runWorkload("gzip", Config);
  EXPECT_EQ(Warm.Stats.get("persist.load_ok"), 1u);
  EXPECT_EQ(Warm.Stats.get("persist.fragments_imported"),
            Cold.Stats.get("tcache.fragments"));
  // The whole point: zero translation work on the warm path.
  EXPECT_EQ(Warm.Stats.get("dbt.fragments"), 0u);
  EXPECT_EQ(Warm.Stats.get("dbt.cost.total"), 0u);
  // Same program, same answer, same resident cache.
  EXPECT_EQ(Warm.Checksum, Cold.Checksum);
  EXPECT_EQ(Warm.Stats.get("tcache.fragments"),
            Cold.Stats.get("tcache.fragments"));
  EXPECT_EQ(Warm.Stats.get("tcache.body_bytes"),
            Cold.Stats.get("tcache.body_bytes"));
  // Warm execution starts in translated code: the interpreter only runs
  // where the cold run also had to fall back to it.
  EXPECT_LE(Warm.Stats.get("interp.insts"), Cold.Stats.get("interp.insts"));
}

TEST(VmWarmStart, RewrittenLegacyFileWarmStartsTheNextRun) {
  // A file in the retired single-image format (magic "ILDPTC1\0") is a
  // bad-magic rejection: the first run goes cold and its exit save
  // replaces the file with a store, which the next run warm-starts from.
  std::string Path = tempPath("legacy.tcache");
  {
    std::ofstream Out(Path, std::ios::binary);
    Out.write("ILDPTC1\0", 8);
    Out << "legacy single-image payload";
  }
  vm::VmConfig Config;
  Config.PersistPath = Path;

  Outcome Cold = runWorkload("gzip", Config);
  EXPECT_EQ(Cold.Stats.get("persist.import_rejected.bad-magic"), 1u);
  EXPECT_GT(Cold.Stats.get("dbt.fragments"), 0u);
  ASSERT_EQ(Cold.Stats.get("persist.save_ok"), 1u);

  Outcome Warm = runWorkload("gzip", Config);
  EXPECT_EQ(Warm.Stats.get("persist.import_rejected"), 0u);
  EXPECT_EQ(Warm.Stats.get("persist.store_hit"), 1u);
  EXPECT_EQ(Warm.Stats.get("persist.fragments_imported"),
            Cold.Stats.get("tcache.fragments"));
  EXPECT_EQ(Warm.Stats.get("dbt.fragments"), 0u);
  EXPECT_EQ(Warm.Checksum, Cold.Checksum);
  std::remove(Path.c_str());
}

TEST(VmWarmStart, CorruptPayloadFallsBackToCorrectColdRun) {
  std::string Path = tempPath("corrupt.tcache");
  vm::VmConfig Config;
  Config.PersistPath = Path;

  Outcome Cold = runWorkload("gzip", Config);
  corruptByte(Path, 16);

  Outcome Fallback = runWorkload("gzip", Config);
  EXPECT_EQ(Fallback.Stats.get("persist.load_corrupt"), 1u);
  EXPECT_EQ(Fallback.Stats.get("persist.load_ok"), 0u);
  EXPECT_EQ(Fallback.Stats.get("persist.fragments_imported"), 0u);
  // Full cold behavior, still correct.
  EXPECT_EQ(Fallback.Stats.get("dbt.fragments"),
            Cold.Stats.get("dbt.fragments"));
  EXPECT_EQ(Fallback.Checksum, Cold.Checksum);
  // The failed load did not poison the save: the rewritten file warms the
  // next run again.
  Outcome Healed = runWorkload("gzip", Config);
  EXPECT_EQ(Healed.Stats.get("persist.load_ok"), 1u);
  EXPECT_EQ(Healed.Stats.get("dbt.fragments"), 0u);
  EXPECT_EQ(Healed.Checksum, Cold.Checksum);
}

TEST(VmWarmStart, TruncatedFileFallsBackToCorrectColdRun) {
  std::string Path = tempPath("trunc.tcache");
  vm::VmConfig Config;
  Config.PersistPath = Path;

  Outcome Cold = runWorkload("gzip", Config);
  truncateFile(Path, 100);

  Outcome Fallback = runWorkload("gzip", Config);
  EXPECT_EQ(Fallback.Stats.get("persist.load_corrupt"), 1u);
  EXPECT_EQ(Fallback.Stats.get("dbt.fragments"),
            Cold.Stats.get("dbt.fragments"));
  EXPECT_EQ(Fallback.Checksum, Cold.Checksum);
}

TEST(VmWarmStart, ConfigChangeIsAStoreMissAndBothSlotsCoexist) {
  std::string Path = tempPath("config.tcache");
  vm::VmConfig Config;
  Config.PersistPath = Path;

  Outcome Cold = runWorkload("gzip", Config);
  ASSERT_EQ(Cold.Stats.get("persist.save_ok"), 1u);

  // Same guest image, different translator configuration: fragments built
  // with 4 accumulators must not be executed under an 8-accumulator
  // config's expectations. The store has no slot for the new fingerprint,
  // so this run goes cold and appends its own slot.
  vm::VmConfig Other = Config;
  Other.Dbt.NumAccumulators = 8;
  Outcome Miss = runWorkload("gzip", Other);
  EXPECT_EQ(Miss.Stats.get("persist.store_miss"), 1u);
  EXPECT_EQ(Miss.Stats.get("persist.fragments_imported"), 0u);
  EXPECT_GT(Miss.Stats.get("dbt.fragments"), 0u);
  EXPECT_EQ(Miss.Checksum, Cold.Checksum);
  EXPECT_EQ(Miss.Stats.get("persist.store_saved_images"), 2u);

  // Both configurations now warm-start from the same artifact.
  Outcome WarmA = runWorkload("gzip", Config);
  EXPECT_EQ(WarmA.Stats.get("persist.store_hit"), 1u);
  EXPECT_EQ(WarmA.Stats.get("dbt.fragments"), 0u);
  Outcome WarmB = runWorkload("gzip", Other);
  EXPECT_EQ(WarmB.Stats.get("persist.store_hit"), 1u);
  EXPECT_EQ(WarmB.Stats.get("dbt.fragments"), 0u);
}

TEST(VmWarmStart, DifferentGuestImagesShareOneStore) {
  std::string Path = tempPath("image.tcache");
  vm::VmConfig Config;
  Config.PersistPath = Path;

  runWorkload("gzip", Config);
  // A different workload (different guest pages) misses gzip's slot, runs
  // cold, and adds its own — without evicting gzip's.
  Outcome Other = runWorkload("bzip2", Config);
  EXPECT_EQ(Other.Stats.get("persist.store_miss"), 1u);
  EXPECT_EQ(Other.Stats.get("persist.load_ok"), 0u);
  EXPECT_GT(Other.Stats.get("dbt.fragments"), 0u);

  Outcome WarmGzip = runWorkload("gzip", Config);
  EXPECT_EQ(WarmGzip.Stats.get("persist.store_hit"), 1u);
  EXPECT_EQ(WarmGzip.Stats.get("persist.store_images"), 2u);
  EXPECT_EQ(WarmGzip.Stats.get("dbt.fragments"), 0u);
  Outcome WarmBzip2 = runWorkload("bzip2", Config);
  EXPECT_EQ(WarmBzip2.Stats.get("persist.store_hit"), 1u);
  EXPECT_EQ(WarmBzip2.Stats.get("dbt.fragments"), 0u);
}

TEST(VmWarmStart, PersistSaveOffWritesNoFile) {
  std::string Path = tempPath("knobs.tcache");
  vm::VmConfig Config;
  Config.PersistPath = Path;
  Config.PersistSave = false;

  Outcome NoSave = runWorkload("gzip", Config);
  EXPECT_EQ(NoSave.Stats.get("persist.save_ok"), 0u);
  EXPECT_FALSE(std::ifstream(Path).good()) << "file written despite knob";
}

TEST(VmWarmStart, SaveKeepsSlotsOtherWritersUpdatedDuringTheRun) {
  // A VM's exit save writes only its own slots. A slot another writer
  // updated after this VM opened the store must survive that save, not be
  // reverted to the copy the VM saw at construction.
  std::string Path = tempPath("lost-update.tcache");
  vm::VmConfig Config;
  Config.PersistPath = Path;
  runWorkload("gzip", Config);

  GuestMemory McfMem;
  workloads::WorkloadImage Mcf = workloads::buildWorkload("mcf", McfMem, 1);
  uint64_t McfFp = persist::fingerprint(McfMem, Mcf.EntryPc, Config.Dbt);
  persist::CacheStore Seed;
  Seed.put(McfFp, {}, /*CostUnits=*/0);
  ASSERT_TRUE(Seed.saveMerged(Path).Saved);

  GuestMemory Mem;
  workloads::WorkloadImage Gzip = workloads::buildWorkload("gzip", Mem, 1);
  uint64_t GzipFp = persist::fingerprint(Mem, Gzip.EntryPc, Config.Dbt);
  vm::VirtualMachine Vm(Mem, Gzip.EntryPc, Config);
  ASSERT_EQ(Vm.stats().get("persist.store_hit"), 1u);

  persist::CacheStore Writer;
  Writer.put(McfFp, {}, /*CostUnits=*/777);
  ASSERT_TRUE(Writer.saveMerged(Path).Saved);

  ASSERT_EQ(Vm.run().Reason, vm::StopReason::Halted);
  EXPECT_EQ(Vm.stats().get("persist.save_ok"), 1u);

  persist::CacheStore Disk;
  ASSERT_EQ(Disk.open(Path), persist::StoreStatus::Ok);
  const persist::StoreImage *Slot = Disk.find(McfFp);
  ASSERT_NE(Slot, nullptr);
  EXPECT_EQ(Slot->CostUnits, 777u);
  EXPECT_EQ(Slot->SaveCount, 2u);
  ASSERT_NE(Disk.find(GzipFp), nullptr);
  EXPECT_EQ(Disk.find(GzipFp)->SaveCount, 2u);
}

TEST(VmWarmStart, CorruptSlotRunsColdAndIsOverwrittenBySave) {
  // A slot whose payload contradicts its index entry (CRCs intact) is a
  // typed rejection; the run goes cold and its save replaces the slot.
  std::string Path = tempPath("corrupt-slot.tcache");
  vm::VmConfig Config;
  Config.PersistPath = Path;
  GuestMemory Mem;
  workloads::WorkloadImage Gzip = workloads::buildWorkload("gzip", Mem, 1);
  persist::CacheStore Bad;
  Bad.putRaw(persist::fingerprint(Mem, Gzip.EntryPc, Config.Dbt),
             {1, 2, 3, 4});
  ASSERT_TRUE(Bad.save(Path));

  Outcome Cold = runWorkload("gzip", Config);
  EXPECT_EQ(Cold.Stats.get("persist.load_corrupt"), 1u);
  EXPECT_EQ(Cold.Stats.get("persist.import_rejected.bad-payload"), 1u);
  EXPECT_GT(Cold.Stats.get("dbt.fragments"), 0u);
  EXPECT_EQ(Cold.Stats.get("persist.save_ok"), 1u);
  EXPECT_EQ(Cold.Stats.get("persist.store_saved_images"), 1u);

  Outcome Warm = runWorkload("gzip", Config);
  EXPECT_EQ(Warm.Stats.get("persist.store_hit"), 1u);
  EXPECT_EQ(Warm.Stats.get("dbt.fragments"), 0u);
  EXPECT_EQ(Warm.Checksum, Cold.Checksum);
}

TEST(VmWarmStart, WarmStartWorksWithTimingIrrelevantChainingPolicies) {
  // Chaining policy participates in the fingerprint; each policy gets its
  // own compatible cache and warms up correctly.
  for (dbt::ChainPolicy Policy :
       {dbt::ChainPolicy::NoPred, dbt::ChainPolicy::SwPredNoRas,
        dbt::ChainPolicy::SwPredRas}) {
    std::string Path = tempPath("policy.tcache");
    vm::VmConfig Config;
    Config.PersistPath = Path;
    Config.Dbt.Chaining = Policy;

    Outcome Cold = runWorkload("gzip", Config);
    Outcome Warm = runWorkload("gzip", Config);
    EXPECT_EQ(Warm.Stats.get("persist.load_ok"), 1u);
    EXPECT_EQ(Warm.Stats.get("dbt.fragments"), 0u);
    EXPECT_EQ(Warm.Checksum, Cold.Checksum);
  }
}
