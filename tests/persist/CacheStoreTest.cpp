//===- tests/persist/CacheStoreTest.cpp -----------------------------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The multi-image cache store, exercised at the API level: multiple image
/// slots round-trip through one file, put() updates a slot in place (with
/// SaveCount/CostUnits bookkeeping), saves are atomic, and saveMerged()
/// adopts slots written by concurrent processes instead of clobbering
/// them, counting each replaced slot's writes. A file in the retired
/// single-image format is followed through a VM run: rejected, run cold,
/// rewritten as a store.
///
//===----------------------------------------------------------------------===//

#include "persist/CacheStore.h"

#include "vm/VirtualMachine.h"
#include "workloads/Workloads.h"

#include <cstdio>
#include <dirent.h>
#include <fstream>
#include <gtest/gtest.h>

using namespace ildp;
using namespace ildp::persist;
using namespace ildp::dbt;
using namespace ildp::iisa;

namespace {

/// Small but non-trivial fragment: body with a PEI, one pending exit.
Fragment makeFragment(uint64_t Entry, uint64_t Target) {
  Fragment F;
  F.EntryVAddr = Entry;
  F.Variant = IsaVariant::Modified;
  IisaInst Vpc;
  Vpc.Kind = IKind::SetVpcBase;
  Vpc.VTarget = Entry;
  Vpc.SizeBytes = 6;
  F.Body.push_back(Vpc);
  IisaInst Ld;
  Ld.Kind = IKind::Load;
  Ld.AlphaOp = alpha::Opcode::LDQ;
  Ld.B = IOperand::gpr(3);
  Ld.DestAcc = 1;
  Ld.VAddr = Entry;
  Ld.SizeBytes = 4;
  Ld.PeiIndex = 0;
  F.Body.push_back(Ld);
  F.PeiTable.push_back({1, Entry, {{uint8_t(5), uint8_t(1)}}});
  IisaInst Br;
  Br.Kind = IKind::Branch;
  Br.VTarget = Target;
  Br.SizeBytes = 4;
  F.Body.push_back(Br);
  F.InstOffset = {0, 6, 10};
  F.BodyBytes = 14;
  F.SourceVAddrs = {Entry};
  F.SourceInsts = 2;
  return F;
}

/// Builds \p Count fragments and puts them into \p Store under
/// \p Fingerprint; entry addresses are derived from the fingerprint so
/// each image's payload is distinguishable.
void putImage(CacheStore &Store, uint64_t Fingerprint, unsigned Count,
              uint64_t CostUnits = 0) {
  std::vector<Fragment> Storage;
  for (unsigned I = 0; I != Count; ++I)
    Storage.push_back(makeFragment(0x1000 + (Fingerprint & 0xFF) * 0x1000 +
                                       I * 0x100,
                                   0x500000 + I * 0x100));
  std::vector<const Fragment *> Frags;
  for (const Fragment &F : Storage)
    Frags.push_back(&F);
  Store.put(Fingerprint, Frags, CostUnits);
}

std::string tempPath(const char *Name) {
  std::string Path = testing::TempDir() + "/" + Name;
  std::remove(Path.c_str());
  return Path;
}

/// Counts files in TempDir whose name starts with \p Prefix (staging-file
/// leak detector; temp names carry a pid + sequence suffix).
size_t countFilesWithPrefix(const std::string &Prefix) {
  size_t Count = 0;
  DIR *Dir = opendir(testing::TempDir().c_str());
  if (!Dir)
    return 0;
  while (dirent *Ent = readdir(Dir))
    if (std::string(Ent->d_name).rfind(Prefix, 0) == 0)
      ++Count;
  closedir(Dir);
  return Count;
}

} // namespace

TEST(CacheStore, MissingFileIsNotFound) {
  CacheStore Store;
  EXPECT_EQ(Store.open(tempPath("store-none.tstore")),
            StoreStatus::FileNotFound);
  EXPECT_EQ(Store.imageCount(), 0u);
}

TEST(CacheStore, MultipleImagesRoundTripThroughOneFile) {
  std::string Path = tempPath("store-rt.tstore");
  CacheStore Store;
  putImage(Store, 0xA1, 3, /*CostUnits=*/111);
  putImage(Store, 0xB2, 1, /*CostUnits=*/222);
  putImage(Store, 0xC3, 5, /*CostUnits=*/333);
  ASSERT_TRUE(Store.save(Path));

  CacheStore Loaded;
  ASSERT_EQ(Loaded.open(Path), StoreStatus::Ok);
  ASSERT_EQ(Loaded.imageCount(), 3u);
  for (uint64_t Fp : {0xA1ull, 0xB2ull, 0xC3ull}) {
    std::vector<Fragment> Frags;
    ASSERT_EQ(Loaded.lookup(Fp, Frags), StoreStatus::Ok) << "image " << Fp;
    EXPECT_EQ(Frags.size(), Store.find(Fp)->FragmentCount);
    for (const Fragment &F : Frags) {
      EXPECT_EQ(F.Body.size(), 3u);
      EXPECT_EQ(F.PeiTable.size(), 1u);
      EXPECT_TRUE(F.Body.back().isDirectExit());
    }
  }
  EXPECT_EQ(Loaded.find(0xB2)->CostUnits, 222u);
  EXPECT_EQ(Loaded.find(0xB2)->SaveCount, 1u);
  // Slot order (write order) survives the round trip.
  EXPECT_EQ(Loaded.images()[0].Fingerprint, 0xA1u);
  EXPECT_EQ(Loaded.images()[2].Fingerprint, 0xC3u);
}

TEST(CacheStore, LookupOfUnknownFingerprintIsImageNotFound) {
  CacheStore Store;
  putImage(Store, 0xA1, 2);
  std::vector<Fragment> Frags;
  EXPECT_EQ(Store.lookup(0xFF, Frags), StoreStatus::ImageNotFound);
  EXPECT_TRUE(Frags.empty());
}

TEST(CacheStore, PutReplacesSlotAndCarriesSaveCount) {
  std::string Path = tempPath("store-replace.tstore");
  CacheStore Store;
  putImage(Store, 0xA1, 3);
  putImage(Store, 0xB2, 2);
  // Rewrite A1 with a different fragment set: the slot is replaced (not
  // duplicated), its SaveCount advances, and it becomes the newest slot.
  putImage(Store, 0xA1, 5, /*CostUnits=*/99);
  ASSERT_EQ(Store.imageCount(), 2u);
  EXPECT_EQ(Store.find(0xA1)->FragmentCount, 5u);
  EXPECT_EQ(Store.find(0xA1)->SaveCount, 2u);
  EXPECT_EQ(Store.find(0xA1)->CostUnits, 99u);
  EXPECT_EQ(Store.images().back().Fingerprint, 0xA1u);

  ASSERT_TRUE(Store.save(Path));
  CacheStore Loaded;
  ASSERT_EQ(Loaded.open(Path), StoreStatus::Ok);
  EXPECT_EQ(Loaded.find(0xA1)->SaveCount, 2u);
  std::vector<Fragment> Frags;
  ASSERT_EQ(Loaded.lookup(0xA1, Frags), StoreStatus::Ok);
  EXPECT_EQ(Frags.size(), 5u);
}

TEST(CacheStore, EmptyImageSlotRoundTrips) {
  // A slot with zero fragments is a valid slot, not corruption.
  std::string Path = tempPath("store-empty.tstore");
  CacheStore Store;
  Store.put(0xE0, {}, /*CostUnits=*/7);
  ASSERT_TRUE(Store.save(Path));

  CacheStore Loaded;
  ASSERT_EQ(Loaded.open(Path), StoreStatus::Ok);
  std::vector<Fragment> Frags;
  EXPECT_EQ(Loaded.lookup(0xE0, Frags), StoreStatus::Ok);
  EXPECT_TRUE(Frags.empty());
  EXPECT_EQ(Loaded.find(0xE0)->CostUnits, 7u);
}

TEST(CacheStore, SaveIsAtomicAndLeavesNoStagingFile) {
  std::string Path = tempPath("store-atomic.tstore");
  CacheStore Store;
  putImage(Store, 0xA1, 3);
  ASSERT_TRUE(Store.save(Path));
  // Overwrite with different contents; the old file must be replaced in
  // one step and no ".tmp.*" staging file may survive.
  putImage(Store, 0xB2, 1);
  ASSERT_TRUE(Store.save(Path));
  EXPECT_EQ(countFilesWithPrefix("store-atomic.tstore.tmp"), 0u);

  CacheStore Loaded;
  ASSERT_EQ(Loaded.open(Path), StoreStatus::Ok);
  EXPECT_EQ(Loaded.imageCount(), 2u);
}

TEST(CacheStore, LegacyCacheFileIsRejectedAsBadMagic) {
  // The retired single-image format's magic ("ILDPTC1\0") is not the
  // store's: such a file is a typed bad-magic rejection like any foreign
  // file, the VM runs cold, and its exit save rewrites the path as a store.
  std::string Path = tempPath("store-legacy.tstore");
  {
    std::ofstream Out(Path, std::ios::binary);
    Out.write("ILDPTC1\0", 8);
    Out << "legacy single-image payload";
  }
  CacheStore Store;
  EXPECT_EQ(Store.open(Path), StoreStatus::BadMagic);
  EXPECT_EQ(Store.imageCount(), 0u);

  GuestMemory Mem;
  workloads::WorkloadImage Image = workloads::buildWorkload("gzip", Mem, 1);
  vm::VmConfig Config;
  Config.PersistPath = Path;
  vm::VirtualMachine Vm(Mem, Image.EntryPc, Config);
  ASSERT_EQ(Vm.run().Reason, vm::StopReason::Halted);
  const StatisticSet &Stats = Vm.stats();
  EXPECT_EQ(Stats.get("persist.import_rejected"), 1u);
  EXPECT_EQ(Stats.get("persist.import_rejected.bad-magic"), 1u);
  EXPECT_EQ(Stats.get("persist.load_ok"), 0u);
  EXPECT_GT(Stats.get("dbt.fragments"), 0u);
  EXPECT_EQ(Stats.get("persist.save_ok"), 1u);

  CacheStore Rewritten;
  ASSERT_EQ(Rewritten.open(Path), StoreStatus::Ok);
  EXPECT_EQ(Rewritten.imageCount(), 1u);
}

TEST(CacheStore, SaveMergedAdoptsSlotsFromConcurrentWriters) {
  std::string Path = tempPath("store-merge.tstore");
  // Writer A saves image A1. Writer B — which opened the path before A
  // existed, so holds only B2 — must not clobber A's slot.
  CacheStore A;
  putImage(A, 0xA1, 3);
  ASSERT_TRUE(A.save(Path));

  CacheStore B;
  putImage(B, 0xB2, 2);
  SaveMergeResult Merged = B.saveMerged(Path);
  EXPECT_TRUE(Merged.Saved);
  EXPECT_EQ(Merged.Adopted, 1u);

  CacheStore Loaded;
  ASSERT_EQ(Loaded.open(Path), StoreStatus::Ok);
  ASSERT_EQ(Loaded.imageCount(), 2u);
  // Adopted slots are kept older than the writer's own.
  EXPECT_EQ(Loaded.images()[0].Fingerprint, 0xA1u);
  EXPECT_EQ(Loaded.images()[1].Fingerprint, 0xB2u);
  std::vector<Fragment> Frags;
  EXPECT_EQ(Loaded.lookup(0xA1, Frags), StoreStatus::Ok);
  EXPECT_EQ(Loaded.lookup(0xB2, Frags), StoreStatus::Ok);
}

TEST(CacheStore, SaveMergedOwnSlotWinsOnCollision) {
  std::string Path = tempPath("store-collide.tstore");
  CacheStore A;
  putImage(A, 0xA1, 3);
  ASSERT_TRUE(A.save(Path));

  // B rewrites the same image with a different fragment count: B's version
  // (the later writer of that image) must land on disk.
  CacheStore B;
  putImage(B, 0xA1, 5);
  SaveMergeResult Merged = B.saveMerged(Path);
  EXPECT_TRUE(Merged.Saved);
  EXPECT_EQ(Merged.Adopted, 0u);

  CacheStore Loaded;
  ASSERT_EQ(Loaded.open(Path), StoreStatus::Ok);
  ASSERT_EQ(Loaded.imageCount(), 1u);
  EXPECT_EQ(Loaded.find(0xA1)->FragmentCount, 5u);
}

TEST(CacheStore, SaveMergedCountsWritesOfReplacedSlot) {
  // A writer that never opened the store puts a fresh slot (SaveCount 1);
  // replacing the on-disk copy still counts as one more write.
  std::string Path = tempPath("store-savecount.tstore");
  CacheStore A;
  putImage(A, 0xA1, 3);
  putImage(A, 0xB2, 1);
  ASSERT_TRUE(A.save(Path));

  for (uint32_t Expected : {2u, 3u}) {
    CacheStore B;
    putImage(B, 0xA1, 2);
    ASSERT_TRUE(B.saveMerged(Path).Saved);
    CacheStore Loaded;
    ASSERT_EQ(Loaded.open(Path), StoreStatus::Ok);
    EXPECT_EQ(Loaded.find(0xA1)->SaveCount, Expected);
    EXPECT_EQ(Loaded.find(0xB2)->SaveCount, 1u) << "adopted slot rewritten";
  }
}

TEST(CacheStore, SaveMergedOverCorruptFileRewritesCleanly) {
  std::string Path = tempPath("store-heal.tstore");
  {
    std::ofstream Out(Path, std::ios::binary);
    Out << "not a cache store at all";
  }
  CacheStore Store;
  putImage(Store, 0xA1, 1);
  SaveMergeResult Merged = Store.saveMerged(Path);
  EXPECT_TRUE(Merged.Saved);
  EXPECT_EQ(Merged.Adopted, 0u);

  CacheStore Loaded;
  ASSERT_EQ(Loaded.open(Path), StoreStatus::Ok);
  EXPECT_EQ(Loaded.imageCount(), 1u);
}

TEST(CacheStore, SaveMergedRemovesLockFile) {
  std::string Path = tempPath("store-lock.tstore");
  CacheStore Store;
  putImage(Store, 0xA1, 1);
  SaveMergeResult Merged = Store.saveMerged(Path);
  EXPECT_TRUE(Merged.Saved);
  EXPECT_FALSE(Merged.LockContended);
  EXPECT_FALSE(std::ifstream(Path + ".lock").good())
      << "lock file left behind";
}
