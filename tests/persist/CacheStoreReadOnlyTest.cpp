//===- tests/persist/CacheStoreReadOnlyTest.cpp ---------------------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The read-only store open mode backing the fleet service: openReadOnly()
/// loads the same contents as open() but freezes the store — every mutator
/// is an inert no-op, saveMerged() neither stages a temp file nor touches
/// "<path>.lock", and a reader is oblivious to a concurrently held writer
/// lock. The concurrent-writer tests prove the fleet's warm-start
/// guarantee: readers never contend with writers, not even while a
/// saveMerged storm is rewriting the artifact under them.
///
//===----------------------------------------------------------------------===//

#include "persist/CacheStore.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <dirent.h>
#include <fstream>
#include <gtest/gtest.h>
#include <thread>
#include <vector>

using namespace ildp;
using namespace ildp::persist;
using namespace ildp::dbt;
using namespace ildp::iisa;

namespace {

/// Small but non-trivial fragment (same shape as CacheStoreTest's).
Fragment makeFragment(uint64_t Entry, uint64_t Target) {
  Fragment F;
  F.EntryVAddr = Entry;
  F.Variant = IsaVariant::Modified;
  IisaInst Vpc;
  Vpc.Kind = IKind::SetVpcBase;
  Vpc.VTarget = Entry;
  Vpc.SizeBytes = 6;
  F.Body.push_back(Vpc);
  IisaInst Br;
  Br.Kind = IKind::Branch;
  Br.VTarget = Target;
  Br.SizeBytes = 4;
  F.Body.push_back(Br);
  F.InstOffset = {0, 6};
  F.BodyBytes = 10;
  F.SourceVAddrs = {Entry};
  F.SourceInsts = 1;
  return F;
}

void putImage(CacheStore &Store, uint64_t Fingerprint, unsigned Count) {
  std::vector<Fragment> Storage;
  for (unsigned I = 0; I != Count; ++I)
    Storage.push_back(makeFragment(0x1000 + (Fingerprint & 0xFF) * 0x1000 +
                                       I * 0x100,
                                   0x500000 + I * 0x100));
  std::vector<const Fragment *> Frags;
  for (const Fragment &F : Storage)
    Frags.push_back(&F);
  Store.put(Fingerprint, Frags, /*CostUnits=*/Count * 10);
}

std::string tempPath(const char *Name) {
  std::string Path = testing::TempDir() + "/" + Name;
  std::remove(Path.c_str());
  std::remove((Path + ".lock").c_str());
  return Path;
}

std::string seededStore(const char *Name, unsigned Images = 3) {
  std::string Path = tempPath(Name);
  CacheStore Store;
  for (unsigned I = 0; I != Images; ++I)
    putImage(Store, 0xA0 + I, I + 1);
  EXPECT_TRUE(Store.save(Path));
  return Path;
}

std::vector<char> fileBytes(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(In),
                           std::istreambuf_iterator<char>());
}

bool fileExists(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return In.good();
}

/// Counts TempDir entries whose name starts with \p Prefix (staging-file
/// detector: a read-only store must never create "<name>.tmp.*").
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

TEST(CacheStoreReadOnly, LoadsSameContentsAsOpen) {
  std::string Path = seededStore("ro-load.tstore");
  CacheStore Rw, Ro;
  ASSERT_EQ(Rw.open(Path), StoreStatus::Ok);
  ASSERT_EQ(Ro.openReadOnly(Path), StoreStatus::Ok);
  EXPECT_TRUE(Ro.readOnly());
  EXPECT_FALSE(Rw.readOnly());
  ASSERT_EQ(Ro.imageCount(), Rw.imageCount());
  EXPECT_EQ(Ro.totalPayloadBytes(), Rw.totalPayloadBytes());
  for (const StoreImage &Img : Rw.images()) {
    std::vector<Fragment> A, B;
    EXPECT_EQ(Ro.lookup(Img.Fingerprint, A), StoreStatus::Ok);
    EXPECT_EQ(Rw.lookup(Img.Fingerprint, B), StoreStatus::Ok);
    EXPECT_EQ(A.size(), B.size());
  }
}

TEST(CacheStoreReadOnly, MutatorsAreInert) {
  std::string Path = seededStore("ro-inert.tstore");
  std::vector<char> Before = fileBytes(Path);

  CacheStore Store;
  ASSERT_EQ(Store.openReadOnly(Path), StoreStatus::Ok);
  size_t Count = Store.imageCount();

  putImage(Store, 0xEE, 2); // put() on a frozen store: dropped.
  EXPECT_EQ(Store.imageCount(), Count);
  EXPECT_FALSE(Store.contains(0xEE));
  Store.putRaw(0xEF, {1, 2, 3}); // putRaw() likewise.
  EXPECT_FALSE(Store.contains(0xEF));
  EXPECT_EQ(Store.imageCount(), Count);

  SaveMergeResult Merge = Store.saveMerged(Path);
  EXPECT_FALSE(Merge.Saved);
  EXPECT_FALSE(Merge.LockContended);
  EXPECT_EQ(Merge.Adopted, 0u);

  // No side channel either: the artifact is byte-identical and neither a
  // lock nor a staging file ever appeared.
  EXPECT_EQ(fileBytes(Path), Before);
  EXPECT_FALSE(fileExists(Path + ".lock"));
  EXPECT_EQ(countFilesWithPrefix("ro-inert.tstore.tmp"), 0u);
}

TEST(CacheStoreReadOnly, OpenThawsAndMissingFileStaysFrozen) {
  std::string Path = seededStore("ro-thaw.tstore");
  CacheStore Store;
  ASSERT_EQ(Store.openReadOnly(Path), StoreStatus::Ok);
  EXPECT_TRUE(Store.readOnly());
  // A later open() is a fresh mutable load.
  ASSERT_EQ(Store.open(Path), StoreStatus::Ok);
  EXPECT_FALSE(Store.readOnly());

  // A failed read-only open still freezes: a fleet whose store path was
  // bad must stay a pure consumer, not start writing the path.
  CacheStore Missing;
  EXPECT_EQ(Missing.openReadOnly(tempPath("ro-none.tstore")),
            StoreStatus::FileNotFound);
  EXPECT_TRUE(Missing.readOnly());
  putImage(Missing, 0x11, 1);
  EXPECT_EQ(Missing.imageCount(), 0u);
}

TEST(CacheStoreReadOnly, ReaderIgnoresHeldWriterLock) {
  std::string Path = seededStore("ro-lock.tstore");
  // Simulate a (possibly crashed) writer holding the lock.
  { std::ofstream Lock(Path + ".lock"); }
  ASSERT_TRUE(fileExists(Path + ".lock"));

  CacheStore Store;
  // The reader neither waits on nor removes the lock.
  EXPECT_EQ(Store.openReadOnly(Path), StoreStatus::Ok);
  std::vector<Fragment> Out;
  EXPECT_EQ(Store.lookup(0xA0, Out), StoreStatus::Ok);
  EXPECT_TRUE(fileExists(Path + ".lock"));
  std::remove((Path + ".lock").c_str());
}

TEST(CacheStoreReadOnly, ReadersNeverContendWithConcurrentWriter) {
  std::string Path = seededStore("ro-race.tstore");

  // One writer hammers saveMerged (lock + temp + rename churn) while
  // several readers repeatedly open read-only and look images up. Every
  // single read must succeed: saves are atomic renames, so a reader sees
  // either the previous or the next artifact, never a torn one, and the
  // writer's lock is invisible to it.
  std::atomic<bool> Stop{false};
  std::atomic<size_t> WriterSaves{0};
  std::thread Writer([&] {
    CacheStore Mine;
    Mine.open(Path);
    uint64_t Next = 0x100;
    while (!Stop.load(std::memory_order_acquire)) {
      putImage(Mine, Next++, 1);
      SaveMergeResult R = Mine.saveMerged(Path);
      if (R.Saved)
        WriterSaves.fetch_add(1, std::memory_order_relaxed);
    }
  });

  constexpr unsigned Readers = 3;
  constexpr unsigned ReadsEach = 40;
  std::atomic<size_t> GoodReads{0};
  std::vector<std::thread> Pool;
  for (unsigned R = 0; R != Readers; ++R)
    Pool.emplace_back([&] {
      for (unsigned I = 0; I != ReadsEach; ++I) {
        CacheStore Ro;
        if (Ro.openReadOnly(Path) != StoreStatus::Ok)
          continue; // Never expected; counted by the final assert.
        std::vector<Fragment> Out;
        // The seed images are never evicted by the writer's merge.
        if (Ro.lookup(0xA0, Out) == StoreStatus::Ok && !Out.empty())
          GoodReads.fetch_add(1, std::memory_order_relaxed);
      }
    });

  for (std::thread &T : Pool)
    T.join();
  // On a loaded host the readers can finish before the writer's first
  // save lands; give it a bounded chance to complete one.
  auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (WriterSaves.load(std::memory_order_relaxed) == 0 &&
         std::chrono::steady_clock::now() < Deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  Stop.store(true, std::memory_order_release);
  Writer.join();

  EXPECT_EQ(GoodReads.load(), size_t(Readers) * ReadsEach);
  EXPECT_GT(WriterSaves.load(), 0u);
  EXPECT_FALSE(fileExists(Path + ".lock")); // Writer cleaned up after itself.
}
