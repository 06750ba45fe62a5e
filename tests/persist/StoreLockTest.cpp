//===- tests/persist/StoreLockTest.cpp ------------------------------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The flock-based store lock in isolation: acquire and release, a leftover
/// lock file taken uncontended, the bounded wait on a live holder (a second
/// in-process StoreLock; flock locks belong to open file descriptions, so
/// two in one process exclude each other), and handoffs between threads
/// that must never let two holders in at once. A real killed holder is
/// covered by VmConcurrentSaveTest (concurrency binary) and ildp-crashtest.
///
//===----------------------------------------------------------------------===//

#include "persist/StoreLock.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <gtest/gtest.h>
#include <string>
#include <thread>
#include <vector>

using namespace ildp;
using namespace ildp::persist;

namespace {

std::string tempLock(const char *Name) {
  std::string Path = testing::TempDir() + "/" + Name;
  std::remove(Path.c_str());
  return Path;
}

bool fileExists(const std::string &Path) {
  std::ifstream In(Path);
  return In.good();
}

double millisSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - T0)
      .count();
}

StoreLock::Options shortWait(unsigned Millis) {
  StoreLock::Options Opts;
  Opts.MaxWaitMillis = Millis;
  return Opts;
}

} // namespace

#ifndef _WIN32

TEST(StoreLock, AcquiresAndReleases) {
  std::string Path = tempLock("lock-basic");
  {
    StoreLock Lock(Path);
    EXPECT_TRUE(Lock.held());
    EXPECT_FALSE(Lock.contended());
    EXPECT_FALSE(Lock.timedOut());
    EXPECT_TRUE(fileExists(Path));
  }
  // Release unlinks the file, and a new lock acquires at once.
  EXPECT_FALSE(fileExists(Path));
  StoreLock Again(Path);
  EXPECT_TRUE(Again.held());
  EXPECT_FALSE(Again.contended());
}

TEST(StoreLock, LeftoverLockFileIsAcquiredUncontended) {
  // What a writer killed mid-save leaves: a lock file nobody holds, empty
  // or with text in it. Nothing is waited for.
  for (const char *Content : {"", "12345 67890\n"}) {
    std::string Path = tempLock("lock-leftover");
    std::ofstream(Path) << Content;
    auto T0 = std::chrono::steady_clock::now();
    {
      StoreLock Lock(Path, shortWait(5'000));
      EXPECT_TRUE(Lock.held()) << '"' << Content << '"';
      EXPECT_FALSE(Lock.contended());
      EXPECT_FALSE(Lock.timedOut());
    }
    EXPECT_LT(millisSince(T0), 2'000.0);
    EXPECT_FALSE(fileExists(Path));
  }
}

TEST(StoreLock, LiveHolderIsWaitedForThenTimedOut) {
  std::string Path = tempLock("lock-live");
  StoreLock Holder(Path);
  ASSERT_TRUE(Holder.held());

  auto T0 = std::chrono::steady_clock::now();
  StoreLock Lock(Path, shortWait(80));
  double TookMs = millisSince(T0);
  EXPECT_FALSE(Lock.held());
  EXPECT_TRUE(Lock.contended());
  EXPECT_TRUE(Lock.timedOut());
  EXPECT_GE(TookMs, 75.0); // It genuinely waited the bound out.
  // The live holder's lock was never touched.
  EXPECT_TRUE(Holder.held());
  EXPECT_TRUE(fileExists(Path));
}

TEST(StoreLock, TimedOutLockReleasesNothing) {
  std::string Path = tempLock("lock-timeout-release");
  StoreLock Holder(Path);
  ASSERT_TRUE(Holder.held());
  {
    StoreLock Lock(Path, shortWait(20));
    EXPECT_FALSE(Lock.held());
  }
  // Only a held lock is released at destruction: the file survives, and
  // the holder still excludes the next acquirer.
  EXPECT_TRUE(fileExists(Path));
  StoreLock Next(Path, shortWait(20));
  EXPECT_TRUE(Next.timedOut());
}

TEST(StoreLock, UnopenableLockFileDegradesToUnlocked) {
  // No directory to create the lock file in: the caller proceeds
  // unlocked at once rather than waiting out the bound.
  std::string Path = testing::TempDir() + "/no-such-dir/lock";
  auto T0 = std::chrono::steady_clock::now();
  StoreLock Lock(Path);
  EXPECT_FALSE(Lock.held());
  EXPECT_FALSE(Lock.contended());
  EXPECT_TRUE(Lock.timedOut());
  EXPECT_LT(millisSince(T0), 2'000.0);
}

TEST(StoreLock, ContendedHandoffBetweenThreads) {
  std::string Path = tempLock("lock-handoff");
  StoreLock *First = new StoreLock(Path);
  ASSERT_TRUE(First->held());

  // A second acquirer blocks on the live holder, then wins promptly once
  // the first releases.
  std::thread Releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    delete First;
  });
  auto T0 = std::chrono::steady_clock::now();
  StoreLock Second(Path);
  double TookMs = millisSince(T0);
  Releaser.join();
  EXPECT_TRUE(Second.held());
  EXPECT_TRUE(Second.contended());
  EXPECT_LT(TookMs, 10'000);
}

TEST(StoreLock, HandoffThroughUnlinkedInodeStillExcludes) {
  // Release unlinks the file a waiter may already have open. Whichever
  // inode the waiter locked first, the lock it ends up holding must be
  // the one at the path: a third acquirer times out against it.
  std::string Path = tempLock("lock-unlinked-handoff");
  for (int Round = 0; Round != 10; ++Round) {
    StoreLock *First = new StoreLock(Path);
    ASSERT_TRUE(First->held());
    std::thread Releaser([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      delete First;
    });
    StoreLock Second(Path);
    Releaser.join();
    ASSERT_TRUE(Second.held());
    StoreLock Third(Path, shortWait(20));
    EXPECT_FALSE(Third.held()) << "round " << Round;
    EXPECT_TRUE(Third.timedOut()) << "round " << Round;
  }
}

TEST(StoreLock, ThreadsNeverHoldItTogether) {
  std::string Path = tempLock("lock-exclusion");
  std::atomic<int> Inside{0}, Overlaps{0}, Unheld{0};
  std::vector<std::thread> Threads;
  for (int T = 0; T != 4; ++T)
    Threads.emplace_back([&] {
      for (int I = 0; I != 50; ++I) {
        StoreLock Lock(Path);
        if (!Lock.held()) {
          ++Unheld;
          continue;
        }
        if (Inside.fetch_add(1) != 0)
          ++Overlaps;
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        Inside.fetch_sub(1);
      }
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Overlaps.load(), 0);
  EXPECT_EQ(Unheld.load(), 0);
  EXPECT_FALSE(fileExists(Path));
}

#endif // !_WIN32
