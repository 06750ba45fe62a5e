//===- tests/vm/VmConcurrentSaveTest.cpp ----------------------------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Two VMs saving into one cache store at the same time. The store's
/// save path is read-merge-write under a best-effort lock file: writers
/// of *different* images must both survive — whichever saves last adopts
/// the other's slot — and writers of the *same* image must leave one
/// valid slot (last writer wins per image). Either way the resulting file
/// is never torn: it round-trips and warm-starts every saved image with
/// zero translation work. Runs in the concurrency test binary so CI's
/// ThreadSanitizer job covers the lock/merge/rename protocol.
///
//===----------------------------------------------------------------------===//

#include "persist/CacheStore.h"
#include "vm/VirtualMachine.h"
#include "workloads/Workloads.h"

#include <chrono>
#include <cstdio>
#include <gtest/gtest.h>
#include <string>
#include <thread>

#ifndef _WIN32
#include <cerrno>
#include <csignal>
#include <fcntl.h>
#include <spawn.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

extern char **environ;
#endif

using namespace ildp;
using namespace ildp::vm;

namespace {

std::string tempPath(const char *Name) {
  std::string Path = testing::TempDir() + "/" + Name;
  std::remove(Path.c_str());
  return Path;
}

/// Runs \p Workload to completion with persistence at \p Path and returns
/// its stats. Each thread gets its own memory, VM, and stats; the store
/// file is the only shared resource.
StatisticSet runAndSave(const std::string &Workload,
                        const std::string &Path) {
  GuestMemory Mem;
  workloads::WorkloadImage Img = workloads::buildWorkload(Workload, Mem, 1);
  VmConfig Config;
  Config.PersistPath = Path;
  VirtualMachine Vm(Mem, Img.EntryPc, Config);
  EXPECT_EQ(Vm.run().Reason, StopReason::Halted) << Workload;
  return Vm.stats();
}

} // namespace

TEST(VmConcurrentSave, TwoImagesSavedConcurrentlyBothSurvive) {
  std::string Path = tempPath("concurrent-two.tstore");

  StatisticSet StatsA, StatsB;
  std::thread A([&] { StatsA = runAndSave("gzip", Path); });
  std::thread B([&] { StatsB = runAndSave("bzip2", Path); });
  A.join();
  B.join();
  EXPECT_EQ(StatsA.get("persist.save_ok"), 1u);
  EXPECT_EQ(StatsB.get("persist.save_ok"), 1u);

  // Whatever the interleaving, the store holds both images...
  persist::CacheStore Store;
  ASSERT_EQ(Store.open(Path), persist::StoreStatus::Ok);
  EXPECT_EQ(Store.imageCount(), 2u);

  // ...and both warm-start from it with zero translation work.
  for (const char *W : {"gzip", "bzip2"}) {
    StatisticSet Warm = runAndSave(W, Path);
    EXPECT_EQ(Warm.get("persist.store_hit"), 1u) << W;
    EXPECT_EQ(Warm.get("dbt.fragments"), 0u) << W;
    EXPECT_EQ(Warm.get("dbt.cost.total"), 0u) << W;
  }
}

TEST(VmConcurrentSave, ManyWritersOneStore) {
  std::string Path = tempPath("concurrent-many.tstore");
  const char *Names[4] = {"gzip", "gcc", "mcf", "parser"};

  std::thread Threads[4];
  StatisticSet Stats[4];
  for (unsigned I = 0; I != 4; ++I)
    Threads[I] = std::thread(
        [&, I] { Stats[I] = runAndSave(Names[I], Path); });
  for (std::thread &T : Threads)
    T.join();
  for (unsigned I = 0; I != 4; ++I)
    EXPECT_EQ(Stats[I].get("persist.save_ok"), 1u) << Names[I];

  persist::CacheStore Store;
  ASSERT_EQ(Store.open(Path), persist::StoreStatus::Ok);
  EXPECT_EQ(Store.imageCount(), 4u);
  for (const char *W : Names) {
    StatisticSet Warm = runAndSave(W, Path);
    EXPECT_EQ(Warm.get("persist.store_hit"), 1u) << W;
    EXPECT_EQ(Warm.get("dbt.fragments"), 0u) << W;
  }
}

// A writer SIGKILLed while holding "<path>.lock" must not wedge the
// store: the kernel drops its flock with the process, so the next live
// writer locks the leftover file without ever finding it held, removes
// it on release, and every image still round-trips warm.
// The lock holder is a real separate process (ildp-crashhost
// --hold-lock), spawned with posix_spawn — fork() is unsafe in this
// sanitized multithreaded test binary.
#if !defined(_WIN32) && defined(ILDP_CRASHHOST_BIN)
TEST(VmConcurrentSave, KilledWriterLockIsRecovered) {
  std::string Path = tempPath("killed-writer.tstore");
  std::string LockPath = Path + ".lock";
  std::remove(LockPath.c_str());

  StatisticSet Seed = runAndSave("gzip", Path);
  EXPECT_EQ(Seed.get("persist.save_ok"), 1u);

  // Spawn the lock holder, capturing its stdout to observe "held".
  int Pipe[2];
  ASSERT_EQ(::pipe2(Pipe, O_CLOEXEC), 0);
  std::string Bin = ILDP_CRASHHOST_BIN;
  std::string A1 = "--hold-lock", A2 = "--store";
  char *Argv[] = {Bin.data(), A1.data(), A2.data(), Path.data(), nullptr};
  posix_spawn_file_actions_t Actions;
  posix_spawn_file_actions_init(&Actions);
  posix_spawn_file_actions_adddup2(&Actions, Pipe[1], STDOUT_FILENO);
  pid_t Pid = -1;
  int SpawnErr =
      ::posix_spawn(&Pid, Bin.c_str(), &Actions, nullptr, Argv, environ);
  posix_spawn_file_actions_destroy(&Actions);
  ::close(Pipe[1]);
  ASSERT_EQ(SpawnErr, 0);

  std::string Banner;
  char C;
  while (Banner.find('\n') == std::string::npos) {
    ssize_t N = ::read(Pipe[0], &C, 1);
    if (N < 0 && errno == EINTR)
      continue;
    ASSERT_GT(N, 0) << "lock holder exited before reporting";
    Banner.push_back(C);
  }
  ASSERT_EQ(Banner, "held\n");

  // Kill it mid-hold: the lock file survives, but no lock does.
  ASSERT_EQ(::kill(Pid, SIGKILL), 0);
  ASSERT_EQ(::waitpid(Pid, nullptr, 0), Pid);
  ::close(Pipe[0]);
  struct stat St;
  EXPECT_EQ(::stat(LockPath.c_str(), &St), 0) << "lock file vanished";

  // A live writer completes over the leftover file at once — uncontended,
  // nowhere near the 30 s live-holder wait.
  auto T0 = std::chrono::steady_clock::now();
  StatisticSet Stats = runAndSave("mcf", Path);
  double TookMs = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - T0)
                      .count();
  EXPECT_EQ(Stats.get("persist.save_ok"), 1u);
  EXPECT_EQ(Stats.get("persist.store_lock_contended"), 0u);
  EXPECT_LT(TookMs, 20'000) << "save waited on a dead writer's lock";

  // The live save released (unlinked) the lock file: none survives.
  EXPECT_NE(::stat(LockPath.c_str(), &St), 0);

  // Old and new images both round-trip warm: the interrupted writer
  // never made it to the store file, and nothing was torn.
  persist::CacheStore Store;
  ASSERT_EQ(Store.open(Path), persist::StoreStatus::Ok);
  EXPECT_EQ(Store.imageCount(), 2u);
  for (const char *W : {"gzip", "mcf"}) {
    StatisticSet Warm = runAndSave(W, Path);
    EXPECT_EQ(Warm.get("persist.store_hit"), 1u) << W;
    EXPECT_EQ(Warm.get("dbt.cost.total"), 0u) << W;
  }
}
#endif // !_WIN32 && ILDP_CRASHHOST_BIN

TEST(VmConcurrentSave, SameImageSavedConcurrentlyLeavesOneValidSlot) {
  std::string Path = tempPath("concurrent-same.tstore");

  std::thread A([&] { runAndSave("gzip", Path); });
  std::thread B([&] { runAndSave("gzip", Path); });
  A.join();
  B.join();

  // Identical runs produce identical slots; last writer wins and the
  // result is indistinguishable from a single save.
  persist::CacheStore Store;
  ASSERT_EQ(Store.open(Path), persist::StoreStatus::Ok);
  EXPECT_EQ(Store.imageCount(), 1u);
  StatisticSet Warm = runAndSave("gzip", Path);
  EXPECT_EQ(Warm.get("persist.store_hit"), 1u);
  EXPECT_EQ(Warm.get("dbt.fragments"), 0u);
}
