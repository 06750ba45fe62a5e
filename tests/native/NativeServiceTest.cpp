//===- tests/native/NativeServiceTest.cpp ---------------------------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The native compile pool, the VM's one worker pool, driven directly.
/// Each test compiles through a wrapper script that logs one line per
/// compile it starts, sleeps, then runs the probed host compiler, so the
/// log shows which requests a worker actually compiled: a full queue
/// refuses trySubmit(), waitAllIdle() returns only once every accepted
/// request has a completion, and destroying the service discards queued
/// requests and waits only for the compile in flight. Emission refusals
/// and compiler failures come back as typed failure completions, every
/// completion carries its own request's key and entry, and a VM that
/// stops with compiles still queued does not compile them on teardown.
/// Skipped when no host compiler exists.
///
//===----------------------------------------------------------------------===//

#include "native/NativeService.h"
#include "vm/VirtualMachine.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <sys/stat.h>
#include <thread>
#include <unistd.h>

using namespace ildp;
using namespace ildp::native;

namespace {

/// A host compiler whose command is a wrapper script: it appends a line to
/// its log, sleeps \p SleepSeconds, then execs the real compiler — or,
/// when \p Broken, fails without compiling.
class SlowCompiler {
public:
  SlowCompiler(const std::string &Name, const char *SleepSeconds,
               bool Broken = false) {
    std::string Base = testing::TempDir() + "/nativesvc-" + Name + "-" +
                       std::to_string(getpid());
    LogPath = Base + ".log";
    ScriptPath = Base + ".sh";
    std::remove(LogPath.c_str());
    {
      std::ofstream Script(ScriptPath);
      Script << "#!/bin/sh\n"
             << "echo compile >> '" << LogPath << "'\n"
             << "sleep " << SleepSeconds << "\n";
      if (Broken)
        Script << "exit 1\n";
      else
        Script << "exec '" << hostCompiler().Path << "' \"$@\"\n";
    }
    ::chmod(ScriptPath.c_str(), 0755);
    CC = hostCompiler();
    CC.Path = ScriptPath;
  }
  ~SlowCompiler() {
    std::remove(LogPath.c_str());
    std::remove(ScriptPath.c_str());
  }

  /// Compiles started so far (one log line each).
  unsigned started() const {
    std::ifstream Log(LogPath);
    unsigned Lines = 0;
    for (std::string Line; std::getline(Log, Line);)
      ++Lines;
    return Lines;
  }

  /// Blocks until at least \p N compiles have started (bounded wait).
  bool waitStarted(unsigned N) const {
    auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (started() < N) {
      if (std::chrono::steady_clock::now() > Deadline)
        return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return true;
  }

  HostCompiler CC;
  const std::string &path() const { return ScriptPath; }

private:
  std::string LogPath;
  std::string ScriptPath;
};

/// A tiny body the emitter accepts; \p Target makes each key distinct.
NativeRequest request(uint64_t Target) {
  iisa::IisaInst Add;
  Add.Kind = iisa::IKind::Compute;
  Add.AlphaOp = alpha::Opcode::ADDQ;
  Add.A = iisa::IOperand::gpr(1);
  Add.B = iisa::IOperand::gpr(2);
  Add.DestAcc = 0;
  Add.DestGpr = 3;
  iisa::IisaInst Br;
  Br.Kind = iisa::IKind::Branch;
  Br.VTarget = Target;
  NativeRequest Req;
  Req.Key = Target;
  Req.EntryVAddr = 0x10000;
  Req.Body = {Add, Br};
  Req.Variant = iisa::IsaVariant::Modified;
  return Req;
}

class NativeServiceTest : public ::testing::Test {
protected:
  void SetUp() override {
    if (!hostCompiler().found())
      GTEST_SKIP() << "no host C compiler on this machine";
  }
};

} // namespace

TEST_F(NativeServiceTest, TrySubmitRefusesWhenQueueIsFull) {
  SlowCompiler Slow("full", "1");
  NativeService Svc(Slow.CC, /*Workers=*/1, /*QueueDepth=*/2);
  ASSERT_TRUE(Svc.trySubmit(request(0x1000)));
  // Once the worker holds the first request, the queue has both slots.
  ASSERT_TRUE(Slow.waitStarted(1));
  EXPECT_TRUE(Svc.trySubmit(request(0x1100)));
  EXPECT_TRUE(Svc.trySubmit(request(0x1200)));
  EXPECT_FALSE(Svc.trySubmit(request(0x1300)));
  EXPECT_EQ(Svc.submittedCount(), 3u);

  Svc.waitAllIdle();
  std::vector<NativeCompletion> Done;
  Svc.drainCompleted(Done);
  EXPECT_EQ(Done.size(), 3u);
  EXPECT_EQ(Slow.started(), 3u); // The refused request never compiled.
}

TEST_F(NativeServiceTest, WaitAllIdleReturnsAfterEveryAcceptedCompletion) {
  SlowCompiler Slow("idle", "0.2");
  NativeService Svc(Slow.CC, /*Workers=*/2, /*QueueDepth=*/8);
  constexpr unsigned Requests = 5;
  for (unsigned I = 0; I != Requests; ++I)
    ASSERT_TRUE(Svc.trySubmit(request(0x2000 + I * 0x100)));

  Svc.waitAllIdle();
  EXPECT_TRUE(Svc.hasCompleted());
  std::vector<NativeCompletion> Done;
  Svc.drainCompleted(Done);
  ASSERT_EQ(Done.size(), Requests);
  for (const NativeCompletion &C : Done) {
    EXPECT_TRUE(C.Ok) << C.Reason;
    EXPECT_FALSE(C.Object.empty());
  }
  EXPECT_EQ(Slow.started(), Requests);
}

TEST_F(NativeServiceTest, DestructorDropsQueuedRequests) {
  SlowCompiler Slow("teardown", "0.5");
  {
    NativeService Svc(Slow.CC, /*Workers=*/1, /*QueueDepth=*/8);
    ASSERT_TRUE(Svc.trySubmit(request(0x3000)));
    ASSERT_TRUE(Slow.waitStarted(1));
    for (unsigned I = 1; I != 6; ++I)
      ASSERT_TRUE(Svc.trySubmit(request(0x3000 + I * 0x100)));
  }
  // Only the compile in flight at destruction ran; the five queued
  // requests were discarded, not compiled for nobody.
  EXPECT_EQ(Slow.started(), 1u);
}

TEST_F(NativeServiceTest, EmitRefusalIsATypedFailureWithoutACompile) {
  SlowCompiler Slow("refuse", "0");
  NativeService Svc(Slow.CC, /*Workers=*/1, /*QueueDepth=*/4);
  NativeRequest Empty = request(0x4000);
  Empty.Body.clear();
  ASSERT_TRUE(Svc.trySubmit(std::move(Empty)));
  Svc.waitAllIdle();
  std::vector<NativeCompletion> Done;
  Svc.drainCompleted(Done);
  ASSERT_EQ(Done.size(), 1u);
  EXPECT_FALSE(Done[0].Ok);
  EXPECT_STREQ(Done[0].Reason, "empty-body");
  EXPECT_TRUE(Done[0].Object.empty());
  EXPECT_EQ(Slow.started(), 0u); // Refused before the compiler ran.
}

TEST_F(NativeServiceTest, CompilerFailureIsATypedFailure) {
  SlowCompiler Broken("broken", "0", /*Broken=*/true);
  NativeService Svc(Broken.CC, /*Workers=*/1, /*QueueDepth=*/4);
  ASSERT_TRUE(Svc.trySubmit(request(0x5000)));
  Svc.waitAllIdle();
  std::vector<NativeCompletion> Done;
  Svc.drainCompleted(Done);
  ASSERT_EQ(Done.size(), 1u);
  EXPECT_FALSE(Done[0].Ok);
  EXPECT_STREQ(Done[0].Reason, "host-compile-failed");
  EXPECT_TRUE(Done[0].Object.empty());
  EXPECT_EQ(Broken.started(), 1u);
}

TEST_F(NativeServiceTest, CompletionsCarryTheirRequestsKeyAndEntry) {
  SlowCompiler Slow("keys", "0");
  NativeService Svc(Slow.CC, /*Workers=*/4, /*QueueDepth=*/8);
  std::map<uint64_t, uint64_t> EntryByKey;
  for (unsigned I = 0; I != 8; ++I) {
    NativeRequest Req = request(0x6000 + I * 0x100);
    Req.EntryVAddr = 0x20000 + I * 0x40;
    EntryByKey[Req.Key] = Req.EntryVAddr;
    ASSERT_TRUE(Svc.trySubmit(std::move(Req)));
  }
  Svc.waitAllIdle();
  std::vector<NativeCompletion> Done;
  Svc.drainCompleted(Done);
  ASSERT_EQ(Done.size(), EntryByKey.size());
  // Delivery is unordered, but each request completes exactly once.
  for (const NativeCompletion &C : Done) {
    EXPECT_TRUE(C.Ok) << C.Reason;
    auto It = EntryByKey.find(C.Key);
    ASSERT_NE(It, EntryByKey.end()) << "unknown or repeated key " << C.Key;
    EXPECT_EQ(C.EntryVAddr, It->second);
    EntryByKey.erase(It);
  }
  EXPECT_TRUE(EntryByKey.empty());
}

TEST_F(NativeServiceTest, IdleServiceHasNothingToDrain) {
  SlowCompiler Slow("idle-empty", "0");
  NativeService Svc(Slow.CC, /*Workers=*/2, /*QueueDepth=*/4);
  Svc.waitAllIdle(); // Nothing submitted: returns at once.
  EXPECT_FALSE(Svc.hasCompleted());
  std::vector<NativeCompletion> Done;
  Svc.drainCompleted(Done);
  EXPECT_TRUE(Done.empty());

  ASSERT_TRUE(Svc.trySubmit(request(0x7000)));
  Svc.waitAllIdle();
  EXPECT_TRUE(Svc.hasCompleted());
  Svc.drainCompleted(Done);
  EXPECT_EQ(Done.size(), 1u);
  // Draining empties the buffer.
  EXPECT_FALSE(Svc.hasCompleted());
  Svc.drainCompleted(Done);
  EXPECT_EQ(Done.size(), 1u);
}

TEST_F(NativeServiceTest, ZeroWorkersMeansOneWorker) {
  SlowCompiler Slow("zero", "0");
  NativeService Svc(Slow.CC, /*Workers=*/0, /*QueueDepth=*/4);
  EXPECT_EQ(Svc.workerCount(), 1u);
  ASSERT_TRUE(Svc.trySubmit(request(0x8000)));
  Svc.waitAllIdle();
  std::vector<NativeCompletion> Done;
  Svc.drainCompleted(Done);
  ASSERT_EQ(Done.size(), 1u);
  EXPECT_TRUE(Done[0].Ok) << Done[0].Reason;
}

TEST_F(NativeServiceTest, VmStopDoesNotCompileQueuedRequests) {
  // A VM with PersistSave off discards its compile pool when it is
  // destroyed: only the compile in flight finishes, the queued ones are
  // never started.
  SlowCompiler Slow("vm-teardown", "0.5");
  const char *Prev = getenv("ILDP_NATIVE_CC");
  std::string Saved = Prev ? Prev : "";
  ASSERT_EQ(setenv("ILDP_NATIVE_CC", Slow.path().c_str(), 1), 0);
  ASSERT_TRUE(hostCompiler().found());
  unsigned Probes = Slow.started(); // The probe ran the wrapper too.

  uint64_t Submitted = 0;
  {
    GuestMemory Mem;
    workloads::WorkloadImage Img = workloads::buildWorkload("gcc", Mem, 1);
    vm::VmConfig Config;
    Config.NativeTier = true;
    Config.NativeThreshold = 8;
    Config.NativeWorkers = 1;
    vm::VirtualMachine Vm(Mem, Img.EntryPc, Config);
    EXPECT_EQ(Vm.run().Reason, vm::StopReason::Halted);
    Submitted = Vm.stats().get("native.submitted");
  }
  unsigned Compiled = Slow.started() - Probes;

  if (Prev)
    ASSERT_EQ(setenv("ILDP_NATIVE_CC", Saved.c_str(), 1), 0);
  else
    ASSERT_EQ(unsetenv("ILDP_NATIVE_CC"), 0);

  ASSERT_GT(Submitted, 2u);
  EXPECT_LE(Compiled, 2u) << "of " << Submitted << " submitted";
}
