//===- tools/ildp_crashtest.cpp - Crash-point x schedule chaos harness ----===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The §15 crash-model acceptance harness: kills real processes at every
/// named crash point (support/Injector.h), under single-writer and
/// multi-writer schedules, and asserts the §15 contract cell by cell:
///
///  - the store is ALWAYS old-or-new after a crash — it opens valid and
///    every image saved before the crash still round-trips warm (never
///    corrupt, never silently empty);
///  - a writer's death releases its store lock (the kernel drops the
///    flock), so the next save completes at once and removes the lock
///    file;
///  - in the supervised fleet (HostSupervisor + ildp-crashhost --serve),
///    a host crash resolves every in-flight future as a typed HostCrashed
///    rejection (zero hung futures), survivors keep serving, and the
///    restarted host serves its first request warm (cost == 0: no
///    translation work re-done).
///
/// The store points (mid_tmp_write, post_tmp_pre_rename, mid_merge_read,
/// post_rename_pre_unlock) each run a single-writer and a multi-writer
/// cell against --save children; mid_request runs a single-host and a
/// multi-host cell against a supervised fleet. Results are written as a
/// JSON artifact (--json <path>, default CRASHTEST_results.json); the
/// exit status is the number of failed cells.
///
///   ildp-crashtest [--json <path>] [--host <binary>] [--keep-dirs]
///                  [--points <p1,p2,...>]
///
//===----------------------------------------------------------------------===//

#include "persist/CacheStore.h"
#include "serve/HostSupervisor.h"
#include "support/Injector.h"
#include "workloads/Workloads.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#ifndef _WIN32
#include <cerrno>
#include <dirent.h>
#include <fcntl.h>
#include <spawn.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

extern char **environ;
#endif

#ifndef ILDP_CRASHHOST_BIN
#define ILDP_CRASHHOST_BIN "ildp-crashhost"
#endif

using namespace ildp;
using namespace ildp::serve;
using support::InjectSite;
using support::Injector;

namespace {

#ifndef _WIN32

std::string HostBinary = ILDP_CRASHHOST_BIN;
bool KeepDirs = false;

/// One cell's verdict for the JSON artifact.
struct CellResult {
  std::string Point;
  std::string Schedule;
  bool Passed = true;
  std::string Detail; // First failure, or "".
};

/// The cell currently being filled; check() appends to it.
CellResult *Cell = nullptr;

bool check(bool Cond, const std::string &What) {
  if (Cond)
    return true;
  std::fprintf(stderr, "FAIL [%s x %s]: %s\n", Cell->Point.c_str(),
               Cell->Schedule.c_str(), What.c_str());
  if (Cell->Passed) {
    Cell->Passed = false;
    Cell->Detail = What;
  }
  return false;
}

/// What happened to a finished child.
struct ChildExit {
  bool Exited = false;   ///< False: timed out (the harness's hang bound).
  int ExitCode = -1;     ///< Exit status, or 128+signal for a signal death.
  std::string Output;    ///< Captured stdout.
};

/// Spawns the host binary with \p Args and an optional crash schedule,
/// capturing stdout. Returns the pid (or -1) and the read end of the
/// stdout pipe.
pid_t spawnChild(const std::vector<std::string> &Args,
                 const std::string &CrashSchedule, int &OutFd) {
  // O_CLOEXEC: the multi-writer cells spawn children concurrently, and a
  // sibling inheriting this child's stdout write end would defer EOF (and
  // so waitChild's completion) until every concurrent child exited.
  int Pipe[2];
  if (::pipe2(Pipe, O_CLOEXEC) != 0)
    return -1;

  std::vector<std::string> Argv = {HostBinary};
  Argv.insert(Argv.end(), Args.begin(), Args.end());
  std::vector<char *> Cv;
  for (std::string &A : Argv)
    Cv.push_back(A.data());
  Cv.push_back(nullptr);

  std::vector<char *> Envp;
  for (char **E = environ; *E; ++E)
    if (std::strncmp(*E, "ILDP_CRASH_SCHEDULE=", 20) != 0)
      Envp.push_back(*E);
  std::string Sched = "ILDP_CRASH_SCHEDULE=" + CrashSchedule;
  if (!CrashSchedule.empty())
    Envp.push_back(Sched.data());
  Envp.push_back(nullptr);

  posix_spawn_file_actions_t Actions;
  posix_spawn_file_actions_init(&Actions);
  posix_spawn_file_actions_adddup2(&Actions, Pipe[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&Actions, Pipe[0]);
  posix_spawn_file_actions_addclose(&Actions, Pipe[1]);

  pid_t Pid = -1;
  int Err = ::posix_spawn(&Pid, HostBinary.c_str(), &Actions, nullptr,
                          Cv.data(), Envp.data());
  posix_spawn_file_actions_destroy(&Actions);
  ::close(Pipe[1]);
  if (Err != 0) {
    ::close(Pipe[0]);
    return -1;
  }
  OutFd = Pipe[0];
  return Pid;
}

/// Drains \p OutFd and reaps \p Pid, bounding the wait: a crash-safety
/// harness must itself never hang on a wedged child.
ChildExit waitChild(pid_t Pid, int OutFd, unsigned TimeoutMillis = 60'000) {
  ChildExit R;
  // The child's stdout is small (a few lines); read it to EOF first. EOF
  // arrives at process exit, so the timeout covers the whole child run.
  ::fcntl(OutFd, F_SETFL, O_NONBLOCK);
  auto Deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(TimeoutMillis);
  char Buf[4096];
  for (;;) {
    ssize_t N = ::read(OutFd, Buf, sizeof(Buf));
    if (N > 0) {
      R.Output.append(Buf, size_t(N));
      continue;
    }
    if (N == 0)
      break; // EOF: the child is gone (or closed stdout).
    if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)
      break;
    if (std::chrono::steady_clock::now() > Deadline) {
      ::close(OutFd);
      ::kill(Pid, SIGKILL);
      ::waitpid(Pid, nullptr, 0);
      return R; // Exited=false: hang.
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ::close(OutFd);
  for (;;) {
    int Status = 0;
    pid_t W = ::waitpid(Pid, &Status, WNOHANG);
    if (W == Pid) {
      R.Exited = true;
      if (WIFEXITED(Status))
        R.ExitCode = WEXITSTATUS(Status);
      else if (WIFSIGNALED(Status))
        R.ExitCode = 128 + WTERMSIG(Status);
      return R;
    }
    if (W < 0)
      return R; // Reaped elsewhere; treat as hang (should not happen).
    if (std::chrono::steady_clock::now() > Deadline) {
      ::kill(Pid, SIGKILL);
      ::waitpid(Pid, nullptr, 0);
      return R;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

/// Runs one --save child to completion.
ChildExit runSave(const std::string &Store, const std::string &Workload,
                  const std::string &CrashSchedule = "") {
  int OutFd = -1;
  pid_t Pid =
      spawnChild({"--save", Workload, "--store", Store}, CrashSchedule, OutFd);
  if (Pid < 0)
    return ChildExit{};
  return waitChild(Pid, OutFd);
}

/// The round-trip probe: re-saving a workload against a store that
/// already holds its image warm-starts, so the writer reports cost=0.
/// Proves the image's payload survived AND decodes (never silently
/// empty, never corrupt).
bool imageRoundTripsWarm(const std::string &Store,
                         const std::string &Workload) {
  ChildExit R = runSave(Store, Workload);
  return R.Exited && R.ExitCode == 0 &&
         R.Output.find("cost=0") != std::string::npos;
}

bool fileExists(const std::string &Path) {
  struct stat St;
  return ::stat(Path.c_str(), &St) == 0;
}

/// Fresh per-cell scratch directory.
std::string makeTempDir() {
  const char *Base = ::getenv("TMPDIR");
  std::string Template =
      std::string(Base && *Base ? Base : "/tmp") + "/ildp-crashtest-XXXXXX";
  std::vector<char> Buf(Template.begin(), Template.end());
  Buf.push_back('\0');
  if (!::mkdtemp(Buf.data()))
    return std::string();
  return std::string(Buf.data());
}

void removeTree(const std::string &Dir) {
  if (KeepDirs || Dir.empty())
    return;
  // The cell owns every file in its scratch dir: the store, its lock file
  // and the staging file a killed writer leaves behind under its own
  // unique name. The cells write no subdirectories.
  if (DIR *D = ::opendir(Dir.c_str())) {
    while (const dirent *Entry = ::readdir(D)) {
      std::string Name = Entry->d_name;
      if (Name != "." && Name != "..")
        std::remove((Dir + "/" + Name).c_str());
    }
    ::closedir(D);
  }
  ::rmdir(Dir.c_str());
}

/// Asserts the store at \p Path opens valid and still round-trips every
/// workload in \p MustHold warm. The heart of "old-or-new, never
/// corrupt".
bool checkStoreIntact(const std::string &Path,
                      const std::vector<std::string> &MustHold) {
  persist::CacheStore Store;
  persist::StoreStatus St = Store.open(Path);
  bool Ok = check(St == persist::StoreStatus::Ok,
                  std::string("store reopen: ") +
                      persist::getStoreStatusName(St));
  Ok &= check(Store.imageCount() >= MustHold.size(),
              "store silently lost images: holds " +
                  std::to_string(Store.imageCount()) + ", expected >= " +
                  std::to_string(MustHold.size()));
  for (const std::string &W : MustHold)
    Ok &= check(imageRoundTripsWarm(Path, W),
                "image " + W + " no longer round-trips warm");
  return Ok;
}

//===----------------------------------------------------------------------===//
// Store cells: crash a --save writer at a named point.
//===----------------------------------------------------------------------===//

void runStoreSingleWriterCell(InjectSite Point) {
  std::string Dir = makeTempDir();
  std::string Store = Dir + "/store.tstore";

  // Baseline: one good image on disk — the "old" state the crash must
  // never destroy.
  ChildExit Seed = runSave(Store, "gzip");
  if (!check(Seed.Exited && Seed.ExitCode == 0, "baseline seed save failed"))
    return removeTree(Dir);

  // Crash a second writer at the named point.
  std::string Sched = std::string(getSiteName(Point)) + "=1";
  ChildExit Crashed = runSave(Store, "mcf", Sched);
  check(Crashed.Exited, "crashing writer hung");
  check(Crashed.ExitCode == Injector::CrashExitCode,
        "crashing writer exited " + std::to_string(Crashed.ExitCode) +
            ", expected " + std::to_string(Injector::CrashExitCode));

  // Old-or-new: the baseline image must have survived every point; after
  // post_rename_pre_unlock the new image is also committed.
  std::vector<std::string> MustHold = {"gzip"};
  if (Point == InjectSite::PostRenamePreUnlock)
    MustHold.push_back("mcf");
  checkStoreIntact(Store, MustHold);

  // Lock recovery: the writer died holding <store>.lock at every store
  // point, and the kernel released it. The next live writer must not
  // wait for it — nowhere near the 30 s live-holder timeout.
  auto T0 = std::chrono::steady_clock::now();
  ChildExit Recovery = runSave(Store, "vortex");
  double TookMs = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - T0)
                      .count();
  check(Recovery.Exited && Recovery.ExitCode == 0,
        "recovery writer did not complete after the dead holder's lock");
  check(TookMs < 20'000, "recovery took " + std::to_string(TookMs) +
                             " ms: waited on the dead holder's lock");
  check(!fileExists(Store + ".lock"),
        "lock file still present after recovery writer exited");

  MustHold.push_back("vortex");
  checkStoreIntact(Store, MustHold);
  removeTree(Dir);
}

void runStoreMultiWriterCell(InjectSite Point) {
  std::string Dir = makeTempDir();
  std::string Store = Dir + "/store.tstore";

  ChildExit Seed = runSave(Store, "gzip");
  if (!check(Seed.Exited && Seed.ExitCode == 0, "baseline seed save failed"))
    return removeTree(Dir);

  // One doomed writer and three clean ones, all racing on one store.
  std::string Sched = std::string(getSiteName(Point)) + "=1";
  const std::vector<std::string> CleanWork = {"vortex", "parser", "twolf"};
  int CrashFd = -1;
  pid_t CrashPid =
      spawnChild({"--save", "mcf", "--store", Store}, Sched, CrashFd);
  std::vector<std::pair<pid_t, int>> Clean;
  for (const std::string &W : CleanWork) {
    int Fd = -1;
    pid_t Pid = spawnChild({"--save", W, "--store", Store}, "", Fd);
    if (check(Pid > 0, "spawn of clean writer failed"))
      Clean.push_back({Pid, Fd});
  }

  if (check(CrashPid > 0, "spawn of crashing writer failed")) {
    ChildExit Crashed = waitChild(CrashPid, CrashFd);
    check(Crashed.Exited, "crashing writer hung");
    check(Crashed.ExitCode == Injector::CrashExitCode,
          "crashing writer exited " + std::to_string(Crashed.ExitCode));
  }
  // Every clean writer must finish despite the crash: the dead writer's
  // lock went with it, so survivors only ever wait on each other.
  for (auto &[Pid, Fd] : Clean) {
    ChildExit R = waitChild(Pid, Fd);
    check(R.Exited && R.ExitCode == 0,
          "clean writer blocked or failed behind the crashed writer");
  }

  // Every clean image must be in the merged store and round-trip warm.
  std::vector<std::string> MustHold = {"gzip"};
  MustHold.insert(MustHold.end(), CleanWork.begin(), CleanWork.end());
  checkStoreIntact(Store, MustHold);
  check(!fileExists(Store + ".lock"), "stale lock file left behind");
  removeTree(Dir);
}

//===----------------------------------------------------------------------===//
// Supervisor cells: crash serving hosts mid-request.
//===----------------------------------------------------------------------===//

/// Waits (bounded) for one submitted future — the zero-hung-futures
/// assertion in executable form.
bool getReply(std::future<HostReply> &&F, HostReply &Out,
              unsigned TimeoutMillis = 60'000) {
  if (F.wait_for(std::chrono::milliseconds(TimeoutMillis)) !=
      std::future_status::ready)
    return false;
  Out = F.get();
  return true;
}

/// Builds the warm store the supervised fleet shares.
bool seedWarmStore(const std::string &Store,
                   const std::vector<std::string> &Workloads) {
  for (const std::string &W : Workloads) {
    ChildExit R = runSave(Store, W);
    if (!check(R.Exited && R.ExitCode == 0, "warm-store seed " + W + " failed"))
      return false;
  }
  return true;
}

void runSupervisorSingleCell() {
  std::string Dir = makeTempDir();
  std::string Store = Dir + "/store.tstore";
  if (!seedWarmStore(Store, {"gzip", "mcf"}))
    return removeTree(Dir);

  SupervisorConfig Config;
  Config.HostBinary = HostBinary;
  Config.StorePath = Store;
  Config.Hosts = 1;
  Config.MaxRestarts = 8;
  // Every host generation dies on its own second request.
  Config.HostEnv = {"ILDP_CRASH_SCHEDULE=mid_request=2"};
  HostSupervisor Sup(Config);
  if (!check(Sup.start(), "supervisor failed to start"))
    return removeTree(Dir);

  // Request 1: served, and served WARM — the host opened the shared
  // store, so it does zero translation work.
  HostReply R1;
  check(getReply(Sup.submit("run gzip"), R1), "request 1 hung") &&
      check(R1.ok(), "request 1 not ok: " + R1.Raw) &&
      check(R1.CostUnits == 0,
            "request 1 not warm: cost=" + std::to_string(R1.CostUnits));

  // Request 2 kills the host mid-flight: the future MUST still resolve,
  // typed, with a retry hint.
  HostReply R2;
  check(getReply(Sup.submit("run mcf"), R2), "in-flight crash request hung") &&
      check(R2.Status == ExecStatus::HostCrashed,
            "crashed request resolved " +
                std::string(getExecStatusName(R2.Status))) &&
      check(R2.RetryAfterMs > 0, "HostCrashed reply missing RetryAfterMs");

  // The supervisor restarts the slot; wait for it to come back.
  auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (Sup.liveHosts() == 0 && std::chrono::steady_clock::now() < Deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  check(Sup.liveHosts() == 1, "crashed host was not restarted");
  check(Sup.restarts() >= 1, "restart not counted");

  // First request on the restarted host: warm again (zero translation
  // work re-done after the crash). The restarted generation crashes on
  // its second request too, so retry HostCrashed responses until the
  // fresh host answers.
  bool GotWarm = false;
  for (int Attempt = 0; Attempt != 20 && !GotWarm; ++Attempt) {
    HostReply R;
    if (!check(getReply(Sup.submit("run gzip"), R),
               "post-restart request hung"))
      break;
    if (R.Status == ExecStatus::HostCrashed) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(R.RetryAfterMs ? R.RetryAfterMs : 20));
      continue;
    }
    check(R.ok(), "post-restart request failed: " + R.Raw);
    check(R.CostUnits == 0,
          "restarted host served cold: cost=" + std::to_string(R.CostUnits));
    GotWarm = true;
  }
  check(GotWarm, "never got a served request from the restarted host");

  check(Sup.crashedInFlight() >= 1, "in-flight crash conversion not counted");
  Sup.shutdown();
  removeTree(Dir);
}

void runSupervisorMultiCell() {
  std::string Dir = makeTempDir();
  std::string Store = Dir + "/store.tstore";
  if (!seedWarmStore(Store, {"gzip"}))
    return removeTree(Dir);

  SupervisorConfig Config;
  Config.HostBinary = HostBinary;
  Config.StorePath = Store;
  Config.Hosts = 2;
  Config.MaxRestarts = 32;
  Config.HostEnv = {"ILDP_CRASH_SCHEDULE=mid_request=3"};
  HostSupervisor Sup(Config);
  if (!check(Sup.start(), "supervisor failed to start"))
    return removeTree(Dir);

  // A request stream long enough to kill both hosts several times over.
  // The contract: every single future resolves, every response is typed,
  // and successes keep arriving after each crash (survivor + restart).
  unsigned Served = 0, Crashed = 0;
  constexpr unsigned Total = 40;
  for (unsigned I = 0; I != Total; ++I) {
    HostReply R;
    if (!check(getReply(Sup.submit("run gzip"), R),
               "request " + std::to_string(I) + " hung"))
      break;
    if (R.ok()) {
      ++Served;
      check(R.CostUnits == 0,
            "warm-store request served cold: cost=" +
                std::to_string(R.CostUnits));
    } else {
      check(R.Status == ExecStatus::HostCrashed,
            "unexpected rejection " +
                std::string(getExecStatusName(R.Status)) + ": " + R.Raw);
      ++Crashed;
      std::this_thread::sleep_for(
          std::chrono::milliseconds(R.RetryAfterMs ? R.RetryAfterMs : 20));
    }
  }
  check(Served + Crashed == Total, "some futures never resolved");
  check(Crashed >= 1, "crash schedule never fired");
  check(Served >= Total / 2, "fleet served only " + std::to_string(Served) +
                                 "/" + std::to_string(Total) +
                                 " despite restarts");
  check(Sup.restarts() >= 1, "no host restart observed");

  // The fleet is still alive at the end of the storm.
  HostReply Last;
  bool FinalOk = false;
  for (int Attempt = 0; Attempt != 20 && !FinalOk; ++Attempt) {
    if (!check(getReply(Sup.submit("run gzip"), Last), "final request hung"))
      break;
    if (Last.ok())
      FinalOk = true;
    else
      std::this_thread::sleep_for(std::chrono::milliseconds(
          Last.RetryAfterMs ? Last.RetryAfterMs : 20));
  }
  check(FinalOk, "fleet dead at end of storm");
  Sup.shutdown();
  removeTree(Dir);
}

#endif // !_WIN32

std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (C == '\n') {
      Out += "\\n";
      continue;
    }
    Out += C;
  }
  return Out;
}

} // namespace

int main(int argc, char **argv) {
#ifdef _WIN32
  (void)argc;
  (void)argv;
  std::fprintf(stderr, "crash testing is POSIX-only\n");
  return 0;
#else
  std::string JsonPath = "CRASHTEST_results.json";
  std::string PointFilter;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < argc ? argv[++I] : nullptr;
    };
    if (Arg == "--json" && Next())
      JsonPath = argv[I];
    else if (Arg == "--host" && Next())
      HostBinary = argv[I];
    else if (Arg == "--points" && Next())
      PointFilter = std::string(",") + argv[I] + ",";
    else if (Arg == "--keep-dirs")
      KeepDirs = true;
    else {
      std::fprintf(stderr,
                   "usage: %s [--json <path>] [--host <binary>] "
                   "[--points <p1,p2,...>] [--keep-dirs]\n",
                   argv[0]);
      return 2;
    }
  }

  if (::access(HostBinary.c_str(), X_OK) != 0) {
    std::fprintf(stderr, "host binary %s not executable\n",
                 HostBinary.c_str());
    return 2;
  }

  auto WantPoint = [&PointFilter](const char *Name) {
    return PointFilter.empty() ||
           PointFilter.find(std::string(",") + Name + ",") !=
               std::string::npos;
  };

  std::vector<CellResult> Results;
  auto RunCell = [&Results](const char *Point, const char *Schedule,
                            auto &&Fn) {
    Results.push_back({Point, Schedule, true, ""});
    Cell = &Results.back();
    std::fprintf(stderr, "=== cell %s x %s\n", Point, Schedule);
    Fn();
    std::fprintf(stderr, "=== cell %s x %s: %s\n", Point, Schedule,
                 Cell->Passed ? "PASS" : "FAIL");
    Cell = nullptr;
  };

  const InjectSite StorePoints[] = {
      InjectSite::MidTmpWrite, InjectSite::PostTmpPreRename,
      InjectSite::MidMergeRead, InjectSite::PostRenamePreUnlock};
  for (InjectSite P : StorePoints) {
    const char *Name = getSiteName(P);
    if (!WantPoint(Name))
      continue;
    RunCell(Name, "single-writer", [P] { runStoreSingleWriterCell(P); });
    RunCell(Name, "multi-writer", [P] { runStoreMultiWriterCell(P); });
  }
  if (WantPoint(getSiteName(InjectSite::MidRequest))) {
    RunCell("mid_request", "single-host", [] { runSupervisorSingleCell(); });
    RunCell("mid_request", "multi-host", [] { runSupervisorMultiCell(); });
  }

  unsigned Failed = 0;
  FILE *Json = std::fopen(JsonPath.c_str(), "w");
  if (Json)
    std::fprintf(Json, "{\n  \"cells\": [\n");
  for (size_t I = 0; I != Results.size(); ++I) {
    const CellResult &R = Results[I];
    if (!R.Passed)
      ++Failed;
    if (Json)
      std::fprintf(Json,
                   "    {\"point\": \"%s\", \"schedule\": \"%s\", "
                   "\"passed\": %s, \"detail\": \"%s\"}%s\n",
                   R.Point.c_str(), R.Schedule.c_str(),
                   R.Passed ? "true" : "false",
                   jsonEscape(R.Detail).c_str(),
                   I + 1 == Results.size() ? "" : ",");
  }
  if (Json) {
    std::fprintf(Json,
                 "  ],\n  \"total\": %zu,\n  \"failed\": %u\n}\n",
                 Results.size(), Failed);
    std::fclose(Json);
  }

  std::fprintf(stderr, "%zu cells, %u failed%s%s\n", Results.size(), Failed,
               Json ? ", results in " : "", Json ? JsonPath.c_str() : "");
  return int(Failed);
#endif
}
