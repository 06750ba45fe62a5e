//===- tools/ildp_crashhost.cpp - Crash-testable fleet host process -------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The child half of the multi-process fleet (DESIGN.md §15): a single
/// fleet host process the HostSupervisor spawns N of over one shared
/// store, and the unit every crash test kills. Three modes:
///
///   ildp-crashhost --serve [--store <path>] [--workers N]
///     Tagged line protocol on stdin/stdout (the HostSupervisor wire
///     format):
///       <-  <id> run <workload> [tenant=..] [priority=..] [max_insts=..]
///                              [deadline_us=..]
///       ->  <id> ok <checksum-hex> insts=<n> cost=<n> worker=<n>
///       ->  <id> err <status> <detail> [retry_after_ms=<n>]
///     Lines starting with '#' are informational. A bare "quit" (or EOF)
///     drains queued requests and exits 0.
///
///   ildp-crashhost --save <workload> [--store <path>] [--scale N]
///     Runs one workload with PersistPath = store: a single writer doing
///     the full load -> execute -> saveMerged cycle. The crash-schedule
///     harness points ILDP_CRASH_SCHEDULE at this mode to kill writers
///     at every named point of the save path.
///
///   ildp-crashhost --hold-lock [--store <path>]
///     Acquires <store>.lock (persist::StoreLock), prints "held", and
///     sleeps until killed — the stand-in for a writer that died holding
///     the lock, used by the lock-recovery tests.
///
/// Crash schedules cross the process boundary via ILDP_CRASH_SCHEDULE
/// (support/Injector.h); every mode honors them. The serve mode
/// additionally fires InjectSite::MidRequest with the request genuinely
/// in flight, so a killed host always orphans work the supervisor must
/// resolve typed.
///
//===----------------------------------------------------------------------===//

#include "interp/Interpreter.h"
#include "persist/StoreLock.h"
#include "serve/ExecutionScheduler.h"
#include "support/Injector.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#ifndef _WIN32
#include <unistd.h>
#endif

using namespace ildp;
using namespace ildp::serve;

namespace {

/// Parses the option tail of a "run" request. Returns nullptr on success
/// or a static error detail.
const char *parseRunRequest(std::istringstream &In, ExecRequest &Req) {
  In >> Req.Workload;
  if (Req.Workload.empty())
    return "missing-workload";
  std::string Opt;
  while (In >> Opt) {
    size_t Eq = Opt.find('=');
    std::string Key = Opt.substr(0, Eq);
    std::string Val = Eq == std::string::npos ? "" : Opt.substr(Eq + 1);
    if (Key == "tenant")
      Req.Tenant = Val;
    else if (Key == "priority") {
      if (!parsePriorityName(Val, Req.Lane))
        return "bad-priority";
    } else if (Key == "max_insts")
      Req.MaxGuestInsts = std::strtoull(Val.c_str(), nullptr, 0);
    else if (Key == "deadline_us")
      Req.DeadlineMicros = std::strtoull(Val.c_str(), nullptr, 0);
    else if (Key == "cache_bytes")
      Req.CodeCacheBytes = std::strtoull(Val.c_str(), nullptr, 0);
    else
      return "unknown-option";
  }
  return nullptr;
}

/// Formats one response line (without the trailing newline).
std::string formatResponse(uint64_t Id, const ExecResponse &Resp) {
  char Buf[160];
  if (Resp.ok()) {
    std::snprintf(Buf, sizeof(Buf),
                  "%llu ok %llx insts=%llu cost=%llu worker=%u",
                  (unsigned long long)Id, (unsigned long long)Resp.Checksum,
                  (unsigned long long)Resp.GuestInsts,
                  (unsigned long long)Resp.Stats.get("dbt.cost.total"),
                  Resp.Worker);
    return Buf;
  }
  std::snprintf(Buf, sizeof(Buf), "%llu err %s %s", (unsigned long long)Id,
                getExecStatusName(Resp.Status),
                *Resp.Detail ? Resp.Detail : "-");
  std::string Out = Buf;
  if (Resp.RetryAfterMs)
    Out += " retry_after_ms=" + std::to_string(Resp.RetryAfterMs);
  return Out;
}

int serveMode(const std::string &StorePath, unsigned Workers) {
  FleetConfig Config;
  Config.Workers = Workers;
  Config.StorePath = StorePath;
  ExecutionScheduler Sched(Config);
  Sched.fleet().registerWorkloads();

  std::mutex OutMutex; // Response lines come from waiter threads.
  auto Emit = [&OutMutex](const std::string &Line) {
    std::lock_guard<std::mutex> Lock(OutMutex);
    std::fputs(Line.c_str(), stdout);
    std::fputc('\n', stdout);
    std::fflush(stdout);
  };

  Emit("# host pid=" + std::to_string(long(::getpid())) + " store=" +
       (StorePath.empty() ? "cold"
                          : (Sched.fleet().storeLoaded() ? "warm" : "cold")));

  // One waiter thread per in-flight request: it blocks on the future and
  // emits the tagged response, so the read loop keeps accepting (the
  // supervisor pipelines) while earlier requests still execute. Request
  // volume per host is test-scale; thread-per-request is the simple
  // correct tool.
  std::vector<std::thread> Waiters;

  char LineBuf[4096];
  while (std::fgets(LineBuf, sizeof(LineBuf), stdin)) {
    std::string Line(LineBuf);
    while (!Line.empty() && (Line.back() == '\n' || Line.back() == '\r'))
      Line.pop_back();
    if (Line.empty() || Line[0] == '#')
      continue;
    if (Line == "quit" || Line == "exit")
      break;

    std::istringstream In(Line);
    uint64_t Id = 0;
    if (!(In >> Id)) {
      Emit("# bad-line (no id): " + Line);
      continue;
    }
    std::string Cmd;
    In >> Cmd;
    if (Cmd != "run") {
      Emit(std::to_string(Id) + " err bad-image bad-command");
      continue;
    }
    ExecRequest Req;
    if (const char *Problem = parseRunRequest(In, Req)) {
      Emit(std::to_string(Id) + " err bad-image " + Problem);
      continue;
    }

    std::future<ExecResponse> Future = Sched.submit(std::move(Req));
    // The injectable "host died serving a request" moment: the request is
    // admitted and owned by a worker (or the queue) when the process
    // vanishes — exactly what a real OOM-kill orphans.
    support::crashPoint(support::InjectSite::MidRequest);
    Waiters.emplace_back(
        [&Emit, Id, Future = std::move(Future)]() mutable {
          Emit(formatResponse(Id, Future.get()));
        });
  }

  // Drain: everything admitted answers before the host exits.
  Sched.shutdown(/*FinishQueued=*/true);
  for (std::thread &W : Waiters)
    W.join();
  return 0;
}

int saveMode(const std::string &StorePath, const std::string &Workload,
             unsigned Scale) {
  if (StorePath.empty()) {
    std::fprintf(stderr, "--save requires --store\n");
    return 2;
  }
  const std::vector<std::string> &Names = workloads::workloadNames();
  if (std::find(Names.begin(), Names.end(), Workload) == Names.end()) {
    std::fprintf(stderr, "unknown workload %s\n", Workload.c_str());
    return 2;
  }
  GuestMemory Mem;
  workloads::WorkloadImage Img = workloads::buildWorkload(Workload, Mem, Scale);
  vm::VmConfig Config;
  Config.PersistPath = StorePath;
  vm::VirtualMachine Vm(Mem, Img.EntryPc, Config);
  if (Vm.run().Reason != vm::StopReason::Halted) {
    std::fprintf(stderr, "%s: run did not halt\n", Workload.c_str());
    return 1;
  }
  // The save (with its crash points) already ran inside run()'s epilogue;
  // report what the writer observed for harness diagnostics.
  std::printf("saved %s checksum=%llx cost=%llu\n", Workload.c_str(),
              (unsigned long long)Vm.interpreter().state().readGpr(
                  alpha::RegV0),
              (unsigned long long)Vm.stats().get("dbt.cost.total"));
  return 0;
}

int holdLockMode(const std::string &StorePath) {
  if (StorePath.empty()) {
    std::fprintf(stderr, "--hold-lock requires --store\n");
    return 2;
  }
  persist::StoreLock Lock(StorePath + ".lock");
  if (!Lock.held()) {
    std::printf("not-held\n");
    std::fflush(stdout);
    return 1;
  }
  std::printf("held\n");
  std::fflush(stdout);
  // Hold until killed. The bound only keeps an orphaned holder from
  // outliving a crashed test driver forever.
  std::this_thread::sleep_for(std::chrono::seconds(120));
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  std::string StorePath, SaveWorkload;
  unsigned Workers = 1, Scale = 1;
  bool Serve = false, HoldLock = false;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < argc ? argv[++I] : nullptr;
    };
    if (Arg == "--serve")
      Serve = true;
    else if (Arg == "--hold-lock")
      HoldLock = true;
    else if (Arg == "--store" && Next())
      StorePath = argv[I];
    else if (Arg == "--save" && Next())
      SaveWorkload = argv[I];
    else if (Arg == "--workers" && Next())
      Workers = unsigned(std::strtoul(argv[I], nullptr, 0));
    else if (Arg == "--scale" && Next())
      Scale = unsigned(std::strtoul(argv[I], nullptr, 0));
    else {
      std::fprintf(stderr,
                   "usage: %s --serve [--store <path>] [--workers N]\n"
                   "       %s --save <workload> --store <path> [--scale N]\n"
                   "       %s --hold-lock --store <path>\n",
                   argv[0], argv[0], argv[0]);
      return 2;
    }
  }
  if (HoldLock)
    return holdLockMode(StorePath);
  if (!SaveWorkload.empty())
    return saveMode(StorePath, SaveWorkload, Scale);
  if (Serve)
    return serveMode(StorePath, Workers ? Workers : 1);
  std::fprintf(stderr, "one of --serve, --save, --hold-lock required\n");
  return 2;
}
