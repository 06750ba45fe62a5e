//===- serve/HostSupervisor.h - Multi-process fleet host supervision ------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The multi-process half of the fleet (DESIGN.md §15): a supervisor that
/// runs N fleet *host processes* (the ildp-crashhost binary) over one
/// shared store artifact and makes host death a served event instead of a
/// hung one. Each host is an ordinary in-process fleet (ExecutionScheduler
/// over CacheStore::openReadOnly) behind a pipe pair speaking a tagged
/// line protocol:
///
///   supervisor -> host   <id> run <workload> [tenant=..] [deadline_us=..]
///   host -> supervisor   <id> ok <checksum> insts=<n> cost=<n> worker=<n>
///                        <id> err <status> <detail> [retry_after_ms=<n>]
///
/// The contract process death must not break:
///
///  - every submit() future resolves — a request in flight on a host that
///    exits (crash-injected, SIGKILLed, or OOM-killed) is fulfilled with
///    a typed ExecStatus::HostCrashed response carrying RetryAfterMs,
///    never left hanging;
///  - the dead host is restarted (up to MaxRestarts per slot) and — the
///    §11 payoff — warm-starts from the shared store, so its first
///    request does zero translation work;
///  - surviving hosts keep serving throughout: submission fails over to
///    live slots, and only a fleet with zero live hosts rejects.
///
/// Hosts are spawned with posix_spawn (fork+exec is unsafe under the
/// sanitized test builds) and owned each by a slot thread that reaps the
/// child, fails its in-flight requests typed, and respawns. Crash
/// schedules for chaos testing cross into children via the
/// ILDP_CRASH_SCHEDULE environment variable (support/Injector.h).
///
//===----------------------------------------------------------------------===//

#ifndef ILDP_SERVE_HOSTSUPERVISOR_H
#define ILDP_SERVE_HOSTSUPERVISOR_H

#include "serve/ExecRequest.h"

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace ildp {
namespace serve {

/// Configuration of a supervised multi-process fleet.
struct SupervisorConfig {
  /// Path to the host binary (ildp-crashhost).
  std::string HostBinary;
  /// Shared warm-store artifact every host opens read-only (may be empty:
  /// a cold multi-process fleet).
  std::string StorePath;
  /// Host processes to run.
  unsigned Hosts = 2;
  /// Scheduler workers inside each host.
  unsigned WorkersPerHost = 1;
  /// Times a slot may be restarted after a crash before it is abandoned
  /// (a crash-looping host must not flap forever). The initial spawn does
  /// not count.
  unsigned MaxRestarts = 16;
  /// RetryAfterMs stamped on HostCrashed responses: how long a restarted
  /// host typically needs before it serves again.
  uint32_t CrashRetryAfterMs = 50;
  /// Extra environment for every host ("NAME=VALUE"), e.g. an
  /// ILDP_CRASH_SCHEDULE chaos schedule.
  std::vector<std::string> HostEnv;
};

/// A host's answer to one request, parsed from its response line (or
/// synthesized when the host died with the request in flight).
struct HostReply {
  ExecStatus Status = ExecStatus::Ok;
  std::string Detail;
  uint32_t RetryAfterMs = 0;
  uint64_t Checksum = 0;
  uint64_t GuestInsts = 0;
  /// dbt.cost.total the host spent on this request — 0 on a warm host
  /// (the §11 zero-translation-work contract, per request, per process).
  uint64_t CostUnits = 0;
  unsigned Host = 0;  ///< Slot that served (or died holding) the request.
  std::string Raw;    ///< The verbatim response line ("" on a crash).

  bool ok() const { return Status == ExecStatus::Ok; }
};

/// Supervisor of N fleet host processes over one shared store.
class HostSupervisor {
public:
  explicit HostSupervisor(SupervisorConfig Config);
  ~HostSupervisor(); // shutdown().

  HostSupervisor(const HostSupervisor &) = delete;
  HostSupervisor &operator=(const HostSupervisor &) = delete;

  /// Spawns the host processes. Returns false when no host could be
  /// spawned at all (bad binary path). Idempotent.
  bool start();

  /// Submits one request line (e.g. "run gzip tenant=t deadline_us=500")
  /// to a live host, round-robin. Never blocks on a dead fleet: with zero
  /// live hosts the future is fulfilled immediately with a typed
  /// HostCrashed rejection. Every returned future resolves.
  std::future<HostReply> submit(const std::string &RequestLine);

  /// Graceful stop: asks every live host to drain ("quit" — each host
  /// finishes its queued requests first), reaps all children, joins the
  /// slot threads. Requests a host failed to answer before exiting are
  /// fulfilled HostCrashed. Idempotent.
  void shutdown();

  unsigned hostCount() const { return unsigned(Slots.size()); }
  /// Live (spawned, not yet exited) hosts right now.
  unsigned liveHosts() const;
  /// OS pid of slot \p Slot, or -1 when the slot is down (tests use this
  /// to SIGKILL a specific host).
  long hostPid(unsigned Slot) const;

  /// Times any slot was respawned after a child exit.
  uint64_t restarts() const {
    return Restarts.load(std::memory_order_relaxed);
  }
  /// In-flight requests converted to typed HostCrashed responses.
  uint64_t crashedInFlight() const {
    return CrashedInFlight.load(std::memory_order_relaxed);
  }
  /// Submissions rejected because no host slot was live.
  uint64_t rejectedNoHost() const {
    return RejectedNoHost.load(std::memory_order_relaxed);
  }

private:
  struct Slot {
    unsigned Index = 0;
    std::thread Thread;            ///< Owns the child lifecycle.
    mutable std::mutex Mutex;      ///< Guards everything below.
    bool Live = false;
    long Pid = -1;
    int WriteFd = -1;              ///< Supervisor -> host request pipe.
    unsigned RestartsUsed = 0;
    std::unordered_map<uint64_t, std::promise<HostReply>> InFlight;
  };

  void slotMain(Slot &S);
  bool spawnHost(Slot &S, int &ReadFd);
  void failInFlight(Slot &S, const char *Detail);
  static bool parseReply(const std::string &Line, unsigned SlotIndex,
                         uint64_t &Id, HostReply &Reply);

  SupervisorConfig Config;
  std::vector<std::unique_ptr<Slot>> Slots;
  std::atomic<bool> Started{false};
  std::atomic<bool> Stopping{false};
  std::atomic<uint64_t> NextId{1};
  std::atomic<unsigned> RoundRobin{0};
  std::atomic<uint64_t> Restarts{0};
  std::atomic<uint64_t> CrashedInFlight{0};
  std::atomic<uint64_t> RejectedNoHost{0};
};

} // namespace serve
} // namespace ildp

#endif // ILDP_SERVE_HOSTSUPERVISOR_H
