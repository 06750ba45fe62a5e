//===- examples/serve_demo.cpp - Line-oriented fleet service front end ----===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A thin front end over the in-process fleet service: one line in, one
/// line out. The scheduler itself is a library (src/serve/); this demo
/// only parses lines and prints responses, from stdin by default or from
/// a TCP socket with --port.
///
///   serve_demo [--store <path>] [--workers N] [--port P]
///              [--quota <tenant>=<rate>/<burst>/<inflight>]...
///              [--default-quota <rate>/<burst>/<inflight>]
///   serve_demo --seed <path>        build a warm store, then exit
///
/// Protocol (one request per line, blank-separated fields):
///
///   run <workload> [tenant=<t>] [priority=<interactive|normal|batch>]
///                  [max_insts=<n>] [deadline_us=<n>] [cache_bytes=<n>]
///   stats
///   quit
///
/// Responses:
///
///   ok <checksum-hex> insts=<n> wall_us=<n> worker=<n>
///   err <status> <detail> [retry_after_ms=<n>]
///
/// The TCP path speaks raw file descriptors and survives hostile
/// clients: reads and writes retry on EINTR, short writes are completed,
/// SIGPIPE is ignored (a client vanishing mid-response costs that
/// connection, never the server), over-long lines drop the connection,
/// and the accept loop outlives every per-connection failure.
///
/// Example session:
///
///   $ build/examples/serve_demo --store warm.tstore --workers 4
///   run gzip
///   ok 1f9a... insts=2755561 wall_us=10234 worker=0
///   run mcf deadline_us=100
///   err deadline wall-deadline
///
//===----------------------------------------------------------------------===//

#include "serve/ExecutionScheduler.h"
#include "workloads/Workloads.h"

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#ifndef _WIN32
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

using namespace ildp;
using namespace ildp::serve;

namespace {

/// Set by SIGTERM/SIGINT: finish what was accepted, then leave. The
/// handlers are installed without SA_RESTART so blocking reads and
/// accepts return EINTR and the serving loops can see the flag.
volatile std::sig_atomic_t ShutdownRequested = 0;

/// Serves one parsed line; returns the response line (without newline),
/// or an empty string for "quit".
std::string serveLine(ExecutionScheduler &Sched, const std::string &Line) {
  std::istringstream In(Line);
  std::string Cmd;
  In >> Cmd;
  if (Cmd.empty() || Cmd[0] == '#')
    return "# comment";
  if (Cmd == "quit" || Cmd == "exit")
    return "";
  if (Cmd == "stats") {
    std::string Out;
    for (const auto &[Name, Value] : Sched.fleet().stats().getWithPrefix(""))
      Out += Name + "=" + std::to_string(Value) + " ";
    return Out.empty() ? "(no stats)" : Out;
  }
  if (Cmd == "help" || Cmd != "run")
    return "err bad-command usage: run <workload> [tenant=t] [priority=p] "
           "[max_insts=n] [deadline_us=n] | stats | quit";

  ExecRequest Req;
  if (const char *Problem = parseRunRequest(In, Req))
    return std::string("err bad-command ") + Problem;

  ExecResponse Resp = Sched.submit(std::move(Req)).get();
  if (!Resp.ok()) {
    std::string Out = std::string("err ") + getExecStatusName(Resp.Status) +
                      " " + Resp.Detail;
    if (Resp.RetryAfterMs)
      Out += " retry_after_ms=" + std::to_string(Resp.RetryAfterMs);
    return Out;
  }
  char Buf[128];
  std::snprintf(Buf, sizeof(Buf), "ok %llx insts=%llu wall_us=%.0f worker=%u",
                (unsigned long long)Resp.Checksum,
                (unsigned long long)Resp.GuestInsts, Resp.WallMicros,
                Resp.Worker);
  return Buf;
}

void serveStream(ExecutionScheduler &Sched, FILE *In, FILE *Out) {
  char LineBuf[4096];
  for (;;) {
    if (!std::fgets(LineBuf, sizeof(LineBuf), In)) {
      // A signal interrupting the read (EINTR, SA_RESTART off) is the
      // graceful-shutdown path; a true EOF or error ends the session
      // either way.
      if (!ShutdownRequested && std::ferror(In) && errno == EINTR) {
        std::clearerr(In);
        continue;
      }
      break;
    }
    std::string Line(LineBuf);
    while (!Line.empty() && (Line.back() == '\n' || Line.back() == '\r'))
      Line.pop_back();
    std::string Resp = serveLine(Sched, Line);
    if (Resp.empty())
      break;
    std::fprintf(Out, "%s\n", Resp.c_str());
    std::fflush(Out);
  }
}

int seedStore(const std::string &Path) {
  std::remove(Path.c_str());
  for (const std::string &W : workloads::workloadNames()) {
    GuestMemory Mem;
    workloads::WorkloadImage Img = workloads::buildWorkload(W, Mem, 1);
    vm::VmConfig Config;
    Config.PersistPath = Path;
    vm::VirtualMachine Vm(Mem, Img.EntryPc, Config);
    if (Vm.run().Reason != vm::StopReason::Halted) {
      std::fprintf(stderr, "%s: seeding run did not halt\n", W.c_str());
      return 1;
    }
  }
  std::printf("seeded %zu workload images into %s\n",
              workloads::workloadNames().size(), Path.c_str());
  return 0;
}

/// Parses "<rate>/<burst>/<inflight>" into \p Quota. Returns false on a
/// malformed spec.
bool parseQuotaSpec(const std::string &Spec, TenantQuota &Quota) {
  size_t S1 = Spec.find('/');
  size_t S2 = S1 == std::string::npos ? S1 : Spec.find('/', S1 + 1);
  if (S2 == std::string::npos)
    return false;
  Quota.TokensPerSec = std::strtod(Spec.substr(0, S1).c_str(), nullptr);
  Quota.Burst = std::strtod(Spec.substr(S1 + 1, S2 - S1 - 1).c_str(), nullptr);
  Quota.MaxInFlight =
      uint32_t(std::strtoul(Spec.substr(S2 + 1).c_str(), nullptr, 0));
  return true;
}

#ifndef _WIN32

/// Writes all of \p Len bytes to \p Fd, completing short writes and
/// retrying EINTR. Returns false when the peer is gone (any other error).
bool writeAll(int Fd, const char *Data, size_t Len) {
  while (Len != 0) {
    ssize_t N = write(Fd, Data, Len);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Data += N;
    Len -= size_t(N);
  }
  return true;
}

/// Buffered newline-delimited reader over a raw fd: partial reads and
/// EINTR are internal details; callers see whole lines.
class LineReader {
public:
  explicit LineReader(int Fd) : Fd(Fd) {}

  enum class Status { Line, Eof, TooLong };

  /// Reads the next line (CR/LF stripped) into \p Line. Eof covers both
  /// orderly close and read errors — either way the connection is done.
  Status readLine(std::string &Line) {
    Line.clear();
    for (;;) {
      while (Pos != Len) {
        char C = Buf[Pos++];
        if (C == '\n') {
          while (!Line.empty() && Line.back() == '\r')
            Line.pop_back();
          return Status::Line;
        }
        if (Line.size() >= MaxLine)
          return Status::TooLong;
        Line.push_back(C);
      }
      ssize_t N = read(Fd, Buf, sizeof(Buf));
      if (N < 0) {
        if (errno == EINTR) {
          if (ShutdownRequested)
            return Status::Eof; // Graceful stop: end this session.
          continue;
        }
        return Status::Eof;
      }
      if (N == 0)
        return Status::Eof; // Orderly EOF; an unterminated tail is dropped.
      Pos = 0;
      Len = size_t(N);
    }
  }

private:
  static constexpr size_t MaxLine = 64 * 1024;
  int Fd;
  char Buf[4096];
  size_t Pos = 0, Len = 0;
};

/// Serves one TCP client to completion. Any failure here is this
/// connection's problem only.
void serveClient(ExecutionScheduler &Sched, int Client) {
  LineReader Reader(Client);
  std::string Line;
  for (;;) {
    LineReader::Status S = Reader.readLine(Line);
    if (S == LineReader::Status::Eof)
      return;
    if (S == LineReader::Status::TooLong) {
      const char Err[] = "err bad-command line too long\n";
      writeAll(Client, Err, sizeof(Err) - 1);
      return;
    }
    std::string Resp = serveLine(Sched, Line);
    if (Resp.empty())
      return; // quit
    Resp += '\n';
    if (!writeAll(Client, Resp.data(), Resp.size()))
      return; // Peer went away mid-response.
  }
}

int serveTcp(ExecutionScheduler &Sched, unsigned Port) {
  // A client that disappears mid-write must cost an EPIPE errno, not a
  // process-killing signal.
  signal(SIGPIPE, SIG_IGN);
  int Listener = socket(AF_INET, SOCK_STREAM, 0);
  if (Listener < 0) {
    std::perror("socket");
    return 1;
  }
  int One = 1;
  setsockopt(Listener, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = htons(uint16_t(Port));
  if (bind(Listener, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0 ||
      listen(Listener, 4) < 0) {
    std::perror("bind/listen");
    close(Listener);
    return 1;
  }
  std::printf("serving on 127.0.0.1:%u (one client at a time; "
              "\"quit\" ends a session, Ctrl-C the server)\n",
              Port);
  while (!ShutdownRequested) {
    int Client = accept(Listener, nullptr, nullptr);
    if (Client < 0) {
      if (errno == EINTR)
        continue; // Signal: the loop condition decides (graceful stop).
      std::perror("accept"); // Transient (ECONNABORTED, EMFILE): keep going.
      continue;
    }
    serveClient(Sched, Client);
    close(Client);
  }
  close(Listener);
  return 0;
}

/// SIGTERM/SIGINT request a graceful stop: stop accepting work, drain
/// what was admitted (shutdown(FinishQueued)), then exit — a fleet host
/// must never drop accepted requests on the floor when the platform
/// recycles it. Installed without SA_RESTART so the blocking accept/read
/// loops observe the flag.
void installShutdownHandlers() {
  struct sigaction Action {};
  Action.sa_handler = [](int) { ShutdownRequested = 1; };
  sigemptyset(&Action.sa_mask);
  Action.sa_flags = 0; // No SA_RESTART: blocking calls must EINTR.
  sigaction(SIGTERM, &Action, nullptr);
  sigaction(SIGINT, &Action, nullptr);
}
#endif

} // namespace

int main(int argc, char **argv) {
  std::string StorePath, SeedPath;
  unsigned Workers = 2, Port = 0;
  FleetConfig Config;
  bool BadArgs = false;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < argc ? argv[++I] : nullptr;
    };
    if (Arg == "--store" && Next())
      StorePath = argv[I];
    else if (Arg == "--seed" && Next())
      SeedPath = argv[I];
    else if (Arg == "--workers" && Next())
      Workers = unsigned(std::strtoul(argv[I], nullptr, 0));
    else if (Arg == "--port" && Next())
      Port = unsigned(std::strtoul(argv[I], nullptr, 0));
    else if (Arg == "--quota" && Next()) {
      std::string Spec = argv[I];
      size_t Eq = Spec.find('=');
      TenantQuota Quota;
      if (Eq == std::string::npos ||
          !parseQuotaSpec(Spec.substr(Eq + 1), Quota)) {
        std::fprintf(stderr, "bad --quota spec %s\n", Spec.c_str());
        BadArgs = true;
      } else
        Config.TenantQuotas[Spec.substr(0, Eq)] = Quota;
    } else if (Arg == "--default-quota" && Next()) {
      if (!parseQuotaSpec(argv[I], Config.DefaultQuota)) {
        std::fprintf(stderr, "bad --default-quota spec %s\n", argv[I]);
        BadArgs = true;
      }
    } else
      BadArgs = true;
    if (BadArgs) {
      std::fprintf(
          stderr,
          "usage: %s [--store <path>] [--workers N] [--port P]\n"
          "       %*s [--quota <tenant>=<rate>/<burst>/<inflight>]...\n"
          "       %*s [--default-quota <rate>/<burst>/<inflight>]\n"
          "       %s --seed <path>\n",
          argv[0], int(std::strlen(argv[0])), "", int(std::strlen(argv[0])),
          "", argv[0]);
      return 2;
    }
  }
  if (!SeedPath.empty())
    return seedStore(SeedPath);

  Config.Workers = Workers;
  Config.StorePath = StorePath;
  ExecutionScheduler Sched(Config);
  Sched.fleet().registerWorkloads();
  std::fprintf(stderr, "fleet up: %u workers, %zu workloads, store %s\n",
               Workers, workloads::workloadNames().size(),
               StorePath.empty() ? "(cold)"
               : Sched.fleet().storeLoaded()
                   ? (StorePath + " (warm)").c_str()
                   : (StorePath + " (FAILED TO LOAD, serving cold)").c_str());

  int Rc = 0;
#ifndef _WIN32
  installShutdownHandlers();
  if (Port)
    Rc = serveTcp(Sched, Port);
  else
#endif
    serveStream(Sched, stdin, stdout);

  // Graceful exit, signal or EOF alike: every admitted request executes
  // before the process goes away (FinishQueued drain).
  Sched.shutdown(/*FinishQueued=*/true);
  if (ShutdownRequested)
    std::fprintf(stderr, "signal: drained queued requests, exiting\n");
  return Rc;
}
