//===- perfbench/perfbench.cpp - Repo benchmark driver --------------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one named workload against the ILDP libraries and prints its
/// metrics. The last line of standard output is one JSON object:
///
///   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
///
/// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
/// run records spans around its calls into each module and reports the
/// per-layer metrics instead. Workloads, metrics and the layer mapping are
/// documented in README.md next to this file; run.py builds this program
/// and is the command to use.
///
/// Usage: perfbench --workload <guest_warm|native_cold|fleet_open>
///                  --seed <n> --seconds <s> --trace <0|1>
///                  --workdir <dir> [--commit <id>]
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "alpha/AlphaIsa.h"
#include "interp/Interpreter.h"
#include "native/NativeCompiler.h"
#include "persist/CacheStore.h"
#include "serve/ExecutionScheduler.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <future>
#include <memory>
#include <thread>

using namespace ildp;
using namespace perfbench;

namespace {

// Workload constants. Changing any of them changes what the benchmark
// measures; README.md explains each choice.
constexpr unsigned WarmScale = 4;
constexpr unsigned ColdScale = 1;
constexpr unsigned ColdNativeWorkers = 3;
constexpr unsigned FleetScale = 1;
constexpr unsigned FleetWorkers = 3;
constexpr double FleetRate = 70;           ///< Requests per second.
constexpr double FleetWarmupSeconds = 2;   ///< Discarded schedule prefix.
/// Set-ups per run; setup_s is their median. native_cold's set-up is short
/// and dominated by one host compile, so it takes more samples.
constexpr int WarmSetups = 3, ColdSetups = 5, FleetSetups = 3;
constexpr size_t FleetReplayRound = 24;    ///< Two blocks of the 12 guests.

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string WorkDir = ".";
  std::string Commit = "unknown";
};

/// What a run measured.
struct Outcome {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Violations; ///< Broken warm invariants.
  Metrics EndToEnd;                    ///< Reported with --trace 0.
  Metrics Layers;                      ///< Reported with --trace 1.
  Metrics Detail;                      ///< Printed, never gated.
  std::vector<double> SetupSeconds;

  void count(bool Ok) {
    ++Attempted;
    Failed += !Ok;
  }
  void violate(const std::string &What) {
    if (Violations.size() < 8)
      Violations.push_back(What);
  }
  /// The warm invariants: a warm operation translates nothing, compiles
  /// nothing and finds its image in the store.
  void checkWarm(const StatisticSet &S, const std::string &What) {
    if (S.get("dbt.cost.total") != 0)
      violate(What + ": translated during a warm run");
    if (S.get("native.compiles") != 0)
      violate(What + ": host-compiled during a warm run");
    if (S.get("persist.store_hit") != 1)
      violate(What + ": missed the warm store");
  }
};

/// One timed operation of a closed loop.
struct Op {
  Clock::time_point Due, Start, End;
  uint64_t Insts = 0;
  double CpuMs = 0;
  int Tier = 0;
  bool Ok = false;
  double ms() const { return msBetween(Start, End); }
};

struct Round {
  std::vector<Op> Ops;
  Clock::time_point Start, End;
  bool Traced = false;
};

/// Runs rounds of \p OpsPerRound operations until \p Seconds have passed
/// (at least \p MinRounds). With \p Alternate, every other round is
/// traced, so the traced and untraced rounds interleave over the same
/// stretch of time. \p BeforeRound prepares a round (seeded order, fresh
/// store); \p RunOp runs operation \p I of it under the given root span
/// and fills Start/End/Insts/Tier/Ok.
std::vector<Round>
runRounds(size_t OpsPerRound, double Seconds, int MinRounds, bool Alternate,
          Tracer &T, const std::function<void()> &BeforeRound,
          const std::function<void(size_t, int, Op &)> &RunOp) {
  std::vector<Round> Rounds;
  Clock::time_point Begin = Clock::now();
  while (int(Rounds.size()) < MinRounds ||
         msSince(Begin) < Seconds * 1000) {
    Round R;
    R.Traced = Alternate && Rounds.size() % 2 == 1;
    T.setEnabled(R.Traced);
    BeforeRound();
    R.Start = Clock::now();
    Clock::time_point Due = R.Start;
    for (size_t I = 0; I != OpsPerRound; ++I) {
      Op O;
      O.Due = Due;
      int Root =
          T.begin("op", -1, int64_t(Rounds.size() * OpsPerRound + I));
      RunOp(I, Root, O);
      T.end(Root);
      Due = Clock::now();
      R.Ops.push_back(O);
    }
    R.End = Clock::now();
    Rounds.push_back(std::move(R));
  }
  T.setEnabled(false);
  return Rounds;
}

/// Seeded Fisher-Yates permutation of 0..N-1.
std::vector<size_t> permutation(size_t N, Rng &R) {
  std::vector<size_t> P(N);
  for (size_t I = 0; I != N; ++I)
    P[I] = I;
  for (size_t I = N; I > 1; --I)
    std::swap(P[I - 1], P[R.nextBelow(I)]);
  return P;
}

/// Guest MIPS of each untraced round (ops with \p Tier, or all if -1),
/// over wall time or, with \p Cpu, the thread's CPU time.
std::vector<double> roundMips(const std::vector<Round> &Rounds, int Tier,
                              bool Cpu = false) {
  std::vector<double> Out;
  for (const Round &R : Rounds) {
    if (R.Traced)
      continue;
    double Insts = 0, Ms = 0;
    for (const Op &O : R.Ops)
      if (Tier < 0 || O.Tier == Tier) {
        Insts += double(O.Insts);
        Ms += Cpu ? O.CpuMs : O.ms();
      }
    Out.push_back(Insts / (Ms * 1e3));
  }
  return Out;
}

/// End-to-end and serve-layer metrics of a closed loop's untraced rounds.
/// A closed loop has one server and no queue: an operation is due when
/// the previous one ends, and its wait is the loop's own work in between.
/// With \p Cpu, operation times are the thread's CPU time (single-threaded
/// operations only): on a shared host that leaves out time the thread was
/// not running, which is not a property of the program.
void closedLoopMetrics(const std::vector<Round> &Rounds, bool Cpu,
                       Outcome &Out) {
  std::vector<double> Lat, Wait;
  double Busy = 0, Window = 0;
  for (const Round &R : Rounds) {
    for (const Op &O : R.Ops)
      Out.count(O.Ok);
    if (R.Traced)
      continue;
    for (const Op &O : R.Ops) {
      Lat.push_back(Cpu ? O.CpuMs : O.ms());
      Wait.push_back(msBetween(O.Due, O.Start));
      Busy += O.ms();
    }
    Window += msBetween(R.Start, R.End);
  }
  Out.EndToEnd["guest_mips"] = median(roundMips(Rounds, -1, Cpu));
  if (Cpu)
    Out.Detail["guest_mips.wall"] = median(roundMips(Rounds, -1));
  Out.EndToEnd["latency_ms.p50"] = median(Lat);
  Out.Detail["wall_s"] = Window / 1000;
  Out.Detail["ops"] = double(Lat.size());
  Out.Layers["serve.service_ms.p50"] = median(Lat);
  Out.Layers["serve.queue_wait_ms.p50"] = median(Wait);
  Out.Layers["serve.utilisation"] = Busy / Window;
  Out.Layers["serve.gen_late_ms.max"] = quantile(Wait, 1.0);
}

/// Tracing overhead and self-time shares from the interleaved rounds.
void traceMetrics(const std::vector<Round> &Rounds, const Tracer &T,
                  Outcome &Out) {
  double Ms[2] = {0, 0}, Insts[2] = {0, 0};
  for (const Round &R : Rounds) {
    Ms[R.Traced] += msBetween(R.Start, R.End);
    for (const Op &O : R.Ops)
      Insts[R.Traced] += double(O.Insts);
  }
  Out.Layers["trace.overhead_share"] =
      (Ms[1] / Insts[1]) / (Ms[0] / Insts[0]) - 1;
  std::map<std::string, double> Self = T.selfSeconds("op");
  double Total = T.totalSeconds("op");
  for (const char *Name : {"op", "op.mem_build", "op.interp_run",
                           "op.vm_construct", "op.vm_run", "op.vm_stats"})
    Out.Layers[std::string("self_share.") + Name] = Self[Name] / Total;
  size_t Ctors = T.count("op.vm_construct");
  Out.Layers["vm.construct_ms"] =
      Ctors ? T.totalSeconds("op.vm_construct") * 1e3 / double(Ctors) : 0;
}

//===-- guest_warm --------------------------------------------------------===//

enum Tier { TierInterp, TierIisa, TierNative };
const char *const TierNames[] = {"interp", "iisa", "native"};

struct WarmSetup {
  std::vector<Guest> Guests;
  std::string StorePath;
  std::unique_ptr<persist::CacheStore> Store;
};

/// Runs \p G on \p Tier; warm tiers import from \p Store.
void warmOp(const Guest &G, Tier Tier, const persist::CacheStore &Store,
            Tracer &T, int Root, Op &O, Outcome &Out,
            std::vector<StatisticSet> *Stats) {
  O.Tier = Tier;
  if (Tier == TierInterp) {
    GuestMemory Mem;
    {
      Scope S(T, "op.mem_build", Root);
      workloads::buildWorkload(G.Name, Mem, G.Scale);
    }
    double Cpu = threadCpuMs();
    O.Start = Clock::now();
    int Run = T.begin("op.interp_run", Root);
    Interpreter Interp(Mem);
    Interp.state().Pc = G.Entry;
    StepInfo Last = Interp.run(4'000'000'000ull);
    T.end(Run);
    O.End = Clock::now();
    O.CpuMs = threadCpuMs() - Cpu;
    O.Insts = Interp.retiredCount();
    O.Ok = matches(G, Last.Status == StepStatus::Halted,
                   Interp.state().readGpr(alpha::RegV0), O.Insts);
    return;
  }
  vm::VmConfig Config = Tier == TierIisa ? iisaConfig() : nativeConfig(1);
  Config.SharedStore = &Store;
  VmRun R = runVm(G, Config, T, Root);
  O.Start = R.Start;
  O.End = R.End;
  O.CpuMs = R.CpuMs;
  O.Insts = R.Insts;
  O.Ok = matches(G, R.Halted, R.Checksum, R.Insts);
  Out.checkWarm(R.Stats, G.Name + "/" + TierNames[Tier]);
  if (Tier == TierNative && R.Stats.get("native.runs") == 0)
    Out.violate(G.Name + "/native: ran no native code");
  if (Stats)
    Stats->push_back(std::move(R.Stats));
}

WarmSetup setupWarm(const Options &Opt, int Index, Outcome &Out) {
  WarmSetup S;
  S.Guests = referenceGuests(WarmScale);
  S.StorePath = Opt.WorkDir + "/warm-" + std::to_string(Index) + ".tstore";
  std::string Why;
  if (!buildNativeStore(S.Guests, S.StorePath, Why))
    die(Why);
  S.Store = std::make_unique<persist::CacheStore>();
  if (S.Store->openReadOnly(S.StorePath) != persist::StoreStatus::Ok)
    die("cannot open the warm store");
  // One untimed pass: warms caches and checks every warm invariant
  // before anything is timed.
  Tracer Off(false);
  for (const Guest &G : S.Guests)
    for (Tier Tr : {TierInterp, TierIisa, TierNative}) {
      Op O;
      warmOp(G, Tr, *S.Store, Off, -1, O, Out, nullptr);
      if (!O.Ok)
        die(G.Name + "/" + TierNames[Tr] + ": warm-up run is wrong");
    }
  return S;
}

void guestWarm(const Options &Opt, Tracer &T, Outcome &Out) {
  WarmSetup S;
  for (int I = 0; I != (Opt.Trace ? 1 : WarmSetups); ++I) {
    Clock::time_point Start = Clock::now();
    S = setupWarm(Opt, I, Out);
    Out.SetupSeconds.push_back(msSince(Start) / 1000);
  }
  Rng R(Opt.Seed * 0x9E3779B97F4A7C15ull + 1);
  std::vector<size_t> Order;
  std::vector<StatisticSet> Stats;
  std::vector<Round> Rounds = runRounds(
      S.Guests.size() * 3, Opt.Seconds, Opt.Trace ? 4 : 3, Opt.Trace, T,
      [&] { Order = permutation(S.Guests.size(), R); },
      [&](size_t I, int Root, Op &O) {
        warmOp(S.Guests[Order[I / 3]], Tier(I % 3), *S.Store, T, Root, O,
               Out, Opt.Trace ? &Stats : nullptr);
      });
  closedLoopMetrics(Rounds, true, Out);
  for (int Tr : {TierInterp, TierIisa, TierNative})
    Out.Detail[std::string(TierNames[Tr]) + "_mips"] =
        median(roundMips(Rounds, Tr, true));
  if (Opt.Trace) {
    traceMetrics(Rounds, T, Out);
    addVmCounters(Stats, Out.Layers);
    runLayerProbes(S.Guests, S.StorePath, Opt.WorkDir, Opt.Seed,
                   Out.Detail["native.probe_ms"], T, Out.Layers);
  }
}

//===-- native_cold -------------------------------------------------------===//

void nativeCold(const Options &Opt, Tracer &T, Outcome &Out) {
  std::vector<Guest> Guests;
  Rng R(Opt.Seed * 0x9E3779B97F4A7C15ull + 2);
  for (int I = 0; I != (Opt.Trace ? 1 : ColdSetups); ++I) {
    Clock::time_point Start = Clock::now();
    Guests = referenceGuests(ColdScale);
    // Throwaway first-ever run (host compiles, dlopen, save) so the
    // process's first-compile cost stays out of the timed window.
    std::string Scratch = Opt.WorkDir + "/cold-warmup.tstore";
    std::remove(Scratch.c_str());
    vm::VmConfig Config = nativeConfig(ColdNativeWorkers);
    Config.PersistPath = Scratch;
    Tracer Off(false);
    const Guest &G = Guests[R.nextBelow(Guests.size())];
    VmRun W = runVm(G, Config, Off);
    if (!matches(G, W.Halted, W.Checksum, W.Insts) ||
        W.Stats.get("native.compiles") == 0)
      die(G.Name + ": cold warm-up run is wrong or compiled nothing");
    std::remove(Scratch.c_str());
    Out.SetupSeconds.push_back(msSince(Start) / 1000);
  }

  std::string Store = Opt.WorkDir + "/cold.tstore";
  std::vector<size_t> Order;
  std::vector<StatisticSet> Stats;
  std::vector<Round> Rounds = runRounds(
      Guests.size(), Opt.Seconds, Opt.Trace ? 4 : 3, Opt.Trace, T,
      [&] {
        std::remove(Store.c_str());
        Order = permutation(Guests.size(), R);
      },
      [&](size_t I, int Root, Op &O) {
        const Guest &G = Guests[Order[I]];
        vm::VmConfig Config = nativeConfig(ColdNativeWorkers);
        Config.PersistPath = Store;
        VmRun V = runVm(G, Config, T, Root);
        O.Start = V.Start;
        O.End = V.End;
        O.Insts = V.Insts;
        O.Ok = matches(G, V.Halted, V.Checksum, V.Insts);
        if (V.Stats.get("persist.store_hit") != 0)
          Out.violate(G.Name + ": first-ever run found itself in the store");
        Stats.push_back(std::move(V.Stats));
      });
  closedLoopMetrics(Rounds, false, Out);
  double Compiles = 0, Saves = 0;
  for (const StatisticSet &S : Stats) {
    Compiles += double(S.get("native.compiles"));
    Saves += double(S.get("persist.save_ok"));
  }
  Out.Detail["native_compiles_per_run"] = Compiles / double(Stats.size());
  Out.Detail["saves_per_run"] = Saves / double(Stats.size());
  if (Opt.Trace) {
    traceMetrics(Rounds, T, Out);
    addVmCounters(Stats, Out.Layers);
    std::string ProbeStore = Opt.WorkDir + "/probe.tstore", Why;
    if (!buildNativeStore(Guests, ProbeStore, Why))
      die(Why);
    runLayerProbes(Guests, ProbeStore, Opt.WorkDir, Opt.Seed,
                   Out.Detail["native.probe_ms"], T, Out.Layers);
  }
}

//===-- fleet_open --------------------------------------------------------===//

struct Request {
  size_t Guest = 0;
  Clock::time_point Due, Submit, Done;
  serve::ExecResponse Response;
};

/// Open loop: \p Count requests due at a fixed interval of 1/\p Rate
/// seconds, issued by this thread whatever the backlog. Every block of
/// twelve requests asks for each guest once, in a seeded order, so the mix
/// is the same for every seed and only the order varies. Evenly spaced
/// arrivals keep queueing to what the service times themselves cause;
/// Poisson arrivals doubled the run-to-run spread of the median latency.
/// Each response's arrival is noticed within 0.2 ms: the thread blocks on
/// the oldest outstanding request until the next arrival is due.
std::vector<Request> openLoop(serve::ExecutionScheduler &Sched,
                              const std::vector<Guest> &Guests, double Rate,
                              size_t Count, Rng &R) {
  std::vector<Request> Reqs(Count);
  std::vector<std::future<serve::ExecResponse>> Futures(Count);
  Clock::time_point Start = Clock::now() + std::chrono::milliseconds(1);
  std::vector<size_t> Block;
  for (size_t I = 0; I != Count; ++I) {
    Reqs[I].Due = Start + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(double(I) / Rate));
    if (I % Guests.size() == 0)
      Block = permutation(Guests.size(), R);
    Reqs[I].Guest = Block[I % Guests.size()];
  }
  std::vector<size_t> Pending;
  size_t Next = 0;
  while (Next != Count || !Pending.empty()) {
    Clock::time_point Now = Clock::now();
    while (Next != Count && Reqs[Next].Due <= Now) {
      serve::ExecRequest E;
      E.Workload = Guests[Reqs[Next].Guest].Name;
      Reqs[Next].Submit = Clock::now();
      Futures[Next] = Sched.submit(std::move(E));
      Pending.push_back(Next++);
    }
    for (size_t I = 0; I != Pending.size();) {
      std::future<serve::ExecResponse> &F = Futures[Pending[I]];
      if (F.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
        ++I;
        continue;
      }
      Reqs[Pending[I]].Done = Clock::now();
      Reqs[Pending[I]].Response = F.get();
      Pending.erase(Pending.begin() + long(I));
    }
    Clock::time_point Wake =
        Next != Count ? Reqs[Next].Due : Clock::now() + std::chrono::hours(1);
    if (!Pending.empty())
      Futures[Pending.front()].wait_until(
          std::min(Wake, Clock::now() + std::chrono::microseconds(200)));
    else if (Next != Count)
      std::this_thread::sleep_until(Wake);
  }
  return Reqs;
}

/// Checks each response against the interpreter and the warm invariants.
void checkResponses(const std::vector<Request> &Reqs,
                    const std::vector<Guest> &Guests, Outcome &Out,
                    bool Count) {
  for (const Request &Q : Reqs) {
    const Guest &G = Guests[Q.Guest];
    const serve::ExecResponse &E = Q.Response;
    bool Ok = E.ok() && matches(G, true, E.Checksum, E.GuestInsts);
    if (Count)
      Out.count(Ok);
    else if (!Ok)
      die(G.Name + ": warm-up request failed: " +
          serve::getExecStatusName(E.Status));
    if (E.ok())
      Out.checkWarm(E.Stats, G.Name + " request");
  }
}

struct FleetSetup {
  std::vector<Guest> Guests;
  std::string StorePath;
  std::unique_ptr<serve::ExecutionScheduler> Sched;
};

FleetSetup setupFleet(const Options &Opt, int Index, Rng &R, Outcome &Out) {
  FleetSetup S;
  S.Guests = referenceGuests(FleetScale);
  S.StorePath = Opt.WorkDir + "/fleet-" + std::to_string(Index) + ".tstore";
  std::remove(S.StorePath.c_str());
  // The warm store: I-ISA runs that save until a run translates nothing.
  Tracer Off(false);
  vm::VmConfig Config = iisaConfig();
  Config.PersistPath = S.StorePath;
  for (const Guest &G : S.Guests)
    for (int Round = 0;; ++Round) {
      VmRun V = runVm(G, Config, Off);
      if (!matches(G, V.Halted, V.Checksum, V.Insts))
        die(G.Name + ": store-building run differs from the interpreter");
      if (Round != 0 && V.Stats.get("dbt.cost.total") == 0)
        break;
      if (Round == 5)
        die(G.Name + ": fleet store never converged");
    }
  serve::FleetConfig Fleet;
  Fleet.Workers = FleetWorkers;
  Fleet.QueueDepth = 1 << 14;
  Fleet.StorePath = S.StorePath;
  S.Sched = std::make_unique<serve::ExecutionScheduler>(Fleet);
  S.Sched->fleet().registerWorkloads(FleetScale);
  // The discarded warm-up phase of the schedule.
  std::vector<Request> Warm =
      openLoop(*S.Sched, S.Guests, FleetRate,
               size_t(FleetRate * FleetWarmupSeconds), R);
  checkResponses(Warm, S.Guests, Out, false);
  return S;
}

void fleetOpen(const Options &Opt, Tracer &T, Outcome &Out) {
  Rng R(Opt.Seed * 0x9E3779B97F4A7C15ull + 3);
  FleetSetup S;
  for (int I = 0; I != (Opt.Trace ? 1 : FleetSetups); ++I) {
    Clock::time_point Start = Clock::now();
    S = FleetSetup(); // Stop the previous scheduler before the next set-up.
    S = setupFleet(Opt, I, R, Out);
    Out.SetupSeconds.push_back(msSince(Start) / 1000);
  }

  double Seconds = Opt.Trace ? Opt.Seconds / 2 : Opt.Seconds;
  size_t Count = std::max(S.Guests.size(), size_t(FleetRate * Seconds));
  std::vector<Request> Reqs = openLoop(*S.Sched, S.Guests, FleetRate, Count, R);
  checkResponses(Reqs, S.Guests, Out, true);
  T.setEnabled(Opt.Trace);
  std::vector<double> Lat, Service, Wait, BlockMips;
  double Insts = 0, Busy = 0, Late = 0, BlockInsts = 0, BlockBusy = 0;
  for (const Request &Q : Reqs) {
    double Wall = Q.Response.WallMicros / 1000;
    // Each block of twelve requests runs every guest once.
    BlockInsts += double(Q.Response.GuestInsts);
    BlockBusy += Wall;
    if (size_t(&Q - &Reqs[0]) % S.Guests.size() == S.Guests.size() - 1) {
      BlockMips.push_back(BlockInsts / (BlockBusy * 1e3));
      BlockInsts = BlockBusy = 0;
    }
    Lat.push_back(msBetween(Q.Due, Q.Done));
    Service.push_back(Wall);
    Wait.push_back(msBetween(Q.Submit, Q.Done) - Wall);
    Insts += double(Q.Response.GuestInsts);
    Busy += Wall;
    Late = std::max(Late, msBetween(Q.Due, Q.Submit));
    int Root = T.add("request", Q.Due, Q.Done, -1, int64_t(&Q - &Reqs[0]));
    T.add("serve.service",
          Q.Done - std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double, std::milli>(Wall)),
          Q.Done, Root, int64_t(&Q - &Reqs[0]));
  }
  double Window = 0;
  for (const Request &Q : Reqs)
    Window = std::max(Window, msBetween(Reqs.front().Due, Q.Done));
  Out.EndToEnd["guest_mips"] = median(BlockMips);
  Out.Detail["guest_mips.all"] = Insts / (Busy * 1e3);
  Out.EndToEnd["latency_ms.p50"] = median(Lat);
  // A p99 needs at least ten samples beyond it.
  if (Reqs.size() >= 1000) {
    Out.Detail["latency_ms.p99"] = quantile(Lat, 0.99);
    Out.Detail["serve.service_ms.p99"] = quantile(Service, 0.99);
    Out.Detail["serve.queue_wait_ms.p99"] = quantile(Wait, 0.99);
  }
  Out.Detail["requests"] = double(Reqs.size());
  Out.Detail["wall_s"] = Window / 1000;
  Out.Detail["offered_rate"] = FleetRate;
  Out.Detail["achieved_rate"] = double(Reqs.size()) / (Window / 1000);
  Out.Layers["serve.service_ms.p50"] = median(Service);
  Out.Layers["serve.queue_wait_ms.p50"] = median(Wait);
  Out.Layers["serve.utilisation"] = Busy / (FleetWorkers * Window);
  Out.Layers["serve.gen_late_ms.max"] = Late;
  if (!Opt.Trace)
    return;

  // The request's internal split, replayed on this thread through the
  // same calls a fleet worker makes.
  std::vector<serve::GuestImage> Images;
  for (const Guest &G : S.Guests)
    Images.push_back(serve::imageFromWorkload(G.Name, G.Scale));
  persist::CacheStore Store;
  if (Store.openReadOnly(S.StorePath) != persist::StoreStatus::Ok)
    die("cannot open the fleet store");
  vm::VmConfig Config = iisaConfig();
  Config.SharedStore = &Store;
  std::vector<size_t> Mix(FleetReplayRound);
  std::vector<StatisticSet> Stats;
  std::vector<Round> Rounds = runRounds(
      FleetReplayRound, Opt.Seconds / 2, 4, true, T,
      [&] {
        for (size_t I = 0; I != Mix.size(); I += S.Guests.size()) {
          std::vector<size_t> Block = permutation(S.Guests.size(), R);
          std::copy(Block.begin(), Block.end(), Mix.begin() + long(I));
        }
      },
      [&](size_t I, int Root, Op &O) {
        const Guest &G = S.Guests[Mix[I]];
        GuestMemory Mem;
        O.Start = Clock::now();
        {
          Scope Sp(T, "op.mem_build", Root);
          if (serve::buildGuestMemory(Images[Mix[I]], Mem))
            die(G.Name + ": buildGuestMemory failed");
        }
        int Ctor = T.begin("op.vm_construct", Root);
        vm::VirtualMachine Vm(Mem, G.Entry, Config);
        T.end(Ctor);
        vm::RunResult Result;
        {
          Scope Sp(T, "op.vm_run", Root);
          Result = Vm.run();
        }
        StatisticSet Delta;
        {
          Scope Sp(T, "op.vm_stats", Root);
          Delta = Vm.statsDelta();
        }
        O.End = Clock::now();
        O.Insts = Delta.get("vm.guest_insts");
        O.Ok = matches(G, Result.Reason == vm::StopReason::Halted,
                       Vm.interpreter().state().readGpr(alpha::RegV0),
                       O.Insts);
        Out.count(O.Ok);
        Out.checkWarm(Delta, G.Name + " replay");
        Stats.push_back(std::move(Delta));
      });
  traceMetrics(Rounds, T, Out);
  addVmCounters(Stats, Out.Layers);
  std::string ProbeStore = Opt.WorkDir + "/probe.tstore", Why;
  if (!buildNativeStore(S.Guests, ProbeStore, Why))
    die(Why);
  runLayerProbes(S.Guests, ProbeStore, Opt.WorkDir, Opt.Seed,
                 Out.Detail["native.probe_ms"], T, Out.Layers);
}

//===-- Output ------------------------------------------------------------===//

/// Total and steal jiffies of all CPUs (/proc/stat), to report how much
/// of the run the hypervisor gave to other guests.
std::pair<double, double> cpuJiffies() {
  std::ifstream Stat("/proc/stat");
  std::string Cpu;
  double Total = 0, Steal = 0, V = 0;
  Stat >> Cpu;
  for (int I = 0; I != 8 && Stat >> V; ++I) {
    Total += V;
    if (I == 7)
      Steal = V;
  }
  return {Total, Steal};
}

double peakRssMb() {
  std::ifstream Status("/proc/self/status");
  std::string Line;
  while (std::getline(Status, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::stod(Line.substr(6)) / 1024;
  return 0;
}

std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (C == '\n' || C == '\t')
      C = ' ';
    Out += C;
  }
  return Out;
}

using UnitTable = std::vector<std::pair<const char *, const char *>>;

/// The metric sets BENCHMARK.json declares, with their units.
const UnitTable EndToEndUnits = {
    {"setup_s", "s"},
    {"guest_mips", "MIPS"},
    {"latency_ms.p50", "ms"},
    {"peak_rss_mb", "MB"},
};
const UnitTable LayerUnits = {
    {"workloads.build_ms", "ms"},
    {"serve.materialize_us", "us"},
    {"interp.ns_per_inst", "ns"},
    {"interp.decode_at_ns", "ns"},
    {"mem.load_ns", "ns"},
    {"mem.store_ns", "ns"},
    {"vm.construct_ms", "ms"},
    {"vm.run_ms.iisa", "ms"},
    {"vm.run_ms.native", "ms"},
    {"vm.interp_share", "share"},
    {"exit.chained_share", "share"},
    {"dispatch.calls_per_kinst", "count"},
    {"frag.insts_per_guest_inst", "ratio"},
    {"core.translate_us", "us"},
    {"core.lower_us", "us"},
    {"core.usage_us", "us"},
    {"core.strands_us", "us"},
    {"core.codegen_us", "us"},
    {"dbt.cost.total", "count"},
    {"native.probe_ms", "ms"},
    {"native.emit_us", "us"},
    {"native.compile_ms", "ms"},
    {"native.compiles", "count"},
    {"native.insts_share", "share"},
    {"persist.open_ms", "ms"},
    {"persist.lookup_us", "us"},
    {"persist.save_ms", "ms"},
    {"persist.store_bytes", "B"},
    {"serve.service_ms.p50", "ms"},
    {"serve.queue_wait_ms.p50", "ms"},
    {"serve.utilisation", "share"},
    {"serve.gen_late_ms.max", "ms"},
    {"self_share.op", "share"},
    {"self_share.op.mem_build", "share"},
    {"self_share.op.interp_run", "share"},
    {"self_share.op.vm_construct", "share"},
    {"self_share.op.vm_run", "share"},
    {"self_share.op.vm_stats", "share"},
    {"trace.overhead_share", "share"},
};

void printMetrics(const char *Title, const Metrics &M, const UnitTable &U) {
  std::printf("%s\n", Title);
  for (auto &[Name, Unit] : U)
    std::printf("  %-30s %14.6g %s\n", Name, M.at(Name), Unit);
}

/// The "metrics" object: exactly the names of \p U, each with its unit.
std::string metricsJson(const Metrics &M, const UnitTable &U) {
  if (M.size() != U.size())
    die("metric set does not match the declared one");
  std::string Out = "{";
  char Buf[256];
  for (auto &[Name, Unit] : U) {
    auto It = M.find(Name);
    if (It == M.end() || !std::isfinite(It->second))
      die(std::string("metric missing or not finite: ") + Name);
    std::snprintf(Buf, sizeof(Buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  Out.size() > 1 ? ", " : "", Name, It->second, Unit);
    Out += Buf;
  }
  return Out + "}";
}

/// Workload-specific figures that are not gated, as one JSON object.
std::string detailJson(const Metrics &M) {
  std::string Out = "{";
  char Buf[256];
  for (auto &[Name, Value] : M) {
    std::snprintf(Buf, sizeof(Buf), "%s\"%s\": %.17g",
                  Out.size() > 1 ? ", " : "", Name.c_str(),
                  std::isfinite(Value) ? Value : 0.0);
    Out += Buf;
  }
  return Out + "}";
}

bool parseArgs(int Argc, char **Argv, Options &Opt) {
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string Key = Argv[I], Val = Argv[I + 1];
    try {
      if (Key == "--workload")
        Opt.Workload = Val;
      else if (Key == "--seed")
        Opt.Seed = std::stoull(Val);
      else if (Key == "--seconds")
        Opt.Seconds = std::stod(Val);
      else if (Key == "--trace")
        Opt.Trace = Val == "1";
      else if (Key == "--workdir")
        Opt.WorkDir = Val;
      else if (Key == "--commit")
        Opt.Commit = Val;
      else
        return false;
    } catch (const std::exception &) { // Not a number.
      return false;
    }
  }
  return Argc % 2 == 1 && Opt.Seconds > 0 &&
         (Opt.Workload == "guest_warm" || Opt.Workload == "native_cold" ||
          Opt.Workload == "fleet_open");
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opt;
  if (!parseArgs(Argc, Argv, Opt)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload guest_warm|native_cold|"
                 "fleet_open --seed N --seconds S --trace 0|1 "
                 "--workdir DIR [--commit ID]\n");
    return 2;
  }
  Outcome Out;
  Clock::time_point ProbeStart = Clock::now();
  native::HostCompiler CC = native::hostCompiler();
  Out.Detail["native.probe_ms"] = msSince(ProbeStart);
  if (!CC.found())
    die("no host C compiler: the native tier cannot be measured");

  std::printf("provenance {\"workload\": \"%s\", \"seed\": %llu, "
              "\"seconds\": %g, \"trace\": %d, \"build_type\": \"%s\", "
              "\"cxx\": \"%s\", \"host_cc\": \"%s\", "
              "\"host_cc_version\": \"%s\", \"nproc\": %u, "
              "\"scale\": {\"guest_warm\": %u, \"native_cold\": %u, "
              "\"fleet_open\": %u}, \"native_cold_workers\": %u, "
              "\"fleet_rate_per_s\": %g, \"fleet_workers\": %u, "
              "\"commit\": \"%s\"}\n",
              Opt.Workload.c_str(), (unsigned long long)Opt.Seed,
              Opt.Seconds, int(Opt.Trace), PERFBENCH_BUILD_TYPE,
              PERFBENCH_CXX, jsonEscape(CC.Path).c_str(),
              jsonEscape(CC.Version).c_str(),
              std::thread::hardware_concurrency(), WarmScale, ColdScale,
              FleetScale, ColdNativeWorkers, FleetRate, FleetWorkers,
              jsonEscape(Opt.Commit).c_str());

  Tracer T(false);
  std::pair<double, double> Jiffies = cpuJiffies();
  if (Opt.Workload == "guest_warm")
    guestWarm(Opt, T, Out);
  else if (Opt.Workload == "native_cold")
    nativeCold(Opt, T, Out);
  else
    fleetOpen(Opt, T, Out);

  if (!Out.Violations.empty()) {
    for (const std::string &V : Out.Violations)
      std::fprintf(stderr, "perfbench: invariant violated: %s\n", V.c_str());
    std::fprintf(stderr, "perfbench: the run measured a different program; "
                         "no result reported\n");
    return 3;
  }
  if (Opt.Trace && !T.write(Opt.WorkDir + "/spans.jsonl"))
    die("cannot write the span file");

  std::pair<double, double> JiffiesEnd = cpuJiffies();
  if (JiffiesEnd.first > Jiffies.first)
    Out.Detail["host_steal_share"] = (JiffiesEnd.second - Jiffies.second) /
                                     (JiffiesEnd.first - Jiffies.first);
  Out.EndToEnd["setup_s"] = median(Out.SetupSeconds);
  if (Opt.Trace)
    Out.Layers["native.probe_ms"] = Out.Detail["native.probe_ms"];
  Out.EndToEnd["peak_rss_mb"] = peakRssMb();
  Out.Detail["fail_frac"] = double(Out.Failed) / double(Out.Attempted);
  const UnitTable &Units = Opt.Trace ? LayerUnits : EndToEndUnits;
  const Metrics &Reported = Opt.Trace ? Out.Layers : Out.EndToEnd;
  std::string Json = metricsJson(Reported, Units);
  printMetrics(Opt.Trace ? "per-layer:" : "end-to-end:", Reported, Units);
  std::printf("detail %s\n", detailJson(Out.Detail).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              Out.Failed == 0 ? "true" : "false",
              (unsigned long long)Out.Attempted,
              (unsigned long long)Out.Failed,
              Json.c_str());
  return 0;
}
