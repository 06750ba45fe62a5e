//===- perfbench/Bench.h - Shared pieces of the repo benchmark ------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Guest references, VM configurations, correctness checks and small
/// statistics helpers shared by the workload driver (perfbench.cpp) and
/// the per-layer probes of the traced run (Probes.cpp). See README.md in
/// this directory for what is measured and why.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "Trace.h"

#include "support/Rng.h"
#include "support/Statistics.h"
#include "vm/VirtualMachine.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Prints \p Why and exits with status 2, printing no result: the run
/// could not measure what it was asked to.
[[noreturn]] void die(const std::string &Why);

/// One guest program at one scale, with the interpreter's answer.
struct Guest {
  std::string Name;
  unsigned Scale = 1;
  uint64_t Entry = 0;
  uint64_t RefChecksum = 0; ///< v0 at HALT under the plain interpreter.
  uint64_t RefInsts = 0;    ///< Instructions the interpreter retired.
};

/// Builds \p Name at \p Scale and runs it on the plain interpreter to
/// obtain the reference checksum and instruction count. Exits the process
/// if the interpreter does not halt: nothing can be checked against it.
Guest referenceGuest(const std::string &Name, unsigned Scale);
std::vector<Guest> referenceGuests(unsigned Scale);

/// Native-tier hot threshold used by every native configuration here
/// (the value bench_native_tier uses).
constexpr uint64_t NativeThreshold = 16;

ildp::vm::VmConfig iisaConfig();
ildp::vm::VmConfig nativeConfig(unsigned Workers);

/// Result of one VM run, timed from construction through the return of
/// run() (a persisting VM saves inside run()).
struct VmRun {
  Clock::time_point Start, End;
  double CpuMs = 0; ///< CPU time of the calling thread over the same span.
  bool Halted = false;
  uint64_t Checksum = 0;
  uint64_t Insts = 0;
  ildp::StatisticSet Stats;
};

/// Builds the guest and runs it on a VM with \p Config. Spans (when \p T
/// is enabled) cover building the memory, construction, run() and the
/// stats() read, under \p Parent.
VmRun runVm(const Guest &G, const ildp::vm::VmConfig &Config, Tracer &T,
            int Parent = -1);

/// True if a run halted with the interpreter's checksum and count.
inline bool matches(const Guest &G, bool Halted, uint64_t Checksum,
                    uint64_t Insts) {
  return Halted && Checksum == G.RefChecksum && Insts == G.RefInsts;
}

/// Runs every guest with the native tier on, saving into \p Path, until a
/// run compiles nothing, so the store holds every object a warm run
/// needs. Returns false if a run was wrong or the store never converged.
bool buildNativeStore(const std::vector<Guest> &Guests,
                      const std::string &Path, std::string &Why);

/// Median, and linear-interpolated quantile, of \p V (copied).
double quantile(std::vector<double> V, double Q);
inline double median(std::vector<double> V) {
  return quantile(std::move(V), 0.5);
}

double msSince(Clock::time_point Start);
/// CPU time consumed by the calling thread so far, in milliseconds.
double threadCpuMs();
double msBetween(Clock::time_point A, Clock::time_point B);

/// Per-layer metrics of the traced run, by name.
using Metrics = std::map<std::string, double>;

/// Runs the per-layer probes over \p Guests (the workload's own guest set
/// and scale) against the converged native store at \p StorePath and adds
/// their metrics to \p Out. \p ProbeMs is the first hostCompiler() call.
/// \p WorkDir holds scratch files.
void runLayerProbes(const std::vector<Guest> &Guests,
                    const std::string &StorePath, const std::string &WorkDir,
                    uint64_t Seed, double ProbeMs, Tracer &T, Metrics &Out);

/// Adds the counter-derived VM metrics (interp share, chaining, dispatch,
/// expansion, translation and compile work) of \p Runs to \p Out.
void addVmCounters(const std::vector<ildp::StatisticSet> &Runs,
                   Metrics &Out);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
