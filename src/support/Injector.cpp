//===- support/Injector.cpp - Deterministic fault and crash injection -----===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/Injector.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <vector>

#ifndef _WIN32
#include <unistd.h>
#endif

using namespace ildp;
using namespace ildp::support;

static const char *const SiteNames[NumInjectSites] = {
    // Fault sites.
    "decode", "lowering", "usage", "strand_alloc", "codegen", "assemble",
    "persist_import", "evict_select", "unchain", "native_compile",
    "native_load",
    // Crash points.
    "mid_tmp_write", "post_tmp_pre_rename", "mid_merge_read",
    "post_rename_pre_unlock", "mid_request",
};

const char *support::getSiteName(InjectSite Site) {
  return SiteNames[unsigned(Site)];
}

bool support::parseSiteName(const std::string &Name, InjectSite &Site) {
  for (unsigned I = 0; I != NumInjectSites; ++I)
    if (Name == SiteNames[I]) {
      Site = InjectSite(I);
      return true;
    }
  return false;
}

Injector &Injector::process() {
  // Arming from the environment happens exactly once, inside the
  // function-local static's guarded initialization — later calls (from
  // any thread) see a fully armed injector.
  struct EnvArmed {
    Injector Process;
    EnvArmed() {
      if (const char *Spec = std::getenv("ILDP_CRASH_SCHEDULE"))
        Process.armFromSpec(Spec, /*CrashSitesOnly=*/true);
    }
  };
  static EnvArmed Env;
  return Env.Process;
}

/// Parses a whole unsigned number (decimal, 0x-hex or 0-octal); rejects
/// an empty field, a sign, leading blanks and trailing junk.
static bool parseNumber(const std::string &Text, uint64_t &Value) {
  if (Text.empty() || !std::isdigit(static_cast<unsigned char>(Text[0])))
    return false;
  char *End = nullptr;
  Value = std::strtoull(Text.c_str(), &End, 0);
  return *End == '\0';
}

bool Injector::armFromSpec(const std::string &Spec, bool CrashSitesOnly) {
  // Parse every clause before arming any: a malformed clause must leave
  // the injector fully inert, not half-armed.
  struct Clause {
    InjectSite S;
    Mode M;
    uint64_t Param, Span, Seed;
  };
  std::vector<Clause> Clauses;
  size_t Pos = 0;
  while (Pos < Spec.size()) {
    size_t Comma = std::min(Spec.find(',', Pos), Spec.size());
    std::string Part = Spec.substr(Pos, Comma - Pos);
    Pos = Comma + 1;
    if (Part.empty())
      continue;
    size_t Eq = Part.find('=');
    if (Eq == std::string::npos)
      return false;
    Clause C{InjectSite::Decode, Mode::Range, 0, 1, 0};
    if (!parseSiteName(Part.substr(0, Eq), C.S) ||
        (CrashSitesOnly && !isCrashSite(C.S)))
      return false;
    std::string Val = Part.substr(Eq + 1);
    if (Val == "always") {
      C.Span = UINT64_MAX;
    } else if (Val.compare(0, 7, "random:") == 0) {
      // random:<seed>/<num>/<den>, a fraction no larger than 1.
      size_t S1 = Val.find('/', 7);
      size_t S2 = S1 == std::string::npos ? S1 : Val.find('/', S1 + 1);
      C.M = Mode::Random;
      if (S2 == std::string::npos ||
          !parseNumber(Val.substr(7, S1 - 7), C.Seed) ||
          !parseNumber(Val.substr(S1 + 1, S2 - S1 - 1), C.Param) ||
          !parseNumber(Val.substr(S2 + 1), C.Span) || C.Span == 0 ||
          C.Param > C.Span)
        return false;
    } else {
      // The nth hit (1-based) is the range [n - 1, n).
      if (!parseNumber(Val, C.Param) || C.Param == 0)
        return false;
      --C.Param;
    }
    Clauses.push_back(C);
  }
  for (const Clause &C : Clauses)
    arm(C.S, C.M, C.Param, C.Span, C.Seed);
  return true;
}

void Injector::arm(InjectSite S, Mode M, uint64_t Param, uint64_t Span,
                   uint64_t Seed) {
  Site &Info = Sites[unsigned(S)];
  Info.Param = Param;
  Info.Span = Span;
  Info.Seed = Seed;
  Info.M.store(M, std::memory_order_release);
  AnyArmed.store(true, std::memory_order_release);
}

void Injector::armRange(InjectSite S, uint64_t First, uint64_t Count) {
  arm(S, Mode::Range, First, Count, 0);
}

void Injector::armRandom(InjectSite S, uint64_t Seed, uint64_t Numerator,
                         uint64_t Denominator) {
  arm(S, Mode::Random, Numerator, Denominator == 0 ? 1 : Denominator, Seed);
}

void Injector::disarm(InjectSite S) {
  Sites[unsigned(S)].M.store(Mode::Off, std::memory_order_release);
}

/// splitmix64 finalizer: a well-mixed hash of the hit index, so the Random
/// schedule is reproducible from (seed, hit index) alone.
static uint64_t mix(uint64_t X) {
  X += 0x9E3779B97F4A7C15ull;
  X = (X ^ (X >> 30)) * 0xBF58476D1CE4E5B9ull;
  X = (X ^ (X >> 27)) * 0x94D049BB133111EBull;
  return X ^ (X >> 31);
}

bool Injector::fire(InjectSite S) {
  Site &Info = Sites[unsigned(S)];
  Mode M = Info.M.load(std::memory_order_acquire);
  uint64_t Hit = Info.Hits.fetch_add(1, std::memory_order_relaxed);
  bool Fire = false;
  switch (M) {
  case Mode::Off:
    return false;
  case Mode::Range:
    // Unsigned wrap-around makes hits before First compare huge.
    Fire = Hit - Info.Param < Info.Span;
    break;
  case Mode::Random:
    Fire = mix(Info.Seed ^ Hit) % Info.Span < Info.Param;
    break;
  }
  if (Fire)
    Info.Fired.fetch_add(1, std::memory_order_relaxed);
  return Fire;
}

uint64_t Injector::hitCount(InjectSite S) const {
  return Sites[unsigned(S)].Hits.load(std::memory_order_relaxed);
}

uint64_t Injector::firedCount(InjectSite S) const {
  return Sites[unsigned(S)].Fired.load(std::memory_order_relaxed);
}

uint64_t Injector::totalFired() const {
  uint64_t Total = 0;
  for (const Site &Info : Sites)
    Total += Info.Fired.load(std::memory_order_relaxed);
  return Total;
}

void Injector::resetCounts() {
  for (Site &Info : Sites) {
    Info.Hits.store(0, std::memory_order_relaxed);
    Info.Fired.store(0, std::memory_order_relaxed);
  }
}

void support::crashProcess() {
#ifndef _WIN32
  // _exit, not exit or abort: no destructors, no atexit, no core, no
  // buffered-I/O flush — the closest user-space stand-in for SIGKILL.
  ::_exit(Injector::CrashExitCode);
#else
  std::_Exit(Injector::CrashExitCode);
#endif
}
