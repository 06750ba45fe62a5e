//===- core/FaultInjector.cpp - Deterministic translation fault injection -===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/FaultInjector.h"

using namespace ildp;
using namespace ildp::dbt;

const char *dbt::getFaultSiteName(FaultSite Site) {
  switch (Site) {
  case FaultSite::Decode:
    return "decode";
  case FaultSite::Lowering:
    return "lowering";
  case FaultSite::Usage:
    return "usage";
  case FaultSite::StrandAlloc:
    return "strand_alloc";
  case FaultSite::CodeGen:
    return "codegen";
  case FaultSite::Assemble:
    return "assemble";
  case FaultSite::PersistImport:
    return "persist_import";
  case FaultSite::EvictSelect:
    return "evict_select";
  case FaultSite::Unchain:
    return "unchain";
  case FaultSite::NativeCompile:
    return "native_compile";
  case FaultSite::NativeLoad:
    return "native_load";
  }
  return "unknown";
}

void FaultInjector::armAlways(FaultSite S) {
  Sites[size_t(S)].M.store(Mode::Always, std::memory_order_release);
}

void FaultInjector::armCount(FaultSite S, uint64_t Count) {
  Site &Info = Sites[size_t(S)];
  Info.Param = Count;
  Info.M.store(Mode::Count, std::memory_order_release);
}

void FaultInjector::armRandom(FaultSite S, uint64_t Seed, uint64_t Numerator,
                              uint64_t Denominator) {
  Site &Info = Sites[size_t(S)];
  Info.Param = Numerator;
  Info.Denom = Denominator == 0 ? 1 : Denominator;
  Info.Seed = Seed;
  Info.M.store(Mode::Random, std::memory_order_release);
}

void FaultInjector::disarm(FaultSite S) {
  Sites[size_t(S)].M.store(Mode::Off, std::memory_order_release);
}

/// splitmix64 finalizer: a well-mixed hash of the hit index, so the Random
/// schedule is reproducible from (seed, hit index) alone.
static uint64_t mix(uint64_t X) {
  X += 0x9E3779B97F4A7C15ull;
  X = (X ^ (X >> 30)) * 0xBF58476D1CE4E5B9ull;
  X = (X ^ (X >> 27)) * 0x94D049BB133111EBull;
  return X ^ (X >> 31);
}

bool FaultInjector::shouldFail(FaultSite S) {
  Site &Info = Sites[size_t(S)];
  Mode M = Info.M.load(std::memory_order_acquire);
  if (M == Mode::Off) {
    Info.Hits.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  uint64_t Hit = Info.Hits.fetch_add(1, std::memory_order_relaxed);
  bool Fire = false;
  switch (M) {
  case Mode::Off:
    break;
  case Mode::Always:
    Fire = true;
    break;
  case Mode::Count:
    Fire = Hit < Info.Param;
    break;
  case Mode::Random:
    Fire = mix(Info.Seed ^ Hit) % Info.Denom < Info.Param;
    break;
  }
  if (Fire)
    Info.Fired.fetch_add(1, std::memory_order_relaxed);
  return Fire;
}

uint64_t FaultInjector::hitCount(FaultSite S) const {
  return Sites[size_t(S)].Hits.load(std::memory_order_relaxed);
}

uint64_t FaultInjector::firedCount(FaultSite S) const {
  return Sites[size_t(S)].Fired.load(std::memory_order_relaxed);
}

uint64_t FaultInjector::totalFired() const {
  uint64_t Total = 0;
  for (const Site &Info : Sites)
    Total += Info.Fired.load(std::memory_order_relaxed);
  return Total;
}

void FaultInjector::resetCounts() {
  for (Site &Info : Sites) {
    Info.Hits.store(0, std::memory_order_relaxed);
    Info.Fired.store(0, std::memory_order_relaxed);
  }
}
