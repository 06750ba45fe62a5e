//===- core/TranslationCache.cpp - Fragment registry ----------------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/TranslationCache.h"

#include "support/Injector.h"

#include <bit>
#include <cassert>

using namespace ildp;
using namespace ildp::dbt;
using namespace ildp::iisa;

/// Prefix sums of everything the VM accounts per executed instruction
/// (see Fragment.h).
static ExitAccounting buildExitAccounting(const std::vector<IisaInst> &Body) {
  ExitAccounting Acct;
  Acct.Cum.resize(Body.size());
  CumCounters Run;
  for (size_t I = 0; I != Body.size(); ++I) {
    const IisaInst &Inst = Body[I];
    Run.VCredit += Inst.VCredit;
    if (Inst.Kind == IKind::CopyToGpr || Inst.Kind == IKind::CopyFromGpr)
      ++Run.CopyInsts;
    if (Inst.IsSourceOp) {
      ++Run.SourceOps;
      ++Run.Usage[size_t(Inst.Usage)];
    }
    if (Inst.Kind == IKind::PushDualRas)
      Acct.RasPushes.emplace_back(uint32_t(I), Inst.VTarget);
    Acct.Cum[I] = Run;
  }
  return Acct;
}

Fragment &TranslationCache::install(Fragment Frag) {
  assert(!Index.count(Frag.EntryVAddr) &&
         "A fragment for this entry already exists");

  // Make room first: the budget must hold after every install. A fragment
  // larger than the whole budget is installed best-effort into an emptied
  // cache (the VM clamps DbtConfig::MaxFragmentBytes to the budget, so it
  // never produces one; direct users get the least-bad degradation).
  if (Budget != 0 && TotalBytes + Frag.BodyBytes > Budget &&
      !evictToFit(Frag.BodyBytes))
    degradedFlush();

  auto Owned = std::make_unique<Fragment>(std::move(Frag));
  Fragment &F = *Owned;
  // Derived per-install state: slots copied from another cache (warm
  // start) must never be trusted here.
  F.Ops = lowerToOps(F.Body);
  F.Accounting = buildExitAccounting(F.Body);
  F.Successors.assign(F.Body.size(), SuccessorSlot());
  F.ExitHits.assign(F.Body.size(), 0);
  ++LinkGen; // Every exit into the new entry is chained from here on.
  F.IBase = NextIBase;
  NextIBase += F.BodyBytes + 64; // Pad fragments apart (stub/alignment).
  TotalBytes += F.BodyBytes;
  for (uint64_t VAddr : F.SourceVAddrs)
    CoveredVAddrs.insert(VAddr);

  Fragments.push_back(std::move(Owned));
  Index.emplace(F.EntryVAddr, &F);

  if (TotalBytes > HighWater)
    HighWater = TotalBytes;
  return F;
}

Fragment *TranslationCache::selectVictim() {
  auto IsProtected = [&](uint64_t Entry) {
    for (size_t I = 0; I != RecentUse.size(); ++I)
      if (RecentUse.at(I) == Entry)
        return true;
    return false;
  };
  // Evictability key, smallest wins: recently-used entries lose to
  // everything else, then fewer powers of two of executions, then least
  // recently used, then lowest entry address (a total order, so victim
  // choice is deterministic for a deterministic install/lookup history).
  auto KeyOf = [&](const Fragment &F) {
    unsigned ExecBucket = unsigned(std::bit_width(F.ExecCount + 1)) - 1;
    return std::tuple<bool, unsigned, uint64_t, uint64_t>(
        IsProtected(F.EntryVAddr), ExecBucket, F.LastUseTick, F.EntryVAddr);
  };
  Fragment *Victim = nullptr;
  for (const std::unique_ptr<Fragment> &Frag : Fragments)
    if (!Victim || KeyOf(*Frag) < KeyOf(*Victim))
      Victim = Frag.get();
  return Victim;
}

bool TranslationCache::evictToFit(uint64_t NeededBytes) {
  while (TotalBytes + NeededBytes > Budget) {
    if (support::injected(Fault, support::InjectSite::EvictSelect))
      return false;
    Fragment *Victim = selectVictim();
    if (!Victim)
      return false;
    if (support::injected(Fault, support::InjectSite::Unchain))
      return false;
    evictFragment(*Victim);
  }
  return true;
}

void TranslationCache::evictFragment(Fragment &F) {
  if (EvictionListener)
    EvictionListener(F);
  // Every exit into the victim leaves through the translator from here on:
  // the new generation invalidates each successor slot that named it.
  Index.erase(F.EntryVAddr);
  TotalBytes -= F.BodyBytes;
  EvictedBytes += F.BodyBytes;
  ++Evictions;
  ++LinkGen;
  moveToGraveyard(F);
}

void TranslationCache::moveToGraveyard(Fragment &F) {
  for (auto It = Fragments.begin(); It != Fragments.end(); ++It)
    if (It->get() == &F) {
      Graveyard.push_back(std::move(*It));
      Fragments.erase(It);
      return;
    }
  assert(false && "fragment not owned by this cache");
}

void TranslationCache::degradedFlush() {
  // Eviction could not proceed (injected fault, or nothing evictable): the
  // one always-safe fallback is the wholesale flush — crude, but it leaves
  // no partially evicted state behind.
  ++DegradedFlushes;
  flush();
}

std::vector<const Fragment *> TranslationCache::exportAll() const {
  std::vector<const Fragment *> Out;
  Out.reserve(Fragments.size());
  for (const std::unique_ptr<Fragment> &Frag : Fragments)
    Out.push_back(Frag.get());
  return Out;
}

size_t TranslationCache::importAll(std::vector<Fragment> Frags) {
  size_t Installed = 0;
  for (Fragment &Frag : Frags) {
    if (Index.count(Frag.EntryVAddr))
      continue;
    // A warm start must not thrash the cache it is warming: imports that
    // would force evictions are skipped instead (the entry re-qualifies
    // through profiling like any cold PC).
    if (Budget != 0 && TotalBytes + Frag.BodyBytes > Budget) {
      ++ImportBudgetSkips;
      continue;
    }
    install(std::move(Frag));
    ++Installed;
  }
  return Installed;
}

void TranslationCache::flush() {
  // Storage parks in the graveyard, not the free list: the VM may hold
  // raw Fragment pointers across the install that triggered a degradation
  // flush; they stay valid until reclaimEvicted() at a safepoint.
  for (std::unique_ptr<Fragment> &Frag : Fragments)
    Graveyard.push_back(std::move(Frag));
  Fragments.clear();
  Index.clear();
  CoveredVAddrs.clear();
  RecentUse.clear();
  TotalBytes = 0;
  ++Flushes;
  ++LinkGen;
  // NextIBase keeps advancing monotonically so old I-PCs are never reused
  // (predictor state indexed by I-PC stays coherent across flushes).
}

Fragment *TranslationCache::lookup(uint64_t VAddr) {
  Fragment *F = find(VAddr);
  if (F)
    touch(*F);
  return F;
}

const Fragment *TranslationCache::lookup(uint64_t VAddr) const {
  auto It = Index.find(VAddr);
  return It == Index.end() ? nullptr : It->second;
}
