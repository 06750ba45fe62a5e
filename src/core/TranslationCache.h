//===- core/TranslationCache.h - Fragment registry ------------------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The translation cache (Section 3.1-3.2): maps V-ISA entry addresses to
/// fragments and assigns translation-cache (I-PC) addresses.
///
/// Linkage is derived, never stored: a direct exit (branch or cond_exit)
/// is chained exactly when a fragment for its V-target is resident, and is
/// a call-translator[-if-condition-is-met] exit otherwise. This is the
/// state the paper's patch-on-install reaches, without the patching: the
/// VM resolves each taken exit through its successor slot
/// (Fragment::Successors), tagged with the cache's link generation, which
/// every install, eviction and flush bumps. A slot is only trusted while
/// its tag matches, so a cached successor — or a cached miss — always
/// equals what lookup() would return (DESIGN.md §10, §16).
///
/// The paper sidesteps cache management because its working sets fit
/// (Section 4.1). Beyond the paper, the cache optionally enforces a hard
/// byte budget (DESIGN.md §10): when an install would exceed it, victims
/// chosen by exec-count-weighted LRU are evicted until the new fragment
/// fits. Evicting an entry removes it from the index and bumps the link
/// generation, which is all it takes for every exit into it to leave
/// through the translator again. With no budget set (the default) no
/// eviction runs and behavior is bit-identical to the append-only cache.
///
//===----------------------------------------------------------------------===//

#ifndef ILDP_CORE_TRANSLATIONCACHE_H
#define ILDP_CORE_TRANSLATIONCACHE_H

#include "core/Fragment.h"
#include "support/FixedRing.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace ildp {
namespace support {
class Injector;
}
namespace dbt {

/// Fragment registry with (optionally) a byte budget enforced by
/// exec-weighted LRU eviction.
class TranslationCache {
public:
  /// Translation-cache address space origin (synthetic I-PCs for the
  /// timing models' I-cache and predictors).
  static constexpr uint64_t TCacheBase = 0x200000000ull;

  /// Entries touched by the most recent lookups are protected from
  /// eviction (the FixedRing recency signal of DESIGN.md §10).
  static constexpr size_t RecentUseDepth = 8;

  TranslationCache() : RecentUse(RecentUseDepth) {}

  /// Installs \p Frag: evicts victims if a byte budget is set and would be
  /// exceeded, assigns the fragment's IBase, registers it under its entry
  /// address and bumps the link generation, which chains every exit into
  /// the entry. Returns the installed fragment.
  Fragment &install(Fragment Frag);

  /// Fragment for entry \p VAddr, or nullptr. The non-const form stamps
  /// the fragment's recency (LastUseTick + protection ring) for the
  /// eviction policy.
  Fragment *lookup(uint64_t VAddr);
  const Fragment *lookup(uint64_t VAddr) const;
  /// lookup() without the recency stamp, for a caller that caches the
  /// answer and stamps its own hits (the VM's PC translation table).
  Fragment *find(uint64_t VAddr) {
    auto It = Index.find(VAddr);
    return It == Index.end() ? nullptr : It->second;
  }

  /// Applies the recency stamp lookup() applies to a hit. A cached
  /// successor hit calls this in place of lookup(), so eviction order is
  /// unchanged by the successor cache.
  void touch(Fragment &F) {
    if (Budget == 0) // Recency stamps exist only for the eviction policy.
      return;
    F.LastUseTick = ++UseTick;
    if (RecentUse.empty() || RecentUse.back() != F.EntryVAddr)
      RecentUse.pushBackEvict(F.EntryVAddr);
  }

  /// Current link generation. Starts at 1 and changes whenever the entry
  /// index changes: every install, eviction and flush.
  uint64_t linkGeneration() const { return LinkGen; }

  bool contains(uint64_t VAddr) const { return Index.count(VAddr) != 0; }

  size_t fragmentCount() const { return Fragments.size(); }

  /// Total encoded bytes of all resident fragment bodies.
  uint64_t totalBodyBytes() const { return TotalBytes; }

  /// Number of distinct source V-ISA instruction addresses covered by any
  /// fragment (static footprint denominator for Table 2).
  size_t uniqueSourceInsts() const { return CoveredVAddrs.size(); }

  // ---- Byte budget and eviction (DESIGN.md §10) ----

  /// Hard bound on totalBodyBytes(); 0 (the default) disables eviction
  /// entirely and preserves the append-only behavior bit for bit.
  void setByteBudget(uint64_t Bytes) { Budget = Bytes; }
  uint64_t byteBudget() const { return Budget; }

  /// Called once per evicted fragment, before it leaves the index (the VM
  /// un-marks the entry in its profiler).
  /// Not called for wholesale flushes, including the degradation flush.
  void setEvictionListener(std::function<void(const Fragment &)> Listener) {
    EvictionListener = std::move(Listener);
  }

  /// Attaches the injector driving the evict_select and unchain sites;
  /// unchain fires between victim selection and the victim's teardown.
  void setInjector(support::Injector *Injector) { Fault = Injector; }

  /// Destroys fragments retired by eviction or flush. Their storage is
  /// kept alive until this is called so raw Fragment pointers held across
  /// an install() (the VM's execute-translated loop) never dangle; the VM
  /// calls this at dispatch-loop safepoints, where no fragment is live.
  void reclaimEvicted() { Graveyard.clear(); }
  size_t graveyardSize() const { return Graveyard.size(); }

  uint64_t evictionCount() const { return Evictions; }
  uint64_t evictedBytes() const { return EvictedBytes; }
  /// Wholesale flushes forced by a failed eviction (fault injection or no
  /// selectable victim).
  uint64_t degradedFlushCount() const { return DegradedFlushes; }
  /// Largest totalBodyBytes() ever observed after an install.
  uint64_t budgetHighWater() const { return HighWater; }
  /// Warm-start imports skipped because they did not fit the budget.
  uint64_t importBudgetSkips() const { return ImportBudgetSkips; }

  /// Number of flushes performed so far.
  uint64_t flushCount() const { return Flushes; }

  /// Flushes the whole cache (Dynamo-style reaction to a program phase
  /// change, which the paper notes its own system lacks — "once a fragment
  /// is constructed there is no second chance"; Section 4.1). All
  /// fragments and footprint accounting are discarded;
  /// I-PC assignment restarts so stale fragments cannot be re-entered.
  /// Fragment storage moves to the graveyard (see reclaimEvicted()).
  void flush();

  /// Iteration over all fragments (stable order of installation).
  const std::vector<std::unique_ptr<Fragment>> &fragments() const {
    return Fragments;
  }

  /// All resident fragments in install order, for serialization (the
  /// persistence layer snapshots these into a cache file). Evicted
  /// fragments left the vector at eviction time and are never exported.
  std::vector<const Fragment *> exportAll() const;

  /// Installs previously exported fragments (warm start). Each fragment
  /// goes through install(), so I-PC assignment and every install-derived
  /// field are rebuilt exactly as after a cold translation of the same
  /// fragments, and each exit is chained once its target is resident,
  /// whatever the import order. Fragments whose
  /// entry address is already present are skipped, as are fragments that
  /// would not fit a configured byte budget (a warm start must not thrash
  /// the cache it is trying to warm; counted by importBudgetSkips()).
  /// Returns the number actually installed.
  size_t importAll(std::vector<Fragment> Frags);

private:
  /// Exec-weighted LRU victim: the resident fragment with the smallest
  /// (log2 exec-count bucket, LastUseTick) outside the recent-use ring, or
  /// nullptr when nothing is evictable. Deterministic for a deterministic
  /// install/lookup sequence.
  Fragment *selectVictim();
  /// Evicts \p F: notifies the listener, removes it from the index, bumps
  /// the link generation and moves its storage to the graveyard.
  void evictFragment(Fragment &F);
  /// Frees at least \p NeededBytes of budget headroom. Returns false when
  /// eviction could not proceed (injected fault or no victim); the caller
  /// degrades to a wholesale flush.
  bool evictToFit(uint64_t NeededBytes);
  void degradedFlush();
  void moveToGraveyard(Fragment &F);

  std::vector<std::unique_ptr<Fragment>> Fragments;
  std::unordered_map<uint64_t, Fragment *> Index;
  std::unordered_set<uint64_t> CoveredVAddrs;
  std::function<void(const Fragment &)> EvictionListener;
  support::Injector *Fault = nullptr;
  /// Storage of evicted/flushed fragments awaiting reclaimEvicted().
  std::vector<std::unique_ptr<Fragment>> Graveyard;
  /// Entries of the last RecentUseDepth distinct lookups, protected from
  /// eviction.
  FixedRing<uint64_t> RecentUse;
  uint64_t LinkGen = 1;
  uint64_t NextIBase = TCacheBase;
  uint64_t TotalBytes = 0;
  uint64_t Budget = 0;
  uint64_t UseTick = 0;
  uint64_t Flushes = 0;
  uint64_t Evictions = 0;
  uint64_t EvictedBytes = 0;
  uint64_t DegradedFlushes = 0;
  uint64_t HighWater = 0;
  uint64_t ImportBudgetSkips = 0;
};

} // namespace dbt
} // namespace ildp

#endif // ILDP_CORE_TRANSLATIONCACHE_H
