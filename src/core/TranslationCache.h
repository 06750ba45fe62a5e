//===- core/TranslationCache.h - Fragment registry and patching -----------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The translation cache (Section 3.1-3.2): maps V-ISA entry addresses to
/// fragments, assigns translation-cache (I-PC) addresses, and performs
/// exit patching — when a fragment for address X is installed, every
/// call-translator[-if-condition-is-met] exit targeting X in previously
/// installed fragments is rewritten into a normal chained branch.
///
/// The paper sidesteps cache management because its working sets fit
/// (Section 4.1). Beyond the paper, the cache optionally enforces a hard
/// byte budget (DESIGN.md §10): when an install would exceed it, victims
/// chosen by exec-count-weighted LRU are evicted until the new fragment
/// fits. Eviction is made safe by a reverse chain index: every chained
/// exit in a surviving fragment that targets an evicted entry is
/// *unchained* back to its call-translator form, so no branch ever leads
/// to a non-resident I-PC. With no budget set (the default) none of this
/// machinery runs and behavior is bit-identical to the append-only cache.
///
/// Static exits cache their successor fragment (Fragment::Successors)
/// tagged with the cache's link generation, which every install,
/// eviction, flush, unchain and pending-exit patch bumps; a slot is only
/// trusted while its tag matches, so a hit always equals what lookup()
/// would return (DESIGN.md §16).
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
namespace dbt {

class FaultInjector;

/// Fragment registry with pending-exit patching and (optionally) a byte
/// budget enforced by exec-weighted LRU eviction.
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
  /// address, and patches pending exits in all fragments (including the
  /// new one) that target already-translated entries. Exits of the new
  /// fragment that arrive pre-chained to entries that are no longer
  /// resident (an asynchronous worker translated against a stale snapshot,
  /// or this very install evicted the target) are unchained back to their
  /// call-translator form. Returns the installed fragment.
  Fragment &install(Fragment Frag);

  /// Fragment for entry \p VAddr, or nullptr. The non-const form stamps
  /// the fragment's recency (LastUseTick + protection ring) for the
  /// eviction policy.
  Fragment *lookup(uint64_t VAddr);
  const Fragment *lookup(uint64_t VAddr) const;

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
  /// index or any exit's chaining state may have changed.
  uint64_t linkGeneration() const { return LinkGen; }

  bool contains(uint64_t VAddr) const { return Index.count(VAddr) != 0; }

  size_t fragmentCount() const { return Fragments.size(); }

  /// Total encoded bytes of all resident fragment bodies.
  uint64_t totalBodyBytes() const { return TotalBytes; }

  /// Number of distinct source V-ISA instruction addresses covered by any
  /// fragment (static footprint denominator for Table 2).
  size_t uniqueSourceInsts() const { return CoveredVAddrs.size(); }

  /// Number of exit patches performed so far.
  uint64_t patchCount() const { return Patches; }

  /// Patches every still-pending exit that targets \p EntryVAddr into its
  /// chained form and returns how many were patched. install() runs this
  /// for the new fragment's entry; the asynchronous VM also calls it at
  /// request-submission time — the logical point a synchronous translator
  /// would have installed — so fragments already executing observe the
  /// exact exit-kind sequence a synchronous run produces.
  size_t patchPendingExitsTo(uint64_t EntryVAddr);

  /// Optional extra chainability query consulted by install()'s patch pass
  /// in addition to the installed-fragment index. The asynchronous VM
  /// points this at its pending-translation set, so a draining fragment's
  /// exits toward not-yet-installed (but submitted) entries come out
  /// chained exactly as a synchronous install at the same logical time
  /// would have left them. Unset (synchronous operation), install()
  /// behaves bit-identically to before.
  void setExtraChainable(std::function<bool(uint64_t)> Query) {
    ExtraChainable = std::move(Query);
  }

  // ---- Byte budget and eviction (DESIGN.md §10) ----

  /// Hard bound on totalBodyBytes(); 0 (the default) disables eviction
  /// entirely and preserves the append-only behavior bit for bit.
  void setByteBudget(uint64_t Bytes) { Budget = Bytes; }
  uint64_t byteBudget() const { return Budget; }

  /// Called once per evicted fragment, before its linkage is torn down
  /// (the VM un-marks the entry in its profiler and drops its chain view).
  /// Not called for wholesale flushes, including the degradation flush.
  void setEvictionListener(std::function<void(const Fragment &)> Listener) {
    EvictionListener = std::move(Listener);
  }

  /// Attaches the fault injector driving the evict_select / unchain sites.
  void setFaultInjector(FaultInjector *Injector) { Fault = Injector; }

  /// Rewrites every chained exit targeting \p EntryVAddr in any resident
  /// fragment back to its call-translator (pending) form and re-registers
  /// it in the pending multimap. Used when an entry leaves the cache for
  /// any reason other than a flush: eviction, or a failed asynchronous
  /// completion whose exits were optimistically patched at submission
  /// time. Returns the number of exits unchained.
  size_t unchainExitsTo(uint64_t EntryVAddr);

  /// Drops every pending exit targeting \p EntryVAddr (the owner keeps its
  /// call-translator exit, it just stops being indexed). Used when the VM
  /// blacklists an entry: its translation will never arrive, so the
  /// pending records would otherwise leak forever. Returns the number
  /// dropped.
  size_t dropPendingExitsTo(uint64_t EntryVAddr);

  /// Destroys fragments retired by eviction or flush. Their storage is
  /// kept alive until this is called so raw Fragment pointers held across
  /// an install() (the VM's execute-translated loop) never dangle; the VM
  /// calls this at dispatch-loop safepoints, where no fragment is live.
  void reclaimEvicted() { Graveyard.clear(); }
  size_t graveyardSize() const { return Graveyard.size(); }

  uint64_t evictionCount() const { return Evictions; }
  uint64_t evictedBytes() const { return EvictedBytes; }
  uint64_t unchainedExitCount() const { return UnchainedExits; }
  uint64_t droppedPendingCount() const { return DroppedPending; }
  /// Wholesale flushes forced by a failed eviction (fault injection or no
  /// selectable victim).
  uint64_t degradedFlushCount() const { return DegradedFlushes; }
  /// Largest totalBodyBytes() ever observed after an install.
  uint64_t budgetHighWater() const { return HighWater; }
  /// Warm-start imports skipped because they did not fit the budget.
  uint64_t importBudgetSkips() const { return ImportBudgetSkips; }
  /// Monotonic count of eviction events (individual evictions and
  /// degradation flushes); the VM snapshots it around installs to detect
  /// that reconciliation work happened.
  uint64_t evictionEpoch() const { return Evictions + DegradedFlushes; }

  /// Test hook: number of chaining-invariant violations — a non-pending
  /// exit whose target is neither resident nor extra-chainable, or an exit
  /// record disagreeing with its branch instruction's ToTranslator form.
  /// Zero after any sequence of installs/evictions/flushes.
  size_t chainInvariantViolations() const;

  /// Number of flushes performed so far.
  uint64_t flushCount() const { return Flushes; }

  /// Flushes the whole cache (Dynamo-style reaction to a program phase
  /// change, which the paper notes its own system lacks — "once a fragment
  /// is constructed there is no second chance"; Section 4.1). All
  /// fragments, pending exits, and footprint accounting are discarded;
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

  /// Installs previously exported fragments (warm start). Every exit is
  /// first reset to its unpatched call-translator form and each fragment
  /// then goes through install(), so I-PC assignment and exit patching
  /// re-run from scratch and the chaining invariants hold exactly as they
  /// would after a cold translation of the same fragments. Fragments whose
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
  /// Evicts \p F: notifies the listener, unchains every surviving exit
  /// targeting it, purges its own pending entries and reverse-index
  /// memberships, and moves its storage to the graveyard.
  void evictFragment(Fragment &F);
  /// Frees at least \p NeededBytes of budget headroom. Returns false when
  /// eviction could not proceed (injected fault or no victim); the caller
  /// degrades to a wholesale flush.
  bool evictToFit(uint64_t NeededBytes);
  void degradedFlush();
  void registerChainedInto(uint64_t Target, Fragment *Owner, size_t ExitIdx);
  void forgetChainMemberships(Fragment &F);
  void moveToGraveyard(Fragment &F);
  bool isChainable(uint64_t VAddr) const {
    return Index.count(VAddr) != 0 ||
           (ExtraChainable && ExtraChainable(VAddr));
  }

  std::vector<std::unique_ptr<Fragment>> Fragments;
  std::unordered_map<uint64_t, Fragment *> Index;
  /// Pending exits by target address: (fragment, exit index).
  std::unordered_multimap<uint64_t, std::pair<Fragment *, size_t>> Pending;
  /// Reverse chain index: chained (non-pending) exits by target address.
  /// Maintained by install()/patchPendingExitsTo(); consulted by eviction
  /// so unchaining never scans the whole cache.
  std::unordered_multimap<uint64_t, std::pair<Fragment *, size_t>> ChainedIn;
  std::unordered_set<uint64_t> CoveredVAddrs;
  std::function<bool(uint64_t)> ExtraChainable;
  std::function<void(const Fragment &)> EvictionListener;
  FaultInjector *Fault = nullptr;
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
  uint64_t Patches = 0;
  uint64_t Flushes = 0;
  uint64_t Evictions = 0;
  uint64_t EvictedBytes = 0;
  uint64_t UnchainedExits = 0;
  uint64_t DroppedPending = 0;
  uint64_t DegradedFlushes = 0;
  uint64_t HighWater = 0;
  uint64_t ImportBudgetSkips = 0;
};

} // namespace dbt
} // namespace ildp

#endif // ILDP_CORE_TRANSLATIONCACHE_H
