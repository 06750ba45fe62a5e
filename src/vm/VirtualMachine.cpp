//===- vm/VirtualMachine.cpp - The co-designed virtual machine ------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//

#include "vm/VirtualMachine.h"

#include "core/FaultInjector.h"
#include "core/SuperblockBuilder.h"
#include "core/Translator.h"
#include "native/NativeCompiler.h"
#include "native/NativeEmitter.h"
#include "native/NativeExec.h"
#include "native/NativeModule.h"
#include "native/NativeService.h"
#include "native/NativeStore.h"
#include "persist/CacheFile.h"
#include "persist/CacheStore.h"
#include "persist/Fingerprint.h"

#include <algorithm>
#include <cassert>

using namespace ildp;
using namespace ildp::vm;
using namespace ildp::iisa;
using ildp::uarch::OpClass;
using ildp::uarch::TraceOp;

VirtualMachine::VirtualMachine(GuestMemory &Mem, uint64_t EntryPc,
                               const VmConfig &Config)
    : Mem(Mem), Config(Config), Interp(Mem),
      Profile(Config.Dbt.HotThreshold),
      RecentCreates(Config.PhaseFragmentThreshold + 1) {
  Interp.state().Pc = EntryPc;
  Profile.addCandidate(EntryPc);
  if (Config.CodeCacheBytes != 0) {
    // No single fragment may exceed the whole cache: clamp the fragment
    // size bound so oversized superblocks become ordinary FragmentTooLarge
    // bailouts (retry/backoff/blacklist) instead of un-fittable installs.
    // MaxFragmentBytes is not fingerprinted, so the clamp cannot
    // invalidate persisted caches.
    uint64_t Clamp = std::min<uint64_t>(Config.CodeCacheBytes, UINT32_MAX);
    if (this->Config.Dbt.MaxFragmentBytes == 0 ||
        this->Config.Dbt.MaxFragmentBytes > Clamp)
      this->Config.Dbt.MaxFragmentBytes = uint32_t(Clamp);
    TCache.setByteBudget(Config.CodeCacheBytes);
    TCache.setFaultInjector(Config.Dbt.Fault);
    TCache.setEvictionListener(
        [this](const dbt::Fragment &Frag) { onFragmentEvicted(Frag); });
  }
  if (Config.NativeTier) {
    // Probe for a host compiler before warm start so the import path knows
    // whether stored native objects can be validated and loaded. No
    // toolchain is a counted, fully graceful degrade: NativeSvc stays null
    // and every native code path below is gated on it.
    const native::HostCompiler &CC = native::hostCompiler();
    if (CC.Found)
      NativeSvc = std::make_unique<native::NativeService>(
          CC, Config.NativeWorkers, Config.NativeQueueDepth);
    else
      Nat.NoToolchain = 1;
  }
  if (Config.SharedStore) {
    PersistFingerprint = persist::fingerprint(Mem, EntryPc, Config.Dbt);
    if (Config.PersistLoad)
      warmStartFromShared();
  } else if (!Config.PersistPath.empty()) {
    PersistFingerprint = persist::fingerprint(Mem, EntryPc, Config.Dbt);
    if (Config.PersistLoad)
      warmStartFromPersisted();
  }
  LogicalFragments = TCache.fragmentCount();
  if (Config.AsyncTranslate && Config.TranslateWorkers > 0) {
    Service = std::make_unique<dbt::TranslationService>(
        this->Config.Dbt, Config.TranslateWorkers, Config.TranslateQueueDepth);
    // A draining fragment may chain to entries whose translation is still
    // in flight: a synchronous install at the same logical time would
    // already have them in the cache.
    TCache.setExtraChainable(
        [this](uint64_t VAddr) { return PendingSeqByEntry.count(VAddr) != 0; });
    for (const std::unique_ptr<dbt::Fragment> &Frag : TCache.fragments())
      ChainView.insert(Frag->EntryVAddr);
  }
}

// ---------------------------------------------------------------------------
// Persistent translation cache (warm start / save on exit).
// ---------------------------------------------------------------------------

VirtualMachine::~VirtualMachine() = default;

void VirtualMachine::importFragments(std::vector<dbt::Fragment> Frags) {
  size_t Installed = TCache.importAll(std::move(Frags));
  // Imported entries count as translated for the profiler, so hot-counter
  // qualification never tries to re-translate them, and their exit targets
  // become candidates exactly as after a cold install.
  for (const std::unique_ptr<dbt::Fragment> &Frag : TCache.fragments()) {
    Profile.addCandidate(Frag->EntryVAddr);
    Profile.markTranslated(Frag->EntryVAddr);
    for (const dbt::ExitRecord &Exit : Frag->Exits)
      Profile.addCandidate(Exit.VTarget);
  }
  Stats.add("persist.load_ok");
  Stats.set("persist.fragments_imported", Installed);
  if (Config.CodeCacheBytes != 0)
    Stats.set("persist.fragments_skipped_budget", TCache.importBudgetSkips());
}

const char *VirtualMachine::importLegacyFile() {
  Stats.add("persist.import_legacy");
  persist::LoadResult Loaded =
      persist::loadCacheFile(Config.PersistPath, PersistFingerprint);
  switch (Loaded.Status) {
  case persist::LoadStatus::Ok:
    importFragments(std::move(Loaded.Fragments));
    ImportedCostUnits = 0; // Legacy files carry no cost bookkeeping.
    return nullptr;
  case persist::LoadStatus::FingerprintMismatch: {
    // A legacy file for some *other* image (or config). The old format
    // would be clobbered by this run's save; instead preserve it as a
    // store slot under its own fingerprint — converting a legacy
    // single-image file into a multi-image store keeps the image.
    persist::LoadResult Foreign =
        persist::loadCacheFile(Config.PersistPath, Loaded.FileFingerprint);
    if (Foreign.Status == persist::LoadStatus::Ok) {
      std::vector<const dbt::Fragment *> Ptrs;
      Ptrs.reserve(Foreign.Fragments.size());
      for (const dbt::Fragment &Frag : Foreign.Fragments)
        Ptrs.push_back(&Frag);
      Store->put(Foreign.FileFingerprint, Ptrs, /*CostUnits=*/0);
    }
    Stats.add("persist.load_mismatch");
    return persist::getLoadStatusName(Loaded.Status);
  }
  default:
    Stats.add("persist.load_corrupt");
    return persist::getLoadStatusName(Loaded.Status);
  }
}

void VirtualMachine::warmStartFromPersisted() {
  Store = std::make_unique<persist::CacheStore>();
  persist::StoreStatus Opened = Store->open(Config.PersistPath);

  // Every import failure degrades to a cold start; a warm-start problem
  // must never be worse than not having a store at all. A missing file is
  // the normal first run and a store miss is the normal first run *of this
  // image*; everything else is counted under persist.import_rejected with
  // a per-reason breakdown. On corruption the store stays empty, so the
  // exit save rewrites the path with a clean artifact.
  const char *Rejected = nullptr;
  if (Config.Dbt.Fault &&
      Config.Dbt.Fault->shouldFail(dbt::FaultSite::PersistImport)) {
    Rejected = "injected-fault";
  } else {
    switch (Opened) {
    case persist::StoreStatus::FileNotFound:
      Stats.add("persist.load_nofile");
      return;
    case persist::StoreStatus::LegacyFile:
      Rejected = importLegacyFile();
      break;
    case persist::StoreStatus::Ok: {
      Stats.set("persist.store_images", Store->imageCount());
      Stats.set("persist.store_bytes", Store->totalPayloadBytes());
      std::vector<dbt::Fragment> Frags;
      persist::StoreStatus Found = Store->lookup(PersistFingerprint, Frags);
      if (Found == persist::StoreStatus::ImageNotFound) {
        // Other images live here; ours runs cold and saves a new slot.
        Stats.add("persist.store_miss");
        return;
      }
      if (Found != persist::StoreStatus::Ok) {
        // Structural corruption the CRCs happened to bless. Drop the slot
        // (the rest of the store is fine and stays preserved).
        Stats.add("persist.load_corrupt");
        Store->erase(PersistFingerprint);
        Rejected = persist::getStoreStatusName(Found);
        break;
      }
      Stats.add("persist.store_hit");
      ImportedCostUnits = Store->find(PersistFingerprint)->CostUnits;
      importFragments(std::move(Frags));
      importNativeObjects(*Store);
      break;
    }
    default:
      Stats.add("persist.load_corrupt");
      Rejected = persist::getStoreStatusName(Opened);
      break;
    }
  }
  if (Rejected) {
    Stats.add("persist.import_rejected");
    Stats.add(std::string("persist.import_rejected.") + Rejected);
  }
}

void VirtualMachine::warmStartFromShared() {
  // The shared-store path exists so a fleet of VMs can warm-start without
  // per-VM file I/O: the store was opened (read-only) once by the owner
  // and every lookup here is a const walk over immutable payload bytes.
  // The degrade taxonomy mirrors warmStartFromPersisted: any problem is a
  // counted cold start, never a failure.
  const persist::CacheStore &Shared = *Config.SharedStore;
  Stats.add("persist.store_readonly");
  Stats.set("persist.store_images", Shared.imageCount());
  Stats.set("persist.store_bytes", Shared.totalPayloadBytes());

  const char *Rejected = nullptr;
  if (Config.Dbt.Fault &&
      Config.Dbt.Fault->shouldFail(dbt::FaultSite::PersistImport)) {
    Rejected = "injected-fault";
  } else {
    std::vector<dbt::Fragment> Frags;
    persist::StoreStatus Found = Shared.lookup(PersistFingerprint, Frags);
    switch (Found) {
    case persist::StoreStatus::ImageNotFound:
      // Other images live here; ours runs cold (and stays unsaved — the
      // shared store is read-only).
      Stats.add("persist.store_miss");
      return;
    case persist::StoreStatus::Ok:
      Stats.add("persist.store_hit");
      ImportedCostUnits = Shared.find(PersistFingerprint)->CostUnits;
      importFragments(std::move(Frags));
      importNativeObjects(Shared);
      return;
    default:
      // Structural corruption the CRCs happened to bless. The store is
      // shared and read-only, so unlike the owning path the slot cannot
      // be dropped here; this VM just runs cold.
      Stats.add("persist.load_corrupt");
      Rejected = persist::getStoreStatusName(Found);
      break;
    }
  }
  Stats.add("persist.import_rejected");
  Stats.add(std::string("persist.import_rejected.") + Rejected);
}

void VirtualMachine::savePersistedCache() {
  // PersistLoad=false leaves Store null: start from an empty store and let
  // the read-merge-write below adopt whatever already lives on disk.
  if (!Store)
    Store = std::make_unique<persist::CacheStore>();

  std::vector<const dbt::Fragment *> Frags = TCache.exportAll();
  size_t SkippedCold = 0;
  if (Config.PersistMinExecCount > 0) {
    auto Cold = [&](const dbt::Fragment *Frag) {
      return Frag->ExecCount < Config.PersistMinExecCount;
    };
    SkippedCold = size_t(std::count_if(Frags.begin(), Frags.end(), Cold));
    Frags.erase(std::remove_if(Frags.begin(), Frags.end(), Cold),
                Frags.end());
  }

  // The slot's CostUnits track the total translator work invested across
  // its producing runs: what was imported plus what this run spent on top
  // (a pure warm run adds 0 and preserves the cold run's figure).
  Store->put(PersistFingerprint, Frags,
             ImportedCostUnits + Stats.get("dbt.cost.total"));

  if (NativeSvc) {
    // Persist the native objects under the image's native slot — imported
    // plus freshly compiled. Written even when empty: erasing instead
    // would be undone by saveMerged re-adopting the on-disk copy, leaving
    // a stale slot behind a changed toolchain.
    NativeSvc->waitAllIdle();
    drainNativeCompleted();
    Store->putRaw(native::slotFingerprint(PersistFingerprint),
                  native::encodeObjects(NativeObjects,
                                        NativeSvc->compiler().Checksum));
  }
  persist::SaveMergeResult Saved =
      Store->saveMerged(Config.PersistPath, Config.PersistMaxImages);
  Stats.add(Saved.Saved ? "persist.save_ok" : "persist.save_fail");
  if (Saved.Saved) {
    Stats.set("persist.fragments_saved", Frags.size());
    Stats.set("persist.fragments_skipped_cold", SkippedCold);
    Stats.set("persist.store_saved_images", Store->imageCount());
    if (Saved.Adopted)
      Stats.set("persist.store_merge_adopted", Saved.Adopted);
    if (Saved.Compacted)
      Stats.set("persist.store_compacted", Saved.Compacted);
    if (Saved.LockContended)
      Stats.add("persist.store_lock_contended");
  }
  // Lock-health counters live outside the Saved gate: a takeover or a
  // timed-out wait is worth counting even if the save then failed on I/O.
  if (Saved.LockBroken)
    Stats.add("persist.store_lock_broken", Saved.LockBroken);
  if (Saved.LockTimedOut)
    Stats.add("persist.store_lock_timeout");
}

// ---------------------------------------------------------------------------
// Native-host execution tier (DESIGN.md §13).
// ---------------------------------------------------------------------------

uint64_t VirtualMachine::nativeKey(dbt::Fragment &Frag) {
  if (Frag.NativeKey == 0)
    Frag.NativeKey = native::fragmentKey(Frag.Body, Frag.Variant);
  return Frag.NativeKey;
}

bool VirtualMachine::attachNative(dbt::Fragment &Frag,
                                  const std::vector<uint8_t> &Object) {
  if (Config.Dbt.Fault &&
      Config.Dbt.Fault->shouldFail(dbt::FaultSite::NativeLoad)) {
    ++Nat.LoadFailed;
    Frag.NativeState = dbt::Fragment::NativeFailed;
    return false;
  }
  std::shared_ptr<native::NativeModule> Module = native::loadModule(Object);
  if (!Module) {
    ++Nat.LoadFailed;
    Frag.NativeState = dbt::Fragment::NativeFailed;
    return false;
  }
  auto Code = std::make_shared<native::NativeCode>();
  Code->Fn = Module->entry();
  Code->Module = std::move(Module);
  Frag.Native = std::move(Code);
  Frag.NativeState = dbt::Fragment::NativeNone;
  return true;
}

void VirtualMachine::maybeNativeTierUp(dbt::Fragment *Frag) {
  if (Frag->Native || Frag->NativeState != dbt::Fragment::NativeNone ||
      Frag->ExecCount < Config.NativeThreshold)
    return;
  uint64_t Key = nativeKey(*Frag);
  auto Known = NativeObjects.find(Key);
  if (Known != NativeObjects.end()) {
    // Same body compiled before: this run behind an eviction/retranslation
    // cycle, a same-key fragment at another entry, or a warm-started
    // store. Re-attach is a map hit plus a (deduplicated) dlopen — never
    // a host compile.
    if (attachNative(*Frag, Known->second))
      ++Nat.Reattached;
    return;
  }
  if (Config.Dbt.Fault &&
      Config.Dbt.Fault->shouldFail(dbt::FaultSite::NativeCompile)) {
    // Decided here rather than on a worker: an injected compile failure
    // is accounted even when the run ends before a worker would have
    // dequeued the request (workers may start only milliseconds later).
    ++Nat.Submitted;
    ++Nat.CompileFailed;
    Frag->NativeState = dbt::Fragment::NativeFailed;
    return;
  }
  native::NativeRequest Req;
  Req.Key = Key;
  Req.EntryVAddr = Frag->EntryVAddr;
  Req.Body = Frag->Body;
  Req.Variant = Frag->Variant;
  if (NativeSvc->trySubmit(std::move(Req))) {
    Frag->NativeState = dbt::Fragment::NativePending;
    ++Nat.Submitted;
  }
  // Queue full: stays NativeNone and re-qualifies on a later execution.
}

void VirtualMachine::drainNativeCompleted() {
  if (!NativeSvc->hasCompleted())
    return;
  std::vector<native::NativeCompletion> Done;
  NativeSvc->drainCompleted(Done);
  for (native::NativeCompletion &C : Done) {
    // Completions are keyed by body content, not fragment identity: find
    // a live fragment still waiting on this key. A linear walk on purpose
    // — completions are rare, and lookup() would bump eviction recency
    // the interpretive tiers never see at this point.
    dbt::Fragment *Waiter = nullptr;
    for (const std::unique_ptr<dbt::Fragment> &Frag : TCache.fragments())
      if (Frag->NativeState == dbt::Fragment::NativePending &&
          Frag->NativeKey == C.Key) {
        Waiter = Frag.get();
        break;
      }
    if (!C.Ok) {
      ++Nat.CompileFailed;
      if (Waiter)
        Waiter->NativeState = dbt::Fragment::NativeFailed;
      continue;
    }
    ++Nat.Compiles;
    auto Slot = NativeObjects.emplace(C.Key, std::move(C.Object)).first;
    if (!Waiter) {
      // Evicted or flushed while compiling. The object stays in the map:
      // if the body is ever re-translated it re-attaches instantly.
      ++Nat.PendingDrops;
      continue;
    }
    if (attachNative(*Waiter, Slot->second))
      ++Nat.Installed;
  }
}

void VirtualMachine::importNativeObjects(const persist::CacheStore &St) {
  if (!NativeSvc)
    return; // Tier off or no toolchain: cannot validate stored objects.
  const std::vector<uint8_t> *Payload =
      St.lookupRaw(native::slotFingerprint(PersistFingerprint));
  if (!Payload)
    return; // Store predates the native tier; normal cold-compile run.
  switch (native::decodeObjects(*Payload, NativeSvc->compiler().Checksum,
                                NativeObjects)) {
  case native::NativeStoreStatus::Ok:
    Nat.ImportedObjects = NativeObjects.size();
    // Attach eagerly: every imported fragment whose body has a stored
    // object runs natively from its first execution, so a warm start of a
    // stable workload performs zero host compilations.
    for (const std::unique_ptr<dbt::Fragment> &Frag : TCache.fragments()) {
      auto Known = NativeObjects.find(nativeKey(*Frag));
      if (Known != NativeObjects.end() && attachNative(*Frag, Known->second))
        ++Nat.Reattached;
    }
    break;
  case native::NativeStoreStatus::Stale:
    Stats.add("persist.import_rejected");
    Stats.add("persist.import_rejected.native_stale");
    break;
  case native::NativeStoreStatus::Malformed:
    Stats.add("persist.import_rejected");
    Stats.add("persist.import_rejected.native_malformed");
    break;
  }
}

void VirtualMachine::dualRasPush(uint64_t VRet) {
  DualRas.pushBackEvict(VRet); // Overflow forgets the deepest frame.
  ++Hot.RasPushes;
}

bool VirtualMachine::dualRasPop(uint64_t Actual) {
  if (DualRas.empty())
    return false;
  uint64_t VRet = DualRas.back();
  DualRas.popBack();
  return VRet == Actual;
}

// ---------------------------------------------------------------------------
// Interpretation, profiling, recording.
// ---------------------------------------------------------------------------

static void registerCandidates(dbt::ProfileController &Profile,
                               const StepInfo &Info) {
  if (!Info.IsControl || Info.Status != StepStatus::Ok)
    return;
  if (alpha::isIndirectBranch(Info.Inst.Op)) {
    Profile.addCandidate(Info.NextPc);
    return;
  }
  // Targets of backward conditional branches.
  if (alpha::isCondBranch(Info.Inst.Op) && Info.Taken &&
      Info.NextPc <= Info.Pc)
    Profile.addCandidate(Info.NextPc);
}

void VirtualMachine::maybePhaseFlush() {
  // Dynamo-style phase-change detection: an abrupt increase in fragment
  // generation rate triggers a full cache flush so the new phase's paths
  // can form fresh fragments (Section 4.1 discussion). Runs at fragment
  // *creation* time (synchronous install, or asynchronous submission) so
  // both modes see the same GuestInsts stamps and the same logical
  // fragment count, and decide flushes identically.
  if (!Config.FlushOnPhaseChange)
    return;
  RecentCreates.pushBackEvict(GuestInsts);
  while (!RecentCreates.empty() &&
         RecentCreates.front() + Config.PhaseWindow < GuestInsts)
    RecentCreates.popFront();
  if (RecentCreates.size() > Config.PhaseFragmentThreshold &&
      LogicalFragments > Config.PhaseFragmentThreshold) {
    TCache.flush();
    Profile.resetAfterFlush();
    RecentCreates.clear();
    LogicalFragments = 0;
    ++Flushes;
    if (Service) {
      // In-flight translations now belong to a dead generation: account
      // them when they drain, but never install them.
      ++Epoch;
      PendingSeqByEntry.clear();
      ChainView.clear();
    }
  }
}

void VirtualMachine::installPrepared(dbt::Fragment Frag) {
  uint64_t DegradedBefore = TCache.degradedFlushCount();
  dbt::Fragment &Installed = TCache.install(std::move(Frag));
  Stats.add("dbt.fragments");
  Stats.add("dbt.body_insts", Installed.Body.size());
  Stats.add("dbt.body_bytes", Installed.BodyBytes);
  Stats.add("dbt.source_insts", Installed.SourceInsts);
  Stats.add("dbt.nops_removed", Installed.NopsRemoved);
  if (TCache.degradedFlushCount() != DegradedBefore)
    handleDegradedFlush();
}

void VirtualMachine::onFragmentEvicted(const dbt::Fragment &Frag) {
  Profile.noteEvicted(Frag.EntryVAddr);
  EvictedEntries.insert(Frag.EntryVAddr);
  // New translations must stop chaining to the entry; exits already
  // chained to it are unchained by the cache itself.
  ChainView.erase(Frag.EntryVAddr);
}

void VirtualMachine::handleDegradedFlush() {
  // A failed eviction degraded to a wholesale flush in the middle of the
  // install that just returned. Mirror the phase-flush bookkeeping, then
  // re-mark what actually survived — the fragment installed into the
  // emptied cache — so its entry is not profiled toward a duplicate
  // install.
  Profile.resetAfterFlush();
  RecentCreates.clear();
  LogicalFragments = TCache.fragmentCount();
  for (const std::unique_ptr<dbt::Fragment> &Frag : TCache.fragments())
    Profile.markTranslated(Frag->EntryVAddr);
  if (Service) {
    // In-flight translations predate the flush: account them when they
    // drain, but never install them (the phase-flush epoch rule).
    ++Epoch;
    PendingSeqByEntry.clear();
    ChainView.clear();
    for (const std::unique_ptr<dbt::Fragment> &Frag : TCache.fragments())
      ChainView.insert(Frag->EntryVAddr);
  }
}

void VirtualMachine::installFragment(dbt::Fragment Frag) {
  maybePhaseFlush();
  ++LogicalFragments;
  uint64_t Entry = Frag.EntryVAddr;
  if (!EvictedEntries.empty() && EvictedEntries.erase(Entry))
    ++CacheRetranslations;
  Profile.markTranslated(Entry);
  // Exit targets of existing fragments become trace-start candidates.
  for (const dbt::ExitRecord &Exit : Frag.Exits)
    Profile.addCandidate(Exit.VTarget);
  installPrepared(std::move(Frag));
}

bool VirtualMachine::recordAndTranslate(uint64_t HotPc) {
  dbt::SuperblockBuilder Builder(HotPc, Config.Dbt.MaxSuperblockInsts);
  bool Halted = false;
  for (;;) {
    StepInfo Info = Interp.step();
    Halted = Info.Status == StepStatus::Halted;
    if (Info.Status != StepStatus::Trapped) {
      ++GuestInsts;
      ++Hot.InterpInsts;
      registerCandidates(Profile, Info);
    }
    if (Builder.append(Info) == dbt::SuperblockBuilder::Status::Done)
      break;
    if (Info.Status != StepStatus::Ok)
      break;
  }
  assert(Builder.done() && "Recording ended without a superblock");
  dbt::Superblock Sb = Builder.take();
  if (Sb.Insts.empty()) {
    // The very first instruction trapped; nothing to translate.
    Profile.markTranslated(HotPc);
    return Halted;
  }

  // A re-profile of an entry that failed translation before is a retry.
  if (Robust.Bailouts != 0 && Profile.failureCount(HotPc) > 0)
    ++Robust.Retries;

  if (Service) {
    submitTranslation(std::move(Sb));
    return Halted;
  }

  dbt::ChainEnv Env;
  Env.IsTranslated = [this](uint64_t VAddr) { return TCache.contains(VAddr); };
  dbt::Expected<dbt::TranslationResult> Xlated =
      translate(Sb, Config.Dbt, Env);
  if (!Xlated) {
    noteTranslateFailure(HotPc, Xlated.status(), Sb.Insts.size());
    return Halted;
  }
  dbt::TranslationResult Result = Xlated.take();
  Result.Cost.addTo(Stats);
  Stats.add("dbt.uops", Result.Uops);
  Stats.add("dbt.strands", Result.Strands);
  Stats.add("dbt.spills", Result.Spills);
  Stats.add("dbt.precopies", Result.PreCopies);
  Stats.add("dbt.trap_promotions", Result.TrapPromotions);
  installFragment(std::move(Result.Frag));
  return Halted;
}

void VirtualMachine::noteTranslateFailure(uint64_t EntryPc,
                                          dbt::TranslateStatus Status,
                                          uint64_t SourceInsts) {
  ++Robust.Bailouts;
  ++Robust.ByReason[size_t(Status)];
  Robust.FallbackInsts += SourceInsts;
  if (Profile.recordFailure(EntryPc, Config.MaxTranslateRetries,
                            Config.BlacklistBackoff)) {
    // Just blacklisted: pending exits targeting this entry would never be
    // patched and their index records would leak for the rest of the run.
    TCache.dropPendingExitsTo(EntryPc);
  }
}

VirtualMachine::InterpOutcome VirtualMachine::interpretUntilTranslated() {
  while (GuestInsts < Config.MaxGuestInsts) {
    // Dispatch-loop safepoint: no translated-code pointer is live here, so
    // storage of fragments evicted/flushed since the last pass can go.
    TCache.reclaimEvicted();
    if (Service)
      drainCompleted();
    if (NativeSvc)
      drainNativeCompleted();
    uint64_t Pc = Interp.state().Pc;
    // Single hash probe per dispatch: the fragment found here is handed
    // back to the run loop and executed directly.
    if (dbt::Fragment *Frag = lookupSettled(Pc))
      return {StepStatus::Ok, {}, Frag};
    if (Profile.bump(Pc)) {
      // A recording that retired the HALT ends the run here: the HALT
      // leaves the PC in place, and stepping it again would count it twice.
      if (recordAndTranslate(Pc))
        return {StepStatus::Halted, {}, nullptr};
      continue;
    }
    StepInfo Info = Interp.step();
    if (Info.Status == StepStatus::Trapped)
      return {StepStatus::Trapped, Info.TrapInfo, nullptr};
    ++GuestInsts;
    ++Hot.InterpInsts;
    if (Info.Status == StepStatus::Halted)
      return {StepStatus::Halted, {}, nullptr};
    registerCandidates(Profile, Info);
  }
  return {StepStatus::Ok, {}, nullptr};
}

// ---------------------------------------------------------------------------
// Asynchronous background translation.
// ---------------------------------------------------------------------------

void VirtualMachine::submitTranslation(dbt::Superblock Sb) {
  // Everything a synchronous install exposes before the fragment's first
  // execution happens here, at the sync install's logical point: profile
  // marks, candidate registration, exit patching in live fragments, and
  // the phase-flush decision. Only the fragment body arrives later.
  maybePhaseFlush();
  ++LogicalFragments;
  uint64_t Entry = Sb.EntryVAddr;
  if (!EvictedEntries.empty() && EvictedEntries.erase(Entry))
    ++CacheRetranslations;
  Profile.markTranslated(Entry);
  for (uint64_t Target : dbt::collectExitTargets(Sb))
    Profile.addCandidate(Target);
  TCache.patchPendingExitsTo(Entry);
  ChainView.insert(Entry);
  if (Service->outstandingCount() == 0)
    Async.XlateStartInsts = GuestInsts;
  uint64_t Seq =
      Service->submit(std::move(Sb), ChainView, Epoch, TCache.evictionEpoch());
  PendingSeqByEntry[Entry] = Seq;
  ++Async.Submitted;
}

void VirtualMachine::finishCompletion(dbt::TranslateCompletion C) {
  if (!C.ok()) {
    // A worker bailed out. Undo the optimistic submission-time effects:
    // the entry is no longer pending (lookupSettled must not wait on it),
    // new translations must not chain to it, and the profiler un-marks it
    // as translated so it can re-qualify — or be blacklisted. Fragments
    // whose exits were already patched to this entry self-heal: their
    // Chained exit finds no fragment and falls back to the interpreter.
    auto It = PendingSeqByEntry.find(C.EntryVAddr);
    if (It != PendingSeqByEntry.end() && It->second == C.Seq) {
      PendingSeqByEntry.erase(It);
      ChainView.erase(C.EntryVAddr);
      // Exits patched toward this entry at submission time now point at a
      // translation that will never arrive; rewrite them back to their
      // call-translator form so no chained branch leads nowhere.
      TCache.unchainExitsTo(C.EntryVAddr);
    }
    if (LogicalFragments > 0)
      --LogicalFragments; // Submission counted a fragment that never came.
    noteTranslateFailure(C.EntryVAddr, C.Status, C.SourceInsts);
    if (Service->outstandingCount() == 0)
      Async.InstsDuringXlate += GuestInsts - Async.XlateStartInsts;
    return;
  }

  dbt::TranslationResult &R = C.Result;
  // Translation-cost accounting is identical to the synchronous path; the
  // async split additionally attributes the decode share to the VM thread
  // (the recorder decodes every source instruction while building the
  // superblock there) and the rest — lowering, analysis, strands, codegen,
  // cache copy, and chain resolution, all of which translate() performs on
  // the worker — to the background pool. The VM thread's submission-time
  // backpatching is a few stores and is not priced by the cost model.
  R.Cost.addTo(Stats);
  Stats.add("dbt.uops", R.Uops);
  Stats.add("dbt.strands", R.Strands);
  Stats.add("dbt.spills", R.Spills);
  Stats.add("dbt.precopies", R.PreCopies);
  Stats.add("dbt.trap_promotions", R.TrapPromotions);
  Async.InlineUnits += R.Cost.Decode;
  Async.OffloadedUnits += R.Cost.total() - R.Cost.Decode;

  auto It = PendingSeqByEntry.find(C.EntryVAddr);
  if (It != PendingSeqByEntry.end() && It->second == C.Seq)
    PendingSeqByEntry.erase(It);

  if (C.Epoch == Epoch) {
    if (C.CacheGen != TCache.evictionEpoch())
      ++EvictRaces; // Snapshot predates evictions; install() reconciles.
    installPrepared(std::move(R.Frag));
    ++Async.Installed;
  } else {
    // Stale generation: a synchronous run installed this fragment and then
    // flushed it, so the dbt.* body statistics above still accrue — only
    // the install is skipped.
    Stats.add("dbt.fragments");
    Stats.add("dbt.body_insts", R.Frag.Body.size());
    Stats.add("dbt.body_bytes", R.Frag.BodyBytes);
    Stats.add("dbt.source_insts", R.Frag.SourceInsts);
    Stats.add("dbt.nops_removed", R.Frag.NopsRemoved);
    ++Async.DiscardedStale;
  }

  if (Service->outstandingCount() == 0)
    Async.InstsDuringXlate += GuestInsts - Async.XlateStartInsts;
}

void VirtualMachine::drainCompleted() {
  while (Service->nextReady()) {
    std::optional<dbt::TranslateCompletion> C = Service->tryTakeNext();
    if (!C)
      break;
    finishCompletion(std::move(*C));
  }
}

void VirtualMachine::waitForSeq(uint64_t Seq) {
  ++Async.DemandWaits;
  while (Service->deliveredCount() < Seq)
    finishCompletion(Service->takeNext());
}

void VirtualMachine::drainAllOutstanding() {
  if (!Service)
    return;
  while (Service->outstandingCount() != 0)
    finishCompletion(Service->takeNext());
}

dbt::Fragment *VirtualMachine::lookupSettled(uint64_t VAddr) {
  if (Service) {
    auto It = PendingSeqByEntry.find(VAddr);
    if (It != PendingSeqByEntry.end())
      waitForSeq(It->second);
  }
  return TCache.lookup(VAddr);
}

// ---------------------------------------------------------------------------
// Translated execution.
// ---------------------------------------------------------------------------

static OpClass classOf(const IisaInst &Inst) {
  switch (Inst.Kind) {
  case IKind::Compute:
    return alpha::isMul(Inst.AlphaOp) ? OpClass::IntMul : OpClass::IntAlu;
  case IKind::Load:
    return OpClass::Load;
  case IKind::Store:
    return OpClass::Store;
  case IKind::CondExit:
  case IKind::JumpPredict:
    return OpClass::CondBr;
  case IKind::Branch:
  case IKind::JumpDispatch:
    return OpClass::DirectBr;
  case IKind::ReturnDual:
    return OpClass::Return;
  default:
    return OpClass::IntAlu;
  }
}

static uint8_t traceReg(const IOperand &Op) {
  switch (Op.K) {
  case IOperand::Kind::Gpr:
    return Op.Reg == alpha::RegZero ? uarch::NoTraceReg : Op.Reg;
  case IOperand::Kind::Acc:
    return uint8_t(uarch::TraceAccBase + Op.Reg);
  default:
    return uarch::NoTraceReg;
  }
}

void VirtualMachine::emitFragmentTrace(
    const dbt::Fragment &Frag, const std::vector<IisaEvent> &Events,
    const iisa::IExit &Exit, uint64_t NextIPc) {
  if (!Timing)
    return;
  for (size_t E = 0; E != Events.size(); ++E) {
    const IisaEvent &Ev = Events[E];
    const IisaInst &Inst = Frag.Body[Ev.Index];
    TraceOp Op;
    Op.Class = classOf(Inst);
    Op.Pc = Frag.instPc(Ev.Index);
    Op.SizeBytes = Inst.SizeBytes;
    Op.MemAddr = Ev.MemAddr;
    Op.Src1 = traceReg(Inst.A);
    Op.Src2 = traceReg(Inst.B);
    Op.Dest = Inst.DestGpr == NoReg || Inst.DestGpr == alpha::RegZero
                  ? uarch::NoTraceReg
                  : Inst.DestGpr;
    Op.StrandAcc = Inst.DestAcc == NoReg
                       ? (Inst.A.isAcc()   ? Inst.A.Reg
                          : Inst.B.isAcc() ? Inst.B.Reg
                                           : uarch::NoTraceReg)
                       : Inst.DestAcc;
    Op.AccIn = Inst.A.isAcc() || Inst.B.isAcc();
    Op.GprWriteArchOnly = Inst.GprWriteArchOnly;
    Op.VCredit = Inst.VCredit;
    Op.RasPush = Inst.Kind == IKind::PushDualRas;

    bool IsLast = E + 1 == Events.size();
    switch (Inst.Kind) {
    case IKind::CondExit:
      Op.Taken = Ev.Taken;
      Op.NextPc = Ev.Taken ? NextIPc : Frag.instPc(Ev.Index) + Inst.SizeBytes;
      if (Ev.Taken && !IsLast)
        Op.NextPc = 0; // Unreachable: taken exits end the event list.
      break;
    case IKind::JumpPredict:
      Op.Taken = Ev.Taken; // Taken = prediction hit (branch to target).
      Op.NextPc = NextIPc;
      break;
    case IKind::Branch:
    case IKind::JumpDispatch:
      Op.Taken = true;
      Op.NextPc = NextIPc;
      break;
    case IKind::ReturnDual:
      Op.Taken = true;
      Op.NextPc = NextIPc;
      Op.RasHitKnown = true;
      Op.RasHit = Exit.K == iisa::IExit::Kind::Return && NextIPc != 0 &&
                  NextIPc != DispatchIPc && NextIPc != TranslatorIPc;
      break;
    default:
      Op.NextPc = Frag.instPc(Ev.Index) + Inst.SizeBytes;
      break;
    }
    Timing->consume(Op);
  }
}

void VirtualMachine::emitStubBranch(uint64_t FromIPc) {
  ++Hot.StubInsts;
  if (!Timing)
    return;
  TraceOp Op;
  Op.Class = OpClass::DirectBr;
  Op.Pc = FromIPc;
  Op.Taken = true;
  Op.NextPc = DispatchIPc;
  Timing->consume(Op);
}

void VirtualMachine::emitDispatch(uint64_t TargetVAddr, uint64_t ResolvedIPc) {
  ++Hot.DispatchCalls;
  Hot.DispatchInsts += DispatchInsts;
  if (!Timing)
    return;
  // The shared dispatch sequence: hash the V-PC, probe the PC translation
  // table (Figure 3), and jump indirect. All instructions sit at fixed
  // translation-cache addresses, so the final indirect jump shares one BTB
  // entry across every dispatch — the no_pred pathology of Section 4.3.
  uint64_t Hash = (TargetVAddr >> 2) * 0x9E3779B1ull;
  uint64_t Bucket = DispatchTableBase + (Hash & 0x3FFF) * 16;
  uint8_t ChainReg = 60;
  for (unsigned I = 0; I != DispatchInsts; ++I) {
    TraceOp Op;
    Op.Pc = DispatchIPc + I * 4;
    Op.Src1 = ChainReg;
    bool IsLoad = I == 4 || I == 7 || I == 10 || I == 13;
    if (I + 1 == DispatchInsts) {
      Op.Class = OpClass::Indirect;
      Op.Taken = true;
      Op.NextPc = ResolvedIPc;
    } else if (IsLoad) {
      Op.Class = OpClass::Load;
      Op.MemAddr = Bucket + (I & 1) * 8;
      Op.Dest = ChainReg;
    } else {
      Op.Class = OpClass::IntAlu;
      Op.Dest = ChainReg;
    }
    Timing->consume(Op);
  }
}

uint64_t VirtualMachine::exitTargetIPc(const iisa::IExit &Exit,
                                       dbt::Fragment *Next) {
  (void)Exit;
  return Next ? Next->IBase : TranslatorIPc;
}

void VirtualMachine::accountExit(const dbt::Fragment &Frag,
                                 uint32_t ExitIndex) {
  // Every tier executes instructions 0..ExitIndex of the body, so the
  // accounting is the fragment's prefix sums at the exit index.
  const dbt::CumCounters &Cum = Frag.Accounting.Cum[ExitIndex];
  Hot.FragInsts += ExitIndex + 1;
  GuestInsts += Cum.VCredit;
  Hot.VInstsTranslated += Cum.VCredit;
  Hot.CopyInsts += Cum.CopyInsts;
  Hot.SourceOps += Cum.SourceOps;
  for (size_t U = 0; U != Cum.Usage.size(); ++U)
    Hot.Usage[U] += Cum.Usage[U];
  if (Config.Dbt.Chaining == dbt::ChainPolicy::SwPredRas)
    for (const auto &[PushIdx, VRet] : Frag.Accounting.RasPushes) {
      if (PushIdx > ExitIndex)
        break;
      dualRasPush(VRet);
    }
}

dbt::Fragment *VirtualMachine::staticSuccessor(dbt::Fragment &Frag,
                                               const iisa::IExit &Exit) {
  dbt::SuccessorSlot &Slot = Frag.Successors[Exit.InstIndex];
  if (Slot.Gen == TCache.linkGeneration()) {
    TCache.touch(*Slot.Next);
    return Slot.Next;
  }
  dbt::Fragment *Next = lookupSettled(Exit.VTarget);
  // Read the generation after the lookup: settling a pending translation
  // installs fragments. Misses are not cached; they leave translated code.
  if (Next)
    Slot = {Next, TCache.linkGeneration()};
  return Next;
}

VirtualMachine::SegmentOutcome
VirtualMachine::executeTranslated(dbt::Fragment *Frag) {
  ExecState.loadArchState(Interp.state());
  std::vector<IisaEvent> Events;
  ++Hot.Segments;

  auto ToInterp = [&](uint64_t VPc) {
    ArchState Arch = ExecState.toArchState();
    Arch.Pc = VPc;
    Interp.state() = Arch;
    SegmentOutcome Out;
    Out.K = SegmentOutcome::Kind::ToInterpreter;
    Out.NextVPc = VPc;
    return Out;
  };

  for (;;) {
    if (GuestInsts >= Config.MaxGuestInsts) {
      SegmentOutcome Out = ToInterp(Frag->EntryVAddr);
      Out.K = SegmentOutcome::Kind::Budget;
      return Out;
    }

    iisa::IExit Exit;
    bool RanNative = false;
    if (NativeSvc && !Timing) {
      // Hot loops never leave this dispatch loop, so the native tier's
      // drain/tier-up bookkeeping must also live here (attach never
      // destroys a fragment, so Frag stays valid). Detailed-timing runs
      // stay on the I-ISA tier: the model consumes per-instruction events.
      drainNativeCompleted();
      maybeNativeTierUp(Frag);
      if (Frag->Native) {
        Exit = native::runFragment(*Frag->Native, ExecState, Mem, Frag->Body);
        ++Nat.Runs;
        Nat.Insts += Exit.InstIndex + 1;
        RanNative = true;
      }
    }
    if (!RanNative) {
      // Per-instruction events feed only the timing model.
      Events.clear();
      Exit = iisa::execute(Frag->Body.data(), Frag->Body.size(), ExecState,
                           Mem, Timing ? &Events : nullptr);
    }
    ++Frag->ExecCount;
    accountExit(*Frag, Exit.InstIndex);

    // Exit decision.
    dbt::Fragment *Next = nullptr;
    bool NeedStubDispatch = false;
    bool RasMiss = false;
    switch (Exit.K) {
    case iisa::IExit::Kind::Chained:
      Next = staticSuccessor(*Frag, Exit);
      ++(Next ? Hot.ExitChained : Hot.ExitChainedMissing);
      break;
    case iisa::IExit::Kind::ToTranslator:
      ++Hot.ExitTranslator;
      break;
    case iisa::IExit::Kind::PredictHit:
      Next = staticSuccessor(*Frag, Exit);
      ++(Next ? Hot.PredictHit : Hot.PredictHitUntranslated);
      break;
    case iisa::IExit::Kind::PredictMiss:
      Next = lookupSettled(Exit.VTarget);
      NeedStubDispatch = true;
      ++Hot.PredictMiss;
      break;
    case iisa::IExit::Kind::Dispatch:
      Next = lookupSettled(Exit.VTarget);
      NeedStubDispatch = true;
      ++Hot.ExitDispatch;
      break;
    case iisa::IExit::Kind::Return: {
      bool VMatch = dualRasPop(Exit.VTarget);
      Next = VMatch ? lookupSettled(Exit.VTarget) : nullptr;
      if (Next) {
        ++Hot.ReturnHit;
      } else {
        // Mispredicted return: the unconditional branch after the return
        // redirects to dispatch (Section 3.2).
        RasMiss = true;
        NeedStubDispatch = true;
        Next = lookupSettled(Exit.VTarget);
        ++Hot.ReturnMiss;
      }
      break;
    }
    case iisa::IExit::Kind::Halt:
      ++Hot.ExitHalt;
      break;
    case iisa::IExit::Kind::Trap:
      ++Hot.ExitTrap;
      break;
    }

    // Trace emission.
    uint64_t NextIPc;
    if (Exit.K == iisa::IExit::Kind::Return && RasMiss)
      NextIPc = Frag->IBase + Frag->BodyBytes; // Falls into the stub.
    else if (NeedStubDispatch)
      NextIPc = Frag->IBase + Frag->BodyBytes;
    else
      NextIPc = exitTargetIPc(Exit, Next);
    // Correct the RasHit signal for the emitter: a hit jumps straight to
    // the target fragment.
    if (Exit.K == iisa::IExit::Kind::Return && !RasMiss)
      NextIPc = exitTargetIPc(Exit, Next);
    emitFragmentTrace(*Frag, Events, Exit, NextIPc);
    if (NeedStubDispatch) {
      emitStubBranch(Frag->IBase + Frag->BodyBytes);
      emitDispatch(Exit.VTarget, Next ? Next->IBase : TranslatorIPc);
    }

    switch (Exit.K) {
    case iisa::IExit::Kind::Halt: {
      // Count the HALT itself.
      SegmentOutcome Out;
      ArchState Arch = ExecState.toArchState();
      Arch.Pc = Frag->Body[Exit.InstIndex].VAddr;
      Interp.state() = Arch;
      Out.K = SegmentOutcome::Kind::Halted;
      return Out;
    }
    case iisa::IExit::Kind::Trap: {
      SegmentOutcome Out;
      Out.K = SegmentOutcome::Kind::Trapped;
      Out.Trap = dbt::recoverTrapState(*Frag, Exit.InstIndex, ExecState,
                                       Exit.TrapInfo);
      // Leave the interpreter at the recovered state (the VM could resume
      // interpretation there after trap delivery).
      Interp.state() = Out.Trap.Arch;
      return Out;
    }
    default:
      break;
    }

    if (!Next)
      return ToInterp(Exit.VTarget);
    Frag = Next;
  }
}

const StatisticSet &VirtualMachine::stats() {
  Stats.set("interp.insts", Hot.InterpInsts);
  Stats.set("vm.segments", Hot.Segments);
  Stats.set("vm.guest_insts", GuestInsts);
  Stats.set("vm.vinsts_translated", Hot.VInstsTranslated);
  Stats.set("frag.insts", Hot.FragInsts);
  Stats.set("frag.copy_insts", Hot.CopyInsts);
  Stats.set("frag.source_ops", Hot.SourceOps);
  for (size_t I = 0; I != Hot.Usage.size(); ++I)
    Stats.set(std::string("usage.") + getUsageName(UsageClass(I)),
              Hot.Usage[I]);
  Stats.set("exit.chained", Hot.ExitChained);
  Stats.set("exit.chained_missing", Hot.ExitChainedMissing);
  Stats.set("exit.translator", Hot.ExitTranslator);
  Stats.set("exit.predict_hit", Hot.PredictHit);
  Stats.set("exit.predict_hit_untranslated", Hot.PredictHitUntranslated);
  Stats.set("exit.predict_miss", Hot.PredictMiss);
  Stats.set("exit.dispatch", Hot.ExitDispatch);
  Stats.set("exit.return_hit", Hot.ReturnHit);
  Stats.set("exit.return_miss", Hot.ReturnMiss);
  Stats.set("exit.halt", Hot.ExitHalt);
  Stats.set("exit.trap", Hot.ExitTrap);
  Stats.set("stub.insts", Hot.StubInsts);
  Stats.set("dispatch.calls", Hot.DispatchCalls);
  Stats.set("dispatch.insts", Hot.DispatchInsts);
  Stats.set("ras.push", Hot.RasPushes);
  Stats.set("tcache.fragments", TCache.fragmentCount());
  Stats.set("tcache.body_bytes", TCache.totalBodyBytes());
  Stats.set("tcache.unique_source_insts", TCache.uniqueSourceInsts());
  Stats.set("tcache.patches", TCache.patchCount());
  Stats.set("tcache.flushes", TCache.flushCount());
  Stats.set("cache.evictions", TCache.evictionCount());
  Stats.set("cache.evicted_bytes", TCache.evictedBytes());
  Stats.set("cache.unchained_exits", TCache.unchainedExitCount());
  Stats.set("cache.retranslations", CacheRetranslations);
  Stats.set("cache.budget_high_water", TCache.budgetHighWater());
  Stats.set("cache.degraded_flushes", TCache.degradedFlushCount());
  Stats.set("cache.pending_dropped_blacklisted", TCache.droppedPendingCount());
  Stats.set("robust.bailouts", Robust.Bailouts);
  Stats.set("robust.retries", Robust.Retries);
  Stats.set("robust.fallback_insts", Robust.FallbackInsts);
  Stats.set("robust.blacklisted_pcs", Profile.blacklistedCount());
  for (size_t I = 0; I != Robust.ByReason.size(); ++I)
    if (Robust.ByReason[I])
      Stats.set(std::string("robust.bailout.") +
                    dbt::getTranslateStatusName(dbt::TranslateStatus(I)),
                Robust.ByReason[I]);
  if (Service) {
    Stats.set("async.workers", Service->workerCount());
    Stats.set("async.submitted", Async.Submitted);
    Stats.set("async.installed", Async.Installed);
    Stats.set("async.discarded_stale", Async.DiscardedStale);
    Stats.set("async.demand_waits", Async.DemandWaits);
    Stats.set("async.inline_units", Async.InlineUnits);
    Stats.set("async.offloaded_units", Async.OffloadedUnits);
    Stats.set("async.insts_during_xlate", Async.InstsDuringXlate);
    Stats.set("async.evict_races", EvictRaces);
  }
  if (Config.NativeTier) {
    Stats.set("native.enabled", NativeSvc ? 1 : 0);
    if (Nat.NoToolchain)
      Stats.set("native.no_toolchain", Nat.NoToolchain);
    if (NativeSvc) {
      Stats.set("native.workers", NativeSvc->workerCount());
      Stats.set("native.submitted", Nat.Submitted);
      Stats.set("native.compiles", Nat.Compiles);
      Stats.set("native.compile_failed", Nat.CompileFailed);
      Stats.set("native.load_failed", Nat.LoadFailed);
      Stats.set("native.installed", Nat.Installed);
      Stats.set("native.reattached", Nat.Reattached);
      Stats.set("native.pending_drops", Nat.PendingDrops);
      Stats.set("native.runs", Nat.Runs);
      Stats.set("native.insts", Nat.Insts);
      Stats.set("native.imported_objects", Nat.ImportedObjects);
      Stats.set("native.objects", NativeObjects.size());
      Stats.set("native.modules_live", native::liveModuleCount());
    }
  }
  return Stats;
}

/// Counters in stats() that are gauges of *current* VM state (occupancy,
/// high-water marks, pool sizes) rather than monotonically accumulating
/// event counts. A per-request delta must report these at face value: the
/// eviction statistics, for example, can shrink tcache.fragments below a
/// snapshot taken a request ago, and a saturating subtraction would then
/// claim "zero fragments resident" to one request and misattribute the
/// rest to another.
static const char *const GaugeStats[] = {
    "tcache.fragments",        "tcache.body_bytes",
    "tcache.unique_source_insts", "cache.budget_high_water",
    "robust.blacklisted_pcs",  "async.workers",
    "persist.store_images",    "persist.store_bytes",
    "native.enabled",          "native.workers",
    "native.objects",          "native.modules_live",
};

StatisticSet VirtualMachine::statsDelta() {
  const StatisticSet &Now = stats();
  StatisticSet Delta = Now.deltaFrom(StatsBaseline);
  for (const char *Gauge : GaugeStats)
    if (Now.has(Gauge))
      Delta.set(Gauge, Now.get(Gauge));
  StatsBaseline = Now;
  return Delta;
}

// ---------------------------------------------------------------------------
// Top-level run loop.
// ---------------------------------------------------------------------------

RunResult VirtualMachine::run() {
  RunResult Result = runLoop();
  // Settle in-flight translations before anything inspects the cache (the
  // persisted file and final statistics must match a synchronous run).
  drainAllOutstanding();
  if (NativeSvc)
    drainNativeCompleted();
  // A shared-store VM is a pure consumer: SharedStore takes precedence
  // over PersistPath entirely, including the save side.
  if (!Config.PersistPath.empty() && Config.PersistSave && !Config.SharedStore)
    savePersistedCache();
  return Result;
}

RunResult VirtualMachine::runLoop() {
  RunResult Result;
  while (GuestInsts < Config.MaxGuestInsts) {
    InterpOutcome Out = interpretUntilTranslated();
    if (Out.Status == StepStatus::Halted) {
      Result.Reason = StopReason::Halted;
      return Result;
    }
    if (Out.Status == StepStatus::Trapped) {
      Result.Reason = StopReason::Trapped;
      Result.Trap.Arch = Interp.state();
      Result.Trap.TrapInfo = Out.TrapInfo;
      return Result;
    }
    if (!Out.Frag)
      break; // Budget exhausted while interpreting.
    if (Timing)
      Timing->beginSegment();
    SegmentOutcome Seg = executeTranslated(Out.Frag);
    switch (Seg.K) {
    case SegmentOutcome::Kind::ToInterpreter:
      continue;
    case SegmentOutcome::Kind::Halted:
      Result.Reason = StopReason::Halted;
      return Result;
    case SegmentOutcome::Kind::Trapped:
      Result.Reason = StopReason::Trapped;
      Result.Trap = Seg.Trap;
      return Result;
    case SegmentOutcome::Kind::Budget:
      Result.Reason = StopReason::Budget;
      return Result;
    }
  }
  Result.Reason = StopReason::Budget;
  return Result;
}

// ---------------------------------------------------------------------------
// Original (non-DBT) simulation.
// ---------------------------------------------------------------------------

StepStatus vm::runOriginal(GuestMemory &Mem, uint64_t EntryPc,
                           uarch::TimingModel *Model, uint64_t MaxInsts,
                           StatisticSet *Stats) {
  Interpreter Interp(Mem);
  Interp.state().Pc = EntryPc;
  if (Model)
    Model->beginSegment();

  for (uint64_t N = 0; N != MaxInsts; ++N) {
    StepInfo Info = Interp.step();
    if (Info.Status == StepStatus::Trapped)
      return StepStatus::Trapped;

    if (Model) {
      const alpha::AlphaInst &Inst = Info.Inst;
      TraceOp Op;
      Op.Pc = Info.Pc;
      Op.MemAddr = Info.MemAddr;
      Op.Taken = Info.Taken;
      Op.NextPc = Info.NextPc;
      Op.VCredit = Inst.isNop() ? 0 : 1;
      std::array<uint8_t, 3> Ins;
      unsigned NumIns = Inst.inputRegs(Ins);
      if (NumIns > 0)
        Op.Src1 = Ins[0];
      if (NumIns > 1)
        Op.Src2 = Ins[1];
      int OutReg = Inst.outputReg();
      Op.Dest = OutReg < 0 ? uarch::NoTraceReg : uint8_t(OutReg);
      switch (Inst.info().Kind) {
      case alpha::InstKind::Mul:
        Op.Class = OpClass::IntMul;
        break;
      case alpha::InstKind::Load:
        Op.Class = OpClass::Load;
        break;
      case alpha::InstKind::Store:
        Op.Class = OpClass::Store;
        break;
      case alpha::InstKind::CondBranch:
        Op.Class = OpClass::CondBr;
        break;
      case alpha::InstKind::Br:
        Op.Class = OpClass::DirectBr;
        break;
      case alpha::InstKind::Bsr:
        Op.Class = OpClass::DirectBr;
        Op.RasPush = true;
        break;
      case alpha::InstKind::Jmp:
        Op.Class = OpClass::Indirect;
        break;
      case alpha::InstKind::Jsr:
        Op.Class = OpClass::Indirect;
        Op.RasPush = true;
        break;
      case alpha::InstKind::Ret:
        Op.Class = OpClass::Return;
        Op.Taken = true;
        break;
      default:
        Op.Class = OpClass::IntAlu;
        break;
      }
      Model->consume(Op);
    }
    if (Stats)
      Stats->add("orig.insts");

    if (Info.Status == StepStatus::Halted)
      return StepStatus::Halted;
  }
  return StepStatus::Ok;
}
