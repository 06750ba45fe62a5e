//===- vm/VirtualMachine.cpp - The co-designed virtual machine ------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//

#include "vm/VirtualMachine.h"

#include "core/SuperblockBuilder.h"
#include "core/Translator.h"
#include "iisa/ExecutorLoop.h"
#include "native/NativeCompiler.h"
#include "native/NativeEmitter.h"
#include "native/NativeExec.h"
#include "native/NativeModule.h"
#include "native/NativeService.h"
#include "native/NativeStore.h"
#include "persist/CacheStore.h"
#include "persist/Fingerprint.h"
#include "support/Injector.h"

#include <algorithm>
#include <cassert>
#include <utility>

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
    TCache.setInjector(Config.Dbt.Fault);
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
    warmStartFromShared();
  } else if (!Config.PersistPath.empty()) {
    PersistFingerprint = persist::fingerprint(Mem, EntryPc, Config.Dbt);
    warmStartFromPersisted();
  }
  LogicalFragments = TCache.fragmentCount();
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
    for (const IisaInst &Inst : Frag->Body)
      if (Inst.isDirectExit())
        Profile.addCandidate(Inst.VTarget);
  }
  Stats.add("persist.load_ok");
  Stats.set("persist.fragments_imported", Installed);
  if (Config.CodeCacheBytes != 0)
    Stats.set("persist.fragments_skipped_budget", TCache.importBudgetSkips());
}

void VirtualMachine::warmStartFromPersisted() {
  // The store is only read here; the exit save re-reads the file under
  // its lock, so nothing opened now is kept for the run.
  persist::CacheStore Store;
  warmStartFrom(Store, Store.open(Config.PersistPath));
}

void VirtualMachine::warmStartFromShared() {
  // The shared-store path exists so a fleet of VMs can warm-start without
  // per-VM file I/O: the store was opened (read-only) once by the owner
  // and every lookup here is a const walk over immutable payload bytes.
  // Its gauges are reported even when the import fault fires. A corrupt
  // slot cannot be dropped from the shared store; this VM just runs cold.
  const persist::CacheStore &Shared = *Config.SharedStore;
  Stats.add("persist.store_readonly");
  Stats.set("persist.store_images", Shared.imageCount());
  Stats.set("persist.store_bytes", Shared.totalPayloadBytes());
  warmStartFrom(Shared, persist::StoreStatus::Ok);
}

void VirtualMachine::warmStartFrom(const persist::CacheStore &St,
                                   persist::StoreStatus Opened) {
  // Every import failure degrades to a cold start; a warm-start problem
  // must never be worse than not having a store at all. A missing file is
  // the normal first run and a store miss is the normal first run *of this
  // image*; everything else is counted under persist.import_rejected with
  // a per-reason breakdown.
  const char *Rejected;
  if (support::injected(Config.Dbt.Fault, support::InjectSite::PersistImport)) {
    Rejected = "injected-fault";
  } else if (Opened == persist::StoreStatus::FileNotFound) {
    Stats.add("persist.load_nofile");
    return;
  } else if (Opened != persist::StoreStatus::Ok) {
    Stats.add("persist.load_corrupt");
    Rejected = persist::getStoreStatusName(Opened);
  } else {
    Stats.set("persist.store_images", St.imageCount());
    Stats.set("persist.store_bytes", St.totalPayloadBytes());
    std::vector<dbt::Fragment> Frags;
    persist::StoreStatus Found = St.lookup(PersistFingerprint, Frags);
    if (Found == persist::StoreStatus::ImageNotFound) {
      // Other images live here; ours runs cold (and a writable store
      // saves a new slot on exit).
      Stats.add("persist.store_miss");
      return;
    }
    if (Found == persist::StoreStatus::Ok) {
      Stats.add("persist.store_hit");
      ImportedCostUnits = St.find(PersistFingerprint)->CostUnits;
      importFragments(std::move(Frags));
      importNativeObjects(St);
      return;
    }
    // Structural corruption the CRCs happened to bless. An exit save
    // overwrites the slot with a clean one.
    Stats.add("persist.load_corrupt");
    Rejected = persist::getStoreStatusName(Found);
  }
  Stats.add("persist.import_rejected");
  Stats.add(std::string("persist.import_rejected.") + Rejected);
}

void VirtualMachine::savePersistedCache() {
  // Only this VM's slots go into the save: saveMerged adopts every other
  // slot from the file as it is under the lock, so a slot another writer
  // updated while this VM ran is kept, never reverted to an older copy.
  persist::CacheStore Store;
  std::vector<const dbt::Fragment *> Frags = TCache.exportAll();
  // The slot's CostUnits track the total translator work invested across
  // its producing runs: what was imported plus what this run spent on top
  // (a pure warm run adds 0 and preserves the cold run's figure).
  Store.put(PersistFingerprint, Frags,
            ImportedCostUnits + Stats.get("dbt.cost.total"));

  if (NativeSvc) {
    // Persist the native objects under the image's native slot — imported
    // plus freshly compiled. Written even when empty: erasing instead
    // would be undone by saveMerged re-adopting the on-disk copy, leaving
    // a stale slot behind a changed toolchain.
    NativeSvc->waitAllIdle();
    drainNativeCompleted();
    Store.putRaw(native::slotFingerprint(PersistFingerprint),
                 native::encodeObjects(NativeObjects,
                                       NativeSvc->compiler().Checksum));
  }
  persist::SaveMergeResult Saved = Store.saveMerged(Config.PersistPath);
  Stats.add(Saved.Saved ? "persist.save_ok" : "persist.save_fail");
  if (Saved.Saved) {
    Stats.set("persist.fragments_saved", Frags.size());
    Stats.set("persist.store_saved_images", Store.imageCount());
    if (Saved.Adopted)
      Stats.set("persist.store_merge_adopted", Saved.Adopted);
    if (Saved.LockContended)
      Stats.add("persist.store_lock_contended");
  }
  // A timed-out lock wait is counted even if the save then failed on I/O.
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
  if (support::injected(Config.Dbt.Fault, support::InjectSite::NativeLoad)) {
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
  Frag.Native = std::move(Module);
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
  if (support::injected(Config.Dbt.Fault,
                        support::InjectSite::NativeCompile)) {
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

void VirtualMachine::dualRasPushes(const dbt::Fragment &Frag,
                                   uint32_t ExitIndex) {
  for (const auto &[PushIdx, VRet] : Frag.Accounting.RasPushes) {
    if (PushIdx > ExitIndex)
      break;
    DualRas.pushBackEvict(VRet); // Overflow forgets the deepest frame.
    ++Hot.RasPushes;
  }
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
  // creation time, before the new fragment is installed.
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
  }
}

void VirtualMachine::onFragmentEvicted(const dbt::Fragment &Frag) {
  Profile.noteEvicted(Frag.EntryVAddr);
  EvictedEntries.insert(Frag.EntryVAddr);
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
}

void VirtualMachine::installFragment(dbt::Fragment Frag) {
  maybePhaseFlush();
  ++LogicalFragments;
  uint64_t Entry = Frag.EntryVAddr;
  if (!EvictedEntries.empty() && EvictedEntries.erase(Entry))
    ++CacheRetranslations;
  Profile.markTranslated(Entry);
  // Exit targets of existing fragments become trace-start candidates.
  for (const IisaInst &Inst : Frag.Body)
    if (Inst.isDirectExit())
      Profile.addCandidate(Inst.VTarget);
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

  dbt::Expected<dbt::TranslationResult> Xlated = translate(Sb, Config.Dbt);
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
  Profile.recordFailure(EntryPc, Config.MaxTranslateRetries,
                        Config.BlacklistBackoff);
}

VirtualMachine::InterpOutcome VirtualMachine::interpretUntilTranslated() {
  while (GuestInsts < Config.MaxGuestInsts) {
    // Dispatch-loop safepoint: no translated-code pointer is live here, so
    // storage of fragments evicted/flushed since the last pass can go.
    TCache.reclaimEvicted();
    if (NativeSvc)
      drainNativeCompleted();
    uint64_t Pc = Interp.state().Pc;
    // Single hash probe per dispatch: the fragment found here is handed
    // back to the run loop and executed directly.
    if (dbt::Fragment *Frag = TCache.lookup(Pc))
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

void VirtualMachine::emitFragmentTrace(const dbt::Fragment &Frag,
                                       const std::vector<IisaEvent> &Events,
                                       uint64_t NextIPc, bool RasHit) {
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
      Op.RasHit = RasHit;
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

struct VirtualMachine::ChainRunner {
  static constexpr bool Enabled = true;

  VirtualMachine &VM;
  dbt::Fragment *Cur;
  /// Cur's per-instruction events, recorded only for the timing model.
  std::vector<IisaEvent> Events{};
  /// Nothing installs, evicts or flushes while a segment runs.
  const uint64_t Gen = VM.TCache.linkGeneration();
  const bool RasPushes = VM.Config.Dbt.Chaining == dbt::ChainPolicy::SwPredRas;

  /// Takes the exit of kind \p K at body index \p Index of Cur (to
  /// \p VTarget when the exit is dynamic) and returns the successor, null
  /// when the target is not translated. \p Traced: Cur's run recorded
  /// Events for the timing model. First the successor: a static exit's
  /// slot, refilled through the PC translation table when stale, or a
  /// dynamic exit's table lookup, read before the accounting's stores,
  /// which may alias it as far as the compiler knows. Every instruction
  /// 0..Index ran, so then come the guest-instruction count the budget
  /// reads, the exec count and the dual-RAS pushes, with the rest of the exit-index
  /// accounting left in ExitHits for executeTranslated()'s fold. Then the
  /// exit's own work: a return's pop, the exit's counters, the trace, exit
  /// stub and shared dispatch code, and the successor's recency stamp.
  [[gnu::always_inline]] dbt::Fragment *take(iisa::IExit::Kind K,
                                             uint32_t Index, uint64_t VTarget,
                                             bool Traced) {
    using Kind = iisa::IExit::Kind;
    dbt::Fragment &F = *Cur;
    dbt::Fragment *Succ = nullptr;
    if (K == Kind::Direct || K == Kind::PredictHit) {
      // A miss is cached too: every install bumps the generation.
      dbt::SuccessorSlot &Slot = F.Successors[Index];
      if (Slot.Gen != Gen)
        Slot = {VM.findTarget(F.Body[Index].VTarget), Gen};
      Succ = Slot.Next;
    } else if (K == Kind::PredictMiss || K == Kind::Dispatch ||
               K == Kind::Return) {
      Succ = VM.findTarget(VTarget);
    }
    VM.GuestInsts += F.Accounting.Cum[Index].VCredit;
    ++F.ExecCount;
    if (F.ExitHits[Index]++ == 0)
      VM.PendingHits.emplace_back(&F, Index);
    if (RasPushes)
      VM.dualRasPushes(F, Index);
    bool Stub = false; // Through the exit stub into the shared dispatch code.
    switch (K) {
    case Kind::Direct:
      // Chained exactly when the target is resident; a call-translator
      // exit otherwise.
      ++(Succ ? VM.Hot.ExitChained : VM.Hot.ExitTranslator);
      break;
    case Kind::PredictHit:
      ++(Succ ? VM.Hot.PredictHit : VM.Hot.PredictHitUntranslated);
      break;
    case Kind::PredictMiss:
      ++VM.Hot.PredictMiss;
      Stub = true;
      break;
    case Kind::Dispatch:
      ++VM.Hot.ExitDispatch;
      Stub = true;
      break;
    case Kind::Return:
      // A mispredicted return: the unconditional branch after the return
      // redirects to dispatch (Section 3.2).
      Stub = !(VM.dualRasPop(VTarget) && Succ);
      ++(Stub ? VM.Hot.ReturnMiss : VM.Hot.ReturnHit);
      break;
    case Kind::Halt:
      ++VM.Hot.ExitHalt;
      break;
    case Kind::Trap:
      ++VM.Hot.ExitTrap;
      break;
    }
    // A dispatching exit falls into the stub; every other exit jumps
    // straight to its successor, or to the translator when there is none.
    uint64_t StubIPc = F.IBase + F.BodyBytes;
    uint64_t TargetIPc = Succ ? Succ->IBase : TranslatorIPc;
    if (Traced)
      VM.emitFragmentTrace(F, Events, Stub ? StubIPc : TargetIPc, !Stub);
    if (Stub) {
      VM.emitStubBranch(StubIPc);
      VM.emitDispatch(VTarget, TargetIPc);
    }
    if (Succ)
      VM.TCache.touch(*Succ);
    return Succ;
  }

  /// The loop's question at an exit (iisa/ExecutorLoop.h): take it, then
  /// run the successor next unless there is none or the VM's own budget
  /// test stops the segment. A chaining run records no events.
  template <iisa::IExit::Kind K>
  [[gnu::always_inline]] bool follow(uint32_t Index, uint64_t VTarget,
                                     const iisa::IOp *&Ops,
                                     const IisaInst *&Body) {
    dbt::Fragment *Next = take(K, Index, VTarget, /*Traced=*/false);
    if (!Next || VM.GuestInsts >= VM.Config.MaxGuestInsts)
      return false;
    Cur = Next;
    Ops = Cur->Ops.data();
    Body = Cur->Body.data();
    return true;
  }
};

VirtualMachine::SegmentOutcome
VirtualMachine::executeTranslated(dbt::Fragment *Entry) {
  using Kind = iisa::IExit::Kind;
  ExecState.loadArchState(Interp.state());
  ++Hot.Segments;
  ChainRunner Chain{*this, Entry};
  dbt::Fragment *&Frag = Chain.Cur;
  // The native tier's tier-up and the timing model's per-fragment trace
  // both need the VM between every two fragment runs.
  const bool Chaining = !NativeSvc && !Timing;

  SegmentOutcome Out;
  for (;;) {
    ++Hot.ExecutorCalls;
    iisa::IExit Exit;
    if (Chaining) {
      Exit = iisa::runOps<false>(Frag->Ops.data(), Frag->Body.data(),
                                 ExecState, Mem, nullptr, Chain);
    } else if (Timing) {
      // Detailed-timing runs stay on the I-ISA tier: the model consumes
      // per-instruction events.
      Chain.Events.clear();
      Exit = iisa::execute(Frag->Ops.data(), Frag->Body.data(), ExecState,
                           Mem, &Chain.Events);
    } else {
      // Hot loops never leave this loop, so the native tier's drain/tier-up
      // bookkeeping must also live here (attach never destroys a fragment,
      // so Frag stays valid).
      drainNativeCompleted();
      maybeNativeTierUp(Frag);
      if (Frag->Native) {
        Exit = native::runFragment(*Frag->Native, ExecState, Mem, Frag->Body);
        ++Nat.Runs;
        Nat.Insts += Exit.InstIndex + 1;
      } else {
        Exit = iisa::execute(Frag->Ops.data(), Frag->Body.data(), ExecState,
                             Mem, nullptr);
      }
    }
    // A chained run returns an exit it took only where it could not follow
    // it, which ends the segment; the VM takes every other exit.
    bool Taken = Chaining && Exit.K != Kind::Halt && Exit.K != Kind::Trap;
    dbt::Fragment *Next =
        Taken ? nullptr
              : Chain.take(Exit.K, Exit.InstIndex, Exit.VTarget,
                           Timing != nullptr);

    // GuestInsts < MaxGuestInsts held on entry; this is the VM's budget
    // test before every further run.
    if (Next && GuestInsts < Config.MaxGuestInsts) {
      Frag = Next;
      continue;
    }
    if (Exit.K == Kind::Trap) {
      Out.K = SegmentOutcome::Kind::Trapped;
      Out.Trap = dbt::recoverTrapState(*Frag, Exit.InstIndex, ExecState,
                                       Exit.TrapInfo);
      // Leave the interpreter at the recovered state (the VM could resume
      // interpretation there after trap delivery).
      Interp.state() = Out.Trap.Arch;
      break;
    }
    // A halt leaves the PC at the HALT; any other exit at its target, where
    // the interpreter resumes (or a budget stop ends the run).
    ArchState Arch = ExecState.toArchState();
    Arch.Pc = Exit.K == Kind::Halt ? Frag->Body[Exit.InstIndex].VAddr
                                   : Exit.VTarget;
    Interp.state() = Arch;
    Out.K = Exit.K == Kind::Halt ? SegmentOutcome::Kind::Halted
                                 : SegmentOutcome::Kind::ToInterpreter;
    break;
  }

  // The fold: the exit-index accounting of every run in the segment, from
  // the fragments' prefix sums (every tier executes instructions
  // 0..Index). It is a pure function of the exit index, so one count per
  // index serves every exit kind that leaves through it. Nothing installs,
  // evicts or flushes during a segment, so no pair names a freed fragment.
  for (auto [F, Index] : PendingHits) {
    uint64_t Runs = std::exchange(F->ExitHits[Index], 0);
    const dbt::CumCounters &Cum = F->Accounting.Cum[Index];
    Hot.FragInsts += Runs * (Index + 1);
    Hot.VInstsTranslated += Runs * Cum.VCredit;
    Hot.CopyInsts += Runs * Cum.CopyInsts;
    Hot.SourceOps += Runs * Cum.SourceOps;
    for (size_t U = 0; U != Cum.Usage.size(); ++U)
      Hot.Usage[U] += Runs * Cum.Usage[U];
  }
  PendingHits.clear();
  return Out;
}

const StatisticSet &VirtualMachine::stats() {
  Stats.set("interp.insts", Hot.InterpInsts);
  Stats.set("vm.segments", Hot.Segments);
  Stats.set("vm.executor_calls", Hot.ExecutorCalls);
  Stats.set("vm.guest_insts", GuestInsts);
  Stats.set("vm.vinsts_translated", Hot.VInstsTranslated);
  Stats.set("frag.insts", Hot.FragInsts);
  Stats.set("frag.copy_insts", Hot.CopyInsts);
  Stats.set("frag.source_ops", Hot.SourceOps);
  for (size_t I = 0; I != Hot.Usage.size(); ++I)
    Stats.set(std::string("usage.") + getUsageName(UsageClass(I)),
              Hot.Usage[I]);
  Stats.set("exit.chained", Hot.ExitChained);
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
  Stats.set("tcache.flushes", TCache.flushCount());
  Stats.set("cache.evictions", TCache.evictionCount());
  Stats.set("cache.evicted_bytes", TCache.evictedBytes());
  Stats.set("cache.retranslations", CacheRetranslations);
  Stats.set("cache.budget_high_water", TCache.budgetHighWater());
  Stats.set("cache.degraded_flushes", TCache.degradedFlushCount());
  Stats.set("robust.bailouts", Robust.Bailouts);
  Stats.set("robust.retries", Robust.Retries);
  Stats.set("robust.fallback_insts", Robust.FallbackInsts);
  Stats.set("robust.blacklisted_pcs", Profile.blacklistedCount());
  for (size_t I = 0; I != Robust.ByReason.size(); ++I)
    if (Robust.ByReason[I])
      Stats.set(std::string("robust.bailout.") +
                    dbt::getTranslateStatusName(dbt::TranslateStatus(I)),
                Robust.ByReason[I]);
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
    "robust.blacklisted_pcs",  "persist.store_images",
    "persist.store_bytes",     "native.enabled",
    "native.workers",          "native.objects",
    "native.modules_live",
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
