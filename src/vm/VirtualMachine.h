//===- vm/VirtualMachine.h - The co-designed virtual machine --------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The co-designed VM of Figure 1: interpret/profile -> record ->
/// translate -> execute-translated, with mode switching exactly as
/// Section 4.1 describes. Detailed timing covers translated code only
/// (including all chaining and dispatch code); every re-entry into
/// translated execution starts the pipeline empty.
///
/// The VM also models the architecturally visible parts of chaining: the
/// shared dispatch code (20 instructions ending in an indirect jump at a
/// fixed translation-cache location — hence the single-BTB-entry pathology
/// of Section 4.3), the exit stubs, and the proposed dual-address return
/// address stack.
///
//===----------------------------------------------------------------------===//

#ifndef ILDP_VM_VIRTUALMACHINE_H
#define ILDP_VM_VIRTUALMACHINE_H

#include "core/Config.h"
#include "core/ProfileController.h"
#include "core/TranslateStatus.h"
#include "core/TranslationCache.h"
#include "core/TrapRecovery.h"
#include "interp/Interpreter.h"
#include "support/FixedRing.h"
#include "support/Statistics.h"
#include "uarch/Trace.h"

#include <map>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

namespace ildp {
namespace persist {
class CacheStore;
enum class StoreStatus : uint8_t;
}
namespace native {
class NativeService;
struct NativeCompletion;
}
namespace vm {

/// VM run configuration.
struct VmConfig {
  dbt::DbtConfig Dbt;
  /// Stop after this many guest (V-ISA) instructions, interpreted plus
  /// translated (safety net; workloads normally HALT first).
  uint64_t MaxGuestInsts = 400'000'000;

  /// Dynamo-style translation-cache flushing on program phase changes
  /// (Section 4.1 notes the paper's system lacks this and may pay for it):
  /// when fragment creation accelerates past PhaseFragmentThreshold new
  /// fragments within PhaseWindow guest instructions, the whole cache is
  /// flushed and hot paths re-qualify, giving fragments a second chance to
  /// form along the new phase's paths.
  bool FlushOnPhaseChange = false;
  uint64_t PhaseWindow = 200'000;
  unsigned PhaseFragmentThreshold = 24;

  /// Persistent translation cache (warm start). When PersistPath is
  /// non-empty it names a multi-image cache *store* (persist::CacheStore,
  /// DESIGN.md §11): the VM fingerprints the guest image + DbtConfig at
  /// construction, looks its image up in the store by fingerprint before
  /// the first instruction executes, and saves-or-updates only its own
  /// image slot when run() returns (PersistSave), leaving every other
  /// image's slot as the file holds it at save time — one artifact warm-starts a whole
  /// fleet of guests. Any load problem — missing file, truncation,
  /// corruption, bad index, duplicate image, a file that is not a store —
  /// is counted in the statistics ("persist.*", typed under
  /// "persist.import_rejected.<reason>") and the run degrades to a normal
  /// cold start. A store miss (other images present, not this one) is a
  /// normal first run for this image, not a rejection.
  std::string PersistPath;
  bool PersistSave = true;
  /// Shared read-only warm-start source (the fleet service, DESIGN.md
  /// §12): when set, the VM warm-starts by fingerprint lookup in this
  /// already-opened store instead of opening PersistPath itself — no file
  /// I/O, no lock file, no contention, one store image shared by every VM
  /// in a pool. Counted under "persist.store_readonly"; hits/misses and
  /// import rejections use the same "persist.*" taxonomy as the file
  /// path. The store must outlive the VM and must not be mutated while
  /// any VM reads it. Never saved to: PersistSave applies only to
  /// PersistPath (normally empty in this mode). Takes precedence over
  /// PersistPath when both are set.
  const persist::CacheStore *SharedStore = nullptr;

  /// Native-host execution tier (DESIGN.md §13). When NativeTier is set
  /// and a working host C compiler is found at startup, a fragment whose
  /// exec count crosses NativeThreshold is lowered to C, compiled to a
  /// shared object on NativeWorkers background threads (never blocking
  /// dispatch), dlopen'd, and thereafter entered through a function
  /// pointer instead of the I-ISA interpreter loop. Architected state is
  /// bit-identical to the interpretive tiers; side exits, traps, and any
  /// compile/load failure deopt to the I-ISA tier. Compiled objects ride
  /// the persistent store (keyed by fragment content + compile-command
  /// checksum), so warm starts skip host compilation entirely. With no
  /// toolchain ("native.no_toolchain") or NativeTier=false the VM runs
  /// exactly as without this feature. The native tier is bypassed while a
  /// timing model is attached: detailed timing simulates the I-ISA, and
  /// the two tiers' per-instruction event streams are not comparable.
  bool NativeTier = false;
  uint64_t NativeThreshold = 64;
  unsigned NativeWorkers = 1;
  /// Bound of the compile request queue. Submission never blocks: a full
  /// queue drops the request and the fragment simply re-qualifies on a
  /// later execution.
  size_t NativeQueueDepth = 16;

  /// Graceful degradation on translation failure (DESIGN.md §9). When a
  /// pipeline stage bails out, the VM keeps interpreting the entry and
  /// re-profiles it with its hot threshold multiplied by BlacklistBackoff
  /// per failure; after MaxTranslateRetries failed retries the entry is
  /// blacklisted and interpreted for the rest of the run.
  unsigned MaxTranslateRetries = 3;
  uint64_t BlacklistBackoff = 8;

  /// Hard byte budget for the translation cache (DESIGN.md §10). When an
  /// install would push the cache's total body bytes past this bound,
  /// exec-weighted-LRU victims are evicted (every exit into them then
  /// leaves through the translator) until the new fragment fits; evicted-hot
  /// entries re-enter profiling with their counters intact. 0 (the
  /// default) disables eviction and is bit-identical to the unbounded
  /// cache. The VM clamps Dbt.MaxFragmentBytes to this value so a single
  /// fragment can never exceed the whole cache. Accounting lands in the
  /// "cache.*" statistics group.
  uint64_t CodeCacheBytes = 0;
};

/// Why the VM stopped.
enum class StopReason : uint8_t {
  Halted,
  Trapped,
  Budget,
};

/// Result of a VM run.
struct RunResult {
  StopReason Reason = StopReason::Halted;
  /// Valid when Reason == Trapped: the precisely recovered state.
  dbt::RecoveredState Trap;
};

/// The co-designed virtual machine.
class VirtualMachine {
public:
  VirtualMachine(GuestMemory &Mem, uint64_t EntryPc, const VmConfig &Config);
  ~VirtualMachine(); // Out of line: native::NativeService is incomplete here.

  /// Optional timing model; when set, all translated execution (fragments,
  /// stubs, dispatch) is streamed into it.
  void setTimingModel(uarch::TimingModel *Model) { Timing = Model; }

  /// Runs to completion (HALT), a precise trap, or the budget.
  RunResult run();

  /// Guest (V-ISA) instructions executed so far, both modes.
  uint64_t guestInsts() const { return GuestInsts; }

  /// Raises (or lowers) MaxGuestInsts for subsequent run() calls. A run()
  /// that stopped with StopReason::Budget is resumable: raise the budget
  /// and call run() again. The fleet service executes deadline-bounded
  /// requests as budget slices, checking the wall clock between slices.
  void setGuestInstBudget(uint64_t MaxInsts) {
    Config.MaxGuestInsts = MaxInsts;
  }

  /// Run statistics. Hot-path counters are synced into the set on call.
  const StatisticSet &stats();

  /// Per-request statistic attribution under VM reuse: everything the VM
  /// did since the previous statsDelta() call (since construction for the
  /// first call). Monotonic counters are subtracted exactly; the handful
  /// of gauges (current cache occupancy, high-water marks, worker counts
  /// — see GaugeStats in the implementation) are reported at their
  /// current value, because "fragments resident now" is per-VM state that
  /// a subtraction would silently misattribute across requests.
  StatisticSet statsDelta();
  dbt::TranslationCache &tcache() { return TCache; }
  const Interpreter &interpreter() const { return Interp; }

  /// Synthetic address of the shared dispatch code in the translation
  /// cache address space.
  static constexpr uint64_t DispatchIPc = 0x2F0000000ull;
  /// Synthetic address representing "exit to the translator/VM".
  static constexpr uint64_t TranslatorIPc = 0x2F8000000ull;
  /// Guest region used by the dispatch code's PC-translation-table loads.
  static constexpr uint64_t DispatchTableBase = 0x0F0000000ull;
  /// Instruction count of the shared dispatch sequence (Section 3.2).
  static constexpr unsigned DispatchInsts = 20;

private:
  GuestMemory &Mem;
  VmConfig Config;
  Interpreter Interp;
  dbt::ProfileController Profile;
  dbt::TranslationCache TCache;
  uarch::TimingModel *Timing = nullptr;
  StatisticSet Stats;

  /// Dual-address RAS (architectural model; Section 3.2). Entries hold the
  /// V-ISA return address; the paired I-ISA address is resolved against
  /// the translation cache at pop time. A fixed ring: pushes beyond the
  /// depth forget the deepest frame in O(1).
  static constexpr size_t DualRasDepth = 8;
  FixedRing<uint64_t> DualRas{DualRasDepth};

  uint64_t GuestInsts = 0; ///< V-ISA instructions executed (both modes).
  iisa::IExecState ExecState;
  /// GuestInsts stamps of recent fragment creations (flush heuristic). A
  /// fixed ring of the newest PhaseFragmentThreshold + 1 stamps — the
  /// flush decision only asks whether more than the threshold fall inside
  /// the window, so older stamps are dead weight.
  FixedRing<uint64_t> RecentCreates;
  uint64_t Flushes = 0;
  /// Fragments created since the last flush. Unlike TCache.fragmentCount(),
  /// it still counts fragments evicted under a byte budget since then; the
  /// phase-change heuristic decides flushes on this count.
  uint64_t LogicalFragments = 0;

  /// Hot-path counters (kept out of the string-keyed StatisticSet).
  struct HotCounters {
    uint64_t InterpInsts = 0;
    uint64_t Segments = 0;
    uint64_t ExecutorCalls = 0; ///< Entries into an executor (any tier).
    uint64_t FragInsts = 0;
    uint64_t VInstsTranslated = 0;
    uint64_t CopyInsts = 0;
    uint64_t SourceOps = 0;
    std::array<uint64_t, 9> Usage{}; ///< Indexed by iisa::UsageClass.
    uint64_t ExitChained = 0;
    uint64_t ExitTranslator = 0;
    uint64_t PredictHit = 0;
    uint64_t PredictHitUntranslated = 0;
    uint64_t PredictMiss = 0;
    uint64_t ExitDispatch = 0;
    uint64_t ReturnHit = 0;
    uint64_t ReturnMiss = 0;
    uint64_t ExitHalt = 0;
    uint64_t ExitTrap = 0;
    uint64_t StubInsts = 0;
    uint64_t DispatchCalls = 0;
    uint64_t DispatchInsts = 0;
    uint64_t RasPushes = 0;
  };
  HotCounters Hot;

  // ---- Bounded translation cache (CodeCacheBytes; DESIGN.md §10) ----
  /// Entries whose fragment was evicted and not yet re-translated; feeds
  /// the cache.retranslations statistic.
  std::unordered_set<uint64_t> EvictedEntries;
  uint64_t CacheRetranslations = 0;
  /// Eviction listener body: un-marks the entry in the profiler (counters
  /// intact, so a hot entry re-qualifies on its next bump).
  void onFragmentEvicted(const dbt::Fragment &Frag);
  /// Rebuilds profile marks and phase bookkeeping after the cache degraded
  /// a failed eviction to a wholesale flush in the middle of an install.
  void handleDegradedFlush();

  /// Robustness accounting (translation bailouts and their fallout).
  struct RobustCounters {
    uint64_t Bailouts = 0; ///< Failed translation attempts, any reason.
    uint64_t Retries = 0;  ///< Attempts for an entry that failed before.
    /// Source instructions of failed superblocks: recording work that was
    /// interpreted and then thrown away, now served by the interpreter.
    uint64_t FallbackInsts = 0;
    std::array<uint64_t, dbt::NumTranslateStatuses> ByReason{};
  };
  RobustCounters Robust;

  // ---- Interpretation / profiling ----
  struct InterpOutcome {
    StepStatus Status;
    Trap TrapInfo;
    /// Set when interpretation stopped because \c Pc reached translated
    /// code; the caller executes it directly (no second cache probe).
    dbt::Fragment *Frag = nullptr;
  };
  InterpOutcome interpretUntilTranslated();
  /// Records a superblock at \p HotPc and translates it.
  /// Returns true when the recording retired the guest's HALT.
  bool recordAndTranslate(uint64_t HotPc);
  /// Accounts a translation bailout for \p EntryPc and feeds it back into
  /// the profiler (backoff, eventually blacklisting). Never throws; the VM
  /// simply keeps interpreting the entry.
  void noteTranslateFailure(uint64_t EntryPc, dbt::TranslateStatus Status,
                            uint64_t SourceInsts);
  void installFragment(dbt::Fragment Frag);
  void maybePhaseFlush();

  // ---- Native-host execution tier (src/native; DESIGN.md §13) ----
  /// Worker pool; null when the tier is off or no toolchain was found
  /// (every native code path is gated on this pointer).
  std::unique_ptr<native::NativeService> NativeSvc;
  /// Compiled objects by fragment content key: imported from the store at
  /// warm start plus compiled this run. Re-attach (after eviction and
  /// re-translation of an identical body, or for a same-key fragment at a
  /// different entry) is a map hit, never a recompile; the save path
  /// persists exactly this map.
  std::map<uint64_t, std::vector<uint8_t>> NativeObjects;
  struct NativeCounters {
    uint64_t Submitted = 0;      ///< Compile requests accepted.
    uint64_t Compiles = 0;       ///< Successful host compilations.
    uint64_t CompileFailed = 0;  ///< Emit refusals/faults/cc failures.
    uint64_t LoadFailed = 0;     ///< dlopen/dlsym/fault failures.
    uint64_t Installed = 0;      ///< Fresh-compile attaches.
    uint64_t Reattached = 0;     ///< Attaches served from NativeObjects.
    uint64_t PendingDrops = 0;   ///< Completions whose fragment was gone.
    uint64_t Runs = 0;           ///< Native body executions.
    uint64_t Insts = 0;          ///< I-ISA instructions executed natively.
    uint64_t ImportedObjects = 0;
    uint64_t NoToolchain = 0;    ///< 1 when enabled but no compiler found.
  };
  NativeCounters Nat;
  /// Frag.NativeKey, computed on first use and cached.
  uint64_t nativeKey(dbt::Fragment &Frag);
  /// Submits a compile (or re-attaches a known object) once \p Frag's
  /// exec count crosses NativeThreshold.
  void maybeNativeTierUp(dbt::Fragment *Frag);
  /// Drains finished compilations and attaches them (VM thread only; also
  /// called between body runs inside executeTranslated — safe, as attach
  /// never destroys a fragment).
  void drainNativeCompleted();
  /// dlopen + entry resolution + metadata; NativeLoad fault site. Marks
  /// the fragment failed (stays on the I-ISA tier) on any failure.
  bool attachNative(dbt::Fragment &Frag, const std::vector<uint8_t> &Object);
  /// Warm-start import of the image's native-object slot from \p St
  /// (typed rejects: native_stale / native_malformed).
  void importNativeObjects(const persist::CacheStore &St);

  // ---- Translated execution ----
  struct SegmentOutcome {
    enum class Kind { ToInterpreter, Halted, Trapped } K;
    dbt::RecoveredState Trap;
  };
  SegmentOutcome executeTranslated(dbt::Fragment *Entry);
  /// Takes every exit of a segment, for every tier (DESIGN.md §16): the
  /// threaded executor loop's chain policy (iisa/ExecutorLoop.h), which
  /// follows an exit it took while the successor is translated and the
  /// guest budget allows, and the VM's exit handling after every run the
  /// loop does not chain and for the exits it never asks about.
  struct ChainRunner;
  /// (fragment, exit index) pairs whose ExitHits ChainRunner::take() raised
  /// from zero; executeTranslated() folds and clears them before it
  /// returns, so no evicted fragment is ever named here.
  std::vector<std::pair<dbt::Fragment *, uint32_t>> PendingHits;

  /// The PC translation table of the paper's Figure 3, which the shared
  /// dispatch code and dual-RAS returns probe: a direct-mapped cache of
  /// TCache lookups by V-ISA target, each entry valid for the link
  /// generation it was filled in (every change to the cache's entry index
  /// bumps it). Only hits are cached.
  struct PcTableEntry {
    uint64_t VAddr = 0;
    dbt::Fragment *Frag = nullptr;
    uint64_t Gen = 0; ///< 0 never matches: generations start at 1.
  };
  static constexpr size_t PcTableSize = 1024;
  std::vector<PcTableEntry> PcTable = std::vector<PcTableEntry>(PcTableSize);
  /// TCache.lookup(\p VAddr) through the table, without the recency stamp.
  dbt::Fragment *findTarget(uint64_t VAddr) {
    PcTableEntry &E = PcTable[(VAddr >> 2) & (PcTableSize - 1)];
    if (E.Gen == TCache.linkGeneration() && E.VAddr == VAddr)
      return E.Frag;
    dbt::Fragment *Frag = TCache.find(VAddr);
    if (Frag)
      E = {VAddr, Frag, TCache.linkGeneration()};
    return Frag;
  }
  /// Streams one run of \p Frag into the timing model. \p RasHit says
  /// whether a dual-RAS return ended the run without the exit stub.
  void emitFragmentTrace(const dbt::Fragment &Frag,
                         const std::vector<iisa::IisaEvent> &Events,
                         uint64_t NextIPc, bool RasHit);
  void emitStubBranch(uint64_t FromIPc);
  void emitDispatch(uint64_t TargetVAddr, uint64_t ResolvedIPc);

  /// The dual-RAS pushes of one run of \p Frag exiting at \p ExitIndex.
  void dualRasPushes(const dbt::Fragment &Frag, uint32_t ExitIndex);
  bool dualRasPop(uint64_t Actual);

  // ---- Persistent translation cache ----
  /// Fingerprint of (initial guest image, entry PC, DbtConfig), computed
  /// at construction while memory still holds the pristine image; reused
  /// for the save on exit.
  uint64_t PersistFingerprint = 0;
  /// Translator work units previously invested in this VM's image slot
  /// (carried forward so a warm run's re-save does not zero the slot's
  /// CostUnits bookkeeping).
  uint64_t ImportedCostUnits = 0;
  /// stats() snapshot taken by the previous statsDelta() call.
  StatisticSet StatsBaseline;
  /// Warm start from the store file at Config.PersistPath.
  void warmStartFromPersisted();
  /// Warm start by lookup in Config.SharedStore (read-only, pre-opened;
  /// no file I/O on this path). Same degrade taxonomy as the file path.
  void warmStartFromShared();
  /// The warm-start import both paths share: the PersistImport fault
  /// site, then \p Opened (the store's open() status; Ok for the shared
  /// store), then this image's slot — miss, hit (fragments and native
  /// objects imported) or corrupt. Every outcome is counted under
  /// persist.*.
  void warmStartFrom(const persist::CacheStore &St,
                     persist::StoreStatus Opened);
  /// Installs \p Frags as the warm-start image and marks their entries
  /// translated in the profiler. Shared by the file and shared-store paths.
  void importFragments(std::vector<dbt::Fragment> Frags);
  void savePersistedCache();

  RunResult runLoop();
};

/// Runs \p Mem's program at \p EntryPc through the plain interpreter,
/// streaming every retired V-ISA instruction into \p Model (the paper's
/// "original" superscalar simulation). Returns the stop status.
StepStatus runOriginal(GuestMemory &Mem, uint64_t EntryPc,
                       uarch::TimingModel *Model, uint64_t MaxInsts,
                       StatisticSet *Stats = nullptr);

} // namespace vm
} // namespace ildp

#endif // ILDP_VM_VIRTUALMACHINE_H
