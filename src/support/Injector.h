//===- support/Injector.h - Deterministic fault and crash injection -------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One deterministic, seedable injection schedule (DESIGN.md §9, §15). A
/// site is a named point where the VM asks fire(): "does this hit fire?".
/// What a fire does depends on the site, not on the schedule:
///
/// - At a *fault site* the caller reports a typed failure and degrades
///   (TranslateStatus::InjectedFault, a wholesale flush, a cold start, the
///   I-ISA tier). The pipeline asks through injected(), so a VM without an
///   injector attached (DbtConfig::Fault == nullptr) pays one null-pointer
///   check per site.
///
///     decode          translate() input validation
///     lowering        lower()
///     usage           analyzeUsage()
///     strand_alloc    formStrandsAndAllocate()
///     codegen         generateCode() body emission
///     assemble        generateCode() encoding/sizing pass
///     persist_import  VM warm-start import of a persisted store
///     evict_select    TranslationCache victim selection under a budget
///     unchain         TranslationCache eviction, between victim selection
///                     and the victim's teardown
///     native_compile  VM native tier-up, before a compile is submitted
///     native_load     dlopen/attach of a compiled native module
///
///   A fire at either eviction site aborts the eviction; the cache
///   degrades to a wholesale flush (DESIGN.md §10).
///
/// - At a *crash point* crashPoint() kills the process with _exit(137),
///   the way SIGKILL, the OOM killer or a power cut would: no destructors,
///   no atexit handlers, no flushed buffers, no released lock files.
///
///     mid_tmp_write           halfway through writing a save's staging file
///     post_tmp_pre_rename     staging file complete (and fsynced), rename
///                             not yet issued
///     mid_merge_read          inside saveMerged: on-disk store read, merge
///                             not yet applied (the store lock is held)
///     post_rename_pre_unlock  the new store is in place, "<path>.lock"
///                             still names this (now dead) process
///     mid_request             a fleet host with requests in flight
///
///   Crash points consult the process-wide injector, armed from the
///   ILDP_CRASH_SCHEDULE environment variable on first use, so a
///   supervisor or test harness arms a child it is about to spawn.
///
/// Each site is off, armed with a 0-based hit range [First, First+Count),
/// or armed with a seeded random fraction: hit N fires iff
/// splitmix64(Seed ^ N) % Denominator < Numerator. A decision depends only
/// on the site's hit index, so a single-threaded run is exactly
/// reproducible. All counters are atomic, so one injector may be shared by
/// the VMs of a fleet; with several VMs the *set* of fired hits is still
/// deterministic per site even though their interleaving is not.
///
/// Spec grammar (armFromSpec, ILDP_CRASH_SCHEDULE), comma-separated, one
/// clause per site:
///
///   <site>=<n>                       fire on the nth hit (1-based)
///   <site>=always                    fire on every hit
///   <site>=random:<seed>/<num>/<den> fire each hit with probability
///                                    num/den under the seeded hash
///
/// e.g. ILDP_CRASH_SCHEDULE="post_tmp_pre_rename=1,mid_request=3".
///
//===----------------------------------------------------------------------===//

#ifndef ILDP_SUPPORT_INJECTOR_H
#define ILDP_SUPPORT_INJECTOR_H

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

namespace ildp {
namespace support {

/// Named injection sites: the fault sites, then the crash points.
enum class InjectSite : uint8_t {
  Decode,
  Lowering,
  Usage,
  StrandAlloc,
  CodeGen,
  Assemble,
  PersistImport,
  EvictSelect,
  Unchain,
  NativeCompile,
  NativeLoad,
  MidTmpWrite,
  PostTmpPreRename,
  MidMergeRead,
  PostRenamePreUnlock,
  MidRequest,
};

constexpr unsigned NumInjectSites = 16;

/// True for the crash points (the sites crashPoint() is called with).
inline bool isCrashSite(InjectSite Site) {
  return Site >= InjectSite::MidTmpWrite;
}

/// Stable lowercase site name ("decode", "mid_request", ...), the spelling
/// the spec grammar uses.
const char *getSiteName(InjectSite Site);

/// Parses a name as printed by getSiteName(). Returns false and leaves
/// \p Site untouched on an unknown name.
bool parseSiteName(const std::string &Name, InjectSite &Site);

/// Deterministic per-site injection scheduler.
class Injector {
public:
  /// The status an injected crash exits with: the one a SIGKILLed child's
  /// wait status maps to (128 + 9), so supervisors cannot tell an injected
  /// crash from a real kill.
  static constexpr int CrashExitCode = 137;

  Injector() = default;
  Injector(const Injector &) = delete;
  Injector &operator=(const Injector &) = delete;

  /// The process-wide injector that crash points consult, armed from
  /// ILDP_CRASH_SCHEDULE (if set) the first time it is reached; a spec
  /// naming a fault site arms nothing there, because nothing consults
  /// this injector at fault sites. Thread-safe.
  static Injector &process();

  /// Arms sites per a schedule spec (see file comment). An unknown site,
  /// a malformed clause, or (with \p CrashSitesOnly) a fault site rejects
  /// the whole spec and arms nothing: a typo must not silently disable
  /// one clause of a chaos schedule.
  bool armFromSpec(const std::string &Spec, bool CrashSitesOnly = false);

  /// Hits [First, First + Count) of \p Site fire.
  void armRange(InjectSite Site, uint64_t First, uint64_t Count);
  /// Every hit fires.
  void armAlways(InjectSite Site) { armRange(Site, 0, UINT64_MAX); }
  /// The first \p Count hits fire; later hits pass.
  void armCount(InjectSite Site, uint64_t Count) { armRange(Site, 0, Count); }
  /// A hit fires iff a seeded hash of its index lands under
  /// \p Numerator / \p Denominator.
  void armRandom(InjectSite Site, uint64_t Seed, uint64_t Numerator,
                 uint64_t Denominator);
  /// Stops \p Site from firing. Hit/fired counters are preserved.
  void disarm(InjectSite Site);

  /// Counts a hit at \p Site and reports whether the schedule fires.
  /// Thread-safe. Never exits: crashPoint() does that.
  bool fire(InjectSite Site);

  /// Times the site was reached / times it fired.
  uint64_t hitCount(InjectSite Site) const;
  uint64_t firedCount(InjectSite Site) const;
  /// Total fires across all sites.
  uint64_t totalFired() const;
  /// Zeroes all hit/fired counters (arming is untouched).
  void resetCounts();
  /// True once any site has been armed.
  bool armed() const { return AnyArmed.load(std::memory_order_relaxed); }

private:
  enum class Mode : uint8_t { Off, Range, Random };

  struct Site {
    std::atomic<Mode> M{Mode::Off};
    uint64_t Param = 0; ///< First hit for Range, numerator for Random.
    uint64_t Span = 1;  ///< Count for Range, denominator for Random.
    uint64_t Seed = 0;
    std::atomic<uint64_t> Hits{0};
    std::atomic<uint64_t> Fired{0};
  };

  void arm(InjectSite S, Mode M, uint64_t Param, uint64_t Span,
           uint64_t Seed);

  std::array<Site, NumInjectSites> Sites;
  std::atomic<bool> AnyArmed{false};
};

/// A fault site's one-liner: true when an injector is attached and fires.
inline bool injected(Injector *I, InjectSite Site) {
  return I && I->fire(Site);
}

/// Exits the process with Injector::CrashExitCode, without unwinding.
[[noreturn]] void crashProcess();

/// The persist/serve layers' one-liner: counts a hit on the process-wide
/// injector and dies there if it fires. A process with no
/// ILDP_CRASH_SCHEDULE pays a relaxed load.
inline void crashPoint(InjectSite Site) {
  Injector &I = Injector::process();
  if (I.armed() && I.fire(Site))
    crashProcess();
}

} // namespace support
} // namespace ildp

#endif // ILDP_SUPPORT_INJECTOR_H
