//===- core/FaultInjector.h - Deterministic translation fault injection ---===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic, seedable fault injection for the guarded translation
/// pipeline (DESIGN.md §9). Each named site sits at one pipeline boundary:
/// the stage functions call shouldFail() on entry and bail out with
/// TranslateStatus::InjectedFault when the site fires. Sites:
///
///   Decode        - translate() input validation
///   Lowering      - lower()
///   Usage         - analyzeUsage()
///   StrandAlloc   - formStrandsAndAllocate()
///   CodeGen       - generateCode() body emission
///   Assemble      - generateCode() encoding/sizing pass
///   PersistImport - VM warm-start import of a persisted cache file
///   EvictSelect   - TranslationCache victim selection under a byte budget
///   Unchain       - TranslationCache exit unchaining during an eviction
///   NativeCompile - VM native tier-up, before a compile is submitted
///   NativeLoad    - dlopen/attach of a compiled native module
///
/// A fire at either eviction site aborts the eviction sequence; the cache
/// degrades to a wholesale flush rather than risking half-torn-down
/// linkage (DESIGN.md §10).
///
/// All counters are atomic: one injector may be shared by the VMs of a
/// fleet, each running on its own scheduler worker. Firing decisions
/// depend only on the per-site hit index, so a single-VM run is exactly
/// reproducible; with several VMs the *set* of fired hits is still
/// deterministic per site even though their interleaving is not.
///
/// The injector is test/bench machinery: a VM without one attached
/// (DbtConfig::Fault == nullptr) never pays more than a null-pointer check
/// per stage.
///
//===----------------------------------------------------------------------===//

#ifndef ILDP_CORE_FAULTINJECTOR_H
#define ILDP_CORE_FAULTINJECTOR_H

#include <array>
#include <atomic>
#include <cstdint>

namespace ildp {
namespace dbt {

/// Named injection sites, one per guarded pipeline boundary.
enum class FaultSite : uint8_t {
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
};

constexpr unsigned NumFaultSites = 11;

/// Stable lowercase site name ("decode", "strand_alloc", ...).
const char *getFaultSiteName(FaultSite Site);

/// Deterministic per-site fault scheduler.
class FaultInjector {
public:
  FaultInjector() = default;
  FaultInjector(const FaultInjector &) = delete;
  FaultInjector &operator=(const FaultInjector &) = delete;

  /// Every pass through \p Site fails.
  void armAlways(FaultSite Site);
  /// The first \p Count passes through \p Site fail; later passes succeed.
  void armCount(FaultSite Site, uint64_t Count);
  /// A pass fails iff a seeded hash of its hit index lands under
  /// \p Numerator / \p Denominator (deterministic pseudo-random schedule).
  void armRandom(FaultSite Site, uint64_t Seed, uint64_t Numerator,
                 uint64_t Denominator);
  /// Stops \p Site from firing. Hit/fired counters are preserved.
  void disarm(FaultSite Site);

  /// Called by the pipeline at \p Site: counts the hit and reports whether
  /// the scheduled fault fires. Thread-safe.
  bool shouldFail(FaultSite Site);

  /// Times the site was reached / times it fired.
  uint64_t hitCount(FaultSite Site) const;
  uint64_t firedCount(FaultSite Site) const;
  /// Total fires across all sites.
  uint64_t totalFired() const;
  /// Zeroes all hit/fired counters (arming is untouched).
  void resetCounts();

private:
  enum class Mode : uint8_t { Off, Always, Count, Random };

  struct Site {
    std::atomic<Mode> M{Mode::Off};
    uint64_t Param = 0; ///< Count limit, or numerator for Random.
    uint64_t Denom = 1;
    uint64_t Seed = 0;
    std::atomic<uint64_t> Hits{0};
    std::atomic<uint64_t> Fired{0};
  };

  std::array<Site, NumFaultSites> Sites;
};

} // namespace dbt
} // namespace ildp

#endif // ILDP_CORE_FAULTINJECTOR_H
