//===- core/Fragment.h - Translation cache fragments ----------------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fragment: one translated superblock resident in the translation cache
/// (Sections 3.1-3.2), stored in decoded I-ISA form together with its PEI
/// side table (Section 2.2) and its patchable exit records.
///
/// It also carries its exit accounting: every tier executes a body
/// linearly from index 0, so an exit at body index i has executed exactly
/// instructions 0..i, and everything the VM counts per run (V-instruction
/// credit, copy instructions, source ops, usage classes, dual-RAS pushes)
/// is a pure function of i. TranslationCache::install() precomputes those
/// prefix sums once per fragment; the interpretive and native tiers both
/// account an exit from them (DESIGN.md §16).
///
//===----------------------------------------------------------------------===//

#ifndef ILDP_CORE_FRAGMENT_H
#define ILDP_CORE_FRAGMENT_H

#include "core/Superblock.h"
#include "iisa/Executor.h"
#include "iisa/IisaInst.h"

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

namespace ildp {

namespace native {
class NativeModule;
}

namespace dbt {

/// One potentially-excepting-instruction record. The VM indexes this table
/// with the trapping instruction's fragment offset to find the V-ISA
/// address and to reconstruct architected registers whose current values
/// live only in accumulators (basic ISA).
struct PeiEntry {
  uint32_t InstIndex = 0; ///< Offset of the PEI in the fragment body.
  uint64_t VAddr = 0;     ///< V-ISA address of the source instruction.
  /// Basic ISA: architected registers whose value at this PEI is held in
  /// an accumulator rather than the GPR file: (register, accumulator).
  std::vector<std::pair<uint8_t, uint8_t>> AccHeldRegs;
};

/// A patchable fragment exit (cond_exit or branch instruction).
struct ExitRecord {
  uint32_t InstIndex = 0;
  uint64_t VTarget = 0;
  bool Pending = false; ///< Still a call-translator exit (not yet patched).
};

constexpr size_t NumUsageClasses =
    size_t(iisa::UsageClass::NoUserToGlobal) + 1;

/// Accounting totals over body instructions 0..i inclusive.
struct CumCounters {
  uint32_t VCredit = 0;
  uint32_t CopyInsts = 0;
  uint32_t SourceOps = 0;
  std::array<uint32_t, NumUsageClasses> Usage{};
};

/// Exit accounting of one fragment body (see the file comment).
struct ExitAccounting {
  std::vector<CumCounters> Cum; ///< One entry per body instruction.
  /// push_dual_ras sites: (body index, V-ISA return address), ascending.
  std::vector<std::pair<uint32_t, uint64_t>> RasPushes;
};

struct Fragment;

/// Cached successor of a static exit (a chained branch/cond_exit or a
/// software-prediction hit): valid only while Gen equals the cache's
/// current link generation (TranslationCache::linkGeneration()).
struct SuccessorSlot {
  Fragment *Next = nullptr;
  uint64_t Gen = 0; ///< 0 never matches: generations start at 1.
};

/// A translated superblock in the translation cache.
struct Fragment {
  uint64_t EntryVAddr = 0;
  iisa::IsaVariant Variant = iisa::IsaVariant::Modified;
  std::vector<iisa::IisaInst> Body;
  /// Byte offset of each instruction from IBase (I-PC formation for the
  /// timing models' I-cache and predictors).
  std::vector<uint32_t> InstOffset;
  std::vector<PeiEntry> PeiTable;
  std::vector<ExitRecord> Exits;
  /// Distinct source V-ISA addresses covered (footprint statistics).
  std::vector<uint64_t> SourceVAddrs;

  uint64_t IBase = 0; ///< Translation-cache address, assigned at install.
  uint64_t ExecCount = 0;
  /// Lookup recency stamp, maintained by TranslationCache::lookup() when a
  /// byte budget is set; the exec-weighted-LRU eviction tiebreaker.
  uint64_t LastUseTick = 0;
  unsigned SourceInsts = 0;  ///< Source instructions recorded (incl. NOPs).
  unsigned NopsRemoved = 0;
  unsigned BodyBytes = 0;    ///< Encoded size of the body.

  /// Derived at install (never persisted): the body lowered to the
  /// executor's pre-specialised ops (iisa::lowerToOps), per-exit-index
  /// accounting, and one successor slot per body instruction, used at exit
  /// instructions.
  std::vector<iisa::IOp> Ops;
  ExitAccounting Accounting;
  std::vector<SuccessorSlot> Successors;
  /// Per body instruction: runs that left through this exit, whatever its
  /// kind, whose exit-index accounting is not yet folded into the VM's
  /// counters. Zero whenever the VM is outside translated execution.
  std::vector<uint64_t> ExitHits;

  // Native-tier linkage (src/native). The core library never touches
  // these beyond default construction/destruction; the VM manages them.
  // Holding the module by shared_ptr means the dlopen'd object lives
  // exactly as long as some fragment (here or graveyarded) references it
  // — dlclose rides the reclaim safepoints for free.
  enum : uint8_t { NativeNone = 0, NativePending = 1, NativeFailed = 2 };
  uint64_t NativeKey = 0;   ///< native::fragmentKey(Body), 0 = uncomputed.
  uint8_t NativeState = NativeNone;
  std::shared_ptr<native::NativeModule> Native; ///< Set once compiled+loaded.

  /// I-PC of instruction \p Index.
  uint64_t instPc(size_t Index) const { return IBase + InstOffset[Index]; }

  /// PEI entry for the instruction at \p InstIndex, or nullptr.
  const PeiEntry *findPei(uint32_t InstIndex) const {
    for (const PeiEntry &Entry : PeiTable)
      if (Entry.InstIndex == InstIndex)
        return &Entry;
    return nullptr;
  }
};

} // namespace dbt
} // namespace ildp

#endif // ILDP_CORE_FRAGMENT_H
