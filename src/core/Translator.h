//===- core/Translator.h - Translation pipeline orchestration -------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs the full translation pipeline on a recorded superblock:
/// lowering -> usage identification -> strand formation & accumulator
/// assignment -> code generation, and accounts the translation cost in
/// "translator instructions" the way the paper measures it with Atom
/// (Section 4.2: on average about 1,125 Alpha instructions to translate
/// one Alpha instruction, ~20% of it spent copying translated-instruction
/// structures into the translation cache field by field).
///
//===----------------------------------------------------------------------===//

#ifndef ILDP_CORE_TRANSLATOR_H
#define ILDP_CORE_TRANSLATOR_H

#include "core/CodeGen.h"
#include "core/Config.h"
#include "core/Fragment.h"
#include "core/Superblock.h"
#include "core/TranslateStatus.h"
#include "support/Statistics.h"

namespace ildp {
namespace dbt {

/// Per-phase translation-cost accounting, in translator instructions.
/// The constants are calibrated so a typical translation lands near the
/// paper's measured magnitude; the per-benchmark variation comes from real
/// structural differences (uop expansion, chaining).
struct TranslationCost {
  uint64_t Decode = 0;     ///< Source fetch/decode during recording.
  uint64_t Analysis = 0;   ///< Dependence/usage identification.
  uint64_t Strands = 0;    ///< Strand formation + accumulator assignment.
  uint64_t CodeGen = 0;    ///< Instruction selection/emission.
  uint64_t CacheCopy = 0;  ///< Field-by-field fragment copy (Section 4.2).
  uint64_t Chaining = 0;   ///< Direct-exit bookkeeping.
  uint64_t Overhead = 0;   ///< Per-fragment fixed bookkeeping.

  uint64_t total() const {
    return Decode + Analysis + Strands + CodeGen + CacheCopy + Chaining +
           Overhead;
  }
  void addTo(StatisticSet &Stats) const;
};

/// Result of translating one superblock.
struct TranslationResult {
  Fragment Frag;
  TranslationCost Cost;
  unsigned Uops = 0;
  unsigned Strands = 0;
  unsigned Spills = 0;
  unsigned PreCopies = 0;
  unsigned TrapPromotions = 0;
};

/// Translates \p Sb under \p Config. Every pipeline stage is guarded:
/// malformed superblocks, resource exhaustion, internal invariant
/// violations, and injected faults surface as a typed failure — the caller
/// falls back to interpretation (DESIGN.md §9) — and never abort.
Expected<TranslationResult> translate(const Superblock &Sb,
                                      const DbtConfig &Config);

/// The older form (see ChainEnv).
inline Expected<TranslationResult>
translate(const Superblock &Sb, const DbtConfig &Config, const ChainEnv &) {
  return translate(Sb, Config);
}

} // namespace dbt
} // namespace ildp

#endif // ILDP_CORE_TRANSLATOR_H
