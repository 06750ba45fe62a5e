//===- core/CodeGen.h - I-ISA / straightened-Alpha code generation --------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Emits the fragment body from an analyzed micro-op list:
///
///   - **Basic** backend: one-GPR-per-instruction code with explicit
///     copy-to-GPR instructions for every global value (Section 2.1),
///   - **Modified** backend: destination-GPR fields carry architected
///     state; only copy-from-GPR instructions remain (Section 2.3),
///   - **Straight** backend: Alpha-equivalent code (the paper's
///     code-straightening-only DBT/simulator).
///
/// plus fragment chaining (Section 3.2): the set-VPC-base prologue,
/// conditional side exits, terminal branches, the three-instruction
/// software jump prediction sequence using load-embedded-target-address,
/// the dual-address-RAS return, and the PEI table for precise traps. A
/// side exit or terminal branch is emitted only with its V-target: it is
/// chained when taken exactly when that target is resident in the
/// translation cache, so codegen needs no view of the cache.
///
//===----------------------------------------------------------------------===//

#ifndef ILDP_CORE_CODEGEN_H
#define ILDP_CORE_CODEGEN_H

#include "core/Config.h"
#include "core/Fragment.h"
#include "core/Lowering.h"
#include "core/StrandAlloc.h"
#include "core/TranslateStatus.h"

namespace ildp {
namespace dbt {

/// Generates the fragment body for \p Sb. \p Block must have been analyzed
/// (analyzeUsage) and, for the accumulator backends, allocated
/// (formStrandsAndAllocate); pass \p Alloc as nullptr for the straightening
/// backend. Fails with a typed status (scratch exhaustion, body over
/// DbtConfig::MaxFragmentBytes, internal invariant violations) instead of
/// asserting.
Expected<Fragment> generateCode(const Superblock &Sb,
                                const LoweredBlock &Block,
                                const StrandAllocResult *Alloc,
                                const DbtConfig &Config);

/// Empty argument of the older three- and five-argument forms of
/// translate() and generateCode(), which the repo benchmark's probes still
/// call; it carries nothing, since linkage is no longer decided at
/// translation time.
struct ChainEnv {};

inline Expected<Fragment> generateCode(const Superblock &Sb,
                                       const LoweredBlock &Block,
                                       const StrandAllocResult *Alloc,
                                       const DbtConfig &Config,
                                       const ChainEnv &) {
  return generateCode(Sb, Block, Alloc, Config);
}

} // namespace dbt
} // namespace ildp

#endif // ILDP_CORE_CODEGEN_H
