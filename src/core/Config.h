//===- core/Config.h - DBT configuration ----------------------------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Configuration of the dynamic binary translation system: ISA variant,
/// fragment-formation parameters (Section 4.1: superblock size 200, hot
/// threshold 50, four logical accumulators), chaining policy (Section 4.3),
/// and the memory-split ablation knob (Section 4.5 discusses not splitting
/// memory instructions).
///
//===----------------------------------------------------------------------===//

#ifndef ILDP_CORE_CONFIG_H
#define ILDP_CORE_CONFIG_H

#include "iisa/IisaInst.h"

#include <cstdint>

namespace ildp {
namespace support {
class Injector;
}
namespace dbt {

/// Fragment chaining policies evaluated in Section 4.3 / Figure 4.
enum class ChainPolicy : uint8_t {
  NoPred,      ///< Indirect jumps always branch to the shared dispatch code.
  SwPredNoRas, ///< Software jump-target prediction; returns treated like
               ///< other indirect jumps (compare-and-branch).
  SwPredRas,   ///< Software prediction plus the proposed dual-address
               ///< hardware RAS for returns (the paper's baseline).
};

/// Parameters of the translator.
struct DbtConfig {
  iisa::IsaVariant Variant = iisa::IsaVariant::Modified;
  ChainPolicy Chaining = ChainPolicy::SwPredRas;
  /// Hot-threshold for trace-start candidate counters (Section 4.1).
  unsigned HotThreshold = 50;
  /// Maximum superblock size in source instructions (Section 4.1).
  unsigned MaxSuperblockInsts = 200;
  /// Number of logical accumulators (4 in the baseline; 8 in Figure 9).
  unsigned NumAccumulators = 4;
  /// Decompose displacement-carrying memory operations into an address add
  /// plus a zero-displacement access (Section 2.1). Turning this off is the
  /// Section 4.5 ablation.
  bool SplitMemoryOps = true;
  /// Modified ISA only: decompose conditional moves into two instructions
  /// (cmov_mask + cmov_blend, using the readable destination-GPR field for
  /// the third operand) as the paper describes, instead of the generic
  /// four-operation mask/and/bic/bis expansion the basic ISA requires.
  bool CmovTwoOp = true;
  /// Upper bound on the encoded fragment body, in bytes; translation bails
  /// out with TranslateStatus::FragmentTooLarge beyond it. Generous by
  /// default (a 200-instruction superblock encodes far below this); tests
  /// shrink it to exercise the bailout path. The VM clamps this to
  /// VmConfig::CodeCacheBytes when a cache budget is set, so no single
  /// fragment can ever exceed the whole cache. Like Fault, not part of the
  /// persisted-cache config fingerprint: it changes *whether* a fragment
  /// exists, never its contents.
  uint32_t MaxFragmentBytes = 1u << 16;
  /// Deterministic fault injection for tests/benches (DESIGN.md §9/§10):
  /// the injector consulted at every fault site; non-owning, may be null.
  /// Not part of the persisted-cache config fingerprint: injected faults
  /// change *whether* a fragment exists, never its contents.
  support::Injector *Fault = nullptr;
};

const char *getChainPolicyName(ChainPolicy Policy);
const char *getVariantName(iisa::IsaVariant Variant);

} // namespace dbt
} // namespace ildp

#endif // ILDP_CORE_CONFIG_H
