//===- core/Superblock.h - Recorded hot-path superblocks ------------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The unit of translation (Section 3.1): a superblock — a single-entry,
/// multiple-exit instruction sequence recorded along the interpreted hot
/// path (a variant of Dynamo's Most Recently Executed Tail heuristic).
///
//===----------------------------------------------------------------------===//

#ifndef ILDP_CORE_SUPERBLOCK_H
#define ILDP_CORE_SUPERBLOCK_H

#include "alpha/AlphaInst.h"

#include <cstdint>
#include <vector>

namespace ildp {
namespace dbt {

/// One source instruction captured during recording.
struct SourceInst {
  uint64_t VAddr = 0;
  alpha::AlphaInst Inst;
  bool Taken = false;     ///< Control transfers: direction during recording.
  uint64_t NextVAddr = 0; ///< The address actually executed next.
};

/// Why recording stopped (Section 3.1's fragment-ending conditions).
enum class SbEndReason : uint8_t {
  IndirectJump,  ///< JMP or JSR.
  Return,        ///< RET.
  Trap,          ///< CALL_PAL (HALT or GENTRAP).
  BackwardTaken, ///< Backward taken conditional branch.
  Cycle,         ///< Already-collected instruction reached again.
  MaxSize,       ///< Size limit reached.
  Aborted,       ///< Recording hit a trap/fault mid-path (discarded tail).
};

/// A recorded superblock.
struct Superblock {
  uint64_t EntryVAddr = 0;
  std::vector<SourceInst> Insts;
  SbEndReason End = SbEndReason::MaxSize;
  /// The V-ISA address control flowed to after the final instruction.
  uint64_t FinalNextVAddr = 0;
};

} // namespace dbt
} // namespace ildp

#endif // ILDP_CORE_SUPERBLOCK_H
