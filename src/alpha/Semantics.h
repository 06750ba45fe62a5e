//===- alpha/Semantics.h - Pure Alpha operation semantics -----------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pure (state-free) semantics of the Alpha integer operations, as the
/// C++ switch over alpha::Opcode. Every case calls the one definition of
/// that operation in alpha/AlphaOps.h; the switches are generated from
/// that header's opcode lists. The functional interpreter and the I-ISA
/// executor evaluate through these switches, and natively compiled
/// fragments call the same functions from the embedded header, so every
/// tier computes with the same arithmetic as the V-ISA reference.
///
/// Everything is defined inline: these run once per interpreted and per
/// translated instruction, and out-of-line calls cost about a quarter of
/// I-ISA execution time.
///
//===----------------------------------------------------------------------===//

#ifndef ILDP_ALPHA_SEMANTICS_H
#define ILDP_ALPHA_SEMANTICS_H

#include "alpha/AlphaIsa.h"

#include <cassert>
#include <cstdint>

// C-compatible; its functions live in the global namespace.
#include "alpha/AlphaOps.h"

namespace ildp {
namespace alpha {

/// Evaluates an integer operate instruction (INTA/INTL/INTS/INTM/CIX group,
/// i.e. InstKind IntOp or Mul) on operand values \p A (Ra) and \p B (Rb or
/// zero-extended literal). LDA/LDAH are also accepted with \p A the base
/// register value and \p B the (pre-scaled) displacement.
inline uint64_t evalIntOp(Opcode Op, uint64_t A, uint64_t B) {
  switch (Op) {
#define ILDP_EVAL_CASE(M)                                                      \
  case Opcode::M:                                                              \
    return ::ildp_op_##M(A, B);
    ILDP_INT_OPS(ILDP_EVAL_CASE)
#undef ILDP_EVAL_CASE
  default:
    assert(false && "evalIntOp: not an integer operate opcode");
    return 0;
  }
}

/// Evaluates a conditional branch predicate on the Ra value.
inline bool evalBranchCond(Opcode Op, uint64_t RaValue) {
  switch (Op) {
#define ILDP_EVAL_CASE(M)                                                      \
  case Opcode::M:                                                              \
    return ::ildp_br_##M(RaValue);
    ILDP_BRANCH_OPS(ILDP_EVAL_CASE)
#undef ILDP_EVAL_CASE
  default:
    assert(false && "evalBranchCond: not a conditional branch");
    return false;
  }
}

/// Evaluates a conditional-move predicate on the Ra value.
inline bool evalCmovCond(Opcode Op, uint64_t RaValue) {
  switch (Op) {
#define ILDP_EVAL_CASE(M)                                                      \
  case Opcode::M:                                                              \
    return ::ildp_cmov_##M(RaValue);
    ILDP_CMOV_OPS(ILDP_EVAL_CASE)
#undef ILDP_EVAL_CASE
  default:
    assert(false && "evalCmovCond: not a conditional move");
    return false;
  }
}

/// Extends a loaded value per the load opcode's size/signedness.
inline uint64_t extendLoadedValue(Opcode Op, uint64_t Raw) {
  const OpInfo &Info = getOpInfo(Op);
  assert(Info.Kind == InstKind::Load && "Not a load");
  if (!Info.MemSigned)
    return Raw;
  switch (Info.MemSize) {
  case 4:
    return ::ildp_sextl(Raw);
  default:
    assert(false && "Unexpected signed load size");
    return Raw;
  }
}

} // namespace alpha
} // namespace ildp

#endif // ILDP_ALPHA_SEMANTICS_H
