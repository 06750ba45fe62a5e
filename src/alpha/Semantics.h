//===- alpha/Semantics.h - Pure Alpha operation semantics -----------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pure (state-free) semantics of the Alpha integer operations. The
/// functional interpreter and the I-ISA functional executor both evaluate
/// through these functions, so translated code provably computes with the
/// same arithmetic as the V-ISA reference — a cornerstone of the
/// architected-state-equivalence tests.
///
/// Everything is defined inline: these run once per interpreted and per
/// translated instruction, and out-of-line calls cost about a quarter of
/// I-ISA execution time.
///
//===----------------------------------------------------------------------===//

#ifndef ILDP_ALPHA_SEMANTICS_H
#define ILDP_ALPHA_SEMANTICS_H

#include "alpha/AlphaIsa.h"
#include "support/BitUtil.h"

#include <cassert>
#include <cstdint>

namespace ildp {
namespace alpha {

/// Evaluates an integer operate instruction (INTA/INTL/INTS/INTM/CIX group,
/// i.e. InstKind IntOp or Mul) on operand values \p A (Ra) and \p B (Rb or
/// zero-extended literal). LDA/LDAH are also accepted with \p A the base
/// register value and \p B the (pre-scaled) displacement.
inline uint64_t evalIntOp(Opcode Op, uint64_t A, uint64_t B) {
  switch (Op) {
  // Address formation (memory format, but pure arithmetic).
  case Opcode::LDA:
    return A + B;
  case Opcode::LDAH:
    return A + (B << 16);

  // INTA.
  case Opcode::ADDL:
    return sextLongword(A + B);
  case Opcode::ADDQ:
    return A + B;
  case Opcode::SUBL:
    return sextLongword(A - B);
  case Opcode::SUBQ:
    return A - B;
  case Opcode::S4ADDL:
    return sextLongword(A * 4 + B);
  case Opcode::S4ADDQ:
    return A * 4 + B;
  case Opcode::S8ADDL:
    return sextLongword(A * 8 + B);
  case Opcode::S8ADDQ:
    return A * 8 + B;
  case Opcode::S4SUBL:
    return sextLongword(A * 4 - B);
  case Opcode::S4SUBQ:
    return A * 4 - B;
  case Opcode::S8SUBL:
    return sextLongword(A * 8 - B);
  case Opcode::S8SUBQ:
    return A * 8 - B;
  case Opcode::CMPEQ:
    return A == B ? 1 : 0;
  case Opcode::CMPLT:
    return int64_t(A) < int64_t(B) ? 1 : 0;
  case Opcode::CMPLE:
    return int64_t(A) <= int64_t(B) ? 1 : 0;
  case Opcode::CMPULT:
    return A < B ? 1 : 0;
  case Opcode::CMPULE:
    return A <= B ? 1 : 0;
  case Opcode::CMPBGE: {
    uint64_t Mask = 0;
    for (unsigned I = 0; I != 8; ++I) {
      uint8_t ByteA = uint8_t(A >> (8 * I));
      uint8_t ByteB = uint8_t(B >> (8 * I));
      if (ByteA >= ByteB)
        Mask |= uint64_t(1) << I;
    }
    return Mask;
  }

  // INTL.
  case Opcode::AND:
    return A & B;
  case Opcode::BIC:
    return A & ~B;
  case Opcode::BIS:
    return A | B;
  case Opcode::ORNOT:
    return A | ~B;
  case Opcode::XOR:
    return A ^ B;
  case Opcode::EQV:
    return A ^ ~B;

  // INTS.
  case Opcode::SLL:
    return A << (B & 63);
  case Opcode::SRL:
    return A >> (B & 63);
  case Opcode::SRA:
    return uint64_t(int64_t(A) >> (B & 63));
  case Opcode::ZAP: {
    uint64_t Result = A;
    for (unsigned I = 0; I != 8; ++I)
      if (B & (uint64_t(1) << I))
        Result &= ~(uint64_t(0xFF) << (8 * I));
    return Result;
  }
  case Opcode::ZAPNOT: {
    uint64_t Result = 0;
    for (unsigned I = 0; I != 8; ++I)
      if (B & (uint64_t(1) << I))
        Result |= A & (uint64_t(0xFF) << (8 * I));
    return Result;
  }
  case Opcode::EXTBL:
    return (A >> (8 * (B & 7))) & 0xFF;
  case Opcode::EXTWL:
    return (A >> (8 * (B & 7))) & 0xFFFF;
  case Opcode::INSBL:
    return (A & 0xFF) << (8 * (B & 7));
  case Opcode::MSKBL:
    return A & ~(uint64_t(0xFF) << (8 * (B & 7)));

  // INTM.
  case Opcode::MULL:
    return sextLongword(A * B);
  case Opcode::MULQ:
    return A * B;
  case Opcode::UMULH:
    return uint64_t((unsigned __int128)A * (unsigned __int128)B >> 64);

  // CIX / sign extension.
  case Opcode::SEXTB:
    return uint64_t(int64_t(int8_t(B)));
  case Opcode::SEXTW:
    return uint64_t(int64_t(int16_t(B)));
  case Opcode::CTPOP: {
    uint64_t Count = 0;
    for (uint64_t Value = B; Value; Value &= Value - 1)
      ++Count;
    return Count;
  }
  case Opcode::CTLZ: {
    if (B == 0)
      return 64;
    uint64_t Count = 0;
    for (uint64_t Bit = uint64_t(1) << 63; !(B & Bit); Bit >>= 1)
      ++Count;
    return Count;
  }
  case Opcode::CTTZ: {
    if (B == 0)
      return 64;
    uint64_t Count = 0;
    for (uint64_t Bit = 1; !(B & Bit); Bit <<= 1)
      ++Count;
    return Count;
  }

  default:
    assert(false && "evalIntOp: not an integer operate opcode");
    return 0;
  }
}

/// Evaluates a conditional branch predicate on the Ra value.
inline bool evalBranchCond(Opcode Op, uint64_t RaValue) {
  switch (Op) {
  case Opcode::BEQ:
    return RaValue == 0;
  case Opcode::BNE:
    return RaValue != 0;
  case Opcode::BLT:
    return int64_t(RaValue) < 0;
  case Opcode::BLE:
    return int64_t(RaValue) <= 0;
  case Opcode::BGT:
    return int64_t(RaValue) > 0;
  case Opcode::BGE:
    return int64_t(RaValue) >= 0;
  case Opcode::BLBC:
    return (RaValue & 1) == 0;
  case Opcode::BLBS:
    return (RaValue & 1) != 0;
  default:
    assert(false && "evalBranchCond: not a conditional branch");
    return false;
  }
}

/// Evaluates a conditional-move predicate on the Ra value.
inline bool evalCmovCond(Opcode Op, uint64_t RaValue) {
  switch (Op) {
  case Opcode::CMOVEQ:
    return RaValue == 0;
  case Opcode::CMOVNE:
    return RaValue != 0;
  case Opcode::CMOVLT:
    return int64_t(RaValue) < 0;
  case Opcode::CMOVGE:
    return int64_t(RaValue) >= 0;
  case Opcode::CMOVLE:
    return int64_t(RaValue) <= 0;
  case Opcode::CMOVGT:
    return int64_t(RaValue) > 0;
  case Opcode::CMOVLBS:
    return (RaValue & 1) != 0;
  case Opcode::CMOVLBC:
    return (RaValue & 1) == 0;
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
    return sextLongword(Raw);
  default:
    assert(false && "Unexpected signed load size");
    return Raw;
  }
}

} // namespace alpha
} // namespace ildp

#endif // ILDP_ALPHA_SEMANTICS_H
