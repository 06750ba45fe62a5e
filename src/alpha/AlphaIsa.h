//===- alpha/AlphaIsa.h - Alpha (V-ISA) instruction set definition --------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Defines the Alpha AXP integer subset used as the paper's virtual ISA
/// (V-ISA). The subset covers everything the SPEC CPU2000 integer stand-in
/// workloads need: integer operate instructions (arithmetic, logical,
/// shift, compare, conditional move, multiply, byte manipulation), the BWX
/// byte/word loads and stores, longword/quadword loads and stores, LDA/LDAH
/// address formation, all conditional branches, BR/BSR, the JMP/JSR/RET
/// register-indirect group, and CALL_PAL (HALT and GENTRAP).
///
/// Floating point is intentionally omitted: the paper evaluates SPEC INT
/// only (Section 4.1).
///
/// Primary opcodes and function codes follow the Alpha Architecture
/// Handbook so that encodings round-trip through real Alpha bit layouts.
///
//===----------------------------------------------------------------------===//

#ifndef ILDP_ALPHA_ALPHAISA_H
#define ILDP_ALPHA_ALPHAISA_H

#include <cassert>
#include <cstdint>

namespace ildp {
namespace alpha {

/// Number of architected integer registers. R31 reads as zero and discards
/// writes.
constexpr unsigned NumGprs = 32;
constexpr uint8_t RegZero = 31;
/// Standard Alpha software conventions used by the workloads.
constexpr uint8_t RegV0 = 0;    ///< Return value.
constexpr uint8_t RegRA = 26;   ///< Return address.
constexpr uint8_t RegPV = 27;   ///< Procedure value (indirect call target).
constexpr uint8_t RegGP = 29;   ///< Global pointer.
constexpr uint8_t RegSP = 30;   ///< Stack pointer.

/// Instruction word size in bytes; all Alpha instructions are 32 bits.
constexpr unsigned InstBytes = 4;

/// The five Alpha encoding formats we implement.
enum class Format : uint8_t {
  Mem,     ///< opcode ra rb disp16 (loads, stores, LDA/LDAH).
  Branch,  ///< opcode ra disp21 (conditional branches, BR, BSR).
  Operate, ///< opcode ra rb/lit func rc (integer operates).
  Jump,    ///< opcode 0x1A: ra rb type hint (JMP/JSR/RET).
  Pal,     ///< opcode 0x00: CALL_PAL func26.
};

/// Semantic classification used by the interpreter, the translator's
/// operand analysis, and the timing models.
enum class InstKind : uint8_t {
  IntOp,      ///< Single-cycle integer operate (incl. LDA/LDAH).
  Mul,        ///< Integer multiply (long latency).
  CondMove,   ///< CMOVxx: reads Ra (condition), Rb/lit, and old Rc.
  Load,       ///< Memory load.
  Store,      ///< Memory store.
  CondBranch, ///< Conditional branch on Ra.
  Br,         ///< Unconditional direct branch (BR), writes return address.
  Bsr,        ///< Direct call (BSR), writes return address.
  Jmp,        ///< Register-indirect jump.
  Jsr,        ///< Register-indirect call.
  Ret,        ///< Register-indirect return.
  Pal,        ///< CALL_PAL.
};

/// PALcode function codes recognized by the VM.
enum PalFunc : uint32_t {
  PalHalt = 0x0000,    ///< Terminate the guest program.
  PalGentrap = 0x00AA, ///< Explicit software trap (used by trap tests).
};

/// Jump-format type field (bits 15:14 of the hint).
enum JumpType : uint16_t {
  JumpTypeJmp = 0,
  JumpTypeJsr = 1,
  JumpTypeRet = 2,
};

// The master opcode list.
//
// ALPHA_OPCODE(Enum, Mnemonic, Format, Kind, PrimaryOp, Func, MemSize,
//              MemSigned)
//   Func: operate function code, jump type, or 0.
//   MemSize: access bytes for loads/stores, else 0.
//   MemSigned: load result sign-extended (LDL) vs zero-extended.
#define ILDP_ALPHA_OPCODES(X)                                                  \
  /* Memory-format address arithmetic. */                                      \
  X(LDA, "lda", Mem, IntOp, 0x08, 0, 0, false)                                 \
  X(LDAH, "ldah", Mem, IntOp, 0x09, 0, 0, false)                               \
  /* Loads. */                                                                 \
  X(LDBU, "ldbu", Mem, Load, 0x0A, 0, 1, false)                                \
  X(LDWU, "ldwu", Mem, Load, 0x0C, 0, 2, false)                                \
  X(LDL, "ldl", Mem, Load, 0x28, 0, 4, true)                                   \
  X(LDQ, "ldq", Mem, Load, 0x29, 0, 8, false)                                  \
  /* Stores. */                                                                \
  X(STB, "stb", Mem, Store, 0x0E, 0, 1, false)                                 \
  X(STW, "stw", Mem, Store, 0x0D, 0, 2, false)                                 \
  X(STL, "stl", Mem, Store, 0x2C, 0, 4, false)                                 \
  X(STQ, "stq", Mem, Store, 0x2D, 0, 8, false)                                 \
  /* Branch format. */                                                         \
  X(BR, "br", Branch, Br, 0x30, 0, 0, false)                                   \
  X(BSR, "bsr", Branch, Bsr, 0x34, 0, 0, false)                                \
  X(BLBC, "blbc", Branch, CondBranch, 0x38, 0, 0, false)                       \
  X(BEQ, "beq", Branch, CondBranch, 0x39, 0, 0, false)                         \
  X(BLT, "blt", Branch, CondBranch, 0x3A, 0, 0, false)                         \
  X(BLE, "ble", Branch, CondBranch, 0x3B, 0, 0, false)                         \
  X(BLBS, "blbs", Branch, CondBranch, 0x3C, 0, 0, false)                       \
  X(BNE, "bne", Branch, CondBranch, 0x3D, 0, 0, false)                         \
  X(BGE, "bge", Branch, CondBranch, 0x3E, 0, 0, false)                         \
  X(BGT, "bgt", Branch, CondBranch, 0x3F, 0, 0, false)                         \
  /* Jump format (opcode 0x1A, type in hint bits 15:14). */                    \
  X(JMP, "jmp", Jump, Jmp, 0x1A, JumpTypeJmp, 0, false)                        \
  X(JSR, "jsr", Jump, Jsr, 0x1A, JumpTypeJsr, 0, false)                        \
  X(RET, "ret", Jump, Ret, 0x1A, JumpTypeRet, 0, false)                        \
  /* INTA: opcode 0x10. */                                                     \
  X(ADDL, "addl", Operate, IntOp, 0x10, 0x00, 0, false)                        \
  X(S4ADDL, "s4addl", Operate, IntOp, 0x10, 0x02, 0, false)                    \
  X(SUBL, "subl", Operate, IntOp, 0x10, 0x09, 0, false)                        \
  X(S4SUBL, "s4subl", Operate, IntOp, 0x10, 0x0B, 0, false)                    \
  X(CMPBGE, "cmpbge", Operate, IntOp, 0x10, 0x0F, 0, false)                    \
  X(S8ADDL, "s8addl", Operate, IntOp, 0x10, 0x12, 0, false)                    \
  X(S8SUBL, "s8subl", Operate, IntOp, 0x10, 0x1B, 0, false)                    \
  X(CMPULT, "cmpult", Operate, IntOp, 0x10, 0x1D, 0, false)                    \
  X(ADDQ, "addq", Operate, IntOp, 0x10, 0x20, 0, false)                        \
  X(S4ADDQ, "s4addq", Operate, IntOp, 0x10, 0x22, 0, false)                    \
  X(SUBQ, "subq", Operate, IntOp, 0x10, 0x29, 0, false)                        \
  X(S4SUBQ, "s4subq", Operate, IntOp, 0x10, 0x2B, 0, false)                    \
  X(CMPEQ, "cmpeq", Operate, IntOp, 0x10, 0x2D, 0, false)                      \
  X(S8ADDQ, "s8addq", Operate, IntOp, 0x10, 0x32, 0, false)                    \
  X(S8SUBQ, "s8subq", Operate, IntOp, 0x10, 0x3B, 0, false)                    \
  X(CMPULE, "cmpule", Operate, IntOp, 0x10, 0x3D, 0, false)                    \
  X(CMPLT, "cmplt", Operate, IntOp, 0x10, 0x4D, 0, false)                      \
  X(CMPLE, "cmple", Operate, IntOp, 0x10, 0x6D, 0, false)                      \
  /* INTL: opcode 0x11. */                                                     \
  X(AND, "and", Operate, IntOp, 0x11, 0x00, 0, false)                          \
  X(BIC, "bic", Operate, IntOp, 0x11, 0x08, 0, false)                          \
  X(CMOVLBS, "cmovlbs", Operate, CondMove, 0x11, 0x14, 0, false)               \
  X(CMOVLBC, "cmovlbc", Operate, CondMove, 0x11, 0x16, 0, false)               \
  X(BIS, "bis", Operate, IntOp, 0x11, 0x20, 0, false)                          \
  X(CMOVEQ, "cmoveq", Operate, CondMove, 0x11, 0x24, 0, false)                 \
  X(CMOVNE, "cmovne", Operate, CondMove, 0x11, 0x26, 0, false)                 \
  X(ORNOT, "ornot", Operate, IntOp, 0x11, 0x28, 0, false)                      \
  X(XOR, "xor", Operate, IntOp, 0x11, 0x40, 0, false)                          \
  X(CMOVLT, "cmovlt", Operate, CondMove, 0x11, 0x44, 0, false)                 \
  X(CMOVGE, "cmovge", Operate, CondMove, 0x11, 0x46, 0, false)                 \
  X(EQV, "eqv", Operate, IntOp, 0x11, 0x48, 0, false)                          \
  X(CMOVLE, "cmovle", Operate, CondMove, 0x11, 0x64, 0, false)                 \
  X(CMOVGT, "cmovgt", Operate, CondMove, 0x11, 0x66, 0, false)                 \
  /* INTS: opcode 0x12 (shift / byte manipulation). */                         \
  X(MSKBL, "mskbl", Operate, IntOp, 0x12, 0x02, 0, false)                      \
  X(EXTBL, "extbl", Operate, IntOp, 0x12, 0x06, 0, false)                      \
  X(INSBL, "insbl", Operate, IntOp, 0x12, 0x0B, 0, false)                      \
  X(EXTWL, "extwl", Operate, IntOp, 0x12, 0x16, 0, false)                      \
  X(ZAP, "zap", Operate, IntOp, 0x12, 0x30, 0, false)                          \
  X(ZAPNOT, "zapnot", Operate, IntOp, 0x12, 0x31, 0, false)                    \
  X(SRL, "srl", Operate, IntOp, 0x12, 0x34, 0, false)                          \
  X(SLL, "sll", Operate, IntOp, 0x12, 0x39, 0, false)                          \
  X(SRA, "sra", Operate, IntOp, 0x12, 0x3C, 0, false)                          \
  /* INTM: opcode 0x13. */                                                     \
  X(MULL, "mull", Operate, Mul, 0x13, 0x00, 0, false)                          \
  X(MULQ, "mulq", Operate, Mul, 0x13, 0x20, 0, false)                          \
  X(UMULH, "umulh", Operate, Mul, 0x13, 0x30, 0, false)                        \
  /* FPTI/CIX: opcode 0x1C (sign extension, population counts). */             \
  X(SEXTB, "sextb", Operate, IntOp, 0x1C, 0x00, 0, false)                      \
  X(SEXTW, "sextw", Operate, IntOp, 0x1C, 0x01, 0, false)                      \
  X(CTPOP, "ctpop", Operate, IntOp, 0x1C, 0x30, 0, false)                      \
  X(CTLZ, "ctlz", Operate, IntOp, 0x1C, 0x32, 0, false)                        \
  X(CTTZ, "cttz", Operate, IntOp, 0x1C, 0x33, 0, false)                        \
  /* CALL_PAL. */                                                              \
  X(CALL_PAL, "call_pal", Pal, Pal, 0x00, 0, 0, false)

/// Semantic opcodes of the supported Alpha subset.
enum class Opcode : uint8_t {
#define ILDP_ALPHA_ENUM(Enum, Mnemonic, Form, Kind, Prim, Func, Size, Signed) \
  Enum,
  ILDP_ALPHA_OPCODES(ILDP_ALPHA_ENUM)
#undef ILDP_ALPHA_ENUM
  Invalid,
};

constexpr unsigned NumOpcodes = static_cast<unsigned>(Opcode::Invalid);

/// Static per-opcode properties.
struct OpInfo {
  const char *Mnemonic;
  Format Form;
  InstKind Kind;
  uint8_t PrimaryOpcode;
  uint16_t Function; ///< Operate function code, or jump type field.
  uint8_t MemSize;   ///< Bytes accessed (loads/stores), else 0.
  bool MemSigned;    ///< Load result is sign-extended.
};

namespace detail {
inline constexpr OpInfo OpInfos[] = {
#define ILDP_ALPHA_INFO(Enum, Mnemonic, Form, Kind, Prim, Func, Size, Signed) \
  {Mnemonic, Format::Form, InstKind::Kind, Prim, Func, Size, Signed},
    ILDP_ALPHA_OPCODES(ILDP_ALPHA_INFO)
#undef ILDP_ALPHA_INFO
};
} // namespace detail

/// Returns the static properties of \p Op. \p Op must be valid. Inline:
/// every interpreter and executor step consults it.
inline const OpInfo &getOpInfo(Opcode Op) {
  assert(Op != Opcode::Invalid && "No info for invalid opcode");
  return detail::OpInfos[static_cast<unsigned>(Op)];
}

/// Returns the mnemonic of \p Op ("invalid" for Opcode::Invalid).
const char *getMnemonic(Opcode Op);

/// Returns the conventional register name ("v0", "t0", ..., "zero").
const char *getRegName(unsigned Reg);

// Convenience kind queries (valid for any Opcode, including Invalid).
bool isLoad(Opcode Op);
bool isStore(Opcode Op);
bool isMemory(Opcode Op);
bool isCondBranch(Opcode Op);
/// BR or BSR.
bool isDirectBranch(Opcode Op);
/// JMP, JSR, or RET.
bool isIndirectBranch(Opcode Op);
/// Any control transfer (cond branch, BR/BSR, JMP/JSR/RET, CALL_PAL).
bool isControl(Opcode Op);
/// BSR or JSR (pushes a return address in the software convention).
bool isCall(Opcode Op);
inline bool isCondMove(Opcode Op) {
  return Op != Opcode::Invalid && getOpInfo(Op).Kind == InstKind::CondMove;
}
inline bool isMul(Opcode Op) {
  return Op != Opcode::Invalid && getOpInfo(Op).Kind == InstKind::Mul;
}
/// Potentially excepting instruction: may raise a precise trap
/// (memory access or CALL_PAL GENTRAP).
bool isPei(Opcode Op);

} // namespace alpha
} // namespace ildp

#endif // ILDP_ALPHA_ALPHAISA_H
