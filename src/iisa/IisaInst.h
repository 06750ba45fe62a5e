//===- iisa/IisaInst.h - Accumulator-oriented I-ISA instructions ----------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The accumulator-oriented implementation ISA (I-ISA) of the paper, in
/// both its **basic** and **modified** flavors (Sections 2.1 and 2.3):
///
///  - Accumulators (strand identifiers) carry values along chains of
///    dependent instructions; GPRs carry inter-strand communication and
///    architected state.
///  - Basic ISA: an instruction references at most ONE GPR (source or
///    destination); explicit copy-to-GPR / copy-from-GPR instructions move
///    values between the accumulator and GPR domains.
///  - Modified ISA: every value-producing instruction additionally names a
///    destination GPR, which updates the architected (shadow) register
///    file; accumulators degrade to strand identifiers.
///
/// The co-designed special instructions of Section 3.2 are first-class
/// kinds here: set-VPC-base, save-V-ISA-return-address,
/// load-embedded-target-address, push-dual-address-RAS, the dual-address
/// return, and call-translator[-if-condition-is-met].
///
/// Conditional moves are decomposed (the paper's "temp" usage class) into a
/// condition-to-mask instruction plus AND/BIC/BIS blend, keeping every
/// instruction within the ISA's two-input / one-accumulator constraint.
///
//===----------------------------------------------------------------------===//

#ifndef ILDP_IISA_IISAINST_H
#define ILDP_IISA_IISAINST_H

#include "alpha/AlphaIsa.h"

#include <cstdint>
#include <string>

namespace ildp {
namespace iisa {

/// Hardware limit on logical accumulators (the paper evaluates 4 and 8).
constexpr unsigned MaxAccumulators = 8;

/// Size of the I-ISA general-purpose register file. The hierarchical
/// register architecture of Kim & Smith (ISCA 2002) places the accumulators
/// on top of a *larger* GPR file than the V-ISA's 32 registers; registers
/// 32..63 are VM-private scratch registers used for temp spills.
/// Register 31 stays hardwired to zero (simplifies V-ISA mapping).
constexpr unsigned NumIisaGprs = 64;

constexpr uint8_t NoReg = 0xFF;

/// Which translation backend a fragment was generated by.
enum class IsaVariant : uint8_t {
  Basic,    ///< Section 2.1: one GPR per instruction, explicit copies.
  Modified, ///< Section 2.3: per-instruction destination GPR.
  Straight, ///< Code-straightening-only backend: plain Alpha operand rules
            ///< (two source GPRs allowed, no accumulators), used by the
            ///< paper's third DBT/simulator (Section 4.1).
};

/// Instruction kinds of the I-ISA.
enum class IKind : uint8_t {
  Compute,       ///< ALU/shift/multiply with Alpha semantics.
  CmovMask,      ///< acc <- cond(AlphaOp, A) ? ~0 : 0 (CMOV decomposition).
  CmovBlend,     ///< DestGpr <- A(mask) ? B : old DestGpr. The modified
                 ///< ISA's two-instruction conditional-move tail: the
                 ///< readable destination-GPR field supplies the third
                 ///< operand (Section 3.3's "decomposed instructions").
  Load,          ///< dest <- mem[B]; AlphaOp selects size/extension.
  Store,         ///< mem[B] <- A; AlphaOp selects size.
  CopyToGpr,     ///< DestGpr <- A (accumulator-to-GPR state copy).
  CopyFromGpr,   ///< DestAcc <- A (GPR-to-accumulator strand start).
  SetVpcBase,    ///< VPC-base special register <- VTarget (fragment header).
  SaveRetAddr,   ///< DestGpr <- VTarget (embedded V-ISA return address).
  LoadEmbTarget, ///< DestAcc <- VTarget (embedded predicted jump target).
  PushDualRas,   ///< Push (VTarget = V-ISA return, I-ISA return) RAS pair.
  CondExit,      ///< Exit to VTarget if cond(AlphaOp, A) holds.
  Branch,        ///< Unconditional exit to VTarget.
  JumpPredict,   ///< Software-predicted indirect jump: A holds the compare
                 ///< result; exits to VTarget on hit, dispatch on miss.
  JumpDispatch,  ///< Indirect jump straight to the dispatch code; B is the
                 ///< actual target value.
  ReturnDual,    ///< Dual-address-RAS return; B is the actual V-ISA target.
  Halt,          ///< Translated CALL_PAL HALT.
  Gentrap,       ///< Translated CALL_PAL GENTRAP (a PEI).
};

/// Output-value usage classes from the paper's dependence/usage
/// identification step (Section 3.3) plus the two basic-ISA promotion
/// classes of Figure 7.
enum class UsageClass : uint8_t {
  None,          ///< Instruction produces no register value.
  NoUser,        ///< Output overwritten before any use.
  Local,         ///< Used exactly once before being overwritten.
  Temp,          ///< Passed between decomposed instruction halves.
  LiveOutGlobal, ///< Live on superblock exit.
  CommGlobal,    ///< Used more than once inside the superblock.
  SpillGlobal,   ///< Forced global (two-local-input rule or strand spill).
  LocalToGlobal, ///< Basic ISA: local, but saved to GPR for a side exit.
  NoUserToGlobal,///< Basic ISA: no user, but saved to GPR for a side exit.
};

/// One I-ISA instruction operand.
struct IOperand {
  enum class Kind : uint8_t { None, Acc, Gpr, Imm };
  Kind K = Kind::None;
  uint8_t Reg = NoReg; ///< Accumulator or GPR number.
  int64_t Imm = 0;

  static IOperand none() { return {}; }
  static IOperand acc(uint8_t A) {
    return {Kind::Acc, A, 0};
  }
  static IOperand gpr(uint8_t G) {
    return {Kind::Gpr, G, 0};
  }
  static IOperand imm(int64_t V) {
    return {Kind::Imm, NoReg, V};
  }

  bool isNone() const { return K == Kind::None; }
  bool isAcc() const { return K == Kind::Acc; }
  bool isGpr() const { return K == Kind::Gpr; }
  bool isImm() const { return K == Kind::Imm; }
};

/// One decoded I-ISA instruction. Fragments in the translation cache store
/// instructions in this decoded form (the paper's simulator does the same);
/// SizeBytes carries the concrete 2/4/6-byte encoding size assigned by the
/// encoding model so static footprint statistics are meaningful.
struct IisaInst {
  IKind Kind = IKind::Compute;
  /// Semantic payload: the originating Alpha operation for Compute /
  /// CmovMask / Load / Store / CondExit.
  alpha::Opcode AlphaOp = alpha::Opcode::Invalid;

  IOperand A; ///< First input (ALU A, store data, condition source).
  IOperand B; ///< Second input (ALU B, memory address, jump target).

  uint8_t DestAcc = NoReg; ///< Destination accumulator / strand id.
  uint8_t DestGpr = NoReg; ///< Destination GPR (copies; all producers in
                           ///< the modified ISA).
  /// Modified ISA: true when the DestGpr write is architected-state-only
  /// (no later in-fragment reader) and therefore stays off the critical
  /// path (Section 2.3's shadow file).
  bool GprWriteArchOnly = false;

  uint64_t VAddr = 0;   ///< V-ISA address of the source instruction (0 for
                        ///< overhead instructions).
  uint64_t VTarget = 0; ///< Exit target / embedded address.
  int32_t MemDisp = 0;  ///< Displacement (only in no-split-memory mode).
  /// V-ISA instructions retired when this instruction commits (V-IPC
  /// credit). Removed NOPs and straightened-away BRs credit the following
  /// instruction, so V-instruction accounting matches the original program.
  uint8_t VCredit = 0;
  bool IsSourceOp = false;   ///< Derived from a source operation (vs pure
                             ///< translation overhead such as chaining).
  UsageClass Usage = UsageClass::None;
  uint8_t SizeBytes = 0;   ///< Encoded size (2, 4, or 6 bytes).
  int16_t PeiIndex = -1;   ///< Index into the fragment's PEI table.

  bool isExit() const {
    return Kind == IKind::CondExit || Kind == IKind::Branch ||
           Kind == IKind::JumpPredict || Kind == IKind::JumpDispatch ||
           Kind == IKind::ReturnDual || Kind == IKind::Halt ||
           Kind == IKind::Gentrap;
  }

  /// Branch or cond_exit: an exit to the static target VTarget.
  bool isDirectExit() const {
    return Kind == IKind::CondExit || Kind == IKind::Branch;
  }

  bool isMemory() const { return Kind == IKind::Load || Kind == IKind::Store; }

  /// Potentially excepting instruction (needs a PEI table entry).
  bool isPei() const { return isMemory() || Kind == IKind::Gentrap; }

  /// True if the instruction produces an accumulator value.
  bool writesAcc() const { return DestAcc != NoReg; }

  /// True if the instruction writes a GPR.
  bool writesGpr() const { return DestGpr != NoReg; }
};

/// Structural validation of a single instruction against the ISA rules.
/// Returns an empty string when valid, else a description of the violation.
/// Checked rules: at most one accumulator among inputs; the basic ISA's
/// one-GPR-per-instruction limit; kind-specific operand shape.
std::string validate(const IisaInst &Inst, IsaVariant Variant);

/// Human-readable name of an instruction kind.
const char *getKindName(IKind Kind);

/// Human-readable name of a usage class.
const char *getUsageName(UsageClass Usage);

} // namespace iisa
} // namespace ildp

#endif // ILDP_IISA_IISAINST_H
