//===- iisa/Executor.h - I-ISA functional executor ------------------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Functional execution of translated I-ISA code, in two steps:
///
///  - lowerToOps() turns a fragment body (a linear array of IisaInst) once
///    into a parallel array of pre-specialised ops: one op per body
///    instruction, its OpCode chosen per kind x Alpha opcode x operand
///    shape (register or immediate), with register numbers resolved to
///    slots of the state's one register file and immediates, displacements
///    and load widths resolved into the op. TranslationCache::install()
///    does this for every fragment it admits (DESIGN.md §16).
///  - execute() runs those ops from index 0 until an exit or trap,
///    updating accumulators, the GPR file and guest memory, and, when
///    given an event sink, recording one event per executed instruction
///    for the timing models. The recording and the event-free runs are
///    two instantiations of the one threaded loop in iisa/ExecutorLoop.h,
///    whose chaining instantiation the VM runs (DESIGN.md §16).
///
/// Exit ops read VTarget and the chained/call-translator flavour from the
/// live body instruction, so patching or unchaining an exit updates only
/// the IisaInst, exactly as for natively compiled fragments.
///
/// Arithmetic calls the one definition of each operation in
/// alpha/AlphaOps.h — the functions the reference interpreter and natively
/// compiled fragments call too — so architected-state equivalence between
/// interpreted and translated execution is a matter of translation
/// correctness only, never of divergent operator semantics.
///
//===----------------------------------------------------------------------===//

#ifndef ILDP_IISA_EXECUTOR_H
#define ILDP_IISA_EXECUTOR_H

#include "alpha/Semantics.h"
#include "iisa/IisaInst.h"
#include "interp/ArchState.h"
#include "interp/Interpreter.h"
#include "mem/GuestMemory.h"

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace ildp {
namespace iisa {

/// Implementation (I-ISA level) machine state: the accumulators, the GPR
/// file, the VPC-base register, a slot that always reads zero and a slot
/// that absorbs discarded writes, all in one indexed array. Lowered ops
/// name registers by slot, so reading r31, writing r31 and a missing
/// destination are plain array accesses.
struct IExecState {
  static constexpr unsigned AccSlot0 = 0;
  static constexpr unsigned GprSlot0 = AccSlot0 + MaxAccumulators;
  static constexpr unsigned VpcBaseSlot = GprSlot0 + NumIisaGprs;
  static constexpr unsigned ZeroSlot = VpcBaseSlot + 1;
  static constexpr unsigned SinkSlot = ZeroSlot + 1;
  static constexpr unsigned NumSlots = SinkSlot + 1;

  std::array<uint64_t, NumSlots> Slots{};

  /// The accumulators.
  std::span<uint64_t, MaxAccumulators> acc() {
    return std::span(Slots).subspan<AccSlot0, MaxAccumulators>();
  }
  std::span<const uint64_t, MaxAccumulators> acc() const {
    return std::span(Slots).subspan<AccSlot0, MaxAccumulators>();
  }
  /// The I-ISA GPR file (64 registers; 0..31 mirror the V-ISA GPRs, 32..63
  /// are VM scratch). In the basic ISA only copy-to-GPR instructions write
  /// it; in the modified ISA every producer with a destination GPR does.
  /// Register 31 is hardwired to zero: ops never write it.
  std::span<uint64_t, NumIisaGprs> gpr() {
    return std::span(Slots).subspan<GprSlot0, NumIisaGprs>();
  }
  std::span<const uint64_t, NumIisaGprs> gpr() const {
    return std::span(Slots).subspan<GprSlot0, NumIisaGprs>();
  }
  /// Special register written by set_vpc_base.
  uint64_t &vpcBase() { return Slots[VpcBaseSlot]; }
  uint64_t vpcBase() const { return Slots[VpcBaseSlot]; }

  uint64_t readGpr(unsigned Reg) const {
    return Reg == alpha::RegZero ? 0 : gpr()[Reg];
  }
  void writeGpr(unsigned Reg, uint64_t Value) {
    if (Reg != alpha::RegZero)
      gpr()[Reg] = Value;
  }

  /// Extracts the V-ISA-visible register portion (GPRs 0..31).
  ArchState toArchState() const {
    ArchState State;
    for (unsigned Reg = 0; Reg != alpha::NumGprs; ++Reg)
      State.Gpr[Reg] = readGpr(Reg);
    return State;
  }

  /// Seeds GPRs 0..31 from a V-ISA architected state (fragment entry).
  void loadArchState(const ArchState &State) {
    for (unsigned Reg = 0; Reg != alpha::NumGprs; ++Reg)
      gpr()[Reg] = State.readGpr(Reg);
  }
};

/// Pre-specialised operation codes. Shape suffixes: _RR both inputs are
/// slots, _RI the B input is the op's immediate, _IR the A input is.
/// Instructions whose inputs are all immediates fold into Const; a
/// conditional move or conditional exit on an immediate condition folds
/// into the move, keep or branch it always performs.
enum class OpCode : uint8_t {
#define ILDP_OPCODE_SHAPES(M) M##_RR, M##_RI, M##_IR,
  ILDP_INT_OPS(ILDP_OPCODE_SHAPES)
#undef ILDP_OPCODE_SHAPES
// Whole conditional moves (straightening backend): dest <- cond(A) ? B :
// old, the old value in slot C.
#define ILDP_OPCODE_SHAPES(M) M##_R, M##_I,
  ILDP_CMOV_OPS(ILDP_OPCODE_SHAPES)
#undef ILDP_OPCODE_SHAPES
// cmov_mask: dest <- cond(A) ? ~0 : 0.
#define ILDP_OPCODE_MASK(M) Mask##M,
  ILDP_CMOV_OPS(ILDP_OPCODE_MASK)
#undef ILDP_OPCODE_MASK
// cond_exit on A.
#define ILDP_OPCODE_EXIT(M) Exit##M,
  ILDP_BRANCH_OPS(ILDP_OPCODE_EXIT)
#undef ILDP_OPCODE_EXIT
  BlendR, ///< cmov_blend: dest <- A ? B : old (slot C).
  BlendI, ///< cmov_blend with an immediate new value.
  LoadLDBU, ///< Loads: dest <- extend(mem[B + Imm]).
  LoadLDWU,
  LoadLDL,
  LoadLDQ,
  StoreSTB_R, ///< Stores: mem[B + Imm] <- A (_R) or ImmA (_I).
  StoreSTB_I,
  StoreSTW_R,
  StoreSTW_I,
  StoreSTL_R,
  StoreSTL_I,
  StoreSTQ_R,
  StoreSTQ_I,
  Move,  ///< dest <- A (copies, folded conditional moves).
  Const, ///< dest <- Imm (embedded addresses, VPC base, folded compute).
  Nop,   ///< push_dual_ras, never-taken cond_exit.
  Branch, ///< Direct exit (branch, always-taken cond_exit).
  /// Indirect exits: the condition is A | ImmA, the actual target
  /// (B + Imm) & ~3.
  JumpPredict,
  JumpDispatch,
  ReturnDual,
  Halt,
  Gentrap,
  /// Never reached by a well-formed body: the slot after the last body
  /// instruction, and any instruction whose kind and opcode disagree.
  Bad,
};

/// Number of op codes (OpCode::Bad is the last).
constexpr unsigned NumOpCodes = unsigned(OpCode::Bad) + 1;

/// One pre-specialised op. Slots index IExecState::Slots; a destination
/// the instruction does not write is SinkSlot.
struct IOp {
  OpCode Code = OpCode::Bad;
  uint8_t A = IExecState::ZeroSlot; ///< First input slot.
  uint8_t B = IExecState::ZeroSlot; ///< Second input slot (address base).
  uint8_t C = IExecState::ZeroSlot; ///< Old value of a conditional move.
  uint8_t DA = IExecState::SinkSlot; ///< Accumulator destination slot.
  uint8_t DG = IExecState::SinkSlot; ///< GPR destination slot.
  uint64_t Imm = 0;  ///< B immediate, constant, or address displacement.
  uint64_t ImmA = 0; ///< A immediate (_IR shapes, immediate store data).

  bool operator==(const IOp &) const = default;
};
static_assert(sizeof(IOp) <= 24, "keep lowered ops small");

/// Lowers a fragment body into Body.size() + 1 ops: op i is body
/// instruction i, and a final OpCode::Bad guards the end of the body.
/// Native code is generated from these ops too (native/NativeEmitter.cpp):
/// a change to what a body lowers to bumps NativeEmitterVersion.
std::vector<IOp> lowerToOps(std::span<const IisaInst> Body);

/// One executed-instruction record for trace-driven timing simulation.
struct IisaEvent {
  uint32_t Index = 0;    ///< Index into the fragment body.
  bool Taken = false;    ///< cond_exit outcome.
  uint64_t MemAddr = 0;  ///< Effective address for loads/stores.
};

/// How fragment execution ended.
struct IExit {
  enum class Kind : uint8_t {
    Chained,      ///< Direct exit to a known V-target (branch/cond_exit).
    ToTranslator, ///< call-translator exit (target not yet translated).
    PredictHit,   ///< Software jump prediction matched; VTarget=predicted.
    PredictMiss,  ///< Prediction failed; VTarget=actual, via dispatch.
    Dispatch,     ///< no_pred indirect jump; VTarget=actual, via dispatch.
    Return,       ///< Dual-RAS return; VTarget=actual V-ISA return address.
    Halt,         ///< Guest executed HALT.
    Trap,         ///< Precise trap (memory fault or GENTRAP).
  };
  Kind K = Kind::Halt;
  uint64_t VTarget = 0;
  uint32_t InstIndex = 0; ///< Index of the exiting/trapping instruction.
  Trap TrapInfo;          ///< Valid when K == Trap (Pc filled in by the VM
                          ///< via the PEI table).
};

/// Runs \p Ops, lowered from \p Body, from index 0 until an exit, appending
/// one IisaEvent per executed instruction to \p Events when non-null.
/// Exits read VTarget and ToTranslator from \p Body.
IExit execute(const IOp *Ops, const IisaInst *Body, IExecState &State,
              GuestMemory &Mem, std::vector<IisaEvent> *Events);

} // namespace iisa
} // namespace ildp

#endif // ILDP_IISA_EXECUTOR_H
