//===- iisa/Executor.h - I-ISA functional executor ------------------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Functional execution of translated I-ISA code. The executor runs one
/// fragment body (a linear array of IisaInst) until an exit or trap,
/// updating accumulators, the GPR file, and guest memory, and optionally
/// recording per-instruction events for the timing models.
///
/// Arithmetic goes through alpha::evalIntOp and friends, which call the
/// one definition of each operation in alpha/AlphaOps.h — the functions
/// the reference interpreter and natively compiled fragments call too —
/// so architected-state equivalence between interpreted and translated
/// execution is a matter of translation correctness only, never of
/// divergent operator semantics.
///
//===----------------------------------------------------------------------===//

#ifndef ILDP_IISA_EXECUTOR_H
#define ILDP_IISA_EXECUTOR_H

#include "iisa/IisaInst.h"
#include "interp/ArchState.h"
#include "interp/Interpreter.h"
#include "mem/GuestMemory.h"

#include <cstdint>
#include <vector>

namespace ildp {
namespace iisa {

/// Implementation (I-ISA level) machine state.
struct IExecState {
  std::array<uint64_t, MaxAccumulators> Acc{};
  /// The I-ISA GPR file (64 registers; 0..31 mirror the V-ISA GPRs, 32..63
  /// are VM scratch). In the basic ISA only copy-to-GPR instructions write
  /// it; in the modified ISA every producer with a destination GPR does.
  /// Register 31 is hardwired to zero.
  std::array<uint64_t, NumIisaGprs> Gpr{};
  uint64_t VpcBase = 0; ///< Special register written by set_vpc_base.

  uint64_t readGpr(unsigned Reg) const {
    return Reg == alpha::RegZero ? 0 : Gpr[Reg];
  }
  void writeGpr(unsigned Reg, uint64_t Value) {
    if (Reg != alpha::RegZero)
      Gpr[Reg] = Value;
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
      Gpr[Reg] = State.readGpr(Reg);
  }
};

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

/// Executes \p Insts (a fragment body of \p Count instructions) starting at
/// index 0 until an exit, appending one IisaEvent per executed instruction
/// to \p Events when non-null.
IExit execute(const IisaInst *Insts, size_t Count, IExecState &State,
              GuestMemory &Mem, std::vector<IisaEvent> *Events);

} // namespace iisa
} // namespace ildp

#endif // ILDP_IISA_EXECUTOR_H
