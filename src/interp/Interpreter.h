//===- interp/Interpreter.h - Functional Alpha interpreter ----------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The functional Alpha interpreter: the reference V-ISA semantics. The
/// co-designed VM runs it during the interpret/profile stage (paper Section
/// 3.1) and every translated-code backend is validated against it.
///
/// step() reports everything the profiler and superblock recorder need:
/// the decoded instruction, control-flow outcome, and memory address. Traps
/// (memory faults, GENTRAP, illegal instructions) are reported precisely —
/// architected state is left exactly as of the trapping instruction.
///
/// Decoded instructions live in per-page arrays indexed by
/// (pc & 4095) / 4, each slot decoded lazily on its first execution,
/// behind a one-entry last-page cache (DESIGN.md §16). Decoding a slot
/// also specialises it into a SlotOp: run() is a threaded loop over those
/// ops and defers to step() — the reference — for any instruction that
/// traps, halts, fails to decode, or is the final step.
///
//===----------------------------------------------------------------------===//

#ifndef ILDP_INTERP_INTERPRETER_H
#define ILDP_INTERP_INTERPRETER_H

#include "alpha/AlphaInst.h"
#include "interp/ArchState.h"
#include "mem/GuestMemory.h"

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>

// C-compatible; only its opcode lists are used here.
#include "alpha/AlphaOps.h"

namespace ildp {

/// Why execution stopped or what a step produced.
enum class StepStatus : uint8_t {
  Ok,      ///< Instruction retired normally.
  Halted,  ///< CALL_PAL HALT retired; program finished.
  Trapped, ///< The instruction raised a precise trap.
};

/// Precise trap descriptor.
enum class TrapKind : uint8_t {
  None,
  MemUnmapped,  ///< Load/store to an unmapped page.
  MemUnaligned, ///< Misaligned load/store.
  FetchFault,   ///< Instruction fetch failed.
  IllegalInst,  ///< Undecodable instruction word.
  Gentrap,      ///< CALL_PAL GENTRAP.
};

struct Trap {
  TrapKind Kind = TrapKind::None;
  uint64_t Pc = 0;      ///< V-ISA address of the trapping instruction.
  uint64_t MemAddr = 0; ///< Faulting address for memory traps.
};

/// Canonical trap for a failed guest memory access. BadSize means the
/// instruction asked for an impossible access width — an illegal
/// encoding, not a memory-management fault.
inline TrapKind trapKindForMemFault(MemFaultKind Fault) {
  switch (Fault) {
  case MemFaultKind::Unmapped:
    return TrapKind::MemUnmapped;
  case MemFaultKind::Unaligned:
    return TrapKind::MemUnaligned;
  default:
    return TrapKind::IllegalInst;
  }
}

/// Everything one retired (or trapped) instruction did.
struct StepInfo {
  StepStatus Status = StepStatus::Ok;
  uint64_t Pc = 0;
  alpha::AlphaInst Inst;
  uint64_t NextPc = 0;   ///< Actual successor PC (valid when Status==Ok).
  bool IsControl = false;
  bool Taken = false;    ///< For control transfers: was it taken?
  uint64_t MemAddr = 0;  ///< Effective address for loads/stores.
  Trap TrapInfo;
};

/// Handler of one decoded slot in run()'s threaded loop. Every integer
/// operation and conditional move has a register (_RR) and an immediate
/// (_RI) shape; the memory-format LDA and LDAH only ever take _RI.
enum class SlotCode : uint8_t {
  Undecoded, ///< Not decoded yet (a zeroed op).
#define ILDP_SLOT_SHAPES(M) M##_RR, M##_RI,
  ILDP_INT_OPS(ILDP_SLOT_SHAPES) ILDP_CMOV_OPS(ILDP_SLOT_SHAPES)
#undef ILDP_SLOT_SHAPES
#define ILDP_SLOT_BRANCH(M) M,
  ILDP_BRANCH_OPS(ILDP_SLOT_BRANCH)
#undef ILDP_SLOT_BRANCH
  LDBU, LDWU, LDL, LDQ, STB, STW, STL, STQ,
  Br,      ///< BR and BSR.
  Jump,    ///< JMP and JSR.
  Ret,
  Slow,    ///< CALL_PAL and invalid words: step() executes them.
  PageEnd, ///< The sentinel after a page's last slot.
};

constexpr unsigned NumSlotCodes = unsigned(SlotCode::PageEnd) + 1;

/// One decoded slot, specialised for run(): the handler code, register
/// numbers and an immediate. A source r31 reads register 31, which the
/// loop holds at zero; a destination r31 is SlotSinkReg. Field use:
///  - operate, cmov: D = op(A, B or Imm), Imm the literal;
///  - LDA/LDAH: D = op(A, Imm), A the base, Imm the displacement;
///  - load: D = [B + Imm]; store: [B + Imm] = A;
///  - conditional branch, BR/BSR: test A (link to D), Imm the displacement
///    in instructions; JMP/JSR/RET: target B (link to D, except RET).
struct SlotOp {
  SlotCode Code = SlotCode::Undecoded;
  uint8_t A = 0;
  uint8_t B = 0;
  uint8_t D = 0;
  int32_t Imm = 0;
};
static_assert(sizeof(SlotOp) == 8, "a decoded page grows by 8 bytes a slot");

/// The register file index run() writes for a destination r31.
constexpr uint8_t SlotSinkReg = alpha::NumGprs;

/// The op run() executes for \p Inst.
SlotOp specialiseSlot(const alpha::AlphaInst &Inst);

/// Functional Alpha interpreter over a GuestMemory image.
class Interpreter {
public:
  explicit Interpreter(GuestMemory &Mem) : Mem(Mem) {}

  ArchState &state() { return State; }
  const ArchState &state() const { return State; }
  GuestMemory &memory() { return Mem; }

  /// Executes one instruction at State.Pc. On StepStatus::Ok, State.Pc has
  /// advanced to the successor. On Trapped, architected state (including
  /// Pc) is left at the trapping instruction.
  StepInfo step();

  /// Runs until HALT, a trap, or \p MaxSteps instructions.
  /// Returns the last StepInfo (Status Ok means MaxSteps was hit).
  StepInfo run(uint64_t MaxSteps);

  /// Number of instructions retired by this interpreter so far.
  uint64_t retiredCount() const { return Retired; }

  /// Decodes the instruction at \p Addr via the decode cache (shared with
  /// the superblock recorder so decode work is not repeated). Returns
  /// nullptr when the fetch faults. A slot is decoded once, at its first
  /// use: later stores to that word are not observed.
  const alpha::AlphaInst *decodeAt(uint64_t Addr) {
    uint64_t PageIndex = Addr >> GuestMemory::PageShift;
    unsigned Slot = unsigned(Addr & (GuestMemory::PageSize - 1)) >> 2;
    if (PageIndex == LastPageIndex && (Addr & 3) == 0 &&
        LastPage->Ops[Slot].Code != SlotCode::Undecoded)
      return &LastPage->Insts[Slot];
    return decodeSlow(Addr);
  }

private:
  static constexpr unsigned SlotsPerPage =
      unsigned(GuestMemory::PageSize / alpha::InstBytes);

  /// Decoded instructions of one guest page, and their ops: a slot is
  /// decoded when its op is not Undecoded. The op after the last slot is
  /// the PageEnd sentinel, so falling off the page needs no bounds test.
  struct DecodedPage {
    std::array<alpha::AlphaInst, SlotsPerPage> Insts;
    std::array<SlotOp, SlotsPerPage + 1> Ops{};

    DecodedPage() { Ops[SlotsPerPage].Code = SlotCode::PageEnd; }
  };

  const alpha::AlphaInst *decodeSlow(uint64_t Addr);
  /// The decoded page of \p PageIndex, or nullptr; refills the last-page
  /// cache.
  DecodedPage *findPage(uint64_t PageIndex);
  /// The ops of the page holding \p Addr, decoding \p Addr's slot when
  /// the page is new; nullptr when that fetch faults.
  const SlotOp *pageOps(uint64_t Addr);
  /// Retires up to \p Limit instructions from State.Pc through the ops and
  /// returns how many. It stops before any instruction it does not
  /// complete (a trap, a halt, a fetch fault), having written nothing for
  /// it, so step() re-executes that one from the same state.
  uint64_t runOps(uint64_t Limit);

  GuestMemory &Mem;
  ArchState State;
  uint64_t Retired = 0;
  std::unordered_map<uint64_t, std::unique_ptr<DecodedPage>> DecodePages;
  /// One-entry cache over DecodePages (NoPage when empty).
  static constexpr uint64_t NoPage = ~uint64_t(0);
  uint64_t LastPageIndex = NoPage;
  DecodedPage *LastPage = nullptr;
};

} // namespace ildp

#endif // ILDP_INTERP_INTERPRETER_H
