//===- tests/interp/RunSemanticsTest.cpp ----------------------------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Interpreter run-loop semantics: the MaxSteps boundary, retired-count
/// accounting, precise-trap state and resumability, and decode-cache
/// behaviour. These are the contracts the VM's interpret/profile stage
/// and the trap-recovery path rely on. run() has its own lean loop; the
/// equivalence tests below hold it to N calls of step(), the reference.
///
//===----------------------------------------------------------------------===//

#include "alpha/Assembler.h"
#include "alpha/Decoder.h"
#include "interp/Interpreter.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace ildp;
using namespace ildp::alpha;
using Op = Opcode;

namespace {

GuestMemory loadProgram(const Assembler &Asm, std::vector<uint32_t> Words) {
  GuestMemory Mem;
  for (size_t I = 0; I != Words.size(); ++I)
    Mem.poke32(Asm.baseAddr() + I * 4, Words[I]);
  return Mem;
}

/// Counting loop: r9 += 1, N iterations, then HALT.
Assembler makeCountLoop(unsigned Iters) {
  Assembler Asm(0x10000);
  Asm.loadImm(17, Iters);
  auto L = Asm.createLabel("l");
  Asm.bind(L);
  Asm.operatei(Op::ADDQ, 9, 1, 9);
  Asm.operatei(Op::SUBL, 17, 1, 17);
  Asm.condBr(Op::BNE, 17, L);
  Asm.halt();
  return Asm;
}

} // namespace

TEST(RunSemantics, RunStopsExactlyAtMaxSteps) {
  Assembler Asm = makeCountLoop(100);
  GuestMemory Mem = loadProgram(Asm, Asm.finalize());
  Interpreter Interp(Mem);
  Interp.state().Pc = 0x10000;
  StepInfo Last = Interp.run(7);
  EXPECT_EQ(Last.Status, StepStatus::Ok); // Budget hit, not HALT.
  EXPECT_EQ(Interp.retiredCount(), 7u);
  // The next step continues from exactly where run() stopped.
  EXPECT_EQ(Interp.state().Pc, Last.NextPc);
}

TEST(RunSemantics, RunIsResumableToCompletion) {
  Assembler Asm = makeCountLoop(50);
  std::vector<uint32_t> Words = Asm.finalize();
  GuestMemory MemA = loadProgram(Asm, Words);
  GuestMemory MemB = loadProgram(Asm, Words);

  // One big run and many small runs must retire the same instruction
  // count and produce the same architected state.
  Interpreter Whole(MemA);
  Whole.state().Pc = 0x10000;
  StepInfo End = Whole.run(1'000'000);
  ASSERT_EQ(End.Status, StepStatus::Halted);

  Interpreter Chunked(MemB);
  Chunked.state().Pc = 0x10000;
  StepInfo Last;
  do {
    Last = Chunked.run(13);
  } while (Last.Status == StepStatus::Ok);
  ASSERT_EQ(Last.Status, StepStatus::Halted);

  EXPECT_EQ(Whole.retiredCount(), Chunked.retiredCount());
  for (unsigned Reg = 0; Reg != NumGprs; ++Reg)
    EXPECT_EQ(Whole.state().readGpr(Reg), Chunked.state().readGpr(Reg))
        << "r" << Reg;
}

TEST(RunSemantics, TrapLeavesStateAtFaultingInstruction) {
  Assembler Asm(0x10000);
  Asm.operatei(Op::ADDQ, 9, 5, 9); // Retires.
  Asm.loadImm(16, 0x900000);       // Unmapped address.
  Asm.ldq(3, 0, 16);               // Traps.
  Asm.halt();
  GuestMemory Mem = loadProgram(Asm, Asm.finalize());
  Interpreter Interp(Mem);
  Interp.state().Pc = 0x10000;
  StepInfo Last = Interp.run(100);
  ASSERT_EQ(Last.Status, StepStatus::Trapped);
  EXPECT_EQ(Last.TrapInfo.Kind, TrapKind::MemUnmapped);
  EXPECT_EQ(Last.TrapInfo.MemAddr, 0x900000u);
  // Precise: PC points at the faulting load, r3 unmodified, the ADDQ's
  // effect is visible.
  EXPECT_EQ(Interp.state().Pc, Last.TrapInfo.Pc);
  EXPECT_EQ(Interp.state().readGpr(3), 0u);
  EXPECT_EQ(Interp.state().readGpr(9), 5u);
}

TEST(RunSemantics, TrapDoesNotRetireAndIsResumableAfterMapping) {
  // The OS-style recovery pattern: map the faulting page and re-execute
  // the same instruction.
  Assembler Asm(0x10000);
  Asm.loadImm(16, 0x80000);
  Asm.ldq(3, 8, 16);
  Asm.halt();
  GuestMemory Mem = loadProgram(Asm, Asm.finalize());
  Interpreter Interp(Mem);
  Interp.state().Pc = 0x10000;
  StepInfo Last = Interp.run(100);
  ASSERT_EQ(Last.Status, StepStatus::Trapped);
  uint64_t RetiredAtTrap = Interp.retiredCount();

  Mem.mapRegion(0x80000, 0x1000);
  Mem.poke64(0x80008, 0xDEADBEEFull);
  Last = Interp.run(100);
  ASSERT_EQ(Last.Status, StepStatus::Halted);
  EXPECT_EQ(Interp.state().readGpr(3), 0xDEADBEEFull);
  // The faulting attempt itself retired nothing; the re-execution did.
  EXPECT_GT(Interp.retiredCount(), RetiredAtTrap);
}

TEST(RunSemantics, UnalignedAccessTrapsPrecisely) {
  Assembler Asm(0x10000);
  Asm.loadImm(16, 0x20001); // Odd address.
  Asm.ldq(3, 0, 16);
  Asm.halt();
  GuestMemory Mem = loadProgram(Asm, Asm.finalize());
  Mem.mapRegion(0x20000, 0x1000);
  Interpreter Interp(Mem);
  Interp.state().Pc = 0x10000;
  StepInfo Last = Interp.run(100);
  ASSERT_EQ(Last.Status, StepStatus::Trapped);
  EXPECT_EQ(Last.TrapInfo.Kind, TrapKind::MemUnaligned);
  EXPECT_EQ(Last.TrapInfo.MemAddr, 0x20001u);
}

TEST(RunSemantics, FetchFromUnmappedMemoryTraps) {
  GuestMemory Mem;
  Interpreter Interp(Mem);
  Interp.state().Pc = 0x500000; // Nothing mapped there.
  StepInfo Last = Interp.step();
  ASSERT_EQ(Last.Status, StepStatus::Trapped);
  EXPECT_EQ(Last.TrapInfo.Kind, TrapKind::FetchFault);
  EXPECT_EQ(Interp.state().Pc, 0x500000u);
}

TEST(RunSemantics, DecodeCacheReturnsConsistentInstruction) {
  Assembler Asm = makeCountLoop(3);
  GuestMemory Mem = loadProgram(Asm, Asm.finalize());
  Interpreter Interp(Mem);
  const AlphaInst *First = Interp.decodeAt(0x10000);
  ASSERT_NE(First, nullptr);
  Opcode Op0 = First->Op;
  // Repeated decode of the same address yields the same decoded fields
  // (and, with the cache, the same storage).
  const AlphaInst *Second = Interp.decodeAt(0x10000);
  ASSERT_NE(Second, nullptr);
  EXPECT_EQ(Second, First);
  EXPECT_EQ(Second->Op, Op0);
}

TEST(RunSemantics, StepInfoReportsControlFlowOutcomes) {
  Assembler Asm = makeCountLoop(2);
  GuestMemory Mem = loadProgram(Asm, Asm.finalize());
  Interpreter Interp(Mem);
  Interp.state().Pc = 0x10000;
  bool SawTaken = false;
  bool SawNotTaken = false;
  for (;;) {
    StepInfo Info = Interp.step();
    if (Info.Status != StepStatus::Ok)
      break;
    if (Info.IsControl && Info.Inst.Op == Op::BNE) {
      if (Info.Taken) {
        SawTaken = true;
        EXPECT_NE(Info.NextPc, Info.Pc + 4);
      } else {
        SawNotTaken = true;
        EXPECT_EQ(Info.NextPc, Info.Pc + 4);
      }
    }
  }
  EXPECT_TRUE(SawTaken);    // First iteration branches back.
  EXPECT_TRUE(SawNotTaken); // Final iteration falls through.
}

TEST(RunSemantics, MemAddrReportedForLoadsAndStores) {
  Assembler Asm(0x10000);
  Asm.loadImm(16, 0x20010);
  Asm.stq(9, 8, 16); // Effective address 0x20018.
  Asm.ldq(3, 8, 16);
  Asm.halt();
  GuestMemory Mem = loadProgram(Asm, Asm.finalize());
  Mem.mapRegion(0x20000, 0x1000);
  Interpreter Interp(Mem);
  Interp.state().Pc = 0x10000;
  std::vector<uint64_t> Addrs;
  for (;;) {
    StepInfo Info = Interp.step();
    if (Info.Status != StepStatus::Ok)
      break;
    if (Info.Inst.info().Kind == InstKind::Load ||
        Info.Inst.info().Kind == InstKind::Store)
      Addrs.push_back(Info.MemAddr);
  }
  ASSERT_EQ(Addrs.size(), 2u);
  EXPECT_EQ(Addrs[0], 0x20018u);
  EXPECT_EQ(Addrs[1], 0x20018u);
}

// ---- run(N) == N x step() ----

namespace {

void expectSameStep(const StepInfo &A, const StepInfo &B) {
  EXPECT_EQ(A.Status, B.Status);
  EXPECT_EQ(A.Pc, B.Pc);
  EXPECT_EQ(A.NextPc, B.NextPc);
  EXPECT_EQ(A.IsControl, B.IsControl);
  EXPECT_EQ(A.Taken, B.Taken);
  EXPECT_EQ(A.MemAddr, B.MemAddr);
  EXPECT_EQ(A.TrapInfo.Kind, B.TrapInfo.Kind);
  EXPECT_EQ(A.TrapInfo.Pc, B.TrapInfo.Pc);
  EXPECT_EQ(A.TrapInfo.MemAddr, B.TrapInfo.MemAddr);
  EXPECT_EQ(A.Inst.Op, B.Inst.Op);
  EXPECT_EQ(A.Inst.Ra, B.Inst.Ra);
  EXPECT_EQ(A.Inst.Rb, B.Inst.Rb);
  EXPECT_EQ(A.Inst.Rc, B.Inst.Rc);
  EXPECT_EQ(A.Inst.HasLit, B.Inst.HasLit);
  EXPECT_EQ(A.Inst.Lit, B.Inst.Lit);
  EXPECT_EQ(A.Inst.Disp, B.Inst.Disp);
  EXPECT_EQ(A.Inst.JumpHint, B.Inst.JumpHint);
  EXPECT_EQ(A.Inst.PalFunc, B.Inst.PalFunc);
}

/// A workload image, optionally with one instruction word replaced.
struct Image {
  GuestMemory Mem;
  uint64_t Entry = 0;
};

Image buildImage(const std::string &Name, uint64_t PatchPc = 0,
                 uint32_t PatchWord = 0) {
  Image Img;
  Img.Entry = workloads::buildWorkload(Name, Img.Mem, 1).EntryPc;
  if (PatchPc)
    Img.Mem.poke32(PatchPc, PatchWord);
  return Img;
}

/// Runs \p Budget steps both ways over identical images and compares the
/// final state, the retired count, and the StepInfo run() returns with the
/// one the last step() call returned, which it returns.
StepInfo expectRunMatchesSteps(const std::string &Name, uint64_t Budget,
                               uint64_t PatchPc = 0, uint32_t PatchWord = 0) {
  SCOPED_TRACE(Name + " budget " + std::to_string(Budget));
  Image A = buildImage(Name, PatchPc, PatchWord);
  Image B = buildImage(Name, PatchPc, PatchWord);
  Interpreter Stepper(A.Mem), Runner(B.Mem);
  Stepper.state().Pc = A.Entry;
  Runner.state().Pc = B.Entry;

  StepInfo Last;
  for (uint64_t I = 0; I != Budget; ++I) {
    Last = Stepper.step();
    if (Last.Status != StepStatus::Ok)
      break;
  }
  StepInfo Ran = Runner.run(Budget);
  expectSameStep(Ran, Last);
  EXPECT_EQ(Runner.state(), Stepper.state());
  EXPECT_EQ(Runner.retiredCount(), Stepper.retiredCount());
  return Last;
}

/// step() count to HALT and the PC of instruction number \p Probe.
struct Trace {
  uint64_t Steps = 0;
  uint64_t ProbePc = 0;
};

Trace traceToHalt(const std::string &Name, uint64_t Probe) {
  Image Img = buildImage(Name);
  Interpreter Interp(Img.Mem);
  Interp.state().Pc = Img.Entry;
  Trace T;
  for (;;) {
    StepInfo Info = Interp.step();
    ++T.Steps;
    if (T.Steps == Probe)
      T.ProbePc = Info.Pc;
    if (Info.Status != StepStatus::Ok)
      break;
  }
  return T;
}

/// Steps until \p Pc first executes; returns that step's number (1-based).
uint64_t firstExecution(const std::string &Name, uint64_t Pc) {
  Image Img = buildImage(Name);
  Interpreter Interp(Img.Mem);
  Interp.state().Pc = Img.Entry;
  for (uint64_t N = 1;; ++N) {
    if (Interp.state().Pc == Pc)
      return N;
    if (Interp.step().Status != StepStatus::Ok)
      return 0;
  }
}

uint32_t wordOf(void (*Emit)(Assembler &)) {
  Assembler Asm(0);
  Emit(Asm);
  return Asm.finalize()[0];
}

} // namespace

class RunEquivalence : public ::testing::TestWithParam<std::string> {};

TEST_P(RunEquivalence, BudgetsAroundHaltAndLastStep) {
  const std::string &Name = GetParam();
  Trace T = traceToHalt(Name, 0);
  ASSERT_GT(T.Steps, 3u);
  // HALT is step T.Steps: land exactly on it, just before it (the final
  // step retires Ok), past it, and on ordinary mid-run boundaries.
  for (uint64_t Budget :
       {uint64_t(0), uint64_t(1), uint64_t(2), T.Steps / 3, T.Steps / 2 + 1,
        T.Steps - 1})
    EXPECT_EQ(expectRunMatchesSteps(Name, Budget).Status, StepStatus::Ok);
  for (uint64_t Budget : {T.Steps, T.Steps + 7})
    EXPECT_EQ(expectRunMatchesSteps(Name, Budget).Status, StepStatus::Halted);
}

TEST_P(RunEquivalence, BudgetsLandingOnTraps) {
  const std::string &Name = GetParam();
  Trace T = traceToHalt(Name, 0);
  T = traceToHalt(Name, T.Steps / 2);
  ASSERT_NE(T.ProbePc, 0u);
  // Replace a mid-run instruction with each trapping form; the trap fires
  // at that PC's first execution.
  const uint32_t Traps[] = {
      wordOf([](Assembler &A) { A.gentrap(); }),
      wordOf([](Assembler &A) { A.ldq(1, 8, RegZero); }), // Unmapped.
      wordOf([](Assembler &A) { A.stl(1, 2, RegZero); }), // Unaligned.
      0x04000000u, // Reserved primary opcode 0x01: illegal.
  };
  ASSERT_FALSE(decode(Traps[3]).valid());
  uint64_t TrapStep = firstExecution(Name, T.ProbePc);
  ASSERT_NE(TrapStep, 0u);
  for (uint32_t Word : Traps) {
    SCOPED_TRACE(Word);
    EXPECT_EQ(
        expectRunMatchesSteps(Name, TrapStep - 1, T.ProbePc, Word).Status,
        StepStatus::Ok);
    for (uint64_t Budget : {TrapStep, TrapStep + 1, T.Steps})
      EXPECT_EQ(
          expectRunMatchesSteps(Name, Budget, T.ProbePc, Word).Status,
          StepStatus::Trapped);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, RunEquivalence,
    ::testing::ValuesIn(workloads::workloadNames()),
    [](const ::testing::TestParamInfo<std::string> &Info) {
      return Info.param;
    });

TEST(RunSemantics, StoreToUnexecutedCodeSlotIsDecodedFresh) {
  // The decode cache fills a slot at its first execution, so a guest store
  // into a not-yet-executed slot of an already-executed code page is
  // observed — by step() and run() alike.
  for (bool UseRun : {false, true}) {
    Assembler Asm(0x10000);
    auto Slot = Asm.createLabel("slot");
    Asm.loadLabelAddr(16, Slot);
    Asm.loadImm(2, wordOf([](Assembler &A) {
                  A.operatei(Op::ADDQ, RegZero, 42, 9);
                }));
    Asm.stl(2, 0, 16);
    Asm.bind(Slot);
    Asm.operatei(Op::ADDQ, RegZero, 1, 9); // Overwritten before it runs.
    Asm.halt();
    GuestMemory Mem = loadProgram(Asm, Asm.finalize());
    Interpreter Interp(Mem);
    Interp.state().Pc = 0x10000;
    StepInfo Last;
    if (UseRun) {
      Last = Interp.run(1000);
    } else {
      do
        Last = Interp.step();
      while (Last.Status == StepStatus::Ok);
    }
    ASSERT_EQ(Last.Status, StepStatus::Halted);
    EXPECT_EQ(Interp.state().readGpr(9), 42u);
  }
}

TEST(RunSemantics, StoreToExecutedCodeSlotStaysStale) {
  // The known stale-code hole, kept on purpose until CALL_PAL IMB exists:
  // a slot already decoded keeps executing its first decode.
  for (bool UseRun : {false, true}) {
    Assembler Asm(0x10000);
    auto Slot = Asm.createLabel("slot");
    Asm.loadLabelAddr(16, Slot);
    Asm.loadImm(2, wordOf([](Assembler &A) {
                  A.operatei(Op::ADDQ, 9, 100, 9);
                }));
    Asm.loadImm(17, 2);
    Asm.bind(Slot);
    Asm.operatei(Op::ADDQ, 9, 1, 9);
    Asm.stl(2, 0, 16);
    Asm.operatei(Op::SUBL, 17, 1, 17);
    Asm.condBr(Op::BNE, 17, Slot);
    Asm.halt();
    GuestMemory Mem = loadProgram(Asm, Asm.finalize());
    Interpreter Interp(Mem);
    Interp.state().Pc = 0x10000;
    StepInfo Last;
    if (UseRun) {
      Last = Interp.run(1000);
    } else {
      do
        Last = Interp.step();
      while (Last.Status == StepStatus::Ok);
    }
    ASSERT_EQ(Last.Status, StepStatus::Halted);
    EXPECT_EQ(Interp.state().readGpr(9), 2u);
  }
}
