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
#include "StepCompare.h"
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

/// Runs \p Budget steps from \p Entry both ways, over \p StepMem and
/// \p RunMem (identical images), and compares the final state, the
/// retired count, and the StepInfo run() returns with the one the last
/// step() call returned, which it returns.
StepInfo expectRunMatchesStepsOn(GuestMemory &StepMem, GuestMemory &RunMem,
                                 uint64_t Entry, uint64_t Budget) {
  Interpreter Stepper(StepMem), Runner(RunMem);
  Stepper.state().Pc = Entry;
  Runner.state().Pc = Entry;

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

/// expectRunMatchesStepsOn over workload \p Name, optionally patched.
StepInfo expectRunMatchesSteps(const std::string &Name, uint64_t Budget,
                               uint64_t PatchPc = 0, uint32_t PatchWord = 0) {
  SCOPED_TRACE(Name + " budget " + std::to_string(Budget));
  Image A = buildImage(Name, PatchPc, PatchWord);
  Image B = buildImage(Name, PatchPc, PatchWord);
  return expectRunMatchesStepsOn(A.Mem, B.Mem, A.Entry, Budget);
}

/// expectRunMatchesStepsOn over \p Asm's program, for \p Budget.
StepInfo expectRunMatchesSteps(const Assembler &Asm,
                               const std::vector<uint32_t> &Words,
                               uint64_t Budget) {
  SCOPED_TRACE("budget " + std::to_string(Budget));
  GuestMemory A = loadProgram(Asm, Words), B = loadProgram(Asm, Words);
  return expectRunMatchesStepsOn(A, B, Asm.baseAddr(), Budget);
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

// ---- Page boundaries: the page-end sentinel, cross-page transfers ----
//
// Synthetic programs: the 12 workloads at scale 1 never execute a page's
// last slot.

namespace {

constexpr uint64_t PageSize = GuestMemory::PageSize;

/// Compares run(B) with B steps for every budget up to past the HALT.
void expectEveryBudgetMatches(const Assembler &Asm,
                              const std::vector<uint32_t> &Words) {
  for (uint64_t Budget = 0;; ++Budget)
    if (expectRunMatchesSteps(Asm, Words, Budget).Status != StepStatus::Ok ||
        ::testing::Test::HasFailure())
      return;
}

} // namespace

TEST(RunSemantics, FallThroughIntoMappedNextPage) {
  // Straight-line code over a page boundary, then a loop whose backward
  // branch crosses it the other way.
  Assembler Asm(0x10000 + PageSize - 12);
  Asm.loadImm(17, 3);
  auto Loop = Asm.createLabel("loop");
  Asm.bind(Loop);
  Asm.operatei(Op::ADDQ, 9, 1, 9); // On the first page.
  Asm.operatei(Op::ADDQ, 10, 2, 10);
  Asm.operatei(Op::SUBL, 17, 1, 17);
  Asm.condBr(Op::BNE, 17, Loop);
  Asm.halt();
  std::vector<uint32_t> Words = Asm.finalize();
  ASSERT_LT(Asm.labelAddr(Loop), 0x10000 + PageSize);
  ASSERT_GE(Asm.baseAddr() + Words.size() * 4, 0x10000 + PageSize + 8);
  expectEveryBudgetMatches(Asm, Words);
}

TEST(RunSemantics, FallThroughIntoUnmappedPageFaultsAtItsBase) {
  // The page after the program's last two slots is not mapped.
  Assembler Asm(0x10000 + PageSize - 8);
  Asm.operatei(Op::ADDQ, 9, 5, 9);
  Asm.operatei(Op::ADDQ, 9, 5, 9);
  std::vector<uint32_t> Words = Asm.finalize();
  GuestMemory Mem = loadProgram(Asm, Words);
  ASSERT_FALSE(Mem.isMapped(0x10000 + PageSize));
  Interpreter Interp(Mem);
  Interp.state().Pc = Asm.baseAddr();
  StepInfo Last = Interp.run(100);
  ASSERT_EQ(Last.Status, StepStatus::Trapped);
  EXPECT_EQ(Last.TrapInfo.Kind, TrapKind::FetchFault);
  EXPECT_EQ(Last.TrapInfo.Pc, 0x10000 + PageSize);
  EXPECT_EQ(Last.TrapInfo.MemAddr, 0x10000 + PageSize);
  // Precise: both instructions retired, the PC is the new page's base.
  EXPECT_EQ(Interp.state().Pc, 0x10000 + PageSize);
  EXPECT_EQ(Interp.state().readGpr(9), 10u);
  EXPECT_EQ(Interp.retiredCount(), 2u);
  expectEveryBudgetMatches(Asm, Words);
}

TEST(RunSemantics, BranchAndReturnAcrossPages) {
  // main (page 0) calls a function on page 2 three times; the function
  // returns with RET. Then a taken BR to page 1, and HALT there.
  Assembler Asm(0x10000);
  auto Func = Asm.createLabel("func");
  auto Tail = Asm.createLabel("tail");
  auto Loop = Asm.createLabel("loop");
  Asm.loadImm(17, 3);
  Asm.bind(Loop);
  Asm.directBr(Op::BSR, RegRA, Func);
  Asm.operatei(Op::SUBL, 17, 1, 17);
  Asm.condBr(Op::BNE, 17, Loop);
  Asm.br(Tail);
  while (Asm.currentAddr() != 0x10000 + PageSize + 16)
    Asm.halt(); // Never reached.
  Asm.bind(Tail);
  Asm.operatei(Op::ADDQ, 11, 7, 11);
  Asm.halt();
  while (Asm.currentAddr() != 0x10000 + 2 * PageSize + 40)
    Asm.halt();
  Asm.bind(Func);
  Asm.operatei(Op::ADDQ, 9, 1, 9);
  Asm.ret();
  std::vector<uint32_t> Words = Asm.finalize();
  expectEveryBudgetMatches(Asm, Words);

  GuestMemory Mem = loadProgram(Asm, Words);
  Interpreter Interp(Mem);
  Interp.state().Pc = 0x10000;
  ASSERT_EQ(Interp.run(1000).Status, StepStatus::Halted);
  EXPECT_EQ(Interp.state().readGpr(9), 3u);
  EXPECT_EQ(Interp.state().readGpr(11), 7u);
}

TEST(RunSemantics, BudgetEndingOnAPageLastSlot) {
  // Straight-line code from slot 1020 into the next page: budget 4 ends
  // with step() on slot 1023, budget 5 with the loop retiring slot 1023
  // and step() on the next page's first slot.
  Assembler Asm(0x10000 + PageSize - 16);
  for (unsigned Reg = 1; Reg != 7; ++Reg)
    Asm.operatei(Op::ADDQ, Reg, uint8_t(Reg), Reg);
  Asm.halt();
  std::vector<uint32_t> Words = Asm.finalize();
  StepInfo OnLast = expectRunMatchesSteps(Asm, Words, 4);
  EXPECT_EQ(OnLast.Pc, 0x10000 + PageSize - 4);
  EXPECT_EQ(OnLast.NextPc, 0x10000 + PageSize);
  StepInfo AfterLast = expectRunMatchesSteps(Asm, Words, 5);
  EXPECT_EQ(AfterLast.Pc, 0x10000 + PageSize);
}
