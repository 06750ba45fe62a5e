//===- tests/interp/InterpFastPathTest.cpp --------------------------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The oracle for run()'s threaded loop: every slot code, in every operand
/// shape, with r31 as each source and as the destination, executed once
/// by run(2) and compared with two calls of step(), the reference. The
/// first instruction of run(2) goes through the loop and the second
/// through step(), so each case pins one handler. Each case also runs as
/// run(3), where the loop goes on to the successor: an undecoded slot of
/// the same page, or the next page (mapped or not) through the page-end
/// sentinel.
///
/// Register values are drawn from the gtest random seed: each run (and
/// each --gtest_repeat iteration) checks new states; rerun one with
/// --gtest_random_seed=<seed>.
///
//===----------------------------------------------------------------------===//

#include "alpha/Decoder.h"
#include "alpha/Encoder.h"
#include "interp/Interpreter.h"
#include "support/Rng.h"

#include "StepCompare.h"

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <string>
#include <vector>

using namespace ildp;
using namespace ildp::alpha;

namespace {

constexpr uint64_t PageSize = GuestMemory::PageSize;
constexpr unsigned SlotsPerPage = unsigned(PageSize / InstBytes);
/// Three code pages filled with filler(), then an unmapped page.
constexpr uint64_t CodeBase = 0x10000;
constexpr unsigned CodeSlots = 3 * SlotsPerPage;
/// One data page of random bytes.
constexpr uint64_t DataBase = 0x40000;

/// Every code slot but the one under test: r7 = 0 - r7, so a nonzero
/// r31 left by the instruction under test shows.
AlphaInst filler() {
  AlphaInst Inst;
  Inst.Op = Opcode::SUBQ;
  Inst.Ra = RegZero;
  Inst.Rb = 7;
  Inst.Rc = 7;
  return Inst;
}

/// One instruction word at one PC, from one architected state.
struct Case {
  uint32_t Word = 0;
  uint64_t Pc = 0;
  ArchState Init;
};

struct Image {
  std::vector<uint32_t> Code;
  std::vector<uint8_t> Data;
};

GuestMemory buildMemory(const Image &Img, const Case &C) {
  GuestMemory Mem;
  Mem.writeBlob(CodeBase, Img.Code.data(), Img.Code.size() * InstBytes);
  Mem.writeBlob(DataBase, Img.Data.data(), Img.Data.size());
  Mem.poke32(C.Pc, C.Word);
  return Mem;
}

/// Runs \p Budget steps both ways and requires the same StepInfo,
/// architected state, retired count and data page. Returns the first
/// step's StepInfo.
StepInfo expectRunMatchesSteps(const Image &Img, const Case &C,
                               uint64_t Budget) {
  SCOPED_TRACE("budget " + std::to_string(Budget));
  GuestMemory StepMem = buildMemory(Img, C), RunMem = buildMemory(Img, C);
  Interpreter Stepper(StepMem), Runner(RunMem);
  Stepper.state() = C.Init;
  Runner.state() = C.Init;

  StepInfo First, Last;
  for (uint64_t I = 0; I != Budget; ++I) {
    Last = Stepper.step();
    if (I == 0)
      First = Last;
    if (Last.Status != StepStatus::Ok)
      break;
  }
  StepInfo Ran = Runner.run(Budget);
  expectSameStep(Ran, Last);
  EXPECT_EQ(Runner.state(), Stepper.state());
  EXPECT_EQ(Runner.retiredCount(), Stepper.retiredCount());
  EXPECT_EQ(std::memcmp(RunMem.pageData(DataBase), StepMem.pageData(DataBase),
                        PageSize),
            0);
  return First;
}

/// A register value with the edge cases conditions test for.
uint64_t randomValue(Rng &R) {
  switch (R.nextBelow(6)) {
  case 0:
    return 0;
  case 1:
    return 1;
  case 2:
    return ~uint64_t(0);
  case 3:
    return R.next() & 0xFF;
  default:
    return R.next();
  }
}

/// Which operand of the instruction under test is r31.
enum class Zero { None, Ra, Rb, Rc, RaIsRb };

/// Builds the cases of one opcode in one shape and r31 placement, with
/// fresh random registers, PCs and operands.
struct CaseMaker {
  Rng &R;

  uint8_t reg() { return uint8_t(R.nextBelow(RegZero)); }

  Case start(uint64_t Pc) {
    Case C;
    C.Pc = Pc;
    C.Init.Pc = Pc;
    for (unsigned Reg = 0; Reg != RegZero; ++Reg)
      C.Init.Gpr[Reg] = randomValue(R);
    return C;
  }

  /// A code slot of the middle page: often its first or last slot, and
  /// sometimes the last slot of the last page (the next is unmapped).
  uint64_t pc() {
    uint64_t Middle = CodeBase + PageSize;
    switch (R.nextBelow(8)) {
    case 0:
      return Middle;
    case 1:
    case 2:
      return Middle + PageSize - InstBytes;
    case 3:
      return CodeBase + 3 * PageSize - InstBytes;
    default:
      return Middle + R.nextBelow(SlotsPerPage) * InstBytes;
    }
  }

  /// A code address, with random low bits for JMP/JSR/RET to mask.
  uint64_t codeTarget() {
    return CodeBase + R.nextBelow(CodeSlots) * InstBytes + R.nextBelow(4);
  }

  static void place(AlphaInst &Inst, Zero Z) {
    switch (Z) {
    case Zero::None:
      break;
    case Zero::Ra:
      Inst.Ra = RegZero;
      break;
    case Zero::Rb:
      Inst.Rb = RegZero;
      break;
    case Zero::Rc:
      Inst.Rc = RegZero;
      break;
    case Zero::RaIsRb:
      Inst.Ra = Inst.Rb;
      break;
    }
  }

  Case make(Opcode Op, bool Literal, Zero Z) {
    const OpInfo &Info = getOpInfo(Op);
    AlphaInst Inst;
    Inst.Op = Op;
    Inst.Ra = reg();
    Inst.Rb = reg();
    Inst.Rc = reg();
    Case C = start(pc());
    switch (Info.Form) {
    case Format::Operate:
      Inst.HasLit = Literal;
      Inst.Lit = uint8_t(R.next());
      break;
    case Format::Mem:
      Inst.Disp = int16_t(R.next());
      break;
    case Format::Branch: {
      // A target anywhere in the code pages.
      int64_t Slot = int64_t((C.Pc - CodeBase) / InstBytes);
      Inst.Disp = int32_t(int64_t(R.nextBelow(CodeSlots)) - (Slot + 1));
      break;
    }
    default:
      break;
    }
    place(Inst, Z);

    if (Info.Kind == InstKind::Load || Info.Kind == InstKind::Store) {
      // Mostly an aligned address in the data page; sometimes misaligned
      // or unmapped, where the loop must leave the trap to step().
      uint64_t Addr = DataBase + (R.nextBelow(PageSize) & ~uint64_t(7));
      if (R.nextChance(1, 6))
        Addr |= 1;
      else if (R.nextChance(1, 6))
        Addr += 0x100000;
      if (Inst.Rb != RegZero)
        C.Init.Gpr[Inst.Rb] = Addr - uint64_t(int64_t(Inst.Disp));
    }
    if (Info.Form == Format::Jump && Inst.Rb != RegZero)
      C.Init.Gpr[Inst.Rb] = codeTarget();
    C.Word = encode(Inst);
    return C;
  }

  Case pal(uint32_t Func) {
    AlphaInst Inst;
    Inst.Op = Opcode::CALL_PAL;
    Inst.PalFunc = Func;
    Case C = start(pc());
    C.Word = encode(Inst);
    return C;
  }

  Case word(uint32_t Word) {
    Case C = start(pc());
    C.Word = Word;
    return C;
  }
};

/// The operand shapes and r31 placements of \p Op's cases.
std::vector<std::pair<bool, Zero>> shapesOf(Opcode Op) {
  const OpInfo &Info = getOpInfo(Op);
  switch (Info.Form) {
  case Format::Operate:
    return {{false, Zero::None}, {false, Zero::Ra}, {false, Zero::Rb},
            {false, Zero::Rc},   {true, Zero::None}, {true, Zero::Ra},
            {true, Zero::Rc}};
  case Format::Mem:
    return {{true, Zero::None}, {true, Zero::Ra}, {true, Zero::Rb}};
  case Format::Branch:
    return {{true, Zero::None}, {true, Zero::Ra}};
  case Format::Jump:
    return {{false, Zero::None}, {false, Zero::Ra}, {false, Zero::Rb},
            {false, Zero::RaIsRb}};
  case Format::Pal:
    break;
  }
  return {};
}

uint64_t suiteSeed() {
  return uint64_t(::testing::UnitTest::GetInstance()->random_seed());
}

} // namespace

TEST(InterpFastPath, EveryCodeMatchesStep) {
  uint64_t Seed = suiteSeed();
  SCOPED_TRACE("gtest random seed " + std::to_string(Seed));
  Rng R(Seed ^ 0x5EED0F1A57ull);

  Image Img;
  Img.Code.assign(CodeSlots, encode(filler()));
  Img.Data.resize(PageSize);
  for (uint8_t &B : Img.Data)
    B = uint8_t(R.next());

  std::vector<Case> Cases;
  CaseMaker Make{R};
  for (unsigned Op = 0; Op != NumOpcodes; ++Op)
    for (auto [Literal, Z] : shapesOf(Opcode(Op)))
      for (int State = 0; State != 3; ++State)
        Cases.push_back(Make.make(Opcode(Op), Literal, Z));
  for (uint32_t Func : {uint32_t(PalHalt), uint32_t(PalGentrap), 0x1234u})
    Cases.push_back(Make.pal(Func));
  Cases.push_back(Make.word(0x04000000u)); // Reserved opcode 0x01.
  ASSERT_FALSE(decode(0x04000000u).valid());

  // The first instruction's handler runs in both budgets. With three,
  // the loop follows a retired one to its successor: a fall-through off
  // the page runs the sentinel, and another slot of the page is still
  // undecoded (the entry decodes only the first).
  std::array<uint64_t, NumSlotCodes> Cov{};
  for (const Case &C : Cases) {
    AlphaInst Inst = decode(C.Word);
    SCOPED_TRACE(std::string(Inst.valid() ? getMnemonic(Inst.Op) : "invalid") +
                 " word " + std::to_string(C.Word) + " at pc " +
                 std::to_string(C.Pc));
    expectRunMatchesSteps(Img, C, 2);
    StepInfo First = expectRunMatchesSteps(Img, C, 3);
    ++Cov[unsigned(specialiseSlot(Inst).Code)];
    if (First.Status == StepStatus::Ok) {
      bool SamePage = (First.NextPc ^ C.Pc) < PageSize;
      if (!SamePage && First.NextPc == C.Pc + InstBytes)
        ++Cov[unsigned(SlotCode::PageEnd)];
      else if (SamePage && First.NextPc != C.Pc)
        ++Cov[unsigned(SlotCode::Undecoded)];
    }
    if (HasFailure())
      return;
  }

  // Memory-format address arithmetic has no register shape.
  for (SlotCode Never : {SlotCode::LDA_RR, SlotCode::LDAH_RR})
    EXPECT_EQ(Cov[unsigned(Never)], 0u);
  for (unsigned Code = 0; Code != NumSlotCodes; ++Code) {
    if (SlotCode(Code) == SlotCode::LDA_RR ||
        SlotCode(Code) == SlotCode::LDAH_RR)
      continue;
    EXPECT_GT(Cov[Code], 0u) << "slot code " << Code << " never executed";
  }
}
