//===- tests/core/RandomProgramTest.cpp -----------------------------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Differential property test: random straight-line Alpha programs are
/// recorded, translated with every backend and accumulator budget, and
/// executed through the I-ISA functional executor; the final architected
/// state must be bit-identical to the reference interpreter. This
/// exercises operand resolution, copy insertion, spilling/reloading, and
/// the cmov/memory decompositions under hundreds of random shapes.
///
//===----------------------------------------------------------------------===//

#include "DbtTestUtil.h"

#include "core/CodeGen.h"
#include "iisa/Disasm.h"
#include "iisa/Executor.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace ildp;
using namespace ildp::alpha;
using namespace ildp::dbt;
using namespace ildp::dbttest;
using Op = Opcode;

namespace {

constexpr uint64_t DataBase = 0x40000;

/// Emits a random but safe straight-line program: arithmetic over r1..r8,
/// loads/stores through r16 (data region), conditional moves, multiplies.
void emitRandomProgram(Assembler &Asm, Rng &Rand, unsigned Length) {
  static const Op AluOps[] = {
      Op::ADDQ, Op::SUBQ,  Op::ADDL,   Op::SUBL,  Op::XOR,
      Op::AND,  Op::BIS,   Op::BIC,    Op::ORNOT, Op::EQV,
      Op::SLL,  Op::SRL,   Op::SRA,    Op::S4ADDQ, Op::S8ADDQ,
      Op::CMPEQ, Op::CMPLT, Op::CMPULE, Op::ZAPNOT, Op::EXTBL,
      Op::MULQ, Op::MULL,  Op::UMULH,  Op::CMPBGE};
  static const Op CmovOps[] = {Op::CMOVEQ, Op::CMOVNE, Op::CMOVLT,
                               Op::CMOVGE, Op::CMOVLBS, Op::CMOVLBC};
  auto Reg = [&] { return uint8_t(1 + Rand.nextBelow(8)); };

  Asm.loadImm(16, int64_t(DataBase));
  for (unsigned R = 1; R <= 8; ++R)
    Asm.loadImm(uint8_t(R), int64_t(Rand.next() & 0xFFFF));

  for (unsigned I = 0; I != Length; ++I) {
    switch (Rand.nextBelow(10)) {
    case 0: { // load
      int32_t Disp = int32_t(Rand.nextBelow(32)) * 8;
      Asm.ldq(Reg(), Disp, 16);
      break;
    }
    case 1: { // store
      int32_t Disp = int32_t(Rand.nextBelow(32)) * 8;
      Asm.stq(Reg(), Disp, 16);
      break;
    }
    case 2: { // conditional move
      Op O = CmovOps[Rand.nextBelow(std::size(CmovOps))];
      Asm.operate(O, Reg(), Reg(), Reg());
      break;
    }
    case 3: // literal operate
      Asm.operatei(AluOps[Rand.nextBelow(std::size(AluOps))], Reg(),
                   uint8_t(Rand.nextBelow(64)), Reg());
      break;
    case 4: // lda (address arithmetic)
      Asm.lda(Reg(), int32_t(Rand.nextInRange(-64, 64)), Reg());
      break;
    case 5: // occasional NOP (must be removed cleanly)
      Asm.nop();
      break;
    default:
      Asm.operate(AluOps[Rand.nextBelow(std::size(AluOps))], Reg(), Reg(),
                  Reg());
      break;
    }
  }
  Asm.halt();
}

struct RandomCase {
  uint64_t Seed;
  iisa::IsaVariant Variant;
  unsigned Accs;
};

class RandomProgramTest : public ::testing::TestWithParam<RandomCase> {};

std::string fragmentDump(const Fragment &Frag) {
  std::string Out;
  for (const auto &Inst : Frag.Body) {
    Out += iisa::disassemble(Inst);
    Out += '\n';
  }
  return Out;
}

} // namespace

TEST_P(RandomProgramTest, TranslatedStateMatchesInterpreter) {
  RandomCase Case = GetParam();
  Rng Rand(Case.Seed);
  unsigned Length = 20 + unsigned(Rand.nextBelow(120));

  Assembler Asm(0x10000);
  emitRandomProgram(Asm, Rand, Length);
  Program Prog(Asm);
  Prog.Mem.mapRegion(DataBase, 0x1000);
  for (unsigned I = 0; I != 64; ++I)
    Prog.Mem.poke64(DataBase + I * 8, Rand.next());

  // Snapshot the initial data region; the reference interpreter run (the
  // recording itself) mutates Prog.Mem, and the translated replay below
  // gets a fresh copy.
  std::vector<uint64_t> InitialData(64);
  for (unsigned I = 0; I != 64; ++I)
    InitialData[I] = Prog.Mem.load(DataBase + I * 8, 8).Value;

  // Record the whole program as one superblock (straight-line).
  Superblock Sb = Prog.record(/*MaxInsts=*/400);
  ASSERT_EQ(Sb.End, SbEndReason::Trap); // ends at HALT
  ArchState RefState = Prog.Interp->state();

  DbtConfig Config;
  Config.Variant = Case.Variant;
  Config.NumAccumulators = Case.Accs;
  TranslationResult R = translate(Sb, Config).take();

  // Execute the fragment against a fresh copy of the initial environment
  // (the executor never fetches code; fragments are decoded structures).
  GuestMemory Mem2;
  for (unsigned I = 0; I != 64; ++I)
    Mem2.poke64(DataBase + I * 8, InitialData[I]);
  iisa::IExecState State;
  // Entry architected state: registers as of superblock entry — the
  // recording started at the program entry with zeroed registers.
  std::vector<iisa::IOp> Ops = iisa::lowerToOps(R.Frag.Body);
  iisa::IExit Exit =
      iisa::execute(Ops.data(), R.Frag.Body.data(), State, Mem2, nullptr);
  ASSERT_EQ(Exit.K, iisa::IExit::Kind::Halt) << fragmentDump(R.Frag);

  ArchState Got = State.toArchState();
  Got.Pc = RefState.Pc;
  EXPECT_EQ(Got, RefState) << fragmentDump(R.Frag);

  // Memory images must match too.
  for (unsigned I = 0; I != 64; ++I)
    EXPECT_EQ(Mem2.load(DataBase + I * 8, 8).Value,
              Prog.Mem.load(DataBase + I * 8, 8).Value)
        << "data word " << I;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomProgramTest, ::testing::ValuesIn([] {
      std::vector<RandomCase> Cases;
      for (uint64_t Seed = 1; Seed <= 12; ++Seed) {
        for (auto Variant :
             {iisa::IsaVariant::Basic, iisa::IsaVariant::Modified,
              iisa::IsaVariant::Straight})
          for (unsigned Accs : {2u, 4u, 8u})
            Cases.push_back({Seed, Variant, Accs});
      }
      return Cases;
    }()),
    [](const ::testing::TestParamInfo<RandomCase> &Info) {
      return std::string("seed") + std::to_string(Info.param.Seed) + "_" +
             getVariantName(Info.param.Variant) + "_a" +
             std::to_string(Info.param.Accs);
    });
