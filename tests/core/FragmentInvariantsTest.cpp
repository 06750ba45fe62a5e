//===- tests/core/FragmentInvariantsTest.cpp ------------------------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structural invariants every generated fragment must satisfy, checked
/// over the Figure 2 program and parameterized configurations:
///   - every instruction passes iisa::validate for its variant,
///   - the body ends with an exit; internal exits only via cond_exit,
///   - PEI table entries exist exactly for the PEIs, in order,
///   - V-credits over the straight-line path account for all source
///     instructions (minus NOPs),
///   - instruction offsets are consistent with encoded sizes.
///
//===----------------------------------------------------------------------===//

#include "DbtTestUtil.h"

#include "core/CodeGen.h"

#include <gtest/gtest.h>

using namespace ildp;
using namespace ildp::alpha;
using namespace ildp::dbt;
using namespace ildp::dbttest;
using Op = Opcode;

namespace {

/// Checks all structural invariants of \p Frag.
void checkInvariants(const Fragment &Frag) {
  ASSERT_FALSE(Frag.Body.empty());
  EXPECT_EQ(Frag.Body[0].Kind, iisa::IKind::SetVpcBase);
  EXPECT_EQ(Frag.Body[0].VTarget, Frag.EntryVAddr);
  EXPECT_TRUE(Frag.Body.back().isExit());

  uint32_t Offset = 0;
  size_t PeiCursor = 0;
  for (size_t I = 0; I != Frag.Body.size(); ++I) {
    const iisa::IisaInst &Inst = Frag.Body[I];
    EXPECT_EQ(validate(Inst, Frag.Variant), "")
        << "inst " << I << ": " << validate(Inst, Frag.Variant);
    EXPECT_EQ(Frag.InstOffset[I], Offset);
    EXPECT_GT(Inst.SizeBytes, 0);
    Offset += Inst.SizeBytes;
    // Non-final instructions may exit only conditionally.
    if (I + 1 != Frag.Body.size() && Inst.isExit()) {
      EXPECT_EQ(Inst.Kind, iisa::IKind::CondExit) << "inst " << I;
    }
    if (Inst.isPei()) {
      ASSERT_LT(PeiCursor, Frag.PeiTable.size());
      EXPECT_EQ(Frag.PeiTable[PeiCursor].InstIndex, I);
      EXPECT_NE(Frag.PeiTable[PeiCursor].VAddr, 0u);
      ++PeiCursor;
    }
  }
  EXPECT_EQ(PeiCursor, Frag.PeiTable.size());
  EXPECT_EQ(Frag.BodyBytes, Offset);

  // Straight-line V-credit accounting: walking the whole body (no taken
  // exits) retires every recorded source instruction except NOPs.
  unsigned Credits = 0;
  for (const iisa::IisaInst &Inst : Frag.Body)
    Credits += Inst.VCredit;
  EXPECT_EQ(Credits, Frag.SourceInsts - Frag.NopsRemoved);

  // Every direct exit names an instruction-aligned V-target: its linkage
  // is derived from that target alone.
  for (const iisa::IisaInst &Inst : Frag.Body)
    if (Inst.isDirectExit()) {
      EXPECT_NE(Inst.VTarget, 0u);
      EXPECT_EQ(Inst.VTarget % alpha::InstBytes, 0u);
    }
}

/// A program with diverse instruction shapes for invariant checking.
/// \p LoopAddr receives the hot loop head address.
std::unique_ptr<Program> buildDiverseProgram(uint64_t &LoopAddr) {
  Assembler Asm(0x10000);
  Asm.loadImm(16, 0x20000);
  Asm.loadImm(17, 32);
  Asm.loadImm(0, 0x21000);
  Asm.movi(3, 1);
  auto Loop = Asm.createLabel("loop");
  Asm.bind(Loop);
  Asm.ldq(2, 8, 16);                  // split memory op
  Asm.operate(Op::ADDQ, 2, 1, 4);     // two-global case
  Asm.operate(Op::CMOVEQ, 4, 2, 3);   // cmov decomposition
  Asm.nop();                          // removed
  Asm.operatei(Op::SRL, 4, 3, 5);
  Asm.stq(5, 16, 16);                 // split store
  Asm.operatei(Op::SUBL, 17, 1, 17);
  Asm.condBr(Op::BNE, 17, Loop);
  Asm.halt();
  auto P = std::make_unique<Program>(Asm);
  LoopAddr = Asm.labelAddr(Loop);
  P->Mem.mapRegion(0x20000, 0x2000);
  return P;
}

struct InvariantParam {
  iisa::IsaVariant Variant;
  ChainPolicy Chaining;
  unsigned Accs;
  bool SplitMem;
};

class FragmentInvariants
    : public ::testing::TestWithParam<InvariantParam> {};

} // namespace

TEST_P(FragmentInvariants, HoldOnDiverseProgram) {
  InvariantParam Param = GetParam();
  uint64_t LoopAddr = 0;
  auto Prog = buildDiverseProgram(LoopAddr);
  // Skip the prologue: record from the loop head.
  while (Prog->Interp->state().Pc != LoopAddr)
    Prog->Interp->step();
  Superblock Sb = Prog->record();
  ASSERT_FALSE(Sb.Insts.empty());

  DbtConfig Config;
  Config.Variant = Param.Variant;
  Config.Chaining = Param.Chaining;
  Config.NumAccumulators = Param.Accs;
  Config.SplitMemoryOps = Param.SplitMem;
  TranslationResult R = translate(Sb, Config).take();
  checkInvariants(R.Frag);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, FragmentInvariants,
    ::testing::Values(
        InvariantParam{iisa::IsaVariant::Basic, ChainPolicy::SwPredRas, 4,
                       true},
        InvariantParam{iisa::IsaVariant::Basic, ChainPolicy::NoPred, 2,
                       true},
        InvariantParam{iisa::IsaVariant::Modified, ChainPolicy::SwPredRas,
                       4, true},
        InvariantParam{iisa::IsaVariant::Modified,
                       ChainPolicy::SwPredNoRas, 8, true},
        InvariantParam{iisa::IsaVariant::Modified, ChainPolicy::SwPredRas,
                       4, false},
        InvariantParam{iisa::IsaVariant::Basic, ChainPolicy::SwPredRas, 1,
                       true},
        InvariantParam{iisa::IsaVariant::Straight, ChainPolicy::SwPredRas,
                       4, true},
        InvariantParam{iisa::IsaVariant::Straight, ChainPolicy::NoPred, 4,
                       true}),
    [](const ::testing::TestParamInfo<InvariantParam> &Info) {
      std::string Name = getVariantName(Info.param.Variant);
      Name += "_";
      for (char C : std::string(getChainPolicyName(Info.param.Chaining)))
        Name += C == '.' ? '_' : C;
      Name += "_a" + std::to_string(Info.param.Accs);
      Name += Info.param.SplitMem ? "_split" : "_nosplit";
      return Name;
    });

TEST(FragmentInvariants, IndirectEndingsPerPolicy) {
  Assembler Asm(0x10000);
  auto F = Asm.createLabel("f");
  Asm.loadLabelAddr(27, F);
  auto CallSite = Asm.createLabel("call");
  Asm.bind(CallSite);
  Asm.jsr(26, 27);
  Asm.halt();
  Asm.bind(F);
  Asm.ret(26);
  Program Prog(Asm);
  Prog.Interp->step();
  Prog.Interp->step(); // loadLabelAddr
  Superblock CallSb = Prog.record(); // the JSR superblock
  Superblock RetSb = Prog.record();  // the RET superblock
  ASSERT_EQ(CallSb.End, SbEndReason::IndirectJump);
  ASSERT_EQ(RetSb.End, SbEndReason::Return);

  auto LastKind = [](const Fragment &F2) { return F2.Body.back().Kind; };

  DbtConfig C;
  C.Variant = iisa::IsaVariant::Modified;
  C.Chaining = ChainPolicy::NoPred;
  EXPECT_EQ(LastKind(translate(CallSb, C).take().Frag),
            iisa::IKind::JumpDispatch);
  EXPECT_EQ(LastKind(translate(RetSb, C).take().Frag),
            iisa::IKind::JumpDispatch);

  C.Chaining = ChainPolicy::SwPredNoRas;
  EXPECT_EQ(LastKind(translate(CallSb, C).take().Frag),
            iisa::IKind::JumpPredict);
  EXPECT_EQ(LastKind(translate(RetSb, C).take().Frag),
            iisa::IKind::JumpPredict);

  C.Chaining = ChainPolicy::SwPredRas;
  Fragment CallFrag = translate(CallSb, C).take().Frag;
  EXPECT_EQ(LastKind(CallFrag), iisa::IKind::JumpPredict);
  // The call fragment pushes the dual-address RAS.
  bool HasPush = false;
  for (const auto &Inst : CallFrag.Body)
    HasPush |= Inst.Kind == iisa::IKind::PushDualRas;
  EXPECT_TRUE(HasPush);
  EXPECT_EQ(LastKind(translate(RetSb, C).take().Frag),
            iisa::IKind::ReturnDual);
}
