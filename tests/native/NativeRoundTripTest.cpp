//===- tests/native/NativeRoundTripTest.cpp -------------------------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The native tier's core conformance bar at the smallest possible grain:
/// emit a fragment body to C, compile it with the probed host toolchain,
/// dlopen it, run it — and require the resulting I-ISA machine state and
/// exit to be BIT-IDENTICAL to iisa::execute over the same body from the
/// same initial state. Every kind the emitter supports is exercised,
/// including side exits, software-predicted jumps, memory faults
/// mid-body, and GENTRAP. Every operation in alpha/AlphaOps.h's lists is
/// also compiled and run over edge and seeded random operands, against
/// both iisa::execute and alpha::eval*, and a one-instruction body per op
/// code the lowering emits is compiled and run from seeded random states.
/// Skipped wholesale when no host compiler exists (the VM-level suites
/// prove that degrade separately).
///
//===----------------------------------------------------------------------===//

#include "native/NativeCompiler.h"
#include "native/NativeEmitter.h"
#include "native/NativeExec.h"
#include "native/NativeModule.h"
#include "native/NativeService.h"

#include "../iisa/OpSweep.h"

#include "alpha/Semantics.h"
#include "mem/GuestMemory.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <set>

using namespace ildp;
using namespace ildp::iisa;
using alpha::Opcode;

namespace {

IisaInst compute(Opcode Op, IOperand A, IOperand B, uint8_t Acc,
                 uint8_t Gpr = NoReg) {
  IisaInst I;
  I.Kind = IKind::Compute;
  I.AlphaOp = Op;
  I.A = A;
  I.B = B;
  I.DestAcc = Acc;
  I.DestGpr = Gpr;
  return I;
}

IisaInst branchTo(uint64_t Target, bool ToTranslator = false) {
  IisaInst I;
  I.Kind = IKind::Branch;
  I.VTarget = Target;
  I.ToTranslator = ToTranslator;
  return I;
}

/// Emit + compile + load \p Body; hard-fails the test on any step.
std::shared_ptr<native::NativeModule>
compileBody(const std::vector<IisaInst> &Body, IsaVariant Variant) {
  native::EmitResult Emit = native::emitFragmentC(Body, Variant);
  EXPECT_TRUE(Emit.Ok) << Emit.Reason;
  if (!Emit.Ok)
    return nullptr;
  native::CompileResult Obj =
      native::compileToObject(native::hostCompiler(), Emit.Source);
  EXPECT_TRUE(Obj.Ok) << Obj.Diag << "\n--- emitted source ---\n"
                      << Emit.Source;
  if (!Obj.Ok)
    return nullptr;
  std::shared_ptr<native::NativeModule> Module = native::loadModule(Obj.Object);
  EXPECT_NE(Module, nullptr);
  return Module;
}

/// Seeds deterministic non-trivial machine state.
void seedState(IExecState &S) {
  for (unsigned A = 0; A != MaxAccumulators; ++A)
    S.acc()[A] = 0x1111111111111111ull * (A + 1);
  for (unsigned G = 0; G != NumIisaGprs; ++G)
    if (G != alpha::RegZero)
      S.writeGpr(G, 0x9E3779B97F4A7C15ull * (G + 3));
}

void seedMemory(GuestMemory &Mem) {
  Mem.mapRegion(0x1000, 0x1000);
  for (unsigned I = 0; I != 0x200; ++I)
    Mem.poke64(0x1000 + I * 8, 0xC0FFEE0000ull + I);
}

/// Runs \p Body natively (\p Module) and through iisa::execute from \p Init
/// over identical guest memory, requires bit-identical outcomes — every
/// accumulator, every GPR, the VPC base, the exit record, and guest
/// memory — and returns the native end state and exit.
std::pair<IExecState, IExit>
runAgainstExecutor(const native::NativeModule &Module,
                   const std::vector<IisaInst> &Body, const IExecState &Init,
                   const std::string &Context) {
  GuestMemory RefMem, NatMem;
  seedMemory(RefMem);
  seedMemory(NatMem);
  IExecState Ref = Init, Nat = Init;

  std::vector<IOp> Ops = lowerToOps(Body);
  IExit RefExit = execute(Ops.data(), Body.data(), Ref, RefMem, nullptr);
  IExit NatExit = native::runFragment(Module, Nat, NatMem, Body);

  EXPECT_EQ(NatExit.K, RefExit.K) << Context;
  EXPECT_EQ(NatExit.VTarget, RefExit.VTarget) << Context;
  EXPECT_EQ(NatExit.InstIndex, RefExit.InstIndex) << Context;
  EXPECT_EQ(NatExit.TrapInfo.Kind, RefExit.TrapInfo.Kind) << Context;
  EXPECT_EQ(NatExit.TrapInfo.MemAddr, RefExit.TrapInfo.MemAddr) << Context;

  for (unsigned A = 0; A != MaxAccumulators; ++A)
    EXPECT_EQ(Nat.acc()[A], Ref.acc()[A]) << Context << ": acc " << A;
  for (unsigned G = 0; G != NumIisaGprs; ++G)
    EXPECT_EQ(Nat.readGpr(G), Ref.readGpr(G)) << Context << ": gpr " << G;
  EXPECT_EQ(Nat.vpcBase(), Ref.vpcBase()) << Context;
  for (unsigned I = 0; I != 0x200; ++I)
    EXPECT_EQ(NatMem.load(0x1000 + I * 8, 8).Value,
              RefMem.load(0x1000 + I * 8, 8).Value)
        << Context << ": mem word " << I;
  return {Nat, NatExit};
}

/// Compiles \p Body and runs it against the executor from the seeded
/// state.
void expectSameRun(const std::vector<IisaInst> &Body, IsaVariant Variant,
                   const char *Context) {
  std::shared_ptr<native::NativeModule> Code = compileBody(Body, Variant);
  ASSERT_NE(Code, nullptr) << Context;
  IExecState Init;
  seedState(Init);
  runAgainstExecutor(*Code, Body, Init, Context);
}

// The opcode lists of alpha/AlphaOps.h, and their lengths counted
// independently of the arrays the sweeps build from them.
#define ILDP_OPCODE_ENTRY(M) Opcode::M,
const std::vector<Opcode> IntOps = {ILDP_INT_OPS(ILDP_OPCODE_ENTRY)};
const std::vector<Opcode> BranchOps = {ILDP_BRANCH_OPS(ILDP_OPCODE_ENTRY)};
const std::vector<Opcode> CmovOps = {ILDP_CMOV_OPS(ILDP_OPCODE_ENTRY)};
#undef ILDP_OPCODE_ENTRY
#define ILDP_COUNT_ENTRY(M) +1
constexpr size_t NumListedIntOps = 0 ILDP_INT_OPS(ILDP_COUNT_ENTRY);
constexpr size_t NumListedBranchOps = 0 ILDP_BRANCH_OPS(ILDP_COUNT_ENTRY);
constexpr size_t NumListedCmovOps = 0 ILDP_CMOV_OPS(ILDP_COUNT_ENTRY);
#undef ILDP_COUNT_ENTRY

const uint64_t EdgeValues[] = {0,       ~uint64_t(0), uint64_t(1) << 63,
                               0x80,    0x8000,       0x7FFFFFFF};

/// Operand pairs for the sweeps: every pair of edge values, then seeded
/// random pairs.
std::vector<std::pair<uint64_t, uint64_t>> sweepOperands() {
  std::vector<std::pair<uint64_t, uint64_t>> Pairs;
  for (uint64_t A : EdgeValues)
    for (uint64_t B : EdgeValues)
      Pairs.emplace_back(A, B);
  Rng R(0x5EED0A1F);
  for (int I = 0; I != 64; ++I)
    Pairs.emplace_back(R.next(), R.next());
  return Pairs;
}

/// Seeded random I-ISA state, so untouched registers also get compared.
IExecState randomState(Rng &R) {
  IExecState S;
  for (uint64_t &A : S.acc())
    A = R.next();
  for (unsigned G = 0; G != NumIisaGprs; ++G)
    S.writeGpr(G, R.next());
  return S;
}

class NativeRoundTrip : public ::testing::Test {
protected:
  void SetUp() override {
    if (!native::hostCompiler().found())
      GTEST_SKIP() << "no host C compiler on this machine";
  }
};

} // namespace

TEST_F(NativeRoundTrip, ComputeChain) {
  std::vector<IisaInst> Body;
  IisaInst Vpc;
  Vpc.Kind = IKind::SetVpcBase;
  Vpc.VTarget = 0x10000;
  Body.push_back(Vpc);
  Body.push_back(compute(Opcode::ADDQ, IOperand::gpr(1), IOperand::gpr(2),
                         0, 5));
  Body.push_back(compute(Opcode::SLL, IOperand::acc(0), IOperand::imm(3),
                         0, 6));
  Body.push_back(compute(Opcode::ADDL, IOperand::acc(0), IOperand::gpr(3),
                         1, 7));
  Body.push_back(compute(Opcode::CMPULT, IOperand::acc(1), IOperand::acc(0),
                         2, 8));
  Body.push_back(compute(Opcode::XOR, IOperand::acc(2), IOperand::imm(-1),
                         3, 9));
  Body.push_back(compute(Opcode::UMULH, IOperand::gpr(4), IOperand::gpr(5),
                         4, 10));
  Body.push_back(compute(Opcode::ZAPNOT, IOperand::acc(4), IOperand::imm(0x33),
                         5, 11));
  Body.push_back(branchTo(0x10040));
  expectSameRun(Body, IsaVariant::Modified, "compute-chain");
}

TEST_F(NativeRoundTrip, LoadStoreWithDisplacement) {
  std::vector<IisaInst> Body;
  {
    IisaInst Ld;
    Ld.Kind = IKind::Load;
    Ld.AlphaOp = Opcode::LDQ;
    Ld.B = IOperand::imm(0x1000);
    Ld.MemDisp = 16;
    Ld.DestAcc = 0;
    Ld.DestGpr = 4;
    Body.push_back(Ld);
  }
  {
    IisaInst Ldl; // The one signed sub-width load.
    Ldl.Kind = IKind::Load;
    Ldl.AlphaOp = Opcode::LDL;
    Ldl.B = IOperand::imm(0x1000);
    Ldl.MemDisp = 4;
    Ldl.DestAcc = 1;
    Body.push_back(Ldl);
  }
  Body.push_back(compute(Opcode::ADDQ, IOperand::acc(0), IOperand::acc(1),
                         2, 5));
  {
    IisaInst St;
    St.Kind = IKind::Store;
    St.AlphaOp = Opcode::STL;
    St.A = IOperand::acc(2);
    St.B = IOperand::imm(0x1100);
    St.MemDisp = -8;
    Body.push_back(St);
  }
  {
    IisaInst Stb;
    Stb.Kind = IKind::Store;
    Stb.AlphaOp = Opcode::STB;
    Stb.A = IOperand::gpr(7);
    Stb.B = IOperand::imm(0x1200);
    Body.push_back(Stb);
  }
  Body.push_back(branchTo(0x10080));
  expectSameRun(Body, IsaVariant::Modified, "load-store");
}

TEST_F(NativeRoundTrip, CondExitBothWays) {
  auto MakeBody = [](Opcode Cond) {
    std::vector<IisaInst> Body;
    Body.push_back(compute(Opcode::CMPEQ, IOperand::gpr(1), IOperand::gpr(1),
                           0, NoReg));
    IisaInst Exit;
    Exit.Kind = IKind::CondExit;
    Exit.AlphaOp = Cond;
    Exit.A = IOperand::acc(0);
    Exit.VTarget = 0x20000;
    Body.push_back(Exit);
    Body.push_back(compute(Opcode::ADDQ, IOperand::gpr(2), IOperand::imm(1),
                           1, 9));
    Body.push_back(branchTo(0x20040));
    return Body;
  };
  // CMPEQ(r1, r1) == 1: BNE takes the side exit at index 1, BEQ falls
  // through and leaves via the final branch — both must match, including
  // which trailing instructions (never) ran.
  expectSameRun(MakeBody(Opcode::BNE), IsaVariant::Modified, "side-exit");
  expectSameRun(MakeBody(Opcode::BEQ), IsaVariant::Modified, "fallthrough");
}

TEST_F(NativeRoundTrip, PredictedJumpHitAndMiss) {
  auto MakeBody = [](bool Hit) {
    std::vector<IisaInst> Body;
    // A receives the prediction compare result.
    Body.push_back(compute(Opcode::CMPEQ, IOperand::gpr(1),
                           Hit ? IOperand::gpr(1) : IOperand::gpr(2), 0));
    IisaInst J;
    J.Kind = IKind::JumpPredict;
    J.A = IOperand::acc(0);
    J.B = IOperand::gpr(3); // Actual target on a miss (low bits masked).
    J.VTarget = 0x30000;
    Body.push_back(J);
    return Body;
  };
  expectSameRun(MakeBody(true), IsaVariant::Modified, "predict-hit");
  expectSameRun(MakeBody(false), IsaVariant::Modified, "predict-miss");

  std::vector<IisaInst> Dispatch;
  Dispatch.push_back(compute(Opcode::ADDQ, IOperand::gpr(1), IOperand::imm(0),
                             0, 5));
  IisaInst J;
  J.Kind = IKind::JumpDispatch;
  J.B = IOperand::gpr(6);
  Dispatch.push_back(J);
  expectSameRun(Dispatch, IsaVariant::Modified, "dispatch");

  std::vector<IisaInst> Ret;
  IisaInst Push;
  Push.Kind = IKind::PushDualRas;
  Push.VTarget = 0x40000;
  Ret.push_back(Push);
  IisaInst R;
  R.Kind = IKind::ReturnDual;
  R.B = IOperand::gpr(26);
  Ret.push_back(R);
  expectSameRun(Ret, IsaVariant::Modified, "return-dual");
}

TEST_F(NativeRoundTrip, CmovDecomposition) {
  auto MakeBody = [](uint64_t Selector) {
    std::vector<IisaInst> Body;
    Body.push_back(compute(Opcode::ADDQ, IOperand::imm(Selector),
                           IOperand::imm(0), 0));
    IisaInst Mask;
    Mask.Kind = IKind::CmovMask;
    Mask.AlphaOp = Opcode::CMOVNE;
    Mask.A = IOperand::acc(0);
    Mask.DestAcc = 1;
    Body.push_back(Mask);
    IisaInst Blend;
    Blend.Kind = IKind::CmovBlend;
    Blend.A = IOperand::acc(1);
    Blend.B = IOperand::gpr(4);
    Blend.DestGpr = 9; // Readable destination: the old-value operand.
    Body.push_back(Blend);
    Body.push_back(branchTo(0x50000));
    return Body;
  };
  expectSameRun(MakeBody(1), IsaVariant::Modified, "cmov-selected");
  expectSameRun(MakeBody(0), IsaVariant::Modified, "cmov-kept");
}

TEST_F(NativeRoundTrip, EmbeddedAddressSpecials) {
  std::vector<IisaInst> Body;
  IisaInst Save;
  Save.Kind = IKind::SaveRetAddr;
  Save.DestGpr = 26;
  Save.VTarget = 0x60004;
  Body.push_back(Save);
  IisaInst Emb;
  Emb.Kind = IKind::LoadEmbTarget;
  Emb.DestAcc = 3;
  Emb.VTarget = 0x60100;
  Body.push_back(Emb);
  Body.push_back(compute(Opcode::CMPEQ, IOperand::acc(3), IOperand::gpr(5),
                         0, 7));
  Body.push_back(branchTo(0x60200, /*ToTranslator=*/true));
  expectSameRun(Body, IsaVariant::Modified, "embedded-specials");
}

TEST_F(NativeRoundTrip, MidBodyMemoryFaultIsPrecise) {
  std::vector<IisaInst> Body;
  Body.push_back(compute(Opcode::ADDQ, IOperand::gpr(1), IOperand::imm(7),
                         0, 5));
  {
    IisaInst St; // Lands in mapped memory: must be visible after the trap.
    St.Kind = IKind::Store;
    St.AlphaOp = Opcode::STQ;
    St.A = IOperand::acc(0);
    St.B = IOperand::imm(0x1800);
    Body.push_back(St);
  }
  {
    IisaInst Ld; // Unmapped: traps at index 2.
    Ld.Kind = IKind::Load;
    Ld.AlphaOp = Opcode::LDQ;
    Ld.B = IOperand::imm(0x7F0000);
    Ld.DestAcc = 1;
    Ld.DestGpr = 6;
    Body.push_back(Ld);
  }
  Body.push_back(branchTo(0x70000));
  expectSameRun(Body, IsaVariant::Modified, "mem-fault");

  std::vector<IisaInst> Misaligned;
  {
    IisaInst Ld;
    Ld.Kind = IKind::Load;
    Ld.AlphaOp = Opcode::LDQ;
    Ld.B = IOperand::imm(0x1003); // Mapped but misaligned.
    Ld.DestAcc = 0;
    Misaligned.push_back(Ld);
  }
  Misaligned.push_back(branchTo(0x70040));
  expectSameRun(Misaligned, IsaVariant::Modified, "mem-misaligned");
}

TEST_F(NativeRoundTrip, HaltAndGentrap) {
  std::vector<IisaInst> HaltBody;
  HaltBody.push_back(compute(Opcode::ADDQ, IOperand::gpr(1), IOperand::gpr(2),
                             0, 5));
  IisaInst H;
  H.Kind = IKind::Halt;
  HaltBody.push_back(H);
  expectSameRun(HaltBody, IsaVariant::Modified, "halt");

  std::vector<IisaInst> TrapBody;
  TrapBody.push_back(compute(Opcode::SUBQ, IOperand::gpr(1), IOperand::gpr(2),
                             0, 5));
  IisaInst G;
  G.Kind = IKind::Gentrap;
  TrapBody.push_back(G);
  expectSameRun(TrapBody, IsaVariant::Modified, "gentrap");
}

TEST_F(NativeRoundTrip, BasicVariantCopies) {
  std::vector<IisaInst> Body;
  IisaInst From;
  From.Kind = IKind::CopyFromGpr;
  From.A = IOperand::gpr(17);
  From.DestAcc = 1;
  Body.push_back(From);
  Body.push_back(compute(Opcode::S4ADDQ, IOperand::acc(1), IOperand::imm(5),
                         1));
  IisaInst To;
  To.Kind = IKind::CopyToGpr;
  To.A = IOperand::acc(1);
  To.DestGpr = 17;
  Body.push_back(To);
  Body.push_back(branchTo(0x80000));
  expectSameRun(Body, IsaVariant::Basic, "basic-copies");
}

TEST_F(NativeRoundTrip, R31StaysHardwiredZero) {
  std::vector<IisaInst> Body;
  // Writes to r31 are discarded; reads yield zero.
  Body.push_back(compute(Opcode::ADDQ, IOperand::gpr(1), IOperand::imm(1),
                         0, uint8_t(alpha::RegZero)));
  Body.push_back(compute(Opcode::ADDQ, IOperand::gpr(alpha::RegZero),
                         IOperand::imm(9), 1, 5));
  Body.push_back(branchTo(0x90000));
  expectSameRun(Body, IsaVariant::Modified, "r31");
}

TEST_F(NativeRoundTrip, ModuleRegistryDeduplicatesByContent) {
  std::vector<IisaInst> Body;
  Body.push_back(compute(Opcode::ADDQ, IOperand::gpr(1), IOperand::imm(1),
                         0, 5));
  Body.push_back(branchTo(0xA0000));
  native::EmitResult Emit = native::emitFragmentC(Body, IsaVariant::Modified);
  ASSERT_TRUE(Emit.Ok);
  native::CompileResult Obj =
      native::compileToObject(native::hostCompiler(), Emit.Source);
  ASSERT_TRUE(Obj.Ok) << Obj.Diag;

  size_t Before = native::liveModuleCount();
  std::shared_ptr<native::NativeModule> M1 = native::loadModule(Obj.Object);
  ASSERT_NE(M1, nullptr);
  std::shared_ptr<native::NativeModule> M2 = native::loadModule(Obj.Object);
  // Identical bytes: one dlopen serves both handles (the fleet-sharing
  // property), and dropping every handle unmaps exactly once.
  EXPECT_EQ(M1.get(), M2.get());
  EXPECT_EQ(native::liveModuleCount(), Before + 1);
  M1.reset();
  EXPECT_EQ(native::liveModuleCount(), Before + 1);
  M2.reset();
  EXPECT_EQ(native::liveModuleCount(), Before);
}

TEST_F(NativeRoundTrip, EveryListedOperationMatchesSemantics) {
  // Operands in r1 (Ra) and r2 (Rb); every other GPR but r31 takes one
  // result, so a whole list fits one body and one host compile.
  std::vector<uint8_t> Dests;
  for (unsigned G = 0; G != NumIisaGprs; ++G)
    if (G != 1 && G != 2 && G != alpha::RegZero)
      Dests.push_back(uint8_t(G));
  ASSERT_GE(Dests.size(), IntOps.size() + 2 * CmovOps.size());
  auto AccFor = [](size_t I) { return uint8_t(I % MaxAccumulators); };

  // Register form: every operation, then every cmov predicate as a
  // straightened cmov (old value in its destination) and as a CmovMask.
  std::vector<IisaInst> RegBody;
  for (size_t I = 0; I != IntOps.size(); ++I)
    RegBody.push_back(compute(IntOps[I], IOperand::gpr(1), IOperand::gpr(2),
                              AccFor(I), Dests[I]));
  const size_t CmovBase = IntOps.size();
  const size_t MaskBase = CmovBase + CmovOps.size();
  for (size_t I = 0; I != CmovOps.size(); ++I)
    RegBody.push_back(compute(CmovOps[I], IOperand::gpr(1), IOperand::gpr(2),
                              NoReg, Dests[CmovBase + I]));
  for (size_t I = 0; I != CmovOps.size(); ++I) {
    IisaInst Mask;
    Mask.Kind = IKind::CmovMask;
    Mask.AlphaOp = CmovOps[I];
    Mask.A = IOperand::gpr(1);
    Mask.DestAcc = AccFor(I);
    Mask.DestGpr = Dests[MaskBase + I];
    RegBody.push_back(Mask);
  }
  RegBody.push_back(branchTo(0xB0000));

  // Literal form: every operation on r1 and a per-operation immediate
  // (alternately an edge value and a random 8-bit literal), so the host
  // compiler's constant folding of each operation is checked too.
  std::vector<IisaInst> LitBody;
  std::vector<uint64_t> Imms;
  Rng LitRand(0x11712A1);
  for (size_t I = 0; I != IntOps.size(); ++I) {
    uint64_t Imm = I % 2 ? LitRand.nextBelow(256)
                         : EdgeValues[(I / 2) % std::size(EdgeValues)];
    Imms.push_back(Imm);
    LitBody.push_back(compute(IntOps[I], IOperand::gpr(1),
                              IOperand::imm(int64_t(Imm)), AccFor(I),
                              Dests[I]));
  }
  LitBody.push_back(branchTo(0xB0040));

  std::shared_ptr<native::NativeModule> RegCode =
      compileBody(RegBody, IsaVariant::Modified);
  std::shared_ptr<native::NativeModule> LitCode =
      compileBody(LitBody, IsaVariant::Modified);
  ASSERT_NE(RegCode, nullptr);
  ASSERT_NE(LitCode, nullptr);

  std::set<Opcode> IntSeen, CmovSeen;
  Rng StateRand(0xC0DEC0DE);
  for (auto [A, B] : sweepOperands()) {
    IExecState Init = randomState(StateRand);
    Init.writeGpr(1, A);
    Init.writeGpr(2, B);
    std::string Context =
        "A=" + std::to_string(A) + " B=" + std::to_string(B);

    IExecState Reg = runAgainstExecutor(*RegCode, RegBody, Init,
                                        "register form, " + Context)
                         .first;
    for (size_t I = 0; I != IntOps.size(); ++I) {
      EXPECT_EQ(Reg.readGpr(Dests[I]), alpha::evalIntOp(IntOps[I], A, B))
          << alpha::getMnemonic(IntOps[I]) << " " << Context;
      IntSeen.insert(IntOps[I]);
    }
    for (size_t I = 0; I != CmovOps.size(); ++I) {
      bool Cond = alpha::evalCmovCond(CmovOps[I], A);
      uint8_t Straight = Dests[CmovBase + I], Mask = Dests[MaskBase + I];
      EXPECT_EQ(Reg.readGpr(Straight), Cond ? B : Init.readGpr(Straight))
          << alpha::getMnemonic(CmovOps[I]) << " " << Context;
      EXPECT_EQ(Reg.readGpr(Mask), Cond ? ~uint64_t(0) : 0)
          << alpha::getMnemonic(CmovOps[I]) << " mask " << Context;
      CmovSeen.insert(CmovOps[I]);
    }

    IExecState Lit = runAgainstExecutor(*LitCode, LitBody, Init,
                                        "literal form, " + Context)
                         .first;
    for (size_t I = 0; I != IntOps.size(); ++I)
      EXPECT_EQ(Lit.readGpr(Dests[I]),
                alpha::evalIntOp(IntOps[I], A, Imms[I]))
          << alpha::getMnemonic(IntOps[I]) << " A=" << A
          << " imm=" << Imms[I];
  }
  EXPECT_EQ(IntSeen.size(), NumListedIntOps);
  EXPECT_EQ(CmovSeen.size(), NumListedCmovOps);
}

TEST_F(NativeRoundTrip, EveryListedBranchPredicateMatchesSemantics) {
  // One cond_exit per predicate, testing r(1 + I); the final branch is
  // reached when none is taken.
  std::vector<IisaInst> Body;
  for (size_t I = 0; I != BranchOps.size(); ++I) {
    IisaInst Exit;
    Exit.Kind = IKind::CondExit;
    Exit.AlphaOp = BranchOps[I];
    Exit.A = IOperand::gpr(uint8_t(1 + I));
    Exit.VTarget = 0xC0000 + 4 * I;
    Body.push_back(Exit);
  }
  Body.push_back(branchTo(0xC1000));
  std::shared_ptr<native::NativeModule> Code =
      compileBody(Body, IsaVariant::Modified);
  ASSERT_NE(Code, nullptr);

  // A value each predicate rejects, so only the exit under test can fire.
  auto NotTaken = [](Opcode Op) {
    for (uint64_t V : {uint64_t(0), uint64_t(1), ~uint64_t(0)})
      if (!alpha::evalBranchCond(Op, V))
        return V;
    ADD_FAILURE() << alpha::getMnemonic(Op) << " is taken on 0, 1 and ~0";
    return uint64_t(0);
  };

  std::set<Opcode> Seen;
  Rng StateRand(0xB4A7C4);
  for (size_t I = 0; I != BranchOps.size(); ++I) {
    for (auto [A, Unused] : sweepOperands()) {
      (void)Unused;
      IExecState Init = randomState(StateRand);
      for (size_t J = 0; J != BranchOps.size(); ++J)
        Init.writeGpr(unsigned(1 + J), J == I ? A : NotTaken(BranchOps[J]));
      std::string Context = std::string(alpha::getMnemonic(BranchOps[I])) +
                            " A=" + std::to_string(A);
      IExit Exit = runAgainstExecutor(*Code, Body, Init, Context).second;
      bool Taken = alpha::evalBranchCond(BranchOps[I], A);
      EXPECT_EQ(Exit.K, IExit::Kind::Chained) << Context;
      EXPECT_EQ(Exit.InstIndex, Taken ? I : BranchOps.size()) << Context;
      Seen.insert(BranchOps[I]);
    }
  }
  EXPECT_EQ(Seen.size(), NumListedBranchOps);
}

TEST_F(NativeRoundTrip, EveryOpCodeMatchesTheExecutor) {
  // One body per op code: the first sweep instruction (tests/iisa/
  // OpSweep.h) that lowers to it, then a halt, as ExecutorOracle's sweep
  // runs them. Compiled through the worker pool the VM uses.
  Rng R(0x0C0DE5EE);
  IisaInst Halt;
  Halt.Kind = IKind::Halt;
  std::map<uint64_t, std::vector<IisaInst>> Bodies; // By op code.
  for (const IisaInst &Inst : opsweep::sweepInstructions(R)) {
    std::vector<IisaInst> Body = {Inst, Halt};
    Bodies.emplace(uint64_t(lowerToOps(Body)[0].Code), Body);
  }
  native::NativeService Service(native::hostCompiler(), 4, Bodies.size());
  for (const auto &[Code, Body] : Bodies) {
    native::NativeRequest Req;
    Req.Key = Code;
    Req.Body = Body;
    ASSERT_TRUE(Service.trySubmit(std::move(Req)));
  }
  Service.waitAllIdle();
  std::vector<native::NativeCompletion> Done;
  Service.drainCompleted(Done);
  ASSERT_EQ(Done.size(), Bodies.size());
  // Completions arrive in any order; states are drawn in op-code order.
  std::map<uint64_t, native::NativeCompletion> ByCode;
  for (native::NativeCompletion &C : Done)
    ByCode[C.Key] = std::move(C);

  // Registers point into the one page seedMemory maps, or near it.
  const std::vector<uint64_t> Pages = {0x1000};
  std::set<uint64_t> Compiled;
  for (const auto &[Code, Body] : Bodies) {
    const native::NativeCompletion &C = ByCode[Code];
    std::string Context = "op code " + std::to_string(Code) + " (kind " +
                          getKindName(Body[0].Kind) + ")";
    ASSERT_TRUE(C.Ok) << Context << ": " << C.Reason;
    std::shared_ptr<native::NativeModule> Module =
        native::loadModule(C.Object);
    ASSERT_NE(Module, nullptr) << Context;
    for (unsigned S = 0; S != 8; ++S)
      runAgainstExecutor(*Module, Body, opsweep::randomState(R, Pages),
                         Context + ", state " + std::to_string(S));
    Compiled.insert(Code);
  }
  EXPECT_EQ(Compiled.size(), NumOpCodes - 1);
}
