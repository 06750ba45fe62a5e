//===- tests/iisa/ExecutorTest.cpp ----------------------------------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//

#include "iisa/Executor.h"

#include <gtest/gtest.h>

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

/// Lowers \p Body and runs it, as the translation cache and VM do.
IExit run(const std::vector<IisaInst> &Body, IExecState &S, GuestMemory &Mem,
          std::vector<IisaEvent> *Events) {
  std::vector<IOp> Ops = lowerToOps(Body);
  return execute(Ops.data(), Body.data(), S, Mem, Events);
}

IisaInst branchTo(uint64_t Target) {
  IisaInst I;
  I.Kind = IKind::Branch;
  I.VTarget = Target;
  return I;
}

} // namespace

TEST(IisaExecutor, ComputeWritesAccAndGpr) {
  GuestMemory Mem;
  IExecState S;
  S.writeGpr(1, 40);
  std::vector<IisaInst> Body = {
      compute(Opcode::ADDQ, IOperand::gpr(1), IOperand::imm(2), 0, 5),
      branchTo(0x2000),
  };
  IExit Exit = run(Body, S, Mem, nullptr);
  EXPECT_EQ(Exit.K, IExit::Kind::Chained);
  EXPECT_EQ(Exit.VTarget, 0x2000u);
  EXPECT_EQ(S.acc()[0], 42u);
  EXPECT_EQ(S.readGpr(5), 42u);
}

TEST(IisaExecutor, BasicStyleCopies) {
  GuestMemory Mem;
  IExecState S;
  S.writeGpr(17, 7);
  std::vector<IisaInst> Body;
  {
    IisaInst From;
    From.Kind = IKind::CopyFromGpr;
    From.A = IOperand::gpr(17);
    From.DestAcc = 1;
    Body.push_back(From);
  }
  Body.push_back(
      compute(Opcode::SUBQ, IOperand::acc(1), IOperand::imm(1), 1));
  {
    IisaInst To;
    To.Kind = IKind::CopyToGpr;
    To.A = IOperand::acc(1);
    To.DestGpr = 17;
    Body.push_back(To);
  }
  Body.push_back(branchTo(0));
  run(Body, S, Mem, nullptr);
  EXPECT_EQ(S.readGpr(17), 6u);
}

TEST(IisaExecutor, LoadStoreWithEvents) {
  GuestMemory Mem;
  Mem.mapRegion(0x1000, 0x100);
  Mem.poke64(0x1008, 0xABCD);
  IExecState S;
  S.writeGpr(16, 0x1008);
  std::vector<IisaInst> Body;
  {
    IisaInst L;
    L.Kind = IKind::Load;
    L.AlphaOp = Opcode::LDQ;
    L.B = IOperand::gpr(16);
    L.DestAcc = 0;
    Body.push_back(L);
  }
  {
    IisaInst St;
    St.Kind = IKind::Store;
    St.AlphaOp = Opcode::STL;
    St.A = IOperand::acc(0);
    St.B = IOperand::gpr(16);
    St.MemDisp = 16;
    Body.push_back(St);
  }
  Body.push_back(branchTo(0));
  std::vector<IisaEvent> Events;
  run(Body, S, Mem, &Events);
  EXPECT_EQ(S.acc()[0], 0xABCDu);
  EXPECT_EQ(Mem.load(0x1018, 4).Value, 0xABCDu);
  ASSERT_EQ(Events.size(), 3u);
  EXPECT_EQ(Events[0].MemAddr, 0x1008u);
  EXPECT_EQ(Events[1].MemAddr, 0x1018u);
}

TEST(IisaExecutor, LoadFaultReportsTrap) {
  GuestMemory Mem;
  IExecState S;
  S.writeGpr(16, 0x5000); // unmapped
  std::vector<IisaInst> Body;
  IisaInst L;
  L.Kind = IKind::Load;
  L.AlphaOp = Opcode::LDQ;
  L.B = IOperand::gpr(16);
  L.DestAcc = 0;
  Body.push_back(L);
  Body.push_back(branchTo(0));
  IExit Exit = run(Body, S, Mem, nullptr);
  EXPECT_EQ(Exit.K, IExit::Kind::Trap);
  EXPECT_EQ(Exit.InstIndex, 0u);
  EXPECT_EQ(Exit.TrapInfo.Kind, TrapKind::MemUnmapped);
  EXPECT_EQ(Exit.TrapInfo.MemAddr, 0x5000u);
  EXPECT_EQ(S.acc()[0], 0u); // The faulting load must not write.
}

TEST(IisaExecutor, CondExitBothWays) {
  GuestMemory Mem;
  IExecState S;
  std::vector<IisaInst> Body;
  IisaInst Cond;
  Cond.Kind = IKind::CondExit;
  Cond.AlphaOp = Opcode::BNE;
  Cond.A = IOperand::acc(1);
  Cond.VTarget = 0x111;
  Body.push_back(Cond);
  Body.push_back(branchTo(0x222));

  S.acc()[1] = 1; // taken
  std::vector<IisaEvent> Events;
  IExit Exit = run(Body, S, Mem, &Events);
  EXPECT_EQ(Exit.K, IExit::Kind::Chained);
  EXPECT_EQ(Exit.VTarget, 0x111u);
  EXPECT_TRUE(Events[0].Taken);

  S.acc()[1] = 0; // fall through
  Events.clear();
  Exit = run(Body, S, Mem, &Events);
  EXPECT_EQ(Exit.VTarget, 0x222u);
  ASSERT_EQ(Events.size(), 2u);
  EXPECT_FALSE(Events[0].Taken);
}

TEST(IisaExecutor, SpecialInstructions) {
  GuestMemory Mem;
  IExecState S;
  S.writeGpr(27, 0x4000);
  std::vector<IisaInst> Body;
  {
    IisaInst Vpc;
    Vpc.Kind = IKind::SetVpcBase;
    Vpc.VTarget = 0x1234;
    Body.push_back(Vpc);
  }
  {
    IisaInst Save;
    Save.Kind = IKind::SaveRetAddr;
    Save.DestGpr = 26;
    Save.VTarget = 0x1010;
    Body.push_back(Save);
  }
  {
    IisaInst Emb;
    Emb.Kind = IKind::LoadEmbTarget;
    Emb.DestAcc = 0;
    Emb.VTarget = 0x4000;
    Body.push_back(Emb);
  }
  Body.push_back(
      compute(Opcode::CMPEQ, IOperand::acc(0), IOperand::gpr(27), 0));
  {
    IisaInst Jump;
    Jump.Kind = IKind::JumpPredict;
    Jump.A = IOperand::acc(0);
    Jump.B = IOperand::gpr(27);
    Jump.VTarget = 0x4000;
    Body.push_back(Jump);
  }
  IExit Exit = run(Body, S, Mem, nullptr);
  EXPECT_EQ(S.vpcBase(), 0x1234u);
  EXPECT_EQ(S.readGpr(26), 0x1010u);
  EXPECT_EQ(Exit.K, IExit::Kind::PredictHit);
  EXPECT_EQ(Exit.VTarget, 0x4000u);

  // Now with a different actual target: prediction misses.
  S.writeGpr(27, 0x8000);
  Exit = run(Body, S, Mem, nullptr);
  EXPECT_EQ(Exit.K, IExit::Kind::PredictMiss);
  EXPECT_EQ(Exit.VTarget, 0x8000u);
}

TEST(IisaExecutor, ReturnAndDispatchExits) {
  GuestMemory Mem;
  IExecState S;
  S.writeGpr(26, 0x9001); // low bits cleared on use
  std::vector<IisaInst> Body;
  IisaInst Ret;
  Ret.Kind = IKind::ReturnDual;
  Ret.B = IOperand::gpr(26);
  Body.push_back(Ret);
  IExit Exit = run(Body, S, Mem, nullptr);
  EXPECT_EQ(Exit.K, IExit::Kind::Return);
  EXPECT_EQ(Exit.VTarget, 0x9000u);

  Body.clear();
  IisaInst Jd;
  Jd.Kind = IKind::JumpDispatch;
  Jd.B = IOperand::gpr(26);
  Body.push_back(Jd);
  Exit = run(Body, S, Mem, nullptr);
  EXPECT_EQ(Exit.K, IExit::Kind::Dispatch);
}

TEST(IisaExecutor, CmovMaskSemantics) {
  GuestMemory Mem;
  IExecState S;
  S.writeGpr(1, 0);
  std::vector<IisaInst> Body;
  IisaInst Mask;
  Mask.Kind = IKind::CmovMask;
  Mask.AlphaOp = Opcode::CMOVEQ;
  Mask.A = IOperand::gpr(1);
  Mask.DestAcc = 2;
  Body.push_back(Mask);
  Body.push_back(branchTo(0));
  run(Body, S, Mem, nullptr);
  EXPECT_EQ(S.acc()[2], ~uint64_t(0));

  S.writeGpr(1, 5);
  run(Body, S, Mem, nullptr);
  EXPECT_EQ(S.acc()[2], 0u);
}

TEST(IisaExecutor, StraightCondMove) {
  GuestMemory Mem;
  IExecState S;
  S.writeGpr(1, 0);  // condition true for CMOVEQ
  S.writeGpr(2, 77);
  S.writeGpr(3, 11); // old value
  std::vector<IisaInst> Body;
  IisaInst Cmov;
  Cmov.Kind = IKind::Compute;
  Cmov.AlphaOp = Opcode::CMOVEQ;
  Cmov.A = IOperand::gpr(1);
  Cmov.B = IOperand::gpr(2);
  Cmov.DestGpr = 3;
  Body.push_back(Cmov);
  Body.push_back(branchTo(0));
  run(Body, S, Mem, nullptr);
  EXPECT_EQ(S.readGpr(3), 77u);

  S.writeGpr(1, 9); // condition false: keep old
  S.writeGpr(3, 11);
  run(Body, S, Mem, nullptr);
  EXPECT_EQ(S.readGpr(3), 11u);
}

TEST(IisaExecutor, ArchStateRoundTrip) {
  IExecState S;
  ArchState A;
  for (unsigned R = 0; R != 31; ++R)
    A.writeGpr(R, R * 3 + 1);
  S.loadArchState(A);
  S.writeGpr(40, 999); // scratch, not architected
  ArchState Out = S.toArchState();
  EXPECT_EQ(Out.Gpr, A.Gpr);
}

TEST(IisaExecutor, GentrapAndHalt) {
  GuestMemory Mem;
  IExecState S;
  std::vector<IisaInst> Body;
  IisaInst G;
  G.Kind = IKind::Gentrap;
  Body.push_back(G);
  IExit Exit = run(Body, S, Mem, nullptr);
  EXPECT_EQ(Exit.K, IExit::Kind::Trap);
  EXPECT_EQ(Exit.TrapInfo.Kind, TrapKind::Gentrap);

  Body.clear();
  IisaInst H;
  H.Kind = IKind::Halt;
  Body.push_back(H);
  Exit = run(Body, S, Mem, nullptr);
  EXPECT_EQ(Exit.K, IExit::Kind::Halt);
}
