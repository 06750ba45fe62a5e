//===- tests/native/NativeEmitterTest.cpp ---------------------------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The emitter's contracts that need no host toolchain: fragmentKey()
/// covers exactly the emission-relevant fields (stable across exit
/// repatching and accounting metadata, sensitive to anything that changes
/// the generated code), and emission is total-or-refuse — malformed
/// bodies come back with a typed reason, never a bogus translation unit,
/// and a body is refused exactly when its lowering holds a Bad op.
///
//===----------------------------------------------------------------------===//

#include "native/NativeEmitter.h"

#include "../iisa/OpSweep.h"
#include "native/NativeAbi.h"

#include <gtest/gtest.h>

#include <algorithm>
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

IisaInst branchTo(uint64_t Target) {
  IisaInst I;
  I.Kind = IKind::Branch;
  I.VTarget = Target;
  return I;
}

std::vector<IisaInst> sampleBody() {
  std::vector<IisaInst> Body;
  IisaInst Vpc;
  Vpc.Kind = IKind::SetVpcBase;
  Vpc.VTarget = 0x10000;
  Body.push_back(Vpc);
  Body.push_back(compute(Opcode::ADDQ, IOperand::gpr(1), IOperand::imm(2),
                         0, 5));
  IisaInst Ld;
  Ld.Kind = IKind::Load;
  Ld.AlphaOp = Opcode::LDQ;
  Ld.B = IOperand::gpr(16);
  Ld.MemDisp = 8;
  Ld.DestAcc = 1;
  Ld.DestGpr = 4;
  Body.push_back(Ld);
  Body.push_back(branchTo(0x10020));
  return Body;
}

} // namespace

TEST(NativeEmitter, KeyIsDeterministic) {
  std::vector<IisaInst> Body = sampleBody();
  EXPECT_EQ(native::fragmentKey(Body, IsaVariant::Modified),
            native::fragmentKey(Body, IsaVariant::Modified));
  EXPECT_NE(native::fragmentKey(Body, IsaVariant::Modified),
            native::fragmentKey(Body, IsaVariant::Basic));
}

TEST(NativeEmitter, KeyIgnoresAccountingFields) {
  std::vector<IisaInst> Body = sampleBody();
  uint64_t Key = native::fragmentKey(Body, IsaVariant::Modified);

  // Imports and eviction churn the accounting metadata. None of it
  // changes the emitted code, so none of it may change the key — this is
  // what keeps one compiled object valid across re-install and persist
  // round-trips.
  std::vector<IisaInst> Patched = Body;
  Patched[1].VCredit = 3;
  Patched[1].IsSourceOp = true;
  Patched[1].Usage = UsageClass::CommGlobal;
  Patched[2].VAddr = 0xDEAD;
  Patched[2].SizeBytes = 6;
  Patched[2].PeiIndex = 7;
  Patched[1].GprWriteArchOnly = true;
  EXPECT_EQ(native::fragmentKey(Patched, IsaVariant::Modified), Key);
}

TEST(NativeEmitter, KeyCoversEmissionRelevantFields) {
  std::vector<IisaInst> Body = sampleBody();
  uint64_t Key = native::fragmentKey(Body, IsaVariant::Modified);

  auto Mutated = [&](auto Mutate) {
    std::vector<IisaInst> Copy = Body;
    Mutate(Copy);
    return native::fragmentKey(Copy, IsaVariant::Modified);
  };
  EXPECT_NE(Mutated([](auto &B) { B[1].AlphaOp = Opcode::SUBQ; }), Key);
  EXPECT_NE(Mutated([](auto &B) { B[1].A = IOperand::gpr(2); }), Key);
  EXPECT_NE(Mutated([](auto &B) { B[1].B = IOperand::imm(3); }), Key);
  EXPECT_NE(Mutated([](auto &B) { B[1].DestGpr = 6; }), Key);
  EXPECT_NE(Mutated([](auto &B) { B[1].DestAcc = 7; }), Key);
  EXPECT_NE(Mutated([](auto &B) { B[2].MemDisp = 16; }), Key);
  EXPECT_NE(Mutated([](auto &B) { B[3].VTarget = 0x10040; }), Key);
  EXPECT_NE(Mutated([](auto &B) { B.pop_back(); }), Key);
}

TEST(NativeEmitter, EmitsSelfContainedTranslationUnit) {
  native::EmitResult R =
      native::emitFragmentC(sampleBody(), IsaVariant::Modified);
  ASSERT_TRUE(R.Ok) << R.Reason;
  // The unit must be self-contained C: the ABI struct, the entry symbol,
  // and no includes (the compile command has no include paths).
  EXPECT_NE(R.Source.find("struct ildp_native_ctx"), std::string::npos);
  EXPECT_NE(R.Source.find(native::nativeEntrySymbol()), std::string::npos);
  EXPECT_EQ(R.Source.find("#include"), std::string::npos);
}

TEST(NativeEmitter, RefusesMalformedBodiesWithTypedReason) {
  native::EmitResult Empty =
      native::emitFragmentC({}, IsaVariant::Modified);
  EXPECT_FALSE(Empty.Ok);
  EXPECT_STREQ(Empty.Reason, "empty-body");

  std::vector<IisaInst> BadAcc = sampleBody();
  BadAcc[1].DestAcc = MaxAccumulators; // One past the hardware limit.
  native::EmitResult R1 = native::emitFragmentC(BadAcc, IsaVariant::Modified);
  EXPECT_FALSE(R1.Ok);
  EXPECT_STREQ(R1.Reason, "bad-op");

  std::vector<IisaInst> BadGpr = sampleBody();
  BadGpr[1].A = IOperand::gpr(NumIisaGprs); // One past the register file.
  native::EmitResult R2 = native::emitFragmentC(BadGpr, IsaVariant::Modified);
  EXPECT_FALSE(R2.Ok);
  EXPECT_STREQ(R2.Reason, "bad-op");
}

TEST(NativeEmitter, CallsSharedOperationsAndNamedExitCodes) {
  native::EmitResult R =
      native::emitFragmentC(sampleBody(), IsaVariant::Modified);
  ASSERT_TRUE(R.Ok) << R.Reason;
  // The operation is a call into the embedded alpha/AlphaOps.h on the
  // local of GPR 1's slot, and exits name their native/NativeCtx.h code.
  std::string Add = "ildp_op_ADDQ(s" +
                    std::to_string(IExecState::GprSlot0 + 1) + ", 0x2ULL)";
  EXPECT_NE(R.Source.find(Add), std::string::npos);
  EXPECT_NE(R.Source.find("ILDP_EXIT(ILDP_EXIT_DIRECT, "), std::string::npos);
}

TEST(NativeEmitter, RefusesOpcodesOutsideTheSharedLists) {
  auto ReasonFor = [](IKind Kind, Opcode Op) {
    std::vector<IisaInst> Body;
    IisaInst I;
    I.Kind = Kind;
    I.AlphaOp = Op;
    I.A = IOperand::gpr(1);
    I.B = IOperand::gpr(2);
    I.DestAcc = 0;
    Body.push_back(I);
    Body.push_back(branchTo(0x10000));
    native::EmitResult R = native::emitFragmentC(Body, IsaVariant::Modified);
    EXPECT_FALSE(R.Ok);
    return std::string(R.Reason);
  };
  EXPECT_EQ(ReasonFor(IKind::Compute, Opcode::LDQ), "bad-op");
  EXPECT_EQ(ReasonFor(IKind::CmovMask, Opcode::ADDQ), "bad-op");
  EXPECT_EQ(ReasonFor(IKind::CondExit, Opcode::ADDQ), "bad-op");
}

TEST(NativeEmitter, RefusesExactlyTheBodiesWhoseLoweringHoldsABadOp) {
  // Every sweep instruction (tests/iisa/OpSweep.h) as it is, with a
  // random foreign opcode, and with one register field out of range,
  // each before a halt. Whether a variant lowers to Bad is for the
  // lowering to say; the emitter must refuse exactly those bodies.
  Rng R(0xBAD0C0DE);
  IisaInst Halt;
  Halt.Kind = IKind::Halt;
  std::set<OpCode> Emitted;
  size_t Refused = 0;
  auto Check = [&](const std::vector<IisaInst> &Body) {
    std::vector<IOp> Ops = lowerToOps(Body);
    bool HasBad = std::any_of(Ops.begin(), Ops.end() - 1, [](const IOp &O) {
      return O.Code == OpCode::Bad;
    });
    native::EmitResult E = native::emitFragmentC(Body, IsaVariant::Modified);
    std::string Insts;
    for (const IisaInst &I : Body)
      Insts += std::string(getKindName(I.Kind)) + "/" +
               std::to_string(int(I.AlphaOp)) + " ";
    EXPECT_EQ(E.Ok, !HasBad) << Insts;
    if (!E.Ok) {
      EXPECT_STREQ(E.Reason, "bad-op");
      ++Refused;
    } else {
      Emitted.insert(Ops[0].Code);
    }
  };
  for (const IisaInst &Inst : opsweep::sweepInstructions(R)) {
    Check({Inst, Halt});
    IisaInst Foreign = Inst;
    Foreign.AlphaOp = Opcode(R.nextBelow(alpha::NumOpcodes));
    Check({Inst, Foreign, Halt});
    IisaInst Missing = Inst;
    switch (R.nextBelow(4)) {
    case 0:
      Missing.A = IOperand::acc(MaxAccumulators);
      break;
    case 1:
      Missing.B = IOperand::gpr(NumIisaGprs);
      break;
    case 2:
      Missing.DestAcc = MaxAccumulators;
      break;
    default:
      Missing.DestGpr = NumIisaGprs;
      break;
    }
    Check({Missing, Halt});
  }
  EXPECT_GT(Refused, 0u);
  // Every op code but the guard is emitted somewhere.
  EXPECT_EQ(Emitted.size(), NumOpCodes - 1);
  EXPECT_EQ(Emitted.count(OpCode::Bad), 0u);
}
