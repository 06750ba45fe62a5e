//===- tests/vm/VmChainingTest.cpp ----------------------------------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fragment chaining behaviour (Sections 3.2/4.3): patching of
/// call-translator exits, software jump prediction hit/miss flow through
/// the dispatch code, and the dual-address RAS return path.
///
//===----------------------------------------------------------------------===//

#include "alpha/Assembler.h"
#include "vm/VirtualMachine.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace ildp;
using namespace ildp::alpha;
using namespace ildp::vm;
using Op = Opcode;

namespace {

GuestMemory loadProgram(Assembler &Asm, std::vector<uint32_t> Words) {
  GuestMemory Mem;
  for (size_t I = 0; I != Words.size(); ++I)
    Mem.poke32(Asm.baseAddr() + I * 4, Words[I]);
  return Mem;
}

} // namespace

TEST(VmChaining, ExitsGetPatchedAsFragmentsAppear) {
  // Two hot inner loops inside an outer loop: the first inner fragment's
  // fall-through exit is initially a call-translator exit and must be
  // patched once the junction code between the loops becomes hot and gets
  // its own fragment.
  Assembler Asm(0x10000);
  Asm.loadImm(18, 80); // outer iterations (above the hot threshold)
  auto Outer = Asm.createLabel("outer");
  Asm.bind(Outer);
  Asm.loadImm(17, 100);
  auto L1 = Asm.createLabel("l1");
  Asm.bind(L1);
  Asm.operatei(Op::ADDQ, 9, 1, 9);
  Asm.operatei(Op::SUBL, 17, 1, 17);
  Asm.condBr(Op::BNE, 17, L1);
  Asm.loadImm(17, 100);
  auto L2 = Asm.createLabel("l2");
  Asm.bind(L2);
  Asm.operatei(Op::ADDQ, 9, 2, 9);
  Asm.operatei(Op::SUBL, 17, 1, 17);
  Asm.condBr(Op::BNE, 17, L2);
  Asm.operatei(Op::SUBL, 18, 1, 18);
  Asm.condBr(Op::BNE, 18, Outer);
  Asm.halt();
  GuestMemory Mem = loadProgram(Asm, Asm.finalize());

  VmConfig Config;
  VirtualMachine Vm(Mem, 0x10000, Config);
  ASSERT_EQ(Vm.run().Reason, StopReason::Halted);
  const StatisticSet &S = Vm.stats();
  EXPECT_GE(S.get("tcache.fragments"), 2u);
  // Chained transfers dominate; translator exits happen only while the
  // second fragment does not exist yet.
  EXPECT_GT(S.get("exit.chained"), S.get("exit.translator"));
}

TEST(VmChaining, SelfLoopChainsWithoutDispatch) {
  Assembler Asm(0x10000);
  Asm.loadImm(17, 5000);
  auto L = Asm.createLabel("l");
  Asm.bind(L);
  Asm.operatei(Op::ADDQ, 9, 1, 9);
  Asm.operatei(Op::SUBL, 17, 1, 17);
  Asm.condBr(Op::BNE, 17, L);
  Asm.halt();
  GuestMemory Mem = loadProgram(Asm, Asm.finalize());
  VmConfig Config;
  VirtualMachine Vm(Mem, 0x10000, Config);
  ASSERT_EQ(Vm.run().Reason, StopReason::Halted);
  const StatisticSet &S = Vm.stats();
  EXPECT_GT(S.get("exit.chained"), 4000u);
  EXPECT_EQ(S.get("dispatch.calls"), 0u);
}

namespace {

/// A call/return pattern driven through a function-pointer table with two
/// targets so software jump prediction sees both hits and misses.
GuestMemory buildCallProgram(uint64_t &Entry, unsigned Iters,
                             bool Alternate) {
  Assembler Asm(0x10000);
  auto F1 = Asm.createLabel("f1");
  auto F2 = Asm.createLabel("f2");
  auto Loop = Asm.createLabel("loop");
  Asm.loadImm(RegSP, 0x30000);
  Asm.loadImm(17, Iters);
  Asm.loadLabelAddr(4, F1);
  Asm.loadLabelAddr(5, F2);
  Asm.bind(Loop);
  if (Alternate) {
    // Alternate targets: r27 = odd(r17) ? f1 : f2.
    Asm.mov(5, 27);
    Asm.operate(Op::CMOVLBS, 17, 4, 27);
  } else {
    Asm.mov(4, 27);
  }
  Asm.jsr(26, 27);
  Asm.operatei(Op::SUBL, 17, 1, 17);
  Asm.condBr(Op::BNE, 17, Loop);
  Asm.halt();
  Asm.bind(F1);
  Asm.operatei(Op::ADDQ, 9, 1, 9);
  Asm.ret(26);
  Asm.bind(F2);
  Asm.operatei(Op::ADDQ, 9, 2, 9);
  Asm.ret(26);
  Entry = 0x10000;
  GuestMemory Mem;
  std::vector<uint32_t> Words = Asm.finalize();
  for (size_t I = 0; I != Words.size(); ++I)
    Mem.poke32(0x10000 + I * 4, Words[I]);
  Mem.mapRegion(0x30000 - 0x1000, 0x2000);
  return Mem;
}

} // namespace

TEST(VmChaining, StablePredictionHitsAfterWarmup) {
  uint64_t Entry;
  GuestMemory Mem = buildCallProgram(Entry, 4000, /*Alternate=*/false);
  VmConfig Config;
  VirtualMachine Vm(Mem, Entry, Config);
  ASSERT_EQ(Vm.run().Reason, StopReason::Halted);
  const StatisticSet &S = Vm.stats();
  // Monomorphic call target: software prediction should almost always hit.
  EXPECT_GT(S.get("exit.predict_hit"), 3000u);
  EXPECT_LT(S.get("exit.predict_miss"), 100u);
  // Returns are covered by the dual-address RAS (warm-up may miss once
  // or twice while fragments are still being created).
  EXPECT_GT(S.get("exit.return_hit"), 3000u);
  EXPECT_LE(S.get("exit.return_miss"), 5u);
}

TEST(VmChaining, AlternatingTargetsMissPrediction) {
  uint64_t Entry;
  GuestMemory Mem = buildCallProgram(Entry, 4000, /*Alternate=*/true);
  VmConfig Config;
  VirtualMachine Vm(Mem, Entry, Config);
  ASSERT_EQ(Vm.run().Reason, StopReason::Halted);
  const StatisticSet &S = Vm.stats();
  // The embedded translation-time target matches only half the calls:
  // the paper's "inherent limit of simple translation-time prediction".
  EXPECT_GT(S.get("exit.predict_miss"), 1000u);
  EXPECT_GT(S.get("dispatch.calls"), 1000u);
  EXPECT_EQ(S.get("dispatch.insts"),
            S.get("dispatch.calls") * VirtualMachine::DispatchInsts);
}

TEST(VmChaining, NoPredAlwaysDispatches) {
  uint64_t Entry;
  GuestMemory Mem = buildCallProgram(Entry, 2000, /*Alternate=*/false);
  VmConfig Config;
  Config.Dbt.Chaining = dbt::ChainPolicy::NoPred;
  VirtualMachine Vm(Mem, Entry, Config);
  ASSERT_EQ(Vm.run().Reason, StopReason::Halted);
  const StatisticSet &S = Vm.stats();
  EXPECT_EQ(S.get("exit.predict_hit"), 0u);
  EXPECT_EQ(S.get("exit.return_hit"), 0u);
  // Every indirect transfer (call and return) goes through dispatch.
  EXPECT_GT(S.get("exit.dispatch"), 3500u);
}

TEST(VmChaining, SwPredNoRasTreatsReturnsAsJumps) {
  uint64_t Entry;
  GuestMemory Mem = buildCallProgram(Entry, 2000, /*Alternate=*/false);
  VmConfig Config;
  Config.Dbt.Chaining = dbt::ChainPolicy::SwPredNoRas;
  VirtualMachine Vm(Mem, Entry, Config);
  ASSERT_EQ(Vm.run().Reason, StopReason::Halted);
  const StatisticSet &S = Vm.stats();
  EXPECT_EQ(S.get("exit.return_hit"), 0u);
  EXPECT_EQ(S.get("exit.return_miss"), 0u);
  EXPECT_EQ(S.get("ras.push"), 0u);
  // Returns here are monomorphic (single call site): compare-and-branch
  // prediction works for them too.
  EXPECT_GT(S.get("exit.predict_hit"), 3000u);
}

TEST(VmChaining, DualRasSurvivesRealRecursion) {
  GuestMemory Mem;
  workloads::WorkloadImage Img = workloads::buildWorkload("parser", Mem, 1);
  VmConfig Config;
  VirtualMachine Vm(Mem, Img.EntryPc, Config);
  ASSERT_EQ(Vm.run().Reason, StopReason::Halted);
  const StatisticSet &S = Vm.stats();
  uint64_t Hits = S.get("exit.return_hit");
  uint64_t Misses = S.get("exit.return_miss");
  ASSERT_GT(Hits + Misses, 1000u);
  // The paper: the dual-address RAS achieves near-original return
  // prediction. Recursion depth can exceed 8, so some misses are fine.
  EXPECT_GT(Hits, (Hits + Misses) * 8 / 10);
}
