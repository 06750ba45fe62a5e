//===- tests/core/FlushTest.cpp -------------------------------------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Translation-cache flushing (the Dynamo-style mechanism Section 4.1
/// discusses): the cache-level flush operation, and the VM's phase-change
/// policy — correctness must be unaffected, and the new phase must get
/// fresh fragments.
///
//===----------------------------------------------------------------------===//

#include "alpha/Assembler.h"
#include "core/TranslationCache.h"
#include "vm/VirtualMachine.h"

#include <gtest/gtest.h>

#include <cstdio>

using namespace ildp;
using namespace ildp::alpha;
using Op = Opcode;

namespace {

dbt::Fragment miniFragment(uint64_t Entry) {
  dbt::Fragment F;
  F.EntryVAddr = Entry;
  iisa::IisaInst Vpc;
  Vpc.Kind = iisa::IKind::SetVpcBase;
  Vpc.VTarget = Entry;
  Vpc.SizeBytes = 6;
  F.Body.push_back(Vpc);
  iisa::IisaInst Br;
  Br.Kind = iisa::IKind::Branch;
  Br.VTarget = Entry + 0x100;
  Br.ToTranslator = true;
  Br.SizeBytes = 4;
  F.Body.push_back(Br);
  F.InstOffset = {0, 6};
  F.BodyBytes = 10;
  F.Exits.push_back({1, Entry + 0x100, true});
  F.SourceVAddrs = {Entry};
  return F;
}

} // namespace

TEST(TranslationCacheFlush, ClearsEverything) {
  dbt::TranslationCache TC;
  TC.install(miniFragment(0x1000));
  uint64_t FirstIBase = TC.lookup(0x1000)->IBase;
  TC.install(miniFragment(0x2000));
  ASSERT_EQ(TC.fragmentCount(), 2u);

  TC.flush();
  EXPECT_EQ(TC.fragmentCount(), 0u);
  EXPECT_EQ(TC.lookup(0x1000), nullptr);
  EXPECT_EQ(TC.totalBodyBytes(), 0u);
  EXPECT_EQ(TC.uniqueSourceInsts(), 0u);
  EXPECT_EQ(TC.flushCount(), 1u);

  // Reinstallation works and I-PCs never go backwards (predictor state
  // indexed by I-PC must stay coherent).
  dbt::Fragment &F = TC.install(miniFragment(0x1000));
  EXPECT_GT(F.IBase, FirstIBase);
}

TEST(TranslationCacheFlush, PendingExitsDoNotDangleAcrossFlush) {
  dbt::TranslationCache TC;
  TC.install(miniFragment(0x1000)); // pending exit to 0x1100
  TC.flush();
  // Installing the old pending target must not touch freed fragments.
  TC.install(miniFragment(0x1100));
  EXPECT_EQ(TC.patchCount(), 0u);
}

namespace {

/// A two-phase program: phase 1 exercises one set of loops, phase 2 a
/// disjoint set, with enough loops per phase to trip the flush policy.
GuestMemory buildTwoPhase(uint64_t &Entry, uint64_t &Checksum) {
  Assembler Asm(0x10000);
  Asm.movi(0, 9);
  // Two phases x 30 small hot loops each.
  for (int Phase = 0; Phase != 2; ++Phase) {
    for (int L = 0; L != 30; ++L) {
      Asm.loadImm(17, 120); // hot (threshold 50) but short-lived
      // Formatted into a buffer: GCC 12 at -O3 raises a false-positive
      // -Wrestrict on "literal" + std::string.
      char Name[32];
      std::snprintf(Name, sizeof(Name), "p%d_%d", int(Phase), int(L));
      auto Loop = Asm.createLabel(Name);
      Asm.bind(Loop);
      Asm.operatei(Op::ADDQ, 9, uint8_t(1 + L % 7), 9);
      Asm.operatei(Op::SUBL, 17, 1, 17);
      Asm.condBr(Op::BNE, 17, Loop);
    }
  }
  Asm.mov(9, RegV0);
  Asm.halt();
  Entry = 0x10000;
  GuestMemory Mem;
  std::vector<uint32_t> Words = Asm.finalize();
  for (size_t I = 0; I != Words.size(); ++I)
    Mem.poke32(0x10000 + I * 4, Words[I]);

  // Reference checksum.
  Interpreter Ref(Mem);
  Ref.state().Pc = Entry;
  EXPECT_EQ(Ref.run(10'000'000).Status, StepStatus::Halted);
  Checksum = Ref.state().readGpr(RegV0);
  return Mem;
}

} // namespace

TEST(VmPhaseFlush, FlushesAndStaysCorrect) {
  uint64_t Entry = 0, Checksum = 0;
  GuestMemory Mem = buildTwoPhase(Entry, Checksum);

  vm::VmConfig Config;
  Config.FlushOnPhaseChange = true;
  Config.PhaseWindow = 50'000;
  Config.PhaseFragmentThreshold = 10;
  vm::VirtualMachine Vm(Mem, Entry, Config);
  ASSERT_EQ(Vm.run().Reason, vm::StopReason::Halted);
  EXPECT_EQ(Vm.interpreter().state().readGpr(RegV0), Checksum);
  EXPECT_GT(Vm.stats().get("tcache.flushes"), 0u);
}

TEST(VmPhaseFlush, OffByDefault) {
  uint64_t Entry = 0, Checksum = 0;
  GuestMemory Mem = buildTwoPhase(Entry, Checksum);
  vm::VmConfig Config;
  vm::VirtualMachine Vm(Mem, Entry, Config);
  ASSERT_EQ(Vm.run().Reason, vm::StopReason::Halted);
  EXPECT_EQ(Vm.stats().get("tcache.flushes"), 0u);
  EXPECT_EQ(Vm.interpreter().state().readGpr(RegV0), Checksum);
}
