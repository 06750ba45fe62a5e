//===- tests/vm/VmGarbageFuzzTest.cpp -------------------------------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Garbage-in robustness: the VM pointed at seeded random guest images —
/// biased toward decodable-but-meaningless instructions — must never
/// crash, also while a tiny code-cache budget and phase flushing churn
/// its fragments; every run ends in a halt, a precise trap, or the
/// budget, and any halt/trap state is bit-identical to the pure
/// interpreter's. A
/// second fuzzer feeds random superblocks straight into translate():
/// every outcome must be a fragment or a typed TranslateStatus, never an
/// abort.
///
//===----------------------------------------------------------------------===//

#include "alpha/Decoder.h"
#include "core/Translator.h"
#include "support/Rng.h"
#include "vm/VirtualMachine.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace ildp;
using namespace ildp::vm;

namespace {

constexpr uint64_t CodeBase = 0x10000;
constexpr unsigned CodeWords = 512;
constexpr uint64_t FuzzBudget = 100'000;

/// A seeded garbage image: mostly words with a plausible Alpha major
/// opcode (operates, loads/stores, branches) so decoding and control flow
/// get real coverage, with a fully random word mixed in now and then.
std::vector<uint32_t> garbageWords(uint64_t Seed) {
  Rng Rand(Seed * 0x9E3779B97F4A7C15ull + 1);
  std::vector<uint32_t> Words;
  Words.reserve(CodeWords);
  for (unsigned I = 0; I != CodeWords; ++I) {
    uint32_t Word = uint32_t(Rand.next());
    switch (Rand.nextBelow(16)) {
    case 0: // Fully random (often undecodable -> IllegalInst coverage).
      break;
    case 1: // Memory format: LDx/STx majors, small positive displacement
            // (low memory is mapped, so zeroed registers mostly survive).
      do {
        Word = (uint32_t(Rand.next()) & 0x03FF0000) |
               (uint32_t(Rand.next()) & 0x07F8) |
               (uint32_t(0x28 + Rand.nextBelow(8)) << 26);
      } while (!alpha::decode(Word).valid());
      break;
    case 2:
    case 3:
    case 4: { // Conditional branch, biased backward: forms garbage loops.
      int32_t Disp = int32_t(Rand.nextBelow(80)) - 64;
      do {
        Word = (uint32_t(Rand.next()) & 0x03E00000) |
               (uint32_t(Disp) & 0x001FFFFF) |
               (uint32_t(0x38 + Rand.nextBelow(8)) << 26);
      } while (!alpha::decode(Word).valid());
      break;
    }
    default: // Operate format (INTA/INTL/INTS major opcodes). The function
             // field is sparse, so re-roll until the word decodes.
      do {
        Word = (uint32_t(Rand.next()) & 0x03FFFFFF) |
               (uint32_t(0x10 + Rand.nextBelow(3)) << 26);
      } while (!alpha::decode(Word).valid());
      break;
    }
    Words.push_back(Word);
  }
  return Words;
}

GuestMemory loadImage(const std::vector<uint32_t> &Words) {
  GuestMemory Mem;
  for (size_t I = 0; I != Words.size(); ++I)
    Mem.poke32(CodeBase + I * 4, Words[I]);
  // Low memory is mapped so small-displacement accesses off zeroed
  // registers survive long enough for hot paths to form.
  Mem.mapRegion(0, 0x4000);
  return Mem;
}

struct RefOutcome {
  StepStatus Status;
  Trap TrapInfo;
  ArchState Arch;
};

RefOutcome interpretReference(const std::vector<uint32_t> &Words) {
  GuestMemory Mem = loadImage(Words);
  Interpreter Interp(Mem);
  Interp.state().Pc = CodeBase;
  RefOutcome Out;
  Out.Status = StepStatus::Ok;
  for (uint64_t I = 0; I != FuzzBudget; ++I) {
    StepInfo Info = Interp.step();
    if (Info.Status != StepStatus::Ok) {
      Out.Status = Info.Status;
      Out.TrapInfo = Info.TrapInfo;
      break;
    }
  }
  Out.Arch = Interp.state();
  return Out;
}

/// Runs one garbage image through a VM configured as \p Config and
/// cross-checks the outcome against the pure interpreter. Accumulates the
/// statistics of every run so callers can assert the sweep really reached
/// the DBT.
void fuzzOneImage(uint64_t Seed, VmConfig Config, StatisticSet &Totals) {
  std::vector<uint32_t> Words = garbageWords(Seed);
  RefOutcome Ref = interpretReference(Words);

  GuestMemory Mem = loadImage(Words);
  Config.Dbt.HotThreshold = 4; // Reach translation quickly on any loop.
  Config.MaxGuestInsts = FuzzBudget;
  VirtualMachine Vm(Mem, CodeBase, Config);
  RunResult Result = Vm.run();
  for (const auto &[Name, Value] : Vm.stats().getWithPrefix(""))
    Totals.add(Name, Value);

  std::string Context = "seed " + std::to_string(Seed);
  switch (Ref.Status) {
  case StepStatus::Halted:
    ASSERT_EQ(Result.Reason, StopReason::Halted) << Context;
    break;
  case StepStatus::Trapped:
    ASSERT_EQ(Result.Reason, StopReason::Trapped) << Context;
    EXPECT_EQ(Result.Trap.TrapInfo.Kind, Ref.TrapInfo.Kind) << Context;
    EXPECT_EQ(Result.Trap.Arch.Pc, Ref.Arch.Pc) << Context;
    break;
  case StepStatus::Ok:
    // Reference ran out of budget. The VM counts removed nops differently
    // in translated code, so its own horizon lands elsewhere; terminating
    // cleanly (any reason, no crash) is the property under test here.
    return;
  }
  for (unsigned Reg = 0; Reg != alpha::NumGprs; ++Reg)
    EXPECT_EQ(Vm.interpreter().state().readGpr(Reg), Ref.Arch.readGpr(Reg))
        << Context << ": register r" << Reg << " diverged";
}

} // namespace

TEST(VmGarbageFuzz, RandomImagesNeverCrashSync) {
  StatisticSet Totals;
  for (uint64_t Seed = 1; Seed <= 40; ++Seed)
    fuzzOneImage(Seed, VmConfig(), Totals);
  // The generator biases toward backward branches precisely so some
  // garbage loops turn hot; a sweep that never translates tests nothing.
  EXPECT_GT(Totals.get("tcache.fragments"), 0u);
}

TEST(VmGarbageFuzz, RandomImagesNeverCrashUnderCacheChurn) {
  // Garbage fragments evicted and flushed mid-run: a byte
  // budget that holds a few short fragments, plus phase flushes. Garbage
  // runs are short, so this sweep takes more seeds to reach the churn.
  VmConfig Config;
  Config.CodeCacheBytes = 128;
  Config.Dbt.MaxSuperblockInsts = 4;
  Config.FlushOnPhaseChange = true;
  Config.PhaseWindow = 5'000;
  Config.PhaseFragmentThreshold = 8;
  StatisticSet Totals;
  for (uint64_t Seed = 1; Seed <= 200; ++Seed)
    fuzzOneImage(Seed, Config, Totals);
  EXPECT_GT(Totals.get("dbt.fragments"), 0u);
  EXPECT_GT(Totals.get("cache.evictions"), 0u);
  EXPECT_GT(Totals.get("tcache.flushes"), 0u);
}

// ---------------------------------------------------------------------------
// Random superblocks straight into the pipeline.
// ---------------------------------------------------------------------------

namespace {

/// Builds a superblock from decoded random words with recorder-shaped
/// metadata. Valid-opcode words only (translate() rejects the rest as
/// malformed before the pipeline runs), but the instruction *sequence*
/// respects no recorder invariant at all.
dbt::Superblock randomSuperblock(Rng &Rand) {
  dbt::Superblock Sb;
  Sb.EntryVAddr = CodeBase;
  unsigned Len = 1 + unsigned(Rand.nextBelow(24));
  uint64_t VAddr = CodeBase;
  std::vector<uint32_t> Pool = garbageWords(Rand.next());
  for (unsigned I = 0; I != Len; ++I) {
    alpha::AlphaInst Inst = alpha::decode(Pool[Rand.nextBelow(Pool.size())]);
    if (!Inst.valid())
      continue;
    dbt::SourceInst Src;
    Src.VAddr = VAddr;
    Src.Inst = Inst;
    Src.Taken = Rand.nextChance(1, 3);
    Src.NextVAddr = Src.Taken && alpha::isCondBranch(Inst.Op)
                        ? Inst.branchTarget(VAddr)
                        : VAddr + alpha::InstBytes;
    Sb.Insts.push_back(Src);
    VAddr += alpha::InstBytes;
  }
  Sb.End = dbt::SbEndReason(Rand.nextBelow(6));
  Sb.FinalNextVAddr = VAddr;
  return Sb;
}

} // namespace

TEST(PipelineFuzz, RandomSuperblocksYieldFragmentOrTypedError) {
  Rng Rand(0xF00DF00D);
  const iisa::IsaVariant Variants[] = {iisa::IsaVariant::Basic,
                                       iisa::IsaVariant::Modified,
                                       iisa::IsaVariant::Straight};
  unsigned Ok = 0, Failed = 0;
  for (unsigned Trial = 0; Trial != 300; ++Trial) {
    dbt::Superblock Sb = randomSuperblock(Rand);
    dbt::DbtConfig Config;
    Config.Variant = Variants[Trial % 3];
    Config.NumAccumulators = 2 + unsigned(Trial % 7);
    dbt::Expected<dbt::TranslationResult> R =
        dbt::translate(Sb, Config);
    if (R) {
      ++Ok;
      EXPECT_FALSE(R->Frag.Body.empty()) << "trial " << Trial;
    } else {
      ++Failed;
      EXPECT_NE(R.status(), dbt::TranslateStatus::Ok) << "trial " << Trial;
    }
  }
  // The fuzzer exercises both outcomes; neither dominates completely.
  EXPECT_GT(Ok + Failed, 0u);
  SUCCEED() << Ok << " translated, " << Failed << " typed failures";
}
