//===- tests/iisa/ExecutorOracleTest.cpp ----------------------------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Differential oracle for the I-ISA executor. iisa::execute runs bodies
/// lowered once into pre-specialised ops (iisa::lowerToOps); the generic
/// walk it replaced — decode each IisaInst on every step, read operands by
/// kind, test both destination fields — is kept here as the reference.
///
/// Every fragment that the 12 workloads produce under the three ISA
/// variants and the three chaining policies is run from seeded random
/// machine states whose registers point into the guest's own mapped pages
/// (plus the VM's final architected state), and a sweep of synthetic
/// one-instruction bodies covers every kind x opcode x operand shape. Both
/// executors must agree bit for bit on accumulators, GPRs (r31 staying
/// zero), the VPC base, guest memory and the exit record, and with
/// recording on, on the event stream. The sweep also asserts that every op
/// code the lowering can emit is executed.
///
/// Seeds derive from the gtest random seed, which is 0 unless the suite
/// runs with --gtest_shuffle; shuffled, repeated runs therefore cover new
/// states on every iteration (rerun one with --gtest_random_seed=<seed>).
///
//===----------------------------------------------------------------------===//

#include "iisa/Executor.h"

#include "OpSweep.h"
#include "alpha/Semantics.h"
#include "support/Rng.h"
#include "vm/VirtualMachine.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <set>

using namespace ildp;
using namespace ildp::iisa;
using namespace ildp::opsweep;
using alpha::Opcode;

namespace {

//===----------------------------------------------------------------------===//
// The reference: the generic per-instruction walk.
//===----------------------------------------------------------------------===//

uint64_t readOperand(const IOperand &Op, const IExecState &State) {
  switch (Op.K) {
  case IOperand::Kind::None:
    return 0;
  case IOperand::Kind::Acc:
    assert(Op.Reg < MaxAccumulators && "Accumulator out of range");
    return State.acc()[Op.Reg];
  case IOperand::Kind::Gpr:
    return State.readGpr(Op.Reg);
  case IOperand::Kind::Imm:
    return uint64_t(Op.Imm);
  }
  return 0;
}

void writeResult(const IisaInst &Inst, uint64_t Value, IExecState &State) {
  if (Inst.DestAcc != NoReg) {
    assert(Inst.DestAcc < MaxAccumulators && "Accumulator out of range");
    State.acc()[Inst.DestAcc] = Value;
  }
  if (Inst.DestGpr != NoReg)
    State.writeGpr(Inst.DestGpr, Value);
}

IExit referenceExecute(const IisaInst *Insts, size_t Count, IExecState &State,
                       GuestMemory &Mem, std::vector<IisaEvent> *Events) {
  auto Record = [&](const IisaEvent &Event) {
    if (Events)
      Events->push_back(Event);
  };
  auto ExitAt = [](IExit::Kind K, size_t Index, uint64_t VTarget) {
    IExit Exit;
    Exit.K = K;
    Exit.VTarget = VTarget;
    Exit.InstIndex = uint32_t(Index);
    return Exit;
  };
  for (size_t Index = 0; Index != Count; ++Index) {
    const IisaInst &Inst = Insts[Index];
    IisaEvent Event;
    Event.Index = uint32_t(Index);

    switch (Inst.Kind) {
    case IKind::Compute: {
      uint64_t A = readOperand(Inst.A, State);
      uint64_t B = readOperand(Inst.B, State);
      if (alpha::isCondMove(Inst.AlphaOp)) {
        uint64_t Old = Inst.DestGpr != NoReg ? State.readGpr(Inst.DestGpr)
                                             : State.acc()[Inst.DestAcc];
        writeResult(Inst, alpha::evalCmovCond(Inst.AlphaOp, A) ? B : Old,
                    State);
      } else {
        writeResult(Inst, alpha::evalIntOp(Inst.AlphaOp, A, B), State);
      }
      break;
    }
    case IKind::CmovMask: {
      uint64_t A = readOperand(Inst.A, State);
      writeResult(Inst,
                  alpha::evalCmovCond(Inst.AlphaOp, A) ? ~uint64_t(0) : 0,
                  State);
      break;
    }
    case IKind::CmovBlend: {
      uint64_t Mask = readOperand(Inst.A, State);
      uint64_t New = readOperand(Inst.B, State);
      uint64_t Old = State.readGpr(Inst.DestGpr);
      writeResult(Inst, Mask ? New : Old, State);
      break;
    }
    case IKind::Load: {
      uint64_t Addr =
          readOperand(Inst.B, State) + uint64_t(int64_t(Inst.MemDisp));
      Event.MemAddr = Addr;
      MemAccessResult Access =
          Mem.load(Addr, alpha::getOpInfo(Inst.AlphaOp).MemSize);
      if (!Access.ok()) {
        Record(Event);
        IExit Exit = ExitAt(IExit::Kind::Trap, Index, 0);
        Exit.TrapInfo = {trapKindForMemFault(Access.Fault), 0, Addr};
        return Exit;
      }
      writeResult(Inst, alpha::extendLoadedValue(Inst.AlphaOp, Access.Value),
                  State);
      break;
    }
    case IKind::Store: {
      uint64_t Addr =
          readOperand(Inst.B, State) + uint64_t(int64_t(Inst.MemDisp));
      Event.MemAddr = Addr;
      MemFaultKind Fault = Mem.store(Addr, readOperand(Inst.A, State),
                                     alpha::getOpInfo(Inst.AlphaOp).MemSize);
      if (Fault != MemFaultKind::None) {
        Record(Event);
        IExit Exit = ExitAt(IExit::Kind::Trap, Index, 0);
        Exit.TrapInfo = {trapKindForMemFault(Fault), 0, Addr};
        return Exit;
      }
      break;
    }
    case IKind::CopyToGpr:
      State.writeGpr(Inst.DestGpr, readOperand(Inst.A, State));
      break;
    case IKind::CopyFromGpr:
      State.acc()[Inst.DestAcc] = readOperand(Inst.A, State);
      break;
    case IKind::SetVpcBase:
      State.vpcBase() = Inst.VTarget;
      break;
    case IKind::SaveRetAddr:
      State.writeGpr(Inst.DestGpr, Inst.VTarget);
      break;
    case IKind::LoadEmbTarget:
      writeResult(Inst, Inst.VTarget, State);
      break;
    case IKind::PushDualRas:
      break;
    case IKind::CondExit: {
      uint64_t A = readOperand(Inst.A, State);
      bool Taken = alpha::evalBranchCond(Inst.AlphaOp, A);
      Event.Taken = Taken;
      Record(Event);
      if (Taken)
        return ExitAt(IExit::Kind::Direct, Index, Inst.VTarget);
      continue;
    }
    case IKind::Branch:
      Event.Taken = true;
      Record(Event);
      return ExitAt(IExit::Kind::Direct, Index, Inst.VTarget);
    case IKind::JumpPredict: {
      bool Hit = readOperand(Inst.A, State) != 0;
      Event.Taken = Hit;
      Record(Event);
      return ExitAt(Hit ? IExit::Kind::PredictHit : IExit::Kind::PredictMiss,
                    Index,
                    Hit ? Inst.VTarget
                        : (readOperand(Inst.B, State) & ~uint64_t(3)));
    }
    case IKind::JumpDispatch:
      Event.Taken = true;
      Record(Event);
      return ExitAt(IExit::Kind::Dispatch, Index,
                    readOperand(Inst.B, State) & ~uint64_t(3));
    case IKind::ReturnDual:
      Event.Taken = true;
      Record(Event);
      return ExitAt(IExit::Kind::Return, Index,
                    readOperand(Inst.B, State) & ~uint64_t(3));
    case IKind::Halt:
      Record(Event);
      return ExitAt(IExit::Kind::Halt, Index, 0);
    case IKind::Gentrap: {
      Record(Event);
      IExit Exit = ExitAt(IExit::Kind::Trap, Index, 0);
      Exit.TrapInfo = {TrapKind::Gentrap, 0, 0};
      return Exit;
    }
    }
    Record(Event);
  }
  ADD_FAILURE() << "Fragment body fell off the end without an exit";
  return IExit();
}

//===----------------------------------------------------------------------===//
// Guest memory snapshots (random states: OpSweep.h).
//===----------------------------------------------------------------------===//

constexpr uint64_t PageSize = GuestMemory::PageSize;

/// The mapped pages of a guest, by base address.
using PageImage = std::map<uint64_t, std::vector<uint8_t>>;

PageImage snapshot(const GuestMemory &Mem) {
  PageImage Image;
  for (uint64_t Base : Mem.mappedPageBases()) {
    const uint8_t *Data = Mem.pageData(Base);
    Image[Base].assign(Data, Data + PageSize);
  }
  return Image;
}

/// One guest memory per executor run, holding the same pages.
struct Memories {
  GuestMemory Ref, Fast, Rec;

  /// Maps \p Bases in all three (if not yet mapped) and rewrites them
  /// from \p Image.
  void reset(const PageImage &Image, const std::set<uint64_t> &Bases) {
    for (GuestMemory *Mem : {&Ref, &Fast, &Rec})
      for (uint64_t Base : Bases)
        Mem->writeBlob(Base, Image.at(Base).data(), PageSize);
  }
};

/// The snapshot pages a run from \p State can reach cheaply: those holding
/// any register value, and their neighbours (displacements cross pages).
std::set<uint64_t> pagesNear(const PageImage &Image, const IExecState &State) {
  std::set<uint64_t> Bases;
  for (uint64_t V : State.Slots) {
    uint64_t Page = V & ~(PageSize - 1);
    for (uint64_t Base : {Page - PageSize, Page, Page + PageSize})
      if (Image.count(Base))
        Bases.insert(Base);
  }
  return Bases;
}

/// Per-op-code execution counts.
using Coverage = std::array<uint64_t, NumOpCodes>;

/// Runs \p Body from \p Init under the reference and under the lowered ops
/// (without and with recording), each over its own memory of \p Mems
/// with \p Pages reset from \p Image (the only pages it maps), and
/// requires bit-identical outcomes. Counts the op codes the lowered run
/// executed into \p Cov.
void expectSameAsReference(const std::vector<IisaInst> &Body,
                           const std::vector<IOp> &Ops, const IExecState &Init,
                           Memories &Mems, const PageImage &Image,
                           const std::set<uint64_t> &Pages, Coverage &Cov) {
  ASSERT_EQ(Ops.size(), Body.size() + 1);
  Mems.reset(Image, Pages);
  GuestMemory &RefMem = Mems.Ref, &FastMem = Mems.Fast, &RecMem = Mems.Rec;
  IExecState Ref = Init, Fast = Init, Rec = Init;
  std::vector<IisaEvent> RefEvents, RecEvents;

  IExit RefExit =
      referenceExecute(Body.data(), Body.size(), Ref, RefMem, &RefEvents);
  IExit FastExit = execute(Ops.data(), Body.data(), Fast, FastMem, nullptr);
  IExit RecExit = execute(Ops.data(), Body.data(), Rec, RecMem, &RecEvents);

  // Architected slots: accumulators, GPRs and the VPC base (the sink is
  // scratch). Registers are compared one by one only on a mismatch.
  auto SameRegisters = [&](const IExecState &S) {
    return std::equal(S.Slots.begin(), S.Slots.begin() + IExecState::ZeroSlot,
                      Ref.Slots.begin());
  };
  for (const auto &[Label, State, Exit] :
       {std::tuple{"fast", &Fast, &FastExit},
        std::tuple{"recording", &Rec, &RecExit}}) {
    SCOPED_TRACE(Label);
    EXPECT_EQ(int(Exit->K), int(RefExit.K));
    EXPECT_EQ(Exit->VTarget, RefExit.VTarget);
    EXPECT_EQ(Exit->InstIndex, RefExit.InstIndex);
    EXPECT_EQ(int(Exit->TrapInfo.Kind), int(RefExit.TrapInfo.Kind));
    EXPECT_EQ(Exit->TrapInfo.Pc, RefExit.TrapInfo.Pc);
    EXPECT_EQ(Exit->TrapInfo.MemAddr, RefExit.TrapInfo.MemAddr);
    EXPECT_EQ(State->gpr()[alpha::RegZero], 0u);
    EXPECT_EQ(State->Slots[IExecState::ZeroSlot], 0u);
    if (SameRegisters(*State))
      continue;
    for (unsigned A = 0; A != MaxAccumulators; ++A)
      EXPECT_EQ(State->acc()[A], Ref.acc()[A]) << "acc " << A;
    for (unsigned G = 0; G != NumIisaGprs; ++G)
      EXPECT_EQ(State->gpr()[G], Ref.gpr()[G]) << "gpr " << G;
    EXPECT_EQ(State->vpcBase(), Ref.vpcBase());
  }
  for (uint64_t Base : Pages) {
    EXPECT_EQ(std::memcmp(FastMem.pageData(Base), RefMem.pageData(Base),
                          PageSize),
              0)
        << "fast: page " << std::hex << Base;
    EXPECT_EQ(std::memcmp(RecMem.pageData(Base), RefMem.pageData(Base),
                          PageSize),
              0)
        << "recording: page " << std::hex << Base;
  }
  ASSERT_EQ(RecEvents.size(), RefEvents.size());
  for (size_t I = 0; I != RefEvents.size(); ++I) {
    const IisaEvent &Got = RecEvents[I], &Want = RefEvents[I];
    if (Got.Index != Want.Index || Got.Taken != Want.Taken ||
        Got.MemAddr != Want.MemAddr)
      ADD_FAILURE() << "event " << I << ": index " << Got.Index << " vs "
                    << Want.Index << ", taken " << Got.Taken << " vs "
                    << Want.Taken << ", address " << Got.MemAddr << " vs "
                    << Want.MemAddr;
    ++Cov[size_t(Ops[Got.Index].Code)];
  }
}

uint64_t suiteSeed() {
  return uint64_t(::testing::UnitTest::GetInstance()->random_seed());
}

//===----------------------------------------------------------------------===//
// Workload fragments.
//===----------------------------------------------------------------------===//

struct CollectedFragment {
  std::vector<IisaInst> Body;
  std::vector<IOp> Ops; ///< As TranslationCache::install() lowered them.
  std::string Config;
};

struct WorkloadFragments {
  std::vector<CollectedFragment> Frags;
  PageImage Image;
  ArchState Final; ///< The VM's architected state at HALT.
};

/// Every fragment one workload produces under the 3 ISA variants x 3
/// chaining policies, collected once per process (repeated runs reuse it).
const WorkloadFragments &fragmentsOf(const std::string &Name) {
  static std::map<std::string, WorkloadFragments> Cache;
  auto It = Cache.find(Name);
  if (It != Cache.end())
    return It->second;
  WorkloadFragments &Out = Cache[Name];
  for (IsaVariant Variant :
       {IsaVariant::Basic, IsaVariant::Modified, IsaVariant::Straight})
    for (dbt::ChainPolicy Chaining :
         {dbt::ChainPolicy::NoPred, dbt::ChainPolicy::SwPredNoRas,
          dbt::ChainPolicy::SwPredRas}) {
      GuestMemory Mem;
      workloads::WorkloadImage Img = workloads::buildWorkload(Name, Mem, 1);
      vm::VmConfig Config;
      Config.Dbt.Variant = Variant;
      Config.Dbt.Chaining = Chaining;
      vm::VirtualMachine Vm(Mem, Img.EntryPc, Config);
      EXPECT_EQ(Vm.run().Reason, vm::StopReason::Halted);
      std::string Label = std::to_string(int(Variant)) + "/" +
                          dbt::getChainPolicyName(Chaining);
      for (const std::unique_ptr<dbt::Fragment> &F : Vm.tcache().fragments())
        Out.Frags.push_back({F->Body, F->Ops, Label});
      if (Out.Image.empty()) {
        Out.Image = snapshot(Mem);
        Out.Final = Vm.interpreter().state();
      }
    }
  return Out;
}

constexpr unsigned RandomStatesPerFragment = 3;

} // namespace

class ExecutorOracle : public ::testing::TestWithParam<std::string> {};

TEST_P(ExecutorOracle, WorkloadFragmentsMatchReference) {
  const WorkloadFragments &W = fragmentsOf(GetParam());
  ASSERT_FALSE(W.Frags.empty());
  std::vector<uint64_t> Pages;
  for (const auto &[Base, Bytes] : W.Image)
    Pages.push_back(Base);
  uint64_t Seed = suiteSeed();
  SCOPED_TRACE("gtest random seed " + std::to_string(Seed));
  Rng R(Seed * 0x9E3779B97F4A7C15ull + std::hash<std::string>()(GetParam()));
  Coverage Cov{};
  for (size_t I = 0; I != W.Frags.size(); ++I) {
    const CollectedFragment &F = W.Frags[I];
    SCOPED_TRACE("fragment " + std::to_string(I) + " (" + F.Config + ")");
    ASSERT_EQ(F.Ops, lowerToOps(F.Body)) << "install() lowered differently";
    // The VM's own final state (real pointers, real loop counters), then
    // random states over the guest's pages.
    IExecState Final = randomState(R, Pages);
    Final.loadArchState(W.Final);
    Memories FinalMems;
    expectSameAsReference(F.Body, F.Ops, Final, FinalMems, W.Image,
                          pagesNear(W.Image, Final), Cov);
    for (unsigned S = 0; S != RandomStatesPerFragment; ++S) {
      IExecState Init = randomState(R, Pages);
      Memories Mems;
      expectSameAsReference(F.Body, F.Ops, Init, Mems, W.Image,
                            pagesNear(W.Image, Init), Cov);
    }
    if (HasFailure())
      return;
  }
  unsigned Reached = 0;
  for (uint64_t Count : Cov)
    Reached += Count != 0;
  RecordProperty("op_codes_reached", int(Reached));
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, ExecutorOracle,
    ::testing::ValuesIn(workloads::workloadNames()),
    [](const ::testing::TestParamInfo<std::string> &Info) {
      return Info.param;
    });

//===----------------------------------------------------------------------===//
// Synthetic sweep: every kind x opcode x operand shape (OpSweep.h).
//===----------------------------------------------------------------------===//

TEST(ExecutorOracleSweep, EveryKindOpcodeAndShapeMatchesReference) {
  uint64_t Seed = suiteSeed();
  SCOPED_TRACE("gtest random seed " + std::to_string(Seed));
  Rng R(Seed ^ 0xD1B54A32D192ED03ull);
  // A few mapped pages with known contents for the memory ops.
  const std::vector<uint64_t> Pages = {0x10000, 0x11000, 0x40000};
  PageImage Image;
  for (uint64_t Base : Pages) {
    std::vector<uint8_t> &Bytes = Image[Base];
    Bytes.resize(PageSize);
    for (uint8_t &B : Bytes)
      B = uint8_t(R.next());
  }
  const std::set<uint64_t> PageSet(Pages.begin(), Pages.end());
  IisaInst Halt;
  Halt.Kind = IKind::Halt;

  Coverage Cov{};
  Memories Mems; // Maps exactly PageSet; reset before every run.
  std::vector<IisaInst> Sweep = sweepInstructions(R);
  for (size_t I = 0; I != Sweep.size(); ++I) {
    SCOPED_TRACE("sweep instruction " + std::to_string(I) + ": kind " +
                 getKindName(Sweep[I].Kind) + ", opcode " +
                 std::to_string(int(Sweep[I].AlphaOp)));
    std::vector<IisaInst> Body = {Sweep[I], Halt};
    std::vector<IOp> Ops = lowerToOps(Body);
    for (unsigned S = 0; S != 3; ++S)
      expectSameAsReference(Body, Ops, randomState(R, Pages), Mems, Image,
                            PageSet, Cov);
    if (HasFailure())
      return;
  }

  // Every op code but the end-of-body guard is emitted and executed.
  for (unsigned Code = 0; Code != NumOpCodes; ++Code) {
    if (OpCode(Code) == OpCode::Bad)
      continue;
    EXPECT_GT(Cov[Code], 0u) << "op code " << Code << " never executed";
  }
}

TEST(ExecutorOracleSweep, MalformedInstructionsLowerToTheGuardOp) {
  // A body installed from a damaged store may name registers the machine
  // does not have or pair a kind with a foreign opcode. Lowering must
  // accept it (installing never fails); the instruction becomes the guard,
  // which only an execution of that very instruction reaches.
  IisaInst BadAcc;
  BadAcc.Kind = IKind::CopyFromGpr;
  BadAcc.A = IOperand::gpr(3);
  BadAcc.DestAcc = NoReg;
  IisaInst BadGpr;
  BadGpr.Kind = IKind::Compute;
  BadGpr.AlphaOp = Opcode::ADDQ;
  BadGpr.A = IOperand::gpr(200);
  BadGpr.DestAcc = 0;
  IisaInst Foreign;
  Foreign.Kind = IKind::Load;
  Foreign.AlphaOp = Opcode::ADDQ;
  Foreign.B = IOperand::gpr(1);
  Foreign.DestAcc = 0;
  IisaInst Blend;
  Blend.Kind = IKind::CmovBlend;
  Blend.A = IOperand::acc(0);
  Blend.DestAcc = 1; // No DestGpr: no old value to keep.
  std::vector<IisaInst> Body = {BadAcc, BadGpr, Foreign, Blend};
  std::vector<IOp> Ops = lowerToOps(Body);
  ASSERT_EQ(Ops.size(), Body.size() + 1);
  for (const IOp &Op : Ops)
    EXPECT_EQ(Op.Code, OpCode::Bad);
}
