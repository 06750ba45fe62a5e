//===- tests/vm/VmStatsConsistencyTest.cpp --------------------------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cross-checks between independently maintained statistics — the numbers
/// the benches print must be internally consistent:
///   - V-instruction conservation: interpreted + translated credits equal
///     the reference interpreter's retired count (minus NOPs handling),
///   - dispatch accounting: insts == 20 x calls; stubs pair with
///     dispatch-taking exits,
///   - exits partition segment transitions,
///   - usage-class counts sum to the source-op count.
///
//===----------------------------------------------------------------------===//

#include "vm/VirtualMachine.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace ildp;
using namespace ildp::vm;

namespace {

struct Consistency : public ::testing::TestWithParam<std::string> {};

} // namespace

TEST_P(Consistency, StatisticsAddUp) {
  const std::string &Workload = GetParam();

  // Reference: count retired V-instructions and NOP-like removals.
  uint64_t RefInsts = 0;
  uint64_t RefNopLike = 0;
  {
    GuestMemory Mem;
    workloads::WorkloadImage Img = workloads::buildWorkload(Workload, Mem, 1);
    Interpreter Ref(Mem);
    Ref.state().Pc = Img.EntryPc;
    for (;;) {
      StepInfo Info = Ref.step();
      ASSERT_NE(Info.Status, StepStatus::Trapped);
      ++RefInsts;
      if (Info.Inst.isNop() ||
          (alpha::isLoad(Info.Inst.Op) && Info.Inst.Ra == alpha::RegZero))
        ++RefNopLike;
      if (Info.Status == StepStatus::Halted)
        break;
    }
  }

  GuestMemory Mem;
  workloads::WorkloadImage Img = workloads::buildWorkload(Workload, Mem, 1);
  VmConfig Config;
  VirtualMachine Vm(Mem, Img.EntryPc, Config);
  ASSERT_EQ(Vm.run().Reason, StopReason::Halted);
  const StatisticSet &S = Vm.stats();

  // --- V-instruction conservation. NOPs retired by the interpreter count
  // there but carry no credit in translated code, so the identity is an
  // inequality band of width RefNopLike (+1 for halt re-step slack).
  uint64_t Accounted = S.get("interp.insts") + S.get("vm.vinsts_translated");
  EXPECT_GE(Accounted + RefNopLike + 2, RefInsts);
  EXPECT_LE(Accounted, RefInsts + 2);

  // --- Dispatch accounting.
  EXPECT_EQ(S.get("dispatch.insts"),
            S.get("dispatch.calls") * VirtualMachine::DispatchInsts);
  uint64_t DispatchTakers = S.get("exit.predict_miss") +
                            S.get("exit.dispatch") +
                            S.get("exit.return_miss");
  EXPECT_EQ(S.get("dispatch.calls"), DispatchTakers);
  EXPECT_EQ(S.get("stub.insts"), DispatchTakers);

  // --- Usage classes partition the source operations.
  uint64_t UsageSum = 0;
  for (auto &[Name, Value] : S.getWithPrefix("usage."))
    UsageSum += Value;
  EXPECT_EQ(UsageSum, S.get("frag.source_ops"));
  EXPECT_LE(S.get("frag.source_ops"), S.get("frag.insts"));

  // --- Exit kinds partition fragment executions: every fragment execution
  // ends in exactly one exit.
  uint64_t Exits = 0;
  for (const char *Name :
       {"exit.chained", "exit.translator", "exit.predict_hit",
        "exit.predict_hit_untranslated", "exit.predict_miss",
        "exit.dispatch", "exit.return_hit", "exit.return_miss", "exit.halt",
        "exit.trap"})
    Exits += S.get(Name);
  uint64_t FragExecs = 0;
  for (const auto &Frag : Vm.tcache().fragments())
    FragExecs += Frag->ExecCount;
  EXPECT_EQ(Exits, FragExecs);

  // --- Copies never exceed fragment instructions; bytes are consistent.
  EXPECT_LE(S.get("frag.copy_insts"), S.get("frag.insts"));
  EXPECT_EQ(S.get("tcache.fragments"), Vm.tcache().fragmentCount());
  uint64_t Bytes = 0;
  for (const auto &Frag : Vm.tcache().fragments())
    Bytes += Frag->BodyBytes;
  EXPECT_EQ(S.get("tcache.body_bytes"), Bytes);

  // --- Checksum sanity: the workload produced its value.
  EXPECT_NE(Vm.interpreter().state().readGpr(alpha::RegV0), 0u);
}

INSTANTIATE_TEST_SUITE_P(All, Consistency,
                         ::testing::ValuesIn(workloads::workloadNames()),
                         [](const auto &Info) { return Info.param; });
