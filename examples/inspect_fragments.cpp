//===- examples/inspect_fragments.cpp - Translation cache inspector -------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs a workload through the co-designed VM and dumps the translation
/// cache: every fragment's I-ISA code side by side with its source Alpha
/// instructions, execution counts, PEI tables, and exit state. The tool
/// for studying what the translator actually produced.
///
/// Usage: inspect_fragments [workload] [basic|modified|straight] [topN]
///
//===----------------------------------------------------------------------===//

#include "alpha/Disasm.h"
#include "core/Fragment.h"
#include "iisa/Disasm.h"
#include "interp/Interpreter.h"
#include "vm/VirtualMachine.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace ildp;

int main(int argc, char **argv) {
  std::string Name = argc > 1 ? argv[1] : "gzip";
  std::string VariantName = argc > 2 ? argv[2] : "modified";
  int TopArg = argc > 3 ? std::atoi(argv[3]) : 3;
  unsigned TopN = TopArg >= 1 ? unsigned(TopArg) : 3;

  iisa::IsaVariant Variant;
  if (VariantName == "basic")
    Variant = iisa::IsaVariant::Basic;
  else if (VariantName == "modified")
    Variant = iisa::IsaVariant::Modified;
  else if (VariantName == "straight")
    Variant = iisa::IsaVariant::Straight;
  else {
    std::fprintf(stderr, "unknown variant '%s'\n", VariantName.c_str());
    return 1;
  }

  bool Known = false;
  for (const std::string &W : workloads::workloadNames())
    Known |= W == Name;
  if (!Known) {
    std::fprintf(stderr, "unknown workload '%s'\n", Name.c_str());
    return 1;
  }

  GuestMemory Mem;
  workloads::WorkloadImage Img = workloads::buildWorkload(Name, Mem, 1);
  vm::VmConfig Config;
  Config.Dbt.Variant = Variant;
  vm::VirtualMachine Vm(Mem, Img.EntryPc, Config);
  if (Vm.run().Reason != vm::StopReason::Halted) {
    std::fprintf(stderr, "run did not halt cleanly\n");
    return 1;
  }

  const StatisticSet &S = Vm.stats();
  std::printf("workload %s, %s backend: %llu fragments, "
              "%llu bytes of translated code\n\n",
              Name.c_str(), VariantName.c_str(),
              (unsigned long long)S.get("tcache.fragments"),
              (unsigned long long)S.get("tcache.body_bytes"));

  // Rank fragments by executed instructions.
  std::vector<const dbt::Fragment *> Ranked;
  for (const auto &F : Vm.tcache().fragments())
    Ranked.push_back(F.get());
  std::sort(Ranked.begin(), Ranked.end(),
            [](const dbt::Fragment *A, const dbt::Fragment *B) {
              return A->ExecCount * A->Body.size() >
                     B->ExecCount * B->Body.size();
            });
  if (Ranked.size() > TopN)
    Ranked.resize(TopN);

  Interpreter Viewer(Mem); // Decode helper for source listing.
  for (const dbt::Fragment *Frag : Ranked) {
    std::printf("== fragment @0x%llx  (entry V-PC 0x%llx, executed %llu "
                "times, %u source insts, %u bytes) ==\n",
                (unsigned long long)Frag->IBase,
                (unsigned long long)Frag->EntryVAddr,
                (unsigned long long)Frag->ExecCount, Frag->SourceInsts,
                Frag->BodyBytes);

    uint64_t LastVAddr = 0;
    for (size_t I = 0; I != Frag->Body.size(); ++I) {
      const iisa::IisaInst &Inst = Frag->Body[I];
      // Print the source instruction once, above its translations.
      if (Inst.VAddr && Inst.VAddr != LastVAddr) {
        if (const alpha::AlphaInst *Src = Viewer.decodeAt(Inst.VAddr))
          std::printf("  ; 0x%llx: %s\n", (unsigned long long)Inst.VAddr,
                      alpha::disassemble(*Src, Inst.VAddr).c_str());
        LastVAddr = Inst.VAddr;
      }
      std::printf("    [%3zu] %-46s", I, iisa::disassemble(Inst).c_str());
      if (Inst.isPei())
        std::printf(" ; PEI");
      if (Inst.Usage != iisa::UsageClass::None &&
          Inst.Usage != iisa::UsageClass::Local)
        std::printf(" ; %s", iisa::getUsageName(Inst.Usage));
      std::printf("\n");
    }

    if (!Frag->PeiTable.empty()) {
      std::printf("  PEI table:\n");
      for (const dbt::PeiEntry &Entry : Frag->PeiTable) {
        std::printf("    inst %u -> V-PC 0x%llx", Entry.InstIndex,
                    (unsigned long long)Entry.VAddr);
        for (auto [Reg, Acc] : Entry.AccHeldRegs)
          std::printf("  r%u@A%u", Reg, Acc);
        std::printf("\n");
      }
    }
    // A direct exit is chained exactly when its target is resident.
    bool AnyExit = false;
    for (size_t I = 0; I != Frag->Body.size(); ++I) {
      const iisa::IisaInst &Inst = Frag->Body[I];
      if (!Inst.isDirectExit())
        continue;
      std::printf("%s [%zu]->0x%llx (%s)", AnyExit ? "" : "  exits:", I,
                  (unsigned long long)Inst.VTarget,
                  Vm.tcache().contains(Inst.VTarget) ? "resident"
                                                     : "not resident");
      AnyExit = true;
    }
    if (AnyExit)
      std::printf("\n");
    std::printf("\n");
  }
  return 0;
}
