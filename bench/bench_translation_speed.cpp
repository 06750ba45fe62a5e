//===- bench/bench_translation_speed.cpp - Translator microbenchmarks -----===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Google-benchmark wall-clock microbenchmarks for the components whose
/// cost the paper discusses: translation itself (Section 4.2's overhead),
/// interpretation, and functional execution of translated code. These
/// complement the architectural cost accounting in
/// bench_table2_translation_stats.
///
/// The native-tier additions keep the two very different "translation"
/// costs separate: BM_Translate* is the in-process I-ISA lowering (paid
/// on every cold fragment), while BM_NativeEmitC / BM_NativeHostCompile
/// are the native tier's C emission and out-of-line host compilation —
/// orders of magnitude slower, paid off the critical path by the compile
/// workers and only until the object lands in the persistent store.
/// BM_ExecuteFragmentNative mirrors BM_ExecuteFragment on the compiled
/// code; the host-compile benchmarks skip where no toolchain exists.
///
//===----------------------------------------------------------------------===//

#include "alpha/Assembler.h"
#include "core/SuperblockBuilder.h"
#include "core/Translator.h"
#include "iisa/Executor.h"
#include "interp/Interpreter.h"
#include "native/NativeCompiler.h"
#include "native/NativeEmitter.h"
#include "native/NativeExec.h"
#include "workloads/Workloads.h"

#include <benchmark/benchmark.h>

using namespace ildp;
using Op = alpha::Opcode;

namespace {

/// Records the gzip hot loop's superblock once (shared fixture).
struct GzipFixture {
  GuestMemory Mem;
  dbt::Superblock Sb;
  uint64_t Entry = 0;

  GzipFixture() {
    workloads::WorkloadImage Img = workloads::buildWorkload("gzip", Mem, 1);
    Entry = Img.EntryPc;
    Interpreter Interp(Mem);
    Interp.state().Pc = Entry;
    // Find the first backward-taken branch target and record from there.
    uint64_t Hot = 0;
    for (int I = 0; I != 100000 && !Hot; ++I) {
      StepInfo Info = Interp.step();
      if (Info.IsControl && alpha::isCondBranch(Info.Inst.Op) && Info.Taken &&
          Info.NextPc <= Info.Pc)
        Hot = Info.NextPc;
    }
    while (Interp.state().Pc != Hot)
      Interp.step();
    dbt::SuperblockBuilder Builder(Hot, 200);
    while (Builder.append(Interp.step()) !=
           dbt::SuperblockBuilder::Status::Done) {
    }
    Sb = Builder.take();
  }
};

GzipFixture &gzipFixture() {
  static GzipFixture Fixture;
  return Fixture;
}

void BM_TranslateBasic(benchmark::State &State) {
  GzipFixture &F = gzipFixture();
  dbt::DbtConfig Config;
  Config.Variant = iisa::IsaVariant::Basic;
  for (auto _ : State) {
    dbt::TranslationResult R =
        dbt::translate(F.Sb, Config).take();
    benchmark::DoNotOptimize(R.Frag.Body.data());
  }
  State.SetItemsProcessed(int64_t(State.iterations()) * F.Sb.Insts.size());
  State.counters["src_insts"] = double(F.Sb.Insts.size());
}

void BM_TranslateModified(benchmark::State &State) {
  GzipFixture &F = gzipFixture();
  dbt::DbtConfig Config;
  Config.Variant = iisa::IsaVariant::Modified;
  for (auto _ : State) {
    dbt::TranslationResult R =
        dbt::translate(F.Sb, Config).take();
    benchmark::DoNotOptimize(R.Frag.Body.data());
  }
  State.SetItemsProcessed(int64_t(State.iterations()) * F.Sb.Insts.size());
}

void BM_TranslateStraight(benchmark::State &State) {
  GzipFixture &F = gzipFixture();
  dbt::DbtConfig Config;
  Config.Variant = iisa::IsaVariant::Straight;
  for (auto _ : State) {
    dbt::TranslationResult R =
        dbt::translate(F.Sb, Config).take();
    benchmark::DoNotOptimize(R.Frag.Body.data());
  }
  State.SetItemsProcessed(int64_t(State.iterations()) * F.Sb.Insts.size());
}

void BM_Interpret(benchmark::State &State) {
  GuestMemory Mem;
  workloads::WorkloadImage Img = workloads::buildWorkload("gzip", Mem, 1);
  for (auto _ : State) {
    Interpreter Interp(Mem);
    Interp.state().Pc = Img.EntryPc;
    Interp.run(20000);
    benchmark::DoNotOptimize(Interp.state().Gpr.data());
  }
  State.SetItemsProcessed(int64_t(State.iterations()) * 20000);
}

void BM_ExecuteFragment(benchmark::State &State) {
  GzipFixture &F = gzipFixture();
  dbt::DbtConfig Config;
  Config.Variant = iisa::IsaVariant::Modified;
  dbt::TranslationResult R =
      dbt::translate(F.Sb, Config).take();
  iisa::IExecState Exec;
  // Seed plausible state: loop registers that keep the loop bounded.
  Exec.writeGpr(16, 0x20000000);
  Exec.writeGpr(17, 1);
  Exec.writeGpr(0, 0x28000000);
  GuestMemory Mem;
  Mem.mapRegion(0x20000000, 0x10000);
  Mem.mapRegion(0x28000000, 0x10000);
  std::vector<iisa::IOp> Ops = iisa::lowerToOps(R.Frag.Body);
  for (auto _ : State) {
    Exec.writeGpr(17, 1); // single iteration, exits at the cond branch
    iisa::IExit Exit =
        iisa::execute(Ops.data(), R.Frag.Body.data(), Exec, Mem, nullptr);
    benchmark::DoNotOptimize(Exit.VTarget);
  }
  State.SetItemsProcessed(int64_t(State.iterations()) *
                          int64_t(R.Frag.Body.size()));
}

void BM_NativeEmitC(benchmark::State &State) {
  GzipFixture &F = gzipFixture();
  dbt::DbtConfig Config;
  Config.Variant = iisa::IsaVariant::Modified;
  dbt::TranslationResult R =
      dbt::translate(F.Sb, Config).take();
  for (auto _ : State) {
    native::EmitResult E =
        native::emitFragmentC(R.Frag.Body, R.Frag.Variant);
    benchmark::DoNotOptimize(E.Source.data());
  }
  State.SetItemsProcessed(int64_t(State.iterations()) * F.Sb.Insts.size());
}

void BM_NativeHostCompile(benchmark::State &State) {
  const native::HostCompiler &CC = native::hostCompiler();
  if (!CC.found()) {
    State.SkipWithError("no host C compiler");
    return;
  }
  GzipFixture &F = gzipFixture();
  dbt::DbtConfig Config;
  Config.Variant = iisa::IsaVariant::Modified;
  dbt::TranslationResult R =
      dbt::translate(F.Sb, Config).take();
  native::EmitResult E = native::emitFragmentC(R.Frag.Body, R.Frag.Variant);
  for (auto _ : State) {
    native::CompileResult C = native::compileToObject(CC, E.Source);
    if (!C.Ok) {
      State.SkipWithError("host compile failed");
      return;
    }
    benchmark::DoNotOptimize(C.Object.data());
  }
  State.SetItemsProcessed(int64_t(State.iterations()) * F.Sb.Insts.size());
  State.counters["src_insts"] = double(F.Sb.Insts.size());
}

void BM_ExecuteFragmentNative(benchmark::State &State) {
  const native::HostCompiler &CC = native::hostCompiler();
  if (!CC.found()) {
    State.SkipWithError("no host C compiler");
    return;
  }
  GzipFixture &F = gzipFixture();
  dbt::DbtConfig Config;
  Config.Variant = iisa::IsaVariant::Modified;
  dbt::TranslationResult R =
      dbt::translate(F.Sb, Config).take();
  native::EmitResult E = native::emitFragmentC(R.Frag.Body, R.Frag.Variant);
  native::CompileResult C = native::compileToObject(CC, E.Source);
  if (!C.Ok) {
    State.SkipWithError("host compile failed");
    return;
  }
  std::shared_ptr<native::NativeModule> Module = native::loadModule(C.Object);
  if (!Module) {
    State.SkipWithError("dlopen failed");
    return;
  }
  iisa::IExecState Exec;
  Exec.writeGpr(16, 0x20000000);
  Exec.writeGpr(17, 1);
  Exec.writeGpr(0, 0x28000000);
  GuestMemory Mem;
  Mem.mapRegion(0x20000000, 0x10000);
  Mem.mapRegion(0x28000000, 0x10000);
  for (auto _ : State) {
    Exec.writeGpr(17, 1); // single iteration, exits at the cond branch
    iisa::IExit Exit = native::runFragment(*Module, Exec, Mem, R.Frag.Body);
    benchmark::DoNotOptimize(Exit.VTarget);
  }
  State.SetItemsProcessed(int64_t(State.iterations()) *
                          int64_t(R.Frag.Body.size()));
}

BENCHMARK(BM_TranslateBasic);
BENCHMARK(BM_TranslateModified);
BENCHMARK(BM_TranslateStraight);
BENCHMARK(BM_NativeEmitC);
BENCHMARK(BM_NativeHostCompile);
BENCHMARK(BM_Interpret);
BENCHMARK(BM_ExecuteFragment);
BENCHMARK(BM_ExecuteFragmentNative);

} // namespace

BENCHMARK_MAIN();
