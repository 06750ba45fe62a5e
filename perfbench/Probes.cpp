//===- perfbench/Probes.cpp - Per-layer probes of the traced run ----------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Times each module's public entry points on the workload's own guests,
/// with a span around every call (or around a batch, for calls that take
/// nanoseconds). Every probe runs on every workload so each traced run
/// reports the same metric set; the README says which end-to-end metric
/// each layer is expected to move on which workload.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "core/CodeGen.h"
#include "core/Lowering.h"
#include "core/StrandAlloc.h"
#include "core/SuperblockBuilder.h"
#include "core/Translator.h"
#include "core/UsageAnalysis.h"
#include "interp/Interpreter.h"
#include "native/NativeCompiler.h"
#include "native/NativeEmitter.h"
#include "persist/CacheStore.h"
#include "persist/Fingerprint.h"
#include "serve/ExecRequest.h"
#include "workloads/Workloads.h"

#include <cstdio>
#include <filesystem>
#include <unordered_set>

using namespace ildp;
using namespace perfbench;

namespace {

/// Mean span duration of \p Name, in units of \p Scale seconds.
double meanSpan(const Tracer &T, const char *Name, double Scale) {
  size_t N = T.count(Name);
  return N ? T.totalSeconds(Name) / double(N) * Scale : 0;
}

/// Records up to \p Max superblocks of \p G at its first loop heads, the
/// way the VM's profiler would find them (targets of backward taken
/// conditional branches), as bench_translation_speed does for gzip.
std::vector<dbt::Superblock> recordSuperblocks(const Guest &G, size_t Max) {
  GuestMemory Mem;
  workloads::buildWorkload(G.Name, Mem, G.Scale);
  Interpreter Interp(Mem);
  Interp.state().Pc = G.Entry;
  std::vector<dbt::Superblock> Out;
  std::unordered_set<uint64_t> Seen;
  for (int Step = 0; Step != 2'000'000 && Out.size() < Max; ++Step) {
    StepInfo Info = Interp.step();
    if (Info.Status != StepStatus::Ok)
      break;
    if (!(Info.IsControl && alpha::isCondBranch(Info.Inst.Op) && Info.Taken &&
          Info.NextPc <= Info.Pc && Seen.insert(Info.NextPc).second))
      continue;
    dbt::SuperblockBuilder Builder(Info.NextPc,
                                   dbt::DbtConfig().MaxSuperblockInsts);
    using BStatus = dbt::SuperblockBuilder::Status;
    BStatus St = BStatus::Continue;
    while (St == BStatus::Continue) {
      StepInfo Next = Interp.step();
      St = Builder.append(Next);
      if (Next.Status != StepStatus::Ok)
        break;
    }
    if (St == dbt::SuperblockBuilder::Status::Done)
      Out.push_back(Builder.take());
  }
  return Out;
}

void probeWorkloads(const std::vector<Guest> &Guests, Tracer &T) {
  for (int Rep = 0; Rep != 3; ++Rep)
    for (const Guest &G : Guests) {
      GuestMemory Mem;
      Scope S(T, "workloads.build");
      workloads::buildWorkload(G.Name, Mem, G.Scale);
    }
  for (const Guest &G : Guests) {
    serve::GuestImage Image;
    {
      Scope S(T, "workloads.image");
      Image = serve::imageFromWorkload(G.Name, G.Scale);
    }
    for (int Rep = 0; Rep != 3; ++Rep) {
      GuestMemory Mem;
      Scope S(T, "serve.materialize");
      if (const char *Err = serve::buildGuestMemory(Image, Mem))
        die(G.Name + ": buildGuestMemory failed: " + Err);
    }
  }
}

void probeInterp(const std::vector<Guest> &Guests, uint64_t Seed, Tracer &T,
                 Metrics &Out) {
  double Insts = 0;
  for (const Guest &G : Guests) {
    GuestMemory Mem;
    workloads::buildWorkload(G.Name, Mem, G.Scale);
    Scope S(T, "interp.run");
    Interpreter Interp(Mem);
    Interp.state().Pc = G.Entry;
    Interp.run(4'000'000'000ull);
    Insts += double(Interp.retiredCount());
  }
  Out["interp.ns_per_inst"] = T.totalSeconds("interp.run") * 1e9 / Insts;

  // decodeAt on the guest's executed PCs, in a seeded order, after one
  // warming pass: the steady-state cost of the decode cache.
  Rng R(Seed ^ 0xDEC0DE);
  double Calls = 0;
  for (const Guest &G : Guests) {
    GuestMemory Mem;
    workloads::buildWorkload(G.Name, Mem, G.Scale);
    Interpreter Walk(Mem);
    Walk.state().Pc = G.Entry;
    std::unordered_set<uint64_t> Seen;
    std::vector<uint64_t> Pcs;
    for (int Step = 0; Step != 200'000; ++Step) {
      StepInfo Info = Walk.step();
      if (Info.Status != StepStatus::Ok)
        break;
      if (Seen.insert(Info.Pc).second)
        Pcs.push_back(Info.Pc);
    }
    for (size_t I = Pcs.size(); I > 1; --I)
      std::swap(Pcs[I - 1], Pcs[R.nextBelow(I)]);
    Interpreter Interp(Mem);
    for (uint64_t Pc : Pcs)
      Interp.decodeAt(Pc);
    const int Rounds = 200;
    uintptr_t Sink = 0;
    {
      Scope S(T, "interp.decode_at");
      for (int Round = 0; Round != Rounds; ++Round)
        for (uint64_t Pc : Pcs)
          Sink += uintptr_t(Interp.decodeAt(Pc));
    }
    if (Sink == 1)
      std::puts("");
    Calls += double(Rounds) * double(Pcs.size());
  }
  Out["interp.decode_at_ns"] =
      T.totalSeconds("interp.decode_at") * 1e9 / Calls;
}

void probeMem(const std::vector<Guest> &Guests, uint64_t Seed, Tracer &T,
              Metrics &Out) {
  Rng R(Seed ^ 0x3E3);
  const size_t Accesses = 1 << 18;
  double Loads = 0, Stores = 0;
  for (const Guest &G : Guests) {
    GuestMemory Mem;
    workloads::buildWorkload(G.Name, Mem, G.Scale);
    std::vector<uint64_t> Pages = Mem.mappedPageBases();
    std::vector<uint64_t> Addrs(Accesses);
    for (uint64_t &A : Addrs)
      A = Pages[R.nextBelow(Pages.size())] +
          8 * R.nextBelow(GuestMemory::PageSize / 8);
    uint64_t Sum = 0;
    {
      Scope S(T, "mem.load");
      for (uint64_t A : Addrs)
        Sum += Mem.load(A, 8).Value;
    }
    {
      Scope S(T, "mem.store");
      for (uint64_t A : Addrs)
        Sum += uint64_t(Mem.store(A, A, 8));
    }
    if (Sum == 1)
      std::puts("");
    Loads += double(Accesses);
    Stores += double(Accesses);
  }
  Out["mem.load_ns"] = T.totalSeconds("mem.load") * 1e9 / Loads;
  Out["mem.store_ns"] = T.totalSeconds("mem.store") * 1e9 / Stores;
}

/// Translates each superblock whole and stage by stage; returns the
/// fragments for the native probes.
std::vector<dbt::Fragment>
probeCore(const std::vector<dbt::Superblock> &Sbs, Tracer &T, Metrics &Out) {
  dbt::DbtConfig Config;
  std::vector<dbt::Fragment> Frags;
  const int Reps = 20;
  for (const dbt::Superblock &Sb : Sbs) {
    for (int Rep = 0; Rep != Reps; ++Rep) {
      dbt::Expected<dbt::TranslationResult> R = [&] {
        Scope S(T, "core.translate");
        return dbt::translate(Sb, Config, dbt::ChainEnv());
      }();
      if (!R)
        die("translate failed on a recorded superblock");
      if (Rep == 0)
        Frags.push_back(R.take().Frag);
    }
    for (int Rep = 0; Rep != Reps; ++Rep) {
      int Lower = T.begin("core.lower");
      dbt::Expected<dbt::LoweredBlock> L = dbt::lower(Sb, Config);
      T.end(Lower);
      if (!L)
        die("lower failed on a recorded superblock");
      dbt::LoweredBlock Block = L.take();
      int Usage = T.begin("core.usage");
      dbt::TranslateStatus U = dbt::analyzeUsage(Block, Config);
      T.end(Usage);
      if (U != dbt::TranslateStatus::Ok)
        die("analyzeUsage failed on a recorded superblock");
      int Strands = T.begin("core.strands");
      dbt::Expected<dbt::StrandAllocResult> A =
          dbt::formStrandsAndAllocate(Block, Config);
      T.end(Strands);
      if (!A)
        die("formStrandsAndAllocate failed on a recorded superblock");
      dbt::StrandAllocResult Alloc = A.take();
      int Gen = T.begin("core.codegen");
      dbt::Expected<dbt::Fragment> F =
          dbt::generateCode(Sb, Block, &Alloc, Config, dbt::ChainEnv());
      T.end(Gen);
      if (!F)
        die("generateCode failed on a recorded superblock");
    }
  }
  Out["core.translate_us"] = meanSpan(T, "core.translate", 1e6);
  Out["core.lower_us"] = meanSpan(T, "core.lower", 1e6);
  Out["core.usage_us"] = meanSpan(T, "core.usage", 1e6);
  Out["core.strands_us"] = meanSpan(T, "core.strands", 1e6);
  Out["core.codegen_us"] = meanSpan(T, "core.codegen", 1e6);
  return Frags;
}

void probeNative(const std::vector<dbt::Fragment> &Frags, uint64_t Seed,
                 Tracer &T, Metrics &Out) {
  native::HostCompiler CC = native::hostCompiler();
  std::vector<std::string> Sources;
  for (int Rep = 0; Rep != 10; ++Rep)
    for (const dbt::Fragment &F : Frags) {
      Scope S(T, "native.emit");
      native::EmitResult E = native::emitFragmentC(F.Body, F.Variant);
      if (Rep == 0 && E.Ok)
        Sources.push_back(std::move(E.Source));
    }
  Rng R(Seed ^ 0xCC);
  for (int I = 0; I != 4 && !Sources.empty(); ++I) {
    const std::string &Src = Sources[R.nextBelow(Sources.size())];
    Scope S(T, "native.compile");
    if (!native::compileToObject(CC, Src).Ok)
      die("host compile of an emitted fragment failed");
  }
  Out["native.emit_us"] = meanSpan(T, "native.emit", 1e6);
  Out["native.compile_ms"] = meanSpan(T, "native.compile", 1e3);
}

void probePersist(const std::vector<Guest> &Guests,
                  const std::string &StorePath, const std::string &WorkDir,
                  Tracer &T, Metrics &Out) {
  dbt::DbtConfig Config;
  std::vector<uint64_t> Prints;
  for (const Guest &G : Guests) {
    GuestMemory Mem;
    workloads::buildWorkload(G.Name, Mem, G.Scale);
    Prints.push_back(persist::fingerprint(Mem, G.Entry, Config));
  }
  for (int Rep = 0; Rep != 5; ++Rep) {
    persist::CacheStore Fresh;
    Scope S(T, "persist.open");
    if (Fresh.openReadOnly(StorePath) != persist::StoreStatus::Ok)
      die("cannot open the probe store");
  }
  persist::CacheStore Store;
  if (Store.openReadOnly(StorePath) != persist::StoreStatus::Ok)
    die("cannot open the probe store");
  for (int Rep = 0; Rep != 5; ++Rep)
    for (uint64_t Print : Prints) {
      std::vector<dbt::Fragment> Frags;
      Scope S(T, "persist.lookup");
      if (Store.lookup(Print, Frags) != persist::StoreStatus::Ok)
        die("probe store lookup missed a guest");
    }
  std::string SavePath = WorkDir + "/probe-save.tstore";
  std::remove(SavePath.c_str());
  for (int Rep = 0; Rep != 3; ++Rep) {
    persist::CacheStore Writable;
    if (Writable.open(StorePath) != persist::StoreStatus::Ok)
      die("cannot open the probe store");
    Scope S(T, "persist.save");
    if (!Writable.saveMerged(SavePath).Saved)
      die("saveMerged failed");
  }
  std::remove(SavePath.c_str());
  Out["persist.open_ms"] = meanSpan(T, "persist.open", 1e3);
  Out["persist.lookup_us"] = meanSpan(T, "persist.lookup", 1e6);
  Out["persist.save_ms"] = meanSpan(T, "persist.save", 1e3);
  Out["persist.store_bytes"] =
      double(std::filesystem::file_size(StorePath));
}

/// Warm run() per tier from the converged store.
void probeVm(const std::vector<Guest> &Guests, const std::string &StorePath,
             Tracer &T, Metrics &Out) {
  persist::CacheStore Store;
  if (Store.openReadOnly(StorePath) != persist::StoreStatus::Ok)
    die("cannot open the probe store");
  vm::VmConfig Iisa = iisaConfig(), Native = nativeConfig(1);
  Iisa.SharedStore = Native.SharedStore = &Store;
  for (const Guest &G : Guests)
    for (bool IsNative : {false, true}) {
      GuestMemory Mem;
      workloads::buildWorkload(G.Name, Mem, G.Scale);
      vm::VirtualMachine Vm(Mem, G.Entry, IsNative ? Native : Iisa);
      Scope S(T, IsNative ? "vm.run.native" : "vm.run.iisa");
      Vm.run();
    }
  Out["vm.run_ms.iisa"] = meanSpan(T, "vm.run.iisa", 1e3);
  Out["vm.run_ms.native"] = meanSpan(T, "vm.run.native", 1e3);
}

} // namespace

void perfbench::runLayerProbes(const std::vector<Guest> &Guests,
                               const std::string &StorePath,
                               const std::string &WorkDir, uint64_t Seed,
                               double ProbeMs, Tracer &T, Metrics &Out) {
  T.setEnabled(true);
  probeWorkloads(Guests, T);
  Out["workloads.build_ms"] = meanSpan(T, "workloads.build", 1e3);
  Out["serve.materialize_us"] = meanSpan(T, "serve.materialize", 1e6);
  probeInterp(Guests, Seed, T, Out);
  probeMem(Guests, Seed, T, Out);
  std::vector<dbt::Superblock> Sbs;
  for (const Guest &G : Guests)
    for (dbt::Superblock &Sb : recordSuperblocks(G, 4))
      Sbs.push_back(std::move(Sb));
  std::vector<dbt::Fragment> Frags = probeCore(Sbs, T, Out);
  Out["native.probe_ms"] = ProbeMs;
  probeNative(Frags, Seed, T, Out);
  probePersist(Guests, StorePath, WorkDir, T, Out);
  probeVm(Guests, StorePath, T, Out);
}
