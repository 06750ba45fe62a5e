//===- examples/quickstart.cpp - Figure 2 walkthrough ---------------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The five-minute tour of the public API, built around the paper's own
/// worked example (Figure 2): assemble the 164.gzip inner loop, record it
/// as a superblock with the reference interpreter, translate it to both
/// accumulator ISAs, print the paper's four columns, and execute the
/// translated code to show architected-state equivalence.
///
//===----------------------------------------------------------------------===//

#include "alpha/Assembler.h"
#include "alpha/Disasm.h"
#include "core/SuperblockBuilder.h"
#include "core/Translator.h"
#include "iisa/Disasm.h"
#include "iisa/Executor.h"
#include "interp/Interpreter.h"

#include <cstdio>

using namespace ildp;
using Op = alpha::Opcode;

int main() {
  // --- 1. Assemble Figure 2(a): the gzip CRC/hash loop. ------------------
  alpha::Assembler Asm(0x10000);
  Asm.loadImm(16, 0x20000);  // r16 = buffer pointer
  Asm.loadImm(17, 64);       // r17 = count
  Asm.loadImm(0, 0x21000);   // r0  = hash table
  Asm.loadImm(1, 0x1234);    // r1  = hash state
  auto L1 = Asm.createLabel("L1");
  Asm.bind(L1);
  Asm.ldbu(3, 0, 16);                // ldbu   r3, 0[r16]
  Asm.operatei(Op::SUBL, 17, 1, 17); // subl   r17, 1, r17
  Asm.lda(16, 1, 16);                // lda    r16, 1[r16]
  Asm.operate(Op::XOR, 1, 3, 3);     // xor    r1, r3, r3
  Asm.operatei(Op::SRL, 1, 8, 1);    // srl    r1, 8, r1
  Asm.operatei(Op::AND, 3, 0xFF, 3); // and    r3, 0xff, r3
  Asm.operate(Op::S8ADDQ, 3, 0, 3);  // s8addq r3, r0, r3
  Asm.ldq(3, 0, 3);                  // ldq    r3, 0[r3]
  Asm.operate(Op::XOR, 3, 1, 1);     // xor    r3, r1, r1
  Asm.condBr(Op::BNE, 17, L1);       // bne    r17, L1
  Asm.halt();                        // L2:

  GuestMemory Mem;
  std::vector<uint32_t> Words = Asm.finalize();
  for (size_t I = 0; I != Words.size(); ++I)
    Mem.poke32(0x10000 + I * 4, Words[I]);
  Mem.mapRegion(0x20000, 0x2000); // buffer + hash table (zero-filled)

  // --- 2. Interpret to the loop head, then record one superblock. --------
  Interpreter Interp(Mem);
  Interp.state().Pc = 0x10000;
  uint64_t LoopHead = Asm.labelAddr(L1);
  while (Interp.state().Pc != LoopHead)
    Interp.step();

  std::printf("== Figure 2(a): Alpha source ==\n");
  {
    Interpreter Viewer(Mem);
    for (uint64_t Pc = LoopHead; Pc <= LoopHead + 9 * 4; Pc += 4)
      std::printf("  %s\n",
                  alpha::disassemble(*Viewer.decodeAt(Pc), Pc).c_str());
  }

  dbt::SuperblockBuilder Builder(LoopHead, /*MaxInsts=*/200);
  while (Builder.append(Interp.step()) !=
         dbt::SuperblockBuilder::Status::Done) {
  }
  dbt::Superblock Sb = Builder.take();
  std::printf("\nrecorded a %zu-instruction superblock "
              "(ends: backward taken branch)\n",
              Sb.Insts.size());

  // --- 3. Translate to both accumulator ISAs. ----------------------------
  auto Translate = [&](iisa::IsaVariant Variant, const char *Title) {
    dbt::DbtConfig Config;
    Config.Variant = Variant;
    dbt::TranslationResult R =
        dbt::translate(Sb, Config, dbt::ChainEnv()).take();
    std::printf("\n== %s ==\n", Title);
    for (const iisa::IisaInst &Inst : R.Frag.Body)
      std::printf("  %s\n", iisa::disassemble(Inst).c_str());
    std::printf("  (%zu instructions, %u bytes, %u strands, "
                "%zu PEI entries)\n",
                R.Frag.Body.size(), R.Frag.BodyBytes, R.Strands,
                R.Frag.PeiTable.size());
    return R.Frag;
  };
  Translate(iisa::IsaVariant::Basic, "Figure 2(c): basic I-ISA");
  dbt::Fragment Modified =
      Translate(iisa::IsaVariant::Modified, "Figure 2(d): modified I-ISA");

  // --- 4. Execute the translated fragment; states must match. ------------
  // Fresh environment: run the interpreter to the loop head, take one
  // iteration as the reference, and replay the same iteration through the
  // translated fragment.
  GuestMemory Mem2;
  for (size_t I = 0; I != Words.size(); ++I)
    Mem2.poke32(0x10000 + I * 4, Words[I]);
  Mem2.mapRegion(0x20000, 0x2000);
  Interpreter Ref(Mem2);
  Ref.state().Pc = 0x10000;
  while (Ref.state().Pc != LoopHead)
    Ref.step();
  ArchState Before = Ref.state();
  // One iteration under the interpreter.
  do {
    Ref.step();
  } while (Ref.state().Pc != LoopHead && Ref.state().Pc != LoopHead + 40);

  // Same iteration under the translated code.
  iisa::IExecState Exec;
  Exec.loadArchState(Before);
  GuestMemory Mem3;
  for (size_t I = 0; I != Words.size(); ++I)
    Mem3.poke32(0x10000 + I * 4, Words[I]);
  Mem3.mapRegion(0x20000, 0x2000);
  // The body runs as pre-specialised ops, lowered once (the translation
  // cache does this at install).
  std::vector<iisa::IOp> Ops = iisa::lowerToOps(Modified.Body);
  iisa::IExit Exit =
      iisa::execute(Ops.data(), Modified.Body.data(), Exec, Mem3, nullptr);

  bool Match = true;
  for (unsigned Reg = 0; Reg != alpha::NumGprs; ++Reg)
    Match &= Exec.toArchState().readGpr(Reg) == Ref.state().readGpr(Reg);
  std::printf("\n== equivalence check ==\n");
  std::printf("translated exit: chained to 0x%llx; architected state %s\n",
              (unsigned long long)Exit.VTarget,
              Match ? "matches the interpreter exactly" : "MISMATCH (bug!)");
  return Match ? 0 : 1;
}
