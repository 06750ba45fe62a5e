//===- workloads/DispatchKernels.cpp - Indirect-dispatch SPEC stand-ins ---===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The indirect-control workloads: gap (bytecode interpreter, JMP jump
/// table), perlbmk (opcode handlers as procedures, JSR/RET dominated — the
/// paper's worst chaining expansion), eon (virtual-dispatch object
/// shading), and gcc (branch-tree state machine).
///
//===----------------------------------------------------------------------===//

#include "workloads/Builders.h"

#include <cassert>
#include <cstdio>

using namespace ildp;
using namespace ildp::workloads;
using namespace ildp::alpha;
using Op = alpha::Opcode;

namespace {

/// Label name "<Prefix><N>", formatted into a buffer: GCC 12 at -O3 raises
/// a false-positive -Wrestrict on "literal" + std::string.
std::string numbered(const char *Prefix, unsigned N) {
  char Buffer[32];
  std::snprintf(Buffer, sizeof(Buffer), "%s%u", Prefix, N);
  return Buffer;
}

/// Writes assembled words into guest memory.
void commit(GuestMemory &Mem, Assembler &Asm, std::vector<uint32_t> Words) {
  for (size_t I = 0; I != Words.size(); ++I)
    Mem.poke32(Asm.baseAddr() + I * 4, Words[I]);
}

} // namespace

// ---------------------------------------------------------------------------
// 254.gap — a bytecode interpreter whose dispatch is a register-indirect
// JMP through a jump table, with short straight-line handlers.
// ---------------------------------------------------------------------------
WorkloadImage workloads::buildGap(GuestMemory &Mem, unsigned Scale) {
  constexpr unsigned NumOps = 8;
  constexpr uint64_t ProgBytes = 8 * 1024; // opcode, operand pairs
  constexpr uint64_t TableBase = Data2Base;
  constexpr uint64_t ScratchBase = Data2Base + 0x1000;
  // Opcode stream with bytecode-like target locality: long runs of the
  // same opcode (70% repeat probability) over a skewed distribution, so
  // software jump prediction behaves as it does on real interpreters.
  {
    Rng Rand(0x6A9);
    Mem.mapRegion(DataBase, ProgBytes + 64);
    uint8_t Cur = 0;
    for (uint64_t I = 0; I < ProgBytes; I += 2) {
      if (!Rand.nextChance(7, 10))
        Cur = uint8_t(Rand.nextBelow(Rand.nextChance(1, 2) ? 3 : NumOps));
      Mem.poke8(DataBase + I, Cur);
      Mem.poke8(DataBase + I + 1, uint8_t(Rand.next() & 0xFF));
    }
  }
  Mem.mapRegion(TableBase, 0x2000);
  fillRandomQwords(Mem, ScratchBase, 64, 0x517E);

  Assembler Asm(CodeBase);
  const unsigned Passes = 7 * Scale;

  // r0 = jump table, r16 = bytecode pc, r17 = remaining, r9 = accumulator,
  // r20 = scratch table, r19 = pass counter, r21/r22 = builtin pointers.
  Asm.loadImm(0, int64_t(TableBase));
  Asm.loadImm(20, int64_t(ScratchBase));
  Asm.movi(0, 9);
  Asm.loadImm(19, Passes);

  auto PassLoop = Asm.createLabel("pass");
  auto Fetch = Asm.createLabel("fetch");
  auto Done = Asm.createLabel("done");
  std::vector<Assembler::Label> Handlers;
  for (unsigned I = 0; I != NumOps; ++I)
    Handlers.push_back(Asm.createLabel(numbered("h", I)));
  auto Builtin1 = Asm.createLabel("builtin1");
  auto Builtin2 = Asm.createLabel("builtin2");
  Asm.loadLabelAddr(21, Builtin1);
  Asm.loadLabelAddr(22, Builtin2);

  Asm.bind(PassLoop);
  Asm.loadImm(16, int64_t(DataBase));
  Asm.loadImm(17, ProgBytes / 2);
  Asm.bind(Fetch);
  Asm.condBr(Op::BEQ, 17, Done);
  Asm.ldbu(1, 0, 16); // opcode
  Asm.ldbu(2, 1, 16); // operand
  Asm.lda(16, 2, 16);
  Asm.operatei(Op::SUBL, 17, 1, 17);
  Asm.operate(Op::S8ADDQ, 1, 0, 3);
  Asm.ldq(27, 0, 3);
  Asm.jmp(RegZero, 27); // computed goto

  // Handlers; each ends with a straightenable direct branch back.
  Asm.bind(Handlers[0]);
  Asm.operate(Op::ADDQ, 9, 2, 9);
  Asm.operatei(Op::SLL, 2, 1, 4);
  Asm.operatei(Op::ADDQ, 4, 3, 4);
  Asm.operatei(Op::SRL, 4, 1, 4);
  Asm.operate(Op::XOR, 9, 4, 9);
  Asm.br(Fetch);
  Asm.bind(Handlers[1]);
  Asm.operate(Op::SUBQ, 9, 2, 9);
  Asm.operatei(Op::SRL, 2, 2, 4);
  Asm.operatei(Op::SUBQ, 4, 1, 4);
  Asm.operatei(Op::SLL, 4, 2, 4);
  Asm.operate(Op::ADDQ, 9, 4, 9);
  Asm.br(Fetch);
  Asm.bind(Handlers[2]);
  Asm.operate(Op::XOR, 9, 2, 9);
  Asm.operatei(Op::SLL, 9, 1, 4);
  Asm.operatei(Op::SRL, 4, 2, 4);
  Asm.operatei(Op::ADDQ, 4, 7, 4);
  Asm.operate(Op::ADDQ, 9, 4, 9);
  Asm.br(Fetch);
  Asm.bind(Handlers[3]);
  Asm.operatei(Op::SLL, 9, 1, 9);
  Asm.operate(Op::ADDQ, 9, 2, 9);
  Asm.br(Fetch);
  Asm.bind(Handlers[4]);
  Asm.operatei(Op::SRL, 9, 1, 9);
  Asm.operate(Op::XOR, 9, 2, 9);
  Asm.br(Fetch);
  Asm.bind(Handlers[5]);
  Asm.operatei(Op::AND, 2, 0x3F, 3);
  Asm.operate(Op::S8ADDQ, 3, 20, 3);
  Asm.ldq(4, 0, 3);
  Asm.operate(Op::ADDQ, 9, 4, 9);
  Asm.br(Fetch);
  Asm.bind(Handlers[6]);
  Asm.operatei(Op::AND, 2, 0x3F, 3);
  Asm.operate(Op::S8ADDQ, 3, 20, 3);
  Asm.stq(9, 0, 3);
  Asm.br(Fetch);
  Asm.bind(Handlers[7]);
  Asm.operate(Op::MULQ, 9, 2, 3);
  Asm.operate(Op::XOR, 9, 3, 9);
  // Builtin call through a function-pointer pair (second indirect site).
  Asm.mov(21, 25);
  Asm.operate(Op::CMOVLBS, 2, 22, 25);
  Asm.jsr(RegRA, 25);
  Asm.br(Fetch);
  Asm.bind(Builtin1);
  Asm.operatei(Op::ADDQ, 9, 3, 9);
  Asm.ret(RegRA);
  Asm.bind(Builtin2);
  Asm.operatei(Op::XOR, 9, 5, 9);
  Asm.ret(RegRA);

  Asm.bind(Done);
  Asm.operatei(Op::SUBL, 19, 1, 19);
  Asm.condBr(Op::BNE, 19, PassLoop);
  emitEpilogue(Asm);

  std::vector<uint32_t> Words = Asm.finalize();
  commit(Mem, Asm, std::move(Words));
  for (unsigned I = 0; I != NumOps; ++I)
    Mem.poke64(TableBase + I * 8, Asm.labelAddr(Handlers[I]));

  WorkloadImage Image;
  Image.Name = "gap";
  Image.EntryPc = CodeBase;
  Image.ApproxInsts = uint64_t(Passes) * (ProgBytes / 2) * 12;
  return Image;
}

// ---------------------------------------------------------------------------
// 253.perlbmk — opcode dispatch through *called* handlers (JSR through a
// handler table, RET back, plus a shared BSR helper): the call/return-
// dominated profile behind the paper's worst-case instruction expansion.
// ---------------------------------------------------------------------------
WorkloadImage workloads::buildPerlbmk(GuestMemory &Mem, unsigned Scale) {
  constexpr unsigned NumOps = 6;
  constexpr uint64_t ProgBytes = 6 * 1024;
  constexpr uint64_t TableBase = Data2Base;
  // Bytecode-like opcode locality (see gap) so handler-call prediction
  // sees realistic repetition.
  {
    Rng Rand(0x9E71);
    Mem.mapRegion(DataBase, ProgBytes + 64);
    uint8_t Cur = 0;
    for (uint64_t I = 0; I != ProgBytes; ++I) {
      if (!Rand.nextChance(7, 10))
        Cur = uint8_t(Rand.nextBelow(Rand.nextChance(1, 2) ? 2 : NumOps));
      Mem.poke8(DataBase + I, Cur);
    }
  }
  Mem.mapRegion(TableBase, 0x1000);
  Mem.mapRegion(StackTop - 0x10000, 0x10000);

  Assembler Asm(CodeBase);
  const unsigned Passes = 6 * Scale;

  // r0 = handler table, r16 = opcode pc, r17 = remaining, r9 = state,
  // r19 = pass counter, r2 = current opcode (handler argument).
  Asm.loadImm(0, int64_t(TableBase));
  Asm.loadImm(RegSP, int64_t(StackTop - 64));
  Asm.movi(0, 9);
  Asm.loadImm(19, Passes);

  auto PassLoop = Asm.createLabel("pass");
  auto Fetch = Asm.createLabel("fetch");
  auto Done = Asm.createLabel("done");
  auto Helper = Asm.createLabel("helper");
  std::vector<Assembler::Label> Handlers;
  for (unsigned I = 0; I != NumOps; ++I)
    Handlers.push_back(Asm.createLabel(numbered("op", I)));

  Asm.bind(PassLoop);
  Asm.loadImm(16, int64_t(DataBase));
  Asm.loadImm(17, ProgBytes);
  Asm.bind(Fetch);
  Asm.condBr(Op::BEQ, 17, Done);
  // Two opcodes per loop iteration through two distinct call sites, so
  // handler returns are polymorphic (as in the real interpreter, where
  // helpers are called from many places).
  Asm.ldbu(1, 0, 16);
  Asm.ldbu(2, 1, 16); // operand (next opcode byte doubles as data)
  Asm.operatei(Op::SUBL, 17, 2, 17);
  Asm.operate(Op::S8ADDQ, 1, 0, 3);
  Asm.ldq(27, 0, 3);
  Asm.jsr(RegRA, 27); // call site 1
  Asm.ldbu(1, 1, 16);
  Asm.ldbu(2, 2, 16);
  Asm.lda(16, 2, 16);
  Asm.operate(Op::S8ADDQ, 1, 0, 3);
  Asm.ldq(27, 0, 3);
  Asm.jsr(RegRA, 27); // call site 2
  Asm.br(Fetch);

  // A shared helper reached by BSR from several handlers.
  Asm.bind(Helper);
  Asm.operate(Op::ADDQ, 9, 2, 9);
  Asm.operatei(Op::SRL, 9, 3, 3);
  Asm.operate(Op::XOR, 9, 3, 9);
  Asm.ret(RegRA);

  // Handlers: leaf or helper-calling procedures.
  Asm.bind(Handlers[0]);
  Asm.operate(Op::ADDQ, 9, 2, 9);
  Asm.operatei(Op::SLL, 2, 3, 3);
  Asm.operate(Op::XOR, 3, 2, 3);
  Asm.operatei(Op::SRL, 3, 1, 3);
  Asm.operatei(Op::ADDQ, 3, 7, 3);
  Asm.operate(Op::ADDQ, 9, 3, 9);
  Asm.ret(RegRA);
  Asm.bind(Handlers[1]);
  Asm.operate(Op::XOR, 9, 2, 9);
  Asm.operatei(Op::SLL, 9, 1, 9);
  Asm.operatei(Op::SRL, 2, 2, 3);
  Asm.operate(Op::ADDQ, 3, 2, 3);
  Asm.operatei(Op::SLL, 3, 2, 3);
  Asm.operate(Op::XOR, 9, 3, 9);
  Asm.ret(RegRA);
  Asm.bind(Handlers[2]);
  // Calls the helper; preserves ra in a register (leaf chain).
  Asm.mov(RegRA, 25);
  Asm.bsr(RegRA, Helper);
  Asm.mov(25, RegRA);
  Asm.ret(RegRA);
  Asm.bind(Handlers[3]);
  Asm.operatei(Op::SUBQ, 9, 7, 9);
  Asm.operate(Op::SEXTB, RegZero, 9, 3);
  Asm.operate(Op::XOR, 9, 3, 9);
  Asm.operatei(Op::SLL, 3, 2, 3);
  Asm.operatei(Op::ADDQ, 3, 5, 3);
  Asm.operatei(Op::SRL, 3, 1, 3);
  Asm.operate(Op::ADDQ, 9, 3, 9);
  Asm.ret(RegRA);
  Asm.bind(Handlers[4]);
  // Stack-framed handler calling the helper.
  Asm.lda(RegSP, -16, RegSP);
  Asm.stq(RegRA, 0, RegSP);
  Asm.bsr(RegRA, Helper);
  Asm.ldq(RegRA, 0, RegSP);
  Asm.lda(RegSP, 16, RegSP);
  Asm.ret(RegRA);
  Asm.bind(Handlers[5]);
  Asm.operate(Op::MULQ, 9, 2, 3);
  Asm.operatei(Op::SRL, 3, 2, 3);
  Asm.operate(Op::ADDQ, 9, 3, 9);
  Asm.operatei(Op::SLL, 3, 1, 3);
  Asm.operate(Op::XOR, 3, 2, 3);
  Asm.operatei(Op::SRL, 3, 3, 3);
  Asm.operate(Op::ADDQ, 9, 3, 9);
  Asm.ret(RegRA);

  Asm.bind(Done);
  Asm.operatei(Op::SUBL, 19, 1, 19);
  Asm.condBr(Op::BNE, 19, PassLoop);
  emitEpilogue(Asm);

  std::vector<uint32_t> Words = Asm.finalize();
  commit(Mem, Asm, std::move(Words));
  for (unsigned I = 0; I != NumOps; ++I)
    Mem.poke64(TableBase + I * 8, Asm.labelAddr(Handlers[I]));

  WorkloadImage Image;
  Image.Name = "perlbmk";
  Image.EntryPc = CodeBase;
  Image.ApproxInsts = uint64_t(Passes) * ProgBytes * 15;
  return Image;
}

// ---------------------------------------------------------------------------
// 252.eon — fixed-point "shading" over an object array with virtual
// dispatch: each object's kind selects a method through a vtable, called
// with JSR; methods are arithmetic-dense.
// ---------------------------------------------------------------------------
WorkloadImage workloads::buildEon(GuestMemory &Mem, unsigned Scale) {
  constexpr unsigned NumKinds = 4;
  constexpr uint64_t Objects = 512;
  constexpr unsigned ObjBytes = 24; // {kind, a, b}
  constexpr uint64_t VtableBase = Data2Base;
  Mem.mapRegion(DataBase, Objects * ObjBytes);
  Mem.mapRegion(VtableBase, 0x1000);
  Mem.mapRegion(StackTop - 0x10000, 0x10000);
  Rng Rand(0xE0E);
  for (uint64_t I = 0; I != Objects; ++I) {
    uint64_t Addr = DataBase + I * ObjBytes;
    Mem.poke64(Addr + 0, Rand.nextBelow(NumKinds));
    Mem.poke64(Addr + 8, Rand.next() & 0xFFFF);
    Mem.poke64(Addr + 16, Rand.next() & 0xFFFF);
  }

  Assembler Asm(CodeBase);
  const unsigned Passes = 36 * Scale;

  // r0 = vtable, r16 = object cursor, r17 = remaining, r9 = accumulator.
  Asm.loadImm(0, int64_t(VtableBase));
  Asm.loadImm(RegSP, int64_t(StackTop - 64));
  Asm.movi(0, 9);
  Asm.loadImm(19, Passes);

  auto PassLoop = Asm.createLabel("pass");
  auto ObjLoop = Asm.createLabel("obj");
  std::vector<Assembler::Label> Methods;
  for (unsigned I = 0; I != NumKinds; ++I)
    Methods.push_back(Asm.createLabel(numbered("m", I)));

  Asm.bind(PassLoop);
  Asm.loadImm(16, int64_t(DataBase));
  Asm.loadImm(17, Objects);
  Asm.bind(ObjLoop);
  Asm.ldq(1, 0, 16);  // kind
  Asm.ldq(2, 8, 16);  // a
  Asm.ldq(3, 16, 16); // b
  Asm.operate(Op::S8ADDQ, 1, 0, 4);
  Asm.ldq(27, 0, 4);
  Asm.jsr(RegRA, 27);
  // Fixed-point post-mix in the caller (in-place local chain).
  Asm.operate(Op::MULQ, 2, 3, 4);
  Asm.operatei(Op::SRL, 4, 8, 4);
  Asm.operate(Op::ADDQ, 4, 2, 4);
  Asm.operatei(Op::SLL, 4, 1, 4);
  Asm.operate(Op::XOR, 4, 3, 4);
  Asm.operatei(Op::SRL, 4, 3, 4);
  Asm.operate(Op::ADDQ, 9, 4, 9);
  Asm.lda(16, ObjBytes, 16);
  Asm.operatei(Op::SUBL, 17, 1, 17);
  Asm.condBr(Op::BNE, 17, ObjLoop);
  Asm.operatei(Op::SUBL, 19, 1, 19);
  Asm.condBr(Op::BNE, 19, PassLoop);
  emitEpilogue(Asm);

  // Methods: arithmetic-dense fixed-point shading (in-place local chains
  // like the real renderer's expression trees).
  Asm.bind(Methods[0]); // diffuse
  Asm.operate(Op::MULQ, 2, 3, 5);
  Asm.operate(Op::ADDQ, 5, 2, 5);
  Asm.operatei(Op::SRL, 5, 4, 5);
  Asm.operatei(Op::ADDQ, 5, 3, 5);
  Asm.operatei(Op::SLL, 5, 1, 5);
  Asm.operate(Op::XOR, 5, 2, 5);
  Asm.operatei(Op::SRL, 5, 2, 5);
  Asm.operate(Op::ADDQ, 9, 5, 9);
  Asm.ret(RegRA);
  Asm.bind(Methods[1]); // specular
  Asm.operate(Op::ADDQ, 2, 3, 5);
  Asm.operatei(Op::SLL, 2, 2, 6);
  Asm.operate(Op::XOR, 5, 6, 5);
  Asm.operatei(Op::SRL, 5, 1, 5);
  Asm.operate(Op::MULQ, 5, 3, 6);
  Asm.operatei(Op::SRL, 6, 8, 6);
  Asm.operate(Op::ADDQ, 5, 6, 5);
  Asm.operatei(Op::AND, 5, 0xFF, 5);
  Asm.operate(Op::ADDQ, 9, 5, 9);
  Asm.ret(RegRA);
  Asm.bind(Methods[2]); // reflect: |a - b| with falloff
  Asm.operate(Op::SUBQ, 2, 3, 5);
  Asm.operate(Op::SUBQ, 3, 2, 6);
  Asm.operate(Op::CMOVLT, 5, 6, 5);
  Asm.operatei(Op::SRL, 5, 1, 6);
  Asm.operate(Op::ADDQ, 6, 5, 6);
  Asm.operatei(Op::SRL, 6, 2, 6);
  Asm.operate(Op::ADDQ, 9, 6, 9);
  Asm.ret(RegRA);
  Asm.bind(Methods[3]); // attenuate
  Asm.operate(Op::MULQ, 2, 2, 5);
  Asm.operatei(Op::SRL, 5, 6, 5);
  Asm.operate(Op::SUBQ, 5, 3, 5);
  Asm.operatei(Op::SLL, 5, 3, 6);
  Asm.operate(Op::SUBQ, 6, 5, 6);
  Asm.operatei(Op::SRL, 6, 1, 6);
  Asm.operate(Op::XOR, 9, 6, 9);
  Asm.ret(RegRA);

  std::vector<uint32_t> Words = Asm.finalize();
  commit(Mem, Asm, std::move(Words));
  for (unsigned I = 0; I != NumKinds; ++I)
    Mem.poke64(VtableBase + I * 8, Asm.labelAddr(Methods[I]));

  WorkloadImage Image;
  Image.Name = "eon";
  Image.EntryPc = CodeBase;
  Image.ApproxInsts = uint64_t(Passes) * Objects * 20;
  return Image;
}

// ---------------------------------------------------------------------------
// 176.gcc — a token-stream state machine: a deep data-dependent branch
// tree (hard-to-predict branches), symbol-chain walks, and sparse stores.
// ---------------------------------------------------------------------------
WorkloadImage workloads::buildGcc(GuestMemory &Mem, unsigned Scale) {
  constexpr uint64_t Tokens = 12 * 1024;
  constexpr uint64_t ChainBase = Data2Base;
  constexpr unsigned ChainNodes = 64;
  fillRandomBytes(Mem, DataBase, Tokens, 0x6CC);
  for (uint64_t I = 0; I != Tokens; ++I) {
    MemAccessResult R = Mem.load(DataBase + I, 1);
    Mem.poke8(DataBase + I, uint8_t(R.Value & 0x0F));
  }
  // Symbol chain: 16-byte nodes {value, next}.
  Mem.mapRegion(ChainBase, ChainNodes * 16 + 64);
  Rng Rand(0x6CC2);
  for (unsigned I = 0; I != ChainNodes; ++I) {
    Mem.poke64(ChainBase + I * 16, Rand.next() & 0xFFFF);
    Mem.poke64(ChainBase + I * 16 + 8,
               ChainBase + Rand.nextBelow(ChainNodes) * 16);
  }

  Assembler Asm(CodeBase);
  const unsigned Passes = 3 * Scale;

  // r0 = chain base, r16 = token pc, r17 = remaining, r9 = state.
  Asm.loadImm(0, int64_t(ChainBase));
  Asm.movi(0, 9);
  Asm.loadImm(19, Passes);

  auto PassLoop = Asm.createLabel("pass");
  auto TokLoop = Asm.createLabel("tok");
  auto TokNext = Asm.createLabel("tok_next");
  auto Lo = Asm.createLabel("lo");
  auto LoLo = Asm.createLabel("lolo");
  auto LoHi = Asm.createLabel("lohi");
  auto HiLo = Asm.createLabel("hilo");
  auto HiHi = Asm.createLabel("hihi");
  auto Walk = Asm.createLabel("walk");

  Asm.bind(PassLoop);
  Asm.loadImm(16, int64_t(DataBase));
  Asm.loadImm(17, Tokens);
  Asm.bind(TokLoop);
  Asm.ldbu(1, 0, 16);
  Asm.lda(16, 1, 16);
  // Branch tree on the token value (bits are random: mispredict-rich).
  Asm.operatei(Op::CMPLT, 1, 8, 2);
  Asm.condBr(Op::BNE, 2, Lo);
  Asm.operatei(Op::CMPLT, 1, 12, 2);
  Asm.condBr(Op::BNE, 2, HiLo);
  Asm.bind(HiHi); // 12..15: walk the symbol chain 3 hops
  Asm.mov(0, 3);
  Asm.movi(3, 4);
  Asm.bind(Walk);
  Asm.ldq(5, 0, 3);
  Asm.operate(Op::ADDQ, 9, 5, 9);
  Asm.ldq(3, 8, 3);
  Asm.operatei(Op::SUBL, 4, 1, 4);
  Asm.condBr(Op::BNE, 4, Walk);
  Asm.br(TokNext);
  Asm.bind(HiLo); // 8..11: sign-extension mixing
  Asm.operate(Op::SEXTB, RegZero, 9, 3);
  Asm.operate(Op::SEXTW, RegZero, 9, 4);
  Asm.operate(Op::XOR, 3, 4, 3);
  Asm.operatei(Op::SLL, 3, 1, 3);
  Asm.operatei(Op::ADDQ, 3, 9, 3);
  Asm.operate(Op::ADDQ, 9, 3, 9);
  Asm.br(TokNext);
  Asm.bind(Lo);
  Asm.operatei(Op::CMPLT, 1, 4, 2);
  Asm.condBr(Op::BNE, 2, LoLo);
  Asm.bind(LoHi); // 4..7: store to the chain head value
  Asm.operate(Op::ADDQ, 9, 1, 9);
  Asm.stq(9, 0, 0);
  Asm.br(TokNext);
  Asm.bind(LoLo); // 0..3: arithmetic
  Asm.operate(Op::S4ADDQ, 1, 9, 9);
  Asm.operatei(Op::SRL, 9, 2, 3);
  Asm.operate(Op::XOR, 9, 3, 9);
  Asm.operatei(Op::SLL, 1, 2, 3);
  Asm.operatei(Op::SUBQ, 3, 2, 3);
  Asm.operate(Op::ADDQ, 9, 3, 9);
  Asm.bind(TokNext);
  Asm.operatei(Op::SUBL, 17, 1, 17);
  Asm.condBr(Op::BNE, 17, TokLoop);
  Asm.operatei(Op::SUBL, 19, 1, 19);
  Asm.condBr(Op::BNE, 19, PassLoop);
  emitEpilogue(Asm);

  std::vector<uint32_t> Words = Asm.finalize();
  commit(Mem, Asm, std::move(Words));

  WorkloadImage Image;
  Image.Name = "gcc";
  Image.EntryPc = CodeBase;
  Image.ApproxInsts = uint64_t(Passes) * Tokens * 12;
  return Image;
}
