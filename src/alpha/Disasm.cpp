//===- alpha/Disasm.cpp - Alpha disassembler ------------------------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//

#include "alpha/Disasm.h"

#include <cstdio>

using namespace ildp;
using namespace ildp::alpha;

// Names are formatted into a buffer (as hex() does): GCC 12 at -O3 raises
// a false-positive -Wrestrict on "literal" + std::string.
static std::string reg(unsigned R) {
  char Buffer[8];
  std::snprintf(Buffer, sizeof(Buffer), "r%u", R);
  return Buffer;
}

static std::string hex(uint64_t Value) {
  char Buffer[32];
  std::snprintf(Buffer, sizeof(Buffer), "0x%llx",
                static_cast<unsigned long long>(Value));
  return Buffer;
}

std::string alpha::disassemble(const AlphaInst &Inst, uint64_t Pc) {
  if (!Inst.valid())
    return "<invalid>";
  const OpInfo &Info = Inst.info();
  std::string Text = Info.Mnemonic;
  Text += ' ';
  switch (Info.Form) {
  case Format::Mem:
    Text += reg(Inst.Ra) + ", " + std::to_string(Inst.Disp) + "[" +
            reg(Inst.Rb) + "]";
    break;
  case Format::Branch:
    if (Info.Kind == InstKind::CondBranch || Inst.Ra != RegZero)
      Text += reg(Inst.Ra) + ", ";
    Text += hex(Inst.branchTarget(Pc));
    break;
  case Format::Operate: {
    Text += reg(Inst.Ra) + ", ";
    if (Inst.HasLit)
      Text += std::to_string(unsigned(Inst.Lit));
    else
      Text += reg(Inst.Rb);
    Text += ", ";
    Text += reg(Inst.Rc);
    break;
  }
  case Format::Jump:
    if (Info.Kind != InstKind::Ret)
      Text += reg(Inst.Ra) + ", ";
    Text += '(';
    Text += reg(Inst.Rb);
    Text += ')';
    break;
  case Format::Pal:
    if (Inst.PalFunc == PalHalt)
      Text += "halt";
    else if (Inst.PalFunc == PalGentrap)
      Text += "gentrap";
    else
      Text += hex(Inst.PalFunc);
    break;
  }
  return Text;
}
