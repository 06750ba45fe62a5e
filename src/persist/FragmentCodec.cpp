//===- persist/FragmentCodec.cpp - Fragment binary encode/decode ----------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//

#include "persist/FragmentCodec.h"

using namespace ildp;
using namespace ildp::persist;
using namespace ildp::dbt;
using namespace ildp::iisa;

namespace {

// Fixed encoded sizes, used as getCount() plausibility floors.
constexpr size_t OperandBytes = 1 + 1 + 8;           // kind, reg, imm
constexpr size_t InstBytes = 1 + 2 + 2 * OperandBytes // kind, op, A, B
                             + 1 + 1 + 1              // dests, arch-only
                             + 8 + 8 + 4              // vaddr, vtarget, disp
                             + 1 + 1 + 1 + 1 + 2;     // vcredit..peiindex
constexpr size_t PeiMinBytes = 4 + 8 + 4; // inst index, vaddr, pair count

void encodeOperand(const IOperand &Op, ByteWriter &W) {
  W.putU8(uint8_t(Op.K));
  W.putU8(Op.Reg);
  W.putI64(Op.Imm);
}

bool decodeOperand(ByteReader &R, IOperand &Op) {
  uint8_t Kind = R.getU8();
  Op.Reg = R.getU8();
  Op.Imm = R.getI64();
  if (Kind > uint8_t(IOperand::Kind::Imm))
    return false;
  Op.K = IOperand::Kind(Kind);
  // Register numbers feed direct array indexing in the executor; reject
  // anything out of range for its register space.
  if (Op.isAcc() && Op.Reg >= MaxAccumulators)
    return false;
  if (Op.isGpr() && Op.Reg >= NumIisaGprs)
    return false;
  return true;
}

void encodeInst(const IisaInst &Inst, ByteWriter &W) {
  W.putU8(uint8_t(Inst.Kind));
  W.putU16(uint16_t(Inst.AlphaOp));
  encodeOperand(Inst.A, W);
  encodeOperand(Inst.B, W);
  W.putU8(Inst.DestAcc);
  W.putU8(Inst.DestGpr);
  W.putU8(Inst.GprWriteArchOnly ? 1 : 0);
  W.putU64(Inst.VAddr);
  W.putU64(Inst.VTarget);
  W.putI32(Inst.MemDisp);
  W.putU8(Inst.VCredit);
  W.putU8(Inst.IsSourceOp ? 1 : 0);
  W.putU8(uint8_t(Inst.Usage));
  W.putU8(Inst.SizeBytes);
  W.putI16(Inst.PeiIndex);
}

bool decodeInst(ByteReader &R, IisaInst &Inst) {
  uint8_t Kind = R.getU8();
  uint16_t AlphaOp = R.getU16();
  bool OperandsOk = decodeOperand(R, Inst.A);
  OperandsOk &= decodeOperand(R, Inst.B);
  Inst.DestAcc = R.getU8();
  Inst.DestGpr = R.getU8();
  Inst.GprWriteArchOnly = R.getU8() != 0;
  Inst.VAddr = R.getU64();
  Inst.VTarget = R.getU64();
  Inst.MemDisp = R.getI32();
  Inst.VCredit = R.getU8();
  Inst.IsSourceOp = R.getU8() != 0;
  uint8_t Usage = R.getU8();
  Inst.SizeBytes = R.getU8();
  Inst.PeiIndex = R.getI16();
  if (R.failed() || !OperandsOk)
    return false;
  if (Kind > uint8_t(IKind::Gentrap) ||
      AlphaOp > uint16_t(alpha::Opcode::Invalid) ||
      Usage > uint8_t(UsageClass::NoUserToGlobal))
    return false;
  Inst.Kind = IKind(Kind);
  Inst.AlphaOp = alpha::Opcode(AlphaOp);
  Inst.Usage = UsageClass(Usage);
  if (Inst.DestAcc != NoReg && Inst.DestAcc >= MaxAccumulators)
    return false;
  if (Inst.DestGpr != NoReg && Inst.DestGpr >= NumIisaGprs)
    return false;
  return true;
}

} // namespace

void persist::encodeFragment(const Fragment &Frag, ByteWriter &W) {
  W.putU64(Frag.EntryVAddr);
  W.putU8(uint8_t(Frag.Variant));
  W.putU32(Frag.SourceInsts);
  W.putU32(Frag.NopsRemoved);
  W.putU32(Frag.BodyBytes);

  W.putU32(uint32_t(Frag.Body.size()));
  for (const IisaInst &Inst : Frag.Body)
    encodeInst(Inst, W);
  // InstOffset runs parallel to Body; its length is implied.
  for (uint32_t Offset : Frag.InstOffset)
    W.putU32(Offset);

  W.putU32(uint32_t(Frag.PeiTable.size()));
  for (const PeiEntry &Pei : Frag.PeiTable) {
    W.putU32(Pei.InstIndex);
    W.putU64(Pei.VAddr);
    W.putU32(uint32_t(Pei.AccHeldRegs.size()));
    for (auto [Reg, Acc] : Pei.AccHeldRegs) {
      W.putU8(Reg);
      W.putU8(Acc);
    }
  }

  W.putU32(uint32_t(Frag.SourceVAddrs.size()));
  for (uint64_t VAddr : Frag.SourceVAddrs)
    W.putU64(VAddr);
}

bool persist::decodeFragment(ByteReader &R, Fragment &Out) {
  Out = Fragment();
  Out.EntryVAddr = R.getU64();
  uint8_t Variant = R.getU8();
  Out.SourceInsts = R.getU32();
  Out.NopsRemoved = R.getU32();
  Out.BodyBytes = R.getU32();
  if (R.failed() || Variant > uint8_t(IsaVariant::Straight)) {
    R.fail();
    return false;
  }
  Out.Variant = IsaVariant(Variant);

  uint32_t BodyCount = R.getCount(InstBytes);
  if (R.failed() || BodyCount == 0) {
    // Fragments are never empty (every superblock ends in an exit).
    R.fail();
    return false;
  }
  Out.Body.resize(BodyCount);
  for (IisaInst &Inst : Out.Body)
    if (!decodeInst(R, Inst)) {
      R.fail();
      return false;
    }
  Out.InstOffset.resize(BodyCount);
  for (uint32_t &Offset : Out.InstOffset)
    Offset = R.getU32();

  uint32_t PeiCount = R.getCount(PeiMinBytes);
  if (R.failed())
    return false;
  Out.PeiTable.resize(PeiCount);
  for (PeiEntry &Pei : Out.PeiTable) {
    Pei.InstIndex = R.getU32();
    Pei.VAddr = R.getU64();
    uint32_t Pairs = R.getCount(2);
    if (R.failed() || Pei.InstIndex >= BodyCount) {
      R.fail();
      return false;
    }
    Pei.AccHeldRegs.resize(Pairs);
    for (auto &[Reg, Acc] : Pei.AccHeldRegs) {
      Reg = R.getU8();
      Acc = R.getU8();
      if (Reg >= NumIisaGprs || Acc >= MaxAccumulators) {
        R.fail();
        return false;
      }
    }
  }

  uint32_t SourceCount = R.getCount(8);
  if (R.failed())
    return false;
  Out.SourceVAddrs.resize(SourceCount);
  for (uint64_t &VAddr : Out.SourceVAddrs)
    VAddr = R.getU64();

  if (R.failed())
    return false;
  // Cross-table index validation: trap recovery dereferences PeiIndex.
  for (const IisaInst &Inst : Out.Body)
    if (Inst.PeiIndex != -1 &&
        (Inst.PeiIndex < 0 || size_t(Inst.PeiIndex) >= Out.PeiTable.size())) {
      R.fail();
      return false;
    }
  return true;
}

std::vector<uint8_t> persist::encodedBytes(const Fragment &Frag) {
  ByteWriter W;
  encodeFragment(Frag, W);
  return W.take();
}
