//===- tests/persist/FragmentCodecTest.cpp --------------------------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Round-trip properties of the fragment codec and the export/import path:
/// randomly generated fragments survive encode -> decode with byte-identical
/// re-encodings, and a translation cache rebuilt via importAll() reaches the
/// same chained state — byte-identical bodies, same I-PC layout, and the
/// same patch behavior for fragments installed afterwards — as the cache it
/// was exported from.
///
//===----------------------------------------------------------------------===//

#include "persist/FragmentCodec.h"

#include "core/TranslationCache.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace ildp;
using namespace ildp::persist;
using namespace ildp::dbt;
using namespace ildp::iisa;

namespace {

IOperand randomOperand(Rng &R) {
  switch (R.nextBelow(4)) {
  case 0:
    return IOperand::none();
  case 1:
    return IOperand::acc(uint8_t(R.nextBelow(MaxAccumulators)));
  case 2:
    return IOperand::gpr(uint8_t(R.nextBelow(NumIisaGprs)));
  default:
    return IOperand::imm(int64_t(R.next()));
  }
}

/// A structurally valid fragment with randomized contents covering every
/// serialized field: mixed instruction kinds, PEI entries with acc-held
/// register lists, pending and patched exits, and a source-address map.
Fragment randomFragment(Rng &R, uint64_t Entry) {
  Fragment F;
  F.EntryVAddr = Entry;
  F.Variant = IsaVariant(R.nextBelow(3));
  unsigned BodySize = 2 + unsigned(R.nextBelow(30));
  uint32_t Offset = 0;
  for (unsigned I = 0; I != BodySize; ++I) {
    IisaInst Inst;
    constexpr IKind Kinds[] = {IKind::Compute, IKind::CmovMask, IKind::Load,
                               IKind::Store,   IKind::CopyToGpr,
                               IKind::CopyFromGpr, IKind::SetVpcBase,
                               IKind::SaveRetAddr, IKind::PushDualRas};
    Inst.Kind = Kinds[R.nextBelow(std::size(Kinds))];
    Inst.AlphaOp = alpha::Opcode(R.nextBelow(alpha::NumOpcodes + 1));
    Inst.A = randomOperand(R);
    Inst.B = randomOperand(R);
    if (R.nextChance(1, 2))
      Inst.DestAcc = uint8_t(R.nextBelow(MaxAccumulators));
    if (R.nextChance(1, 2))
      Inst.DestGpr = uint8_t(R.nextBelow(NumIisaGprs));
    Inst.GprWriteArchOnly = R.nextChance(1, 3);
    Inst.VAddr = Entry + I * 4;
    Inst.VTarget = R.next();
    Inst.MemDisp = int32_t(R.next());
    Inst.VCredit = uint8_t(R.nextBelow(4));
    Inst.IsSourceOp = R.nextChance(2, 3);
    Inst.Usage = UsageClass(R.nextBelow(9));
    Inst.SizeBytes = uint8_t(2 + 2 * R.nextBelow(3));
    if (Inst.isPei() && R.nextChance(1, 2)) {
      PeiEntry Pei;
      Pei.InstIndex = I;
      Pei.VAddr = Inst.VAddr;
      unsigned Held = unsigned(R.nextBelow(4));
      for (unsigned P = 0; P != Held; ++P)
        Pei.AccHeldRegs.emplace_back(
            uint8_t(R.nextBelow(NumIisaGprs)),
            uint8_t(R.nextBelow(MaxAccumulators)));
      Inst.PeiIndex = int16_t(F.PeiTable.size());
      F.PeiTable.push_back(std::move(Pei));
    }
    F.InstOffset.push_back(Offset);
    Offset += Inst.SizeBytes;
    F.Body.push_back(Inst);
    if (R.nextChance(1, 4))
      F.SourceVAddrs.push_back(Inst.VAddr);
  }
  // Terminal exit (fragments always end in one).
  IisaInst Br;
  Br.Kind = IKind::Branch;
  Br.VTarget = Entry + 0x1000 + R.nextBelow(0x1000) * 4;
  Br.SizeBytes = 4;
  F.InstOffset.push_back(Offset);
  Offset += Br.SizeBytes;
  F.Body.push_back(Br);
  F.BodyBytes = Offset;
  F.SourceInsts = BodySize;
  F.NopsRemoved = unsigned(R.nextBelow(5));
  return F;
}

/// Deep comparison through re-encoding: two fragments are equal iff their
/// canonical encodings are byte-identical (the codec encodes every
/// persisted field deterministically).
void expectSameEncoding(const Fragment &A, const Fragment &B) {
  EXPECT_EQ(encodedBytes(A), encodedBytes(B));
}

/// Residency of every direct exit's target, in install and body order:
/// a cache's whole linkage, since an exit is chained exactly when its
/// target is resident.
std::vector<bool> linkage(const TranslationCache &Cache) {
  std::vector<bool> Out;
  for (const std::unique_ptr<Fragment> &F : Cache.fragments())
    for (const IisaInst &Inst : F->Body)
      if (Inst.isDirectExit())
        Out.push_back(Cache.contains(Inst.VTarget));
  return Out;
}

} // namespace

class CodecRoundTrip : public ::testing::TestWithParam<unsigned> {};

TEST_P(CodecRoundTrip, DecodeReproducesEveryField) {
  Rng R(0xABCD0000ull + GetParam());
  for (unsigned I = 0; I != 16; ++I) {
    Fragment Orig = randomFragment(R, 0x10000 + I * 0x400);
    std::vector<uint8_t> Bytes = encodedBytes(Orig);

    ByteReader Reader(Bytes);
    Fragment Decoded;
    ASSERT_TRUE(decodeFragment(Reader, Decoded));
    EXPECT_TRUE(Reader.atEnd()) << "decoder left trailing bytes";

    expectSameEncoding(Orig, Decoded);
    // Spot checks on fields the encoding comparison can't localize.
    EXPECT_EQ(Decoded.EntryVAddr, Orig.EntryVAddr);
    EXPECT_EQ(Decoded.Variant, Orig.Variant);
    ASSERT_EQ(Decoded.Body.size(), Orig.Body.size());
    EXPECT_EQ(Decoded.InstOffset, Orig.InstOffset);
    EXPECT_EQ(Decoded.PeiTable.size(), Orig.PeiTable.size());
    EXPECT_EQ(Decoded.SourceVAddrs, Orig.SourceVAddrs);
    EXPECT_EQ(Decoded.BodyBytes, Orig.BodyBytes);
    // Install-time state is never persisted.
    EXPECT_EQ(Decoded.IBase, 0u);
    EXPECT_EQ(Decoded.ExecCount, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecRoundTrip, ::testing::Range(0u, 8u));

namespace {

/// A ring of N fragments (each exits to the next entry), installed into a
/// cache so that every exit ends up chained.
TranslationCache makeRingCache(Rng &R, unsigned N, uint64_t Base) {
  TranslationCache Cache;
  std::vector<Fragment> Frags;
  for (unsigned I = 0; I != N; ++I) {
    Fragment F = randomFragment(R, Base + I * 0x400);
    F.Body.back().VTarget = Base + ((I + 1) % N) * 0x400;
    Frags.push_back(std::move(F));
  }
  for (Fragment &F : Frags)
    Cache.install(std::move(F));
  return Cache;
}

} // namespace

TEST(ExportImport, RebuildsByteIdenticalChainedState) {
  Rng R(0xFEED5EEDull);
  TranslationCache Cold = makeRingCache(R, 12, 0x40000);

  // Serialize through the codec (as a cache file would) and import into a
  // fresh cache.
  ByteWriter W;
  for (const Fragment *F : Cold.exportAll())
    encodeFragment(*F, W);
  std::vector<uint8_t> Bytes = W.take();
  ByteReader Reader(Bytes);
  std::vector<Fragment> Decoded(12);
  for (Fragment &F : Decoded)
    ASSERT_TRUE(decodeFragment(Reader, F));
  ASSERT_TRUE(Reader.atEnd());

  TranslationCache Warm;
  EXPECT_EQ(Warm.importAll(std::move(Decoded)), 12u);
  ASSERT_EQ(Warm.fragmentCount(), Cold.fragmentCount());
  EXPECT_EQ(Warm.totalBodyBytes(), Cold.totalBodyBytes());
  EXPECT_EQ(Warm.uniqueSourceInsts(), Cold.uniqueSourceInsts());

  // Fragment-by-fragment: identical install order, I-PC layout, and
  // byte-identical bodies.
  for (size_t I = 0; I != Cold.fragments().size(); ++I) {
    const Fragment &A = *Cold.fragments()[I];
    const Fragment &B = *Warm.fragments()[I];
    EXPECT_EQ(B.IBase, A.IBase);
    expectSameEncoding(A, B);
  }
  // A full ring chains completely in both.
  EXPECT_EQ(linkage(Warm), std::vector<bool>(12, true));
  EXPECT_EQ(linkage(Warm), linkage(Cold));
}

TEST(ExportImport, SubsequentInstallsLinkIdentically) {
  // Cold cache: a chain A -> B -> C where C is NOT installed yet, so B's
  // exit leaves through the translator. The imported cache must leave
  // through the translator at exactly the same exit and chain it at the
  // same moment.
  Rng R(0x12345678ull);
  auto MakeChain = [&R](uint64_t Base) {
    std::vector<Fragment> Frags;
    for (unsigned I = 0; I != 3; ++I) {
      Fragment F = randomFragment(R, Base + I * 0x400);
      F.Body.back().VTarget = Base + (I + 1) * 0x400;
      Frags.push_back(std::move(F));
    }
    return Frags;
  };

  uint64_t Base = 0x80000;
  std::vector<Fragment> Chain = MakeChain(Base);
  Fragment Tail = std::move(Chain.back());
  Chain.pop_back();

  TranslationCache Cold;
  for (Fragment &F : Chain)
    Cold.install(std::move(F));

  ByteWriter W;
  for (const Fragment *F : Cold.exportAll())
    encodeFragment(*F, W);
  std::vector<uint8_t> Bytes = W.take();
  ByteReader Reader(Bytes);
  std::vector<Fragment> Decoded(2);
  for (Fragment &F : Decoded)
    ASSERT_TRUE(decodeFragment(Reader, F));

  TranslationCache Warm;
  EXPECT_EQ(Warm.importAll(std::move(Decoded)), 2u);
  EXPECT_EQ(linkage(Cold), (std::vector<bool>{true, false}));
  EXPECT_EQ(linkage(Warm), linkage(Cold));

  // Install the missing tail into both caches: the exit into it chains in
  // both.
  Fragment TailCopy;
  {
    std::vector<uint8_t> TailBytes = encodedBytes(Tail);
    ByteReader TailReader(TailBytes);
    ASSERT_TRUE(decodeFragment(TailReader, TailCopy));
  }
  Cold.install(std::move(Tail));
  Warm.install(std::move(TailCopy));
  EXPECT_EQ(linkage(Cold), (std::vector<bool>{true, true, false}));
  EXPECT_EQ(linkage(Warm), linkage(Cold));
  for (size_t I = 0; I != Cold.fragments().size(); ++I)
    expectSameEncoding(*Cold.fragments()[I], *Warm.fragments()[I]);
}

TEST(ExportImport, DuplicateEntriesAreSkipped) {
  Rng R(0x99999999ull);
  TranslationCache Cache;
  Cache.install(randomFragment(R, 0xA0000));

  std::vector<Fragment> Incoming;
  Incoming.push_back(randomFragment(R, 0xA0000)); // Duplicate entry.
  Incoming.push_back(randomFragment(R, 0xA0400));
  EXPECT_EQ(Cache.importAll(std::move(Incoming)), 1u);
  EXPECT_EQ(Cache.fragmentCount(), 2u);
}
