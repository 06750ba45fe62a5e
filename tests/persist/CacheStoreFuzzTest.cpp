//===- tests/persist/CacheStoreFuzzTest.cpp -------------------------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fault injection against the multi-image store loader. Store files come
/// from disk and may be truncated, bit-flipped, index-corrupted, or
/// hand-crafted to carry duplicate or out-of-bounds slots; every such file
/// must be rejected with a typed status and an empty store — never
/// accepted, never a crash. The sweeps truncate a valid store at every
/// prefix length and flip every byte of it one at a time; crafted cases
/// then forge an index whose CRC is valid but whose fields lie. A final
/// set runs corrupted stores through a whole VM and checks the typed
/// persist.import_rejected.<reason> degrade-to-cold-start contract.
///
//===----------------------------------------------------------------------===//

#include "persist/CacheStore.h"

#include "native/NativeCompiler.h"
#include "native/NativeStore.h"
#include "persist/Crc32.h"
#include "support/Rng.h"
#include "vm/VirtualMachine.h"
#include "workloads/Workloads.h"

#include <cstdio>
#include <fstream>
#include <gtest/gtest.h>

using namespace ildp;
using namespace ildp::persist;
using namespace ildp::dbt;
using namespace ildp::iisa;

namespace {

// Mirrors the on-disk layout documented in CacheStore.h; the crafted-index
// tests below patch fields at these offsets.
constexpr size_t HeaderBytes = 20;
constexpr size_t IndexEntryBytes = 52;
constexpr size_t IndexCrcOffset = 16;

/// Small but non-trivial fragment (same shape as CacheFileFaultTest).
Fragment makeFragment(uint64_t Entry, uint64_t Target) {
  Fragment F;
  F.EntryVAddr = Entry;
  F.Variant = IsaVariant::Modified;
  IisaInst Vpc;
  Vpc.Kind = IKind::SetVpcBase;
  Vpc.VTarget = Entry;
  Vpc.SizeBytes = 6;
  F.Body.push_back(Vpc);
  IisaInst Ld;
  Ld.Kind = IKind::Load;
  Ld.AlphaOp = alpha::Opcode::LDQ;
  Ld.B = IOperand::gpr(3);
  Ld.DestAcc = 1;
  Ld.VAddr = Entry;
  Ld.SizeBytes = 4;
  Ld.PeiIndex = 0;
  F.Body.push_back(Ld);
  F.PeiTable.push_back({1, Entry, {{uint8_t(5), uint8_t(1)}}});
  IisaInst Br;
  Br.Kind = IKind::Branch;
  Br.VTarget = Target;
  Br.SizeBytes = 4;
  F.Body.push_back(Br);
  F.InstOffset = {0, 6, 10};
  F.BodyBytes = 14;
  F.SourceVAddrs = {Entry};
  F.SourceInsts = 2;
  return F;
}

std::string tempPath(const char *Name) {
  std::string Path = testing::TempDir() + "/" + Name;
  std::remove(Path.c_str());
  return Path;
}

std::vector<uint8_t> readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return {std::istreambuf_iterator<char>(In),
          std::istreambuf_iterator<char>()};
}

void writeFile(const std::string &Path, const std::vector<uint8_t> &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(reinterpret_cast<const char *>(Bytes.data()),
            std::streamsize(Bytes.size()));
}

/// Writes a valid three-image store and returns its bytes.
std::vector<uint8_t> makeValidStore(const std::string &Path) {
  CacheStore Store;
  for (uint64_t Fp : {0xA1ull, 0xB2ull, 0xC3ull}) {
    std::vector<Fragment> Storage;
    for (unsigned I = 0; I != 2; ++I)
      Storage.push_back(makeFragment(0x1000 + Fp * 0x100 + I * 0x10,
                                     0x5000 + I * 0x100));
    std::vector<const Fragment *> Frags;
    for (const Fragment &F : Storage)
      Frags.push_back(&F);
    Store.put(Fp, Frags, /*CostUnits=*/Fp);
  }
  EXPECT_TRUE(Store.save(Path));
  return readFile(Path);
}

void putLE64(std::vector<uint8_t> &Bytes, size_t Off, uint64_t Value) {
  for (unsigned I = 0; I != 8; ++I)
    Bytes[Off + I] = uint8_t(Value >> (8 * I));
}

void putLE32(std::vector<uint8_t> &Bytes, size_t Off, uint32_t Value) {
  for (unsigned I = 0; I != 4; ++I)
    Bytes[Off + I] = uint8_t(Value >> (8 * I));
}

/// Recomputes the header's index CRC over \p Count entries — the crafted
/// cases below forge index *fields* that must get past the CRC gate and be
/// caught by the per-field plausibility checks instead.
void fixIndexCrc(std::vector<uint8_t> &Bytes, size_t Count) {
  putLE32(Bytes, IndexCrcOffset,
          crc32(Bytes.data() + HeaderBytes, Count * IndexEntryBytes));
}

} // namespace

TEST(CacheStoreFuzz, ValidStoreLoads) {
  std::string Path = tempPath("fuzz-valid.tstore");
  std::vector<uint8_t> Bytes = makeValidStore(Path);
  ASSERT_GT(Bytes.size(), HeaderBytes + 3 * IndexEntryBytes);

  CacheStore Store;
  ASSERT_EQ(Store.open(Path), StoreStatus::Ok);
  EXPECT_EQ(Store.imageCount(), 3u);
}

TEST(CacheStoreFuzz, EveryTruncationIsRejected) {
  std::string Path = tempPath("fuzz-trunc.tstore");
  std::vector<uint8_t> Bytes = makeValidStore(Path);

  for (size_t Len = 0; Len != Bytes.size(); ++Len) {
    std::vector<uint8_t> Cut(Bytes.begin(), Bytes.begin() + long(Len));
    writeFile(Path, Cut);
    CacheStore Store;
    EXPECT_NE(Store.open(Path), StoreStatus::Ok) << "accepted prefix " << Len;
    EXPECT_EQ(Store.imageCount(), 0u) << "images from prefix " << Len;
  }
}

TEST(CacheStoreFuzz, EveryByteFlipIsRejected) {
  std::string Path = tempPath("fuzz-flip.tstore");
  std::vector<uint8_t> Bytes = makeValidStore(Path);

  // Flipping any byte anywhere must be caught: magic/version by their
  // gates, the count and every index field by the index CRC, payload
  // bytes by the per-image CRC. Nothing in the file is unchecked.
  for (size_t Pos = 0; Pos != Bytes.size(); ++Pos) {
    std::vector<uint8_t> Bad = Bytes;
    Bad[Pos] ^= 0x5A;
    writeFile(Path, Bad);
    CacheStore Store;
    EXPECT_NE(Store.open(Path), StoreStatus::Ok) << "accepted flip at " << Pos;
    EXPECT_EQ(Store.imageCount(), 0u);
  }
}

TEST(CacheStoreFuzz, DuplicateImageFingerprintIsRejected) {
  std::string Path = tempPath("fuzz-dup.tstore");
  std::vector<uint8_t> Bytes = makeValidStore(Path);

  // Forge the second slot's fingerprint to collide with the first and
  // re-sign the index: the duplicate check must fire, not the CRC.
  putLE64(Bytes, HeaderBytes + IndexEntryBytes, 0xA1);
  fixIndexCrc(Bytes, 3);
  writeFile(Path, Bytes);
  CacheStore Store;
  EXPECT_EQ(Store.open(Path), StoreStatus::DuplicateImage);
  EXPECT_EQ(Store.imageCount(), 0u);
}

TEST(CacheStoreFuzz, CraftedIndexFieldsAreRejected) {
  std::string Path = tempPath("fuzz-index.tstore");
  std::vector<uint8_t> Valid = makeValidStore(Path);

  // Payload offset pointing past end of file (CRC-valid index).
  std::vector<uint8_t> BadOffset = Valid;
  putLE64(BadOffset, HeaderBytes + 8, uint64_t(Valid.size()) + 1);
  fixIndexCrc(BadOffset, 3);
  writeFile(Path, BadOffset);
  CacheStore Store;
  EXPECT_EQ(Store.open(Path), StoreStatus::Truncated);

  // Payload size overrunning the file from a valid offset.
  std::vector<uint8_t> BadSize = Valid;
  putLE64(BadSize, HeaderBytes + 16, uint64_t(Valid.size()));
  fixIndexCrc(BadSize, 3);
  writeFile(Path, BadSize);
  EXPECT_EQ(Store.open(Path), StoreStatus::Truncated);

  // Fragment count larger than the payload could possibly encode.
  std::vector<uint8_t> BadCount = Valid;
  putLE32(BadCount, HeaderBytes + 28, 0x00FFFFFF);
  fixIndexCrc(BadCount, 3);
  writeFile(Path, BadCount);
  EXPECT_EQ(Store.open(Path), StoreStatus::BadIndex);

  // Image count beyond the corruption guard (index CRC can't help: the
  // count gate must fire before a huge index allocation is attempted).
  std::vector<uint8_t> BadImages = Valid;
  putLE32(BadImages, 12, MaxStoreImages + 1);
  writeFile(Path, BadImages);
  EXPECT_EQ(Store.open(Path), StoreStatus::BadIndex);
}

TEST(CacheStoreFuzz, BodyByteLieWithValidCrcsIsBadPayload) {
  // Corrupt the index's BodyBytes cross-check and re-sign everything: the
  // store opens (CRCs hold) but lookup() must refuse to hand the fragments
  // over, because the decoded payload contradicts the index.
  std::string Path = tempPath("fuzz-bodybytes.tstore");
  std::vector<uint8_t> Bytes = makeValidStore(Path);
  putLE64(Bytes, HeaderBytes + 32, 1); // True value: 2 fragments * 14.
  fixIndexCrc(Bytes, 3);
  writeFile(Path, Bytes);

  CacheStore Store;
  ASSERT_EQ(Store.open(Path), StoreStatus::Ok);
  std::vector<Fragment> Frags;
  EXPECT_EQ(Store.lookup(0xA1, Frags), StoreStatus::BadPayload);
  EXPECT_TRUE(Frags.empty());
  // The other slots are untouched and still decode.
  EXPECT_EQ(Store.lookup(0xB2, Frags), StoreStatus::Ok);
}

TEST(CacheStoreFuzz, ForeignMagicVersionAndGarbageAreRejected) {
  std::string Path = tempPath("fuzz-garbage.tstore");
  std::vector<uint8_t> Bytes = makeValidStore(Path);

  std::vector<uint8_t> BadMagic = Bytes;
  BadMagic[0] ^= 0xFF;
  writeFile(Path, BadMagic);
  CacheStore Store;
  EXPECT_EQ(Store.open(Path), StoreStatus::BadMagic);

  std::vector<uint8_t> BadVersion = Bytes;
  BadVersion[8] = uint8_t(CacheStoreVersion + 1);
  writeFile(Path, BadVersion);
  EXPECT_EQ(Store.open(Path), StoreStatus::BadVersion);
  // The previous format revision, which persisted exit link state, is
  // refused as a type too, not decoded as a payload.
  BadVersion[8] = uint8_t(CacheStoreVersion - 1);
  writeFile(Path, BadVersion);
  EXPECT_EQ(Store.open(Path), StoreStatus::BadVersion);

  Rng R(0xBADF00Dull);
  std::vector<uint8_t> Garbage(Bytes.size());
  for (uint8_t &B : Garbage)
    B = uint8_t(R.next());
  writeFile(Path, Garbage);
  EXPECT_NE(Store.open(Path), StoreStatus::Ok);
  EXPECT_EQ(Store.imageCount(), 0u);

  // Garbage behind a valid header prefix.
  std::vector<uint8_t> Wolf = Garbage;
  std::copy(Bytes.begin(), Bytes.begin() + 12, Wolf.begin());
  writeFile(Path, Wolf);
  EXPECT_NE(Store.open(Path), StoreStatus::Ok);
  EXPECT_EQ(Store.imageCount(), 0u);
}

// ---------------------------------------------------------------------------
// Whole-VM degrade contract: every corruption yields a correct cold start
// counted under persist.import_rejected.<reason>. The exhaustive sweeps
// above prove the loader catches everything; these prove the VM wiring.
// ---------------------------------------------------------------------------

namespace {

struct VmOutcome {
  uint64_t Checksum = 0;
  StatisticSet Stats;
};

VmOutcome runGzip(const vm::VmConfig &Config) {
  GuestMemory Mem;
  workloads::WorkloadImage Image = workloads::buildWorkload("gzip", Mem, 1);
  vm::VirtualMachine Vm(Mem, Image.EntryPc, Config);
  vm::RunResult Result = Vm.run();
  EXPECT_EQ(Result.Reason, vm::StopReason::Halted);
  VmOutcome Out;
  Out.Checksum = Vm.interpreter().state().readGpr(alpha::RegV0);
  Out.Stats = Vm.stats();
  return Out;
}

} // namespace

TEST(CacheStoreFuzz, VmDegradesWithTypedReasonPerCorruption) {
  std::string Path = tempPath("fuzz-vm.tstore");
  vm::VmConfig Config;
  Config.PersistPath = Path;
  VmOutcome Cold = runGzip(Config);
  std::vector<uint8_t> Valid = readFile(Path);
  ASSERT_GT(Valid.size(), HeaderBytes + IndexEntryBytes);

  struct Case {
    const char *Name;
    const char *Reason;
    std::vector<uint8_t> Bytes;
  };
  std::vector<Case> Cases;
  Cases.push_back({"magic", "bad-magic", Valid});
  Cases.back().Bytes[0] ^= 0xFF;
  Cases.push_back({"version", "bad-version", Valid});
  Cases.back().Bytes[8] ^= 0x01;
  // A store written by the previous format revision (with link state).
  Cases.push_back({"previous-version", "bad-version", Valid});
  Cases.back().Bytes[8] = uint8_t(CacheStoreVersion - 1);
  Cases.push_back({"truncated", "truncated",
                   {Valid.begin(), Valid.begin() + 10}});
  Cases.push_back({"index", "bad-index", Valid});
  Cases.back().Bytes[HeaderBytes + 3] ^= 0x5A; // Fingerprint byte.
  Cases.push_back({"payload", "bad-checksum", Valid});
  Cases.back().Bytes[Valid.size() - 1] ^= 0x5A;
  Cases.push_back({"duplicate", "duplicate-image", Valid});
  {
    // Two slots, same fingerprint: duplicate the only index entry.
    Case &Dup = Cases.back();
    std::vector<uint8_t> Entry(Dup.Bytes.begin() + HeaderBytes,
                               Dup.Bytes.begin() + HeaderBytes +
                                   IndexEntryBytes);
    Dup.Bytes.insert(Dup.Bytes.begin() + HeaderBytes + IndexEntryBytes,
                     Entry.begin(), Entry.end());
    putLE32(Dup.Bytes, 12, 2);
    // Both entries' payload offsets shifted by the inserted entry.
    for (size_t Slot = 0; Slot != 2; ++Slot) {
      size_t Off = HeaderBytes + Slot * IndexEntryBytes + 8;
      uint64_t Old = 0;
      for (unsigned I = 0; I != 8; ++I)
        Old |= uint64_t(Dup.Bytes[Off + I]) << (8 * I);
      putLE64(Dup.Bytes, Off, Old + IndexEntryBytes);
    }
    fixIndexCrc(Dup.Bytes, 2);
  }

  for (const Case &C : Cases) {
    writeFile(Path, C.Bytes);
    VmOutcome Out = runGzip(Config);
    EXPECT_EQ(Out.Stats.get("persist.load_corrupt"), 1u) << C.Name;
    EXPECT_EQ(Out.Stats.get("persist.load_ok"), 0u) << C.Name;
    EXPECT_EQ(Out.Stats.get("persist.import_rejected"), 1u) << C.Name;
    EXPECT_EQ(Out.Stats.get(std::string("persist.import_rejected.") +
                            C.Reason),
              1u)
        << C.Name;
    // Full cold behavior, still the right answer — and the exit save
    // heals the artifact for the next run.
    EXPECT_EQ(Out.Checksum, Cold.Checksum) << C.Name;
    EXPECT_EQ(Out.Stats.get("dbt.fragments"), Cold.Stats.get("dbt.fragments"))
        << C.Name;
    VmOutcome Healed = runGzip(Config);
    EXPECT_EQ(Healed.Stats.get("persist.store_hit"), 1u) << C.Name;
    EXPECT_EQ(Healed.Stats.get("dbt.fragments"), 0u) << C.Name;
  }
}

TEST(CacheStoreFuzz, StaleNativeObjectPayloadIsRejectedTyped) {
  if (!native::hostCompiler().found())
    GTEST_SKIP() << "no host C compiler on this machine";

  std::string Path = tempPath("fuzz-native-stale.tstore");
  vm::VmConfig Config;
  Config.PersistPath = Path;
  Config.NativeTier = true;
  Config.NativeThreshold = 8;
  VmOutcome Cold = runGzip(Config);
  ASSERT_EQ(Cold.Stats.get("persist.save_ok"), 1u);
  ASSERT_GT(Cold.Stats.get("native.compiles"), 0u);

  // Re-sign the native slot as if a different toolchain/ABI had written
  // it: structurally pristine payload, wrong compile-command checksum.
  const uint64_t Checksum = native::hostCompiler().Checksum;
  {
    CacheStore Store;
    ASSERT_EQ(Store.open(Path), StoreStatus::Ok);
    uint64_t NativeSlot = 0;
    std::map<uint64_t, std::vector<uint8_t>> Objects;
    for (const StoreImage &Img : Store.images()) {
      const std::vector<uint8_t> *Raw = Store.lookupRaw(Img.Fingerprint);
      if (Raw && native::decodeObjects(*Raw, Checksum, Objects) ==
                     native::NativeStoreStatus::Ok) {
        NativeSlot = Img.Fingerprint;
        break;
      }
    }
    ASSERT_NE(NativeSlot, 0u) << "no native slot in the saved store";
    ASSERT_FALSE(Objects.empty());
    Store.putRaw(NativeSlot, native::encodeObjects(Objects, Checksum ^ 1));
    ASSERT_TRUE(Store.save(Path));
  }

  // The stale payload must be rejected with its typed reason BEFORE any
  // object is decoded or dlopen'd; the fragment import is untouched, the
  // answer doesn't change, and the tier recompiles from source.
  VmOutcome Warm = runGzip(Config);
  EXPECT_EQ(Warm.Stats.get("persist.import_rejected.native_stale"), 1u);
  EXPECT_EQ(Warm.Stats.get("persist.load_ok"), 1u);
  EXPECT_EQ(Warm.Stats.get("dbt.fragments"), 0u);
  EXPECT_EQ(Warm.Stats.get("native.imported_objects"), 0u);
  EXPECT_GT(Warm.Stats.get("native.compiles"), 0u);
  EXPECT_EQ(Warm.Checksum, Cold.Checksum);

  // The warm run's exit save re-signed the slot with the live checksum:
  // the artifact is healed and imports cleanly again.
  VmOutcome Healed = runGzip(Config);
  EXPECT_EQ(Healed.Stats.get("persist.import_rejected.native_stale"), 0u);
  EXPECT_GT(Healed.Stats.get("native.imported_objects"), 0u);
  EXPECT_EQ(Healed.Checksum, Cold.Checksum);
}

TEST(CacheStoreFuzz, MalformedNativePayloadIsRejectedTyped) {
  // A toolchain is required twice over: the cold seed only writes a
  // native slot when it can compile, and the import path only runs with
  // a live native service.
  if (!native::hostCompiler().found())
    GTEST_SKIP() << "no host C compiler on this machine";

  std::string Path = tempPath("fuzz-native-malformed.tstore");
  vm::VmConfig Config;
  Config.PersistPath = Path;
  Config.NativeTier = true;
  Config.NativeThreshold = 8;
  VmOutcome Cold = runGzip(Config);
  ASSERT_EQ(Cold.Stats.get("persist.save_ok"), 1u);

  const uint64_t Checksum = native::hostCompiler().Checksum;
  {
    CacheStore Store;
    ASSERT_EQ(Store.open(Path), StoreStatus::Ok);
    uint64_t NativeSlot = 0;
    std::map<uint64_t, std::vector<uint8_t>> Objects;
    for (const StoreImage &Img : Store.images()) {
      const std::vector<uint8_t> *Raw = Store.lookupRaw(Img.Fingerprint);
      if (Raw && native::decodeObjects(*Raw, Checksum, Objects) ==
                     native::NativeStoreStatus::Ok) {
        NativeSlot = Img.Fingerprint;
        break;
      }
    }
    ASSERT_NE(NativeSlot, 0u);
    // Truncate the payload mid-object: passes the store's CRC (re-signed
    // by save), fails native structural decoding.
    std::vector<uint8_t> Bad = native::encodeObjects(Objects, Checksum);
    Bad.resize(Bad.size() - 1);
    Store.putRaw(NativeSlot, std::move(Bad));
    ASSERT_TRUE(Store.save(Path));
  }

  VmOutcome Warm = runGzip(Config);
  EXPECT_EQ(Warm.Stats.get("persist.import_rejected.native_malformed"), 1u);
  EXPECT_EQ(Warm.Stats.get("persist.load_ok"), 1u);
  EXPECT_EQ(Warm.Stats.get("native.imported_objects"), 0u);
  EXPECT_EQ(Warm.Checksum, Cold.Checksum);
}

TEST(CacheStoreFuzz, VmSurvivesSampledByteFlipSweep) {
  std::string Path = tempPath("fuzz-vm-sweep.tstore");
  vm::VmConfig Config;
  Config.PersistPath = Path;
  Config.PersistSave = false; // Keep the corrupted artifact in place.
  vm::VmConfig SaveConfig = Config;
  SaveConfig.PersistSave = true;
  VmOutcome Cold = runGzip(SaveConfig);
  std::vector<uint8_t> Valid = readFile(Path);

  // A full per-byte sweep through a whole VM run is the loader sweep's
  // job; here a strided sample proves the end-to-end contract: whatever
  // byte rots, the run completes cold with the right answer.
  for (size_t Pos = 0; Pos < Valid.size(); Pos += 131) {
    std::vector<uint8_t> Bad = Valid;
    Bad[Pos] ^= 0x5A;
    writeFile(Path, Bad);
    VmOutcome Out = runGzip(Config);
    EXPECT_EQ(Out.Checksum, Cold.Checksum) << "flip at " << Pos;
    EXPECT_EQ(Out.Stats.get("persist.load_ok"), 0u) << "flip at " << Pos;
    EXPECT_EQ(Out.Stats.get("persist.import_rejected"), 1u)
        << "flip at " << Pos;
  }
}
