//===- persist/CacheStore.cpp - Multi-image persistent cache store --------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//

#include "persist/CacheStore.h"

#include "persist/ByteStream.h"
#include "persist/CacheFile.h"
#include "persist/Crc32.h"
#include "persist/FragmentCodec.h"
#include "persist/StoreLock.h"
#include "support/CrashInjector.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <unordered_set>

#ifndef _WIN32
#include <fcntl.h>
#include <unistd.h>
#endif

using namespace ildp;
using namespace ildp::persist;
using namespace ildp::dbt;
using support::CrashPoint;
using support::crashPoint;

namespace {

constexpr size_t HeaderBytes = 8 + 4 + 4 + 4;
constexpr size_t IndexEntryBytes = 8 + 8 + 8 + 4 + 4 + 8 + 4 + 8;

/// Unique staging-file name: pid + a process-wide counter, so even two
/// unlocked writers (lock timeout) never scribble on each other's temp.
std::string uniqueTmpPath(const std::string &Path) {
  static std::atomic<uint64_t> Seq{0};
#ifndef _WIN32
  long Pid = long(::getpid());
#else
  long Pid = 0;
#endif
  return Path + ".tmp." + std::to_string(Pid) + "." +
         std::to_string(Seq.fetch_add(1, std::memory_order_relaxed));
}

} // namespace

const char *persist::getStoreStatusName(StoreStatus Status) {
  switch (Status) {
  case StoreStatus::Ok:
    return "ok";
  case StoreStatus::FileNotFound:
    return "file-not-found";
  case StoreStatus::LegacyFile:
    return "legacy-file";
  case StoreStatus::BadMagic:
    return "bad-magic";
  case StoreStatus::BadVersion:
    return "bad-version";
  case StoreStatus::Truncated:
    return "truncated";
  case StoreStatus::BadIndex:
    return "bad-index";
  case StoreStatus::BadChecksum:
    return "bad-checksum";
  case StoreStatus::DuplicateImage:
    return "duplicate-image";
  case StoreStatus::BadPayload:
    return "bad-payload";
  case StoreStatus::ImageNotFound:
    return "image-not-found";
  }
  return "unknown";
}

StoreStatus CacheStore::open(const std::string &Path) {
  Images.clear();
  ReadOnlyMode = false;

  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return StoreStatus::FileNotFound;
  std::vector<uint8_t> File((std::istreambuf_iterator<char>(In)),
                            std::istreambuf_iterator<char>());
  In.close();

  ByteReader R(File);
  uint64_t Magic = R.getU64();
  if (R.failed())
    return StoreStatus::Truncated;
  if (Magic == CacheFileMagic)
    return StoreStatus::LegacyFile;
  if (Magic != CacheStoreMagic)
    return StoreStatus::BadMagic;
  uint32_t Version = R.getU32();
  uint32_t ImageCount = R.getU32();
  uint32_t IndexCrc = R.getU32();
  if (R.failed())
    return StoreStatus::Truncated;
  if (Version != CacheStoreVersion)
    return StoreStatus::BadVersion;
  if (ImageCount > MaxStoreImages)
    return StoreStatus::BadIndex;

  // The index is CRC-checked as a unit before any field is believed: a
  // flipped fingerprint or offset byte must surface as a typed rejection,
  // not as a silent lookup miss or a mis-sliced payload.
  size_t IndexBytes = size_t(ImageCount) * IndexEntryBytes;
  if (File.size() - HeaderBytes < IndexBytes)
    return StoreStatus::Truncated;
  if (crc32(File.data() + HeaderBytes, IndexBytes) != IndexCrc)
    return StoreStatus::BadIndex;

  std::vector<StoreImage> Loaded;
  Loaded.reserve(ImageCount);
  std::unordered_set<uint64_t> Seen;
  for (uint32_t I = 0; I != ImageCount; ++I) {
    StoreImage Img;
    Img.Fingerprint = R.getU64();
    uint64_t Offset = R.getU64();
    uint64_t Size = R.getU64();
    uint32_t PayloadCrc = R.getU32();
    Img.FragmentCount = R.getU32();
    Img.BodyBytes = R.getU64();
    Img.SaveCount = R.getU32();
    Img.CostUnits = R.getU64();
    if (R.failed())
      return StoreStatus::Truncated; // Unreachable given the bound above.
    // Payload lengths come from disk — never trust them.
    if (Offset > File.size() || Size > File.size() - Offset)
      return StoreStatus::Truncated;
    // Each encoded fragment occupies well over one byte; a count that
    // exceeds the payload size is corruption the CRCs happened to bless.
    if (Img.FragmentCount > Size)
      return StoreStatus::BadIndex;
    if (crc32(File.data() + Offset, size_t(Size)) != PayloadCrc)
      return StoreStatus::BadChecksum;
    if (!Seen.insert(Img.Fingerprint).second)
      return StoreStatus::DuplicateImage;
    Img.Payload.assign(File.begin() + long(Offset),
                       File.begin() + long(Offset + Size));
    Loaded.push_back(std::move(Img));
  }

  Images = std::move(Loaded);
  return StoreStatus::Ok;
}

StoreStatus CacheStore::openReadOnly(const std::string &Path) {
  StoreStatus Status = open(Path);
  ReadOnlyMode = true;
  return Status;
}

StoreStatus CacheStore::lookup(uint64_t Fingerprint,
                               std::vector<Fragment> &Out) const {
  Out.clear();
  const StoreImage *Img = find(Fingerprint);
  if (!Img)
    return StoreStatus::ImageNotFound;

  ByteReader R(Img->Payload.data(), Img->Payload.size());
  Out.reserve(Img->FragmentCount);
  uint64_t DecodedBodyBytes = 0;
  for (uint32_t I = 0; I != Img->FragmentCount; ++I) {
    Fragment Frag;
    if (!decodeFragment(R, Frag)) {
      Out.clear();
      return StoreStatus::BadPayload;
    }
    DecodedBodyBytes += Frag.BodyBytes;
    Out.push_back(std::move(Frag));
  }
  // The payload must be exactly consumed and the index cross-checks must
  // agree — leftover bytes or a byte-total mismatch mean corruption that
  // happened to keep the CRCs intact.
  if (!R.atEnd() || DecodedBodyBytes != Img->BodyBytes) {
    Out.clear();
    return StoreStatus::BadPayload;
  }
  return StoreStatus::Ok;
}

const StoreImage *CacheStore::find(uint64_t Fingerprint) const {
  for (const StoreImage &Img : Images)
    if (Img.Fingerprint == Fingerprint)
      return &Img;
  return nullptr;
}

void CacheStore::put(uint64_t Fingerprint,
                     const std::vector<const Fragment *> &Fragments,
                     uint64_t CostUnits) {
  if (ReadOnlyMode)
    return;
  StoreImage Img;
  Img.Fingerprint = Fingerprint;
  Img.FragmentCount = uint32_t(Fragments.size());
  Img.CostUnits = CostUnits;
  Img.SaveCount = 1;
  ByteWriter W;
  for (const Fragment *Frag : Fragments) {
    encodeFragment(*Frag, W);
    Img.BodyBytes += Frag->BodyBytes;
  }
  Img.Payload = W.take();

  auto It = std::find_if(Images.begin(), Images.end(),
                         [&](const StoreImage &Slot) {
                           return Slot.Fingerprint == Fingerprint;
                         });
  if (It != Images.end()) {
    Img.SaveCount = It->SaveCount + 1;
    Images.erase(It);
  }
  Images.push_back(std::move(Img)); // Back = most recently written.
}

void CacheStore::putRaw(uint64_t Fingerprint, std::vector<uint8_t> Payload,
                        uint64_t CostUnits) {
  if (ReadOnlyMode)
    return;
  StoreImage Img;
  Img.Fingerprint = Fingerprint;
  Img.FragmentCount = 0; // Raw slot: no fragment records inside.
  Img.BodyBytes = 0;
  Img.CostUnits = CostUnits;
  Img.SaveCount = 1;
  Img.Payload = std::move(Payload);

  auto It = std::find_if(Images.begin(), Images.end(),
                         [&](const StoreImage &Slot) {
                           return Slot.Fingerprint == Fingerprint;
                         });
  if (It != Images.end()) {
    Img.SaveCount = It->SaveCount + 1;
    Images.erase(It);
  }
  Images.push_back(std::move(Img));
}

const std::vector<uint8_t> *CacheStore::lookupRaw(uint64_t Fingerprint) const {
  const StoreImage *Img = find(Fingerprint);
  return Img ? &Img->Payload : nullptr;
}

bool CacheStore::erase(uint64_t Fingerprint) {
  if (ReadOnlyMode)
    return false;
  auto It = std::find_if(Images.begin(), Images.end(),
                         [&](const StoreImage &Slot) {
                           return Slot.Fingerprint == Fingerprint;
                         });
  if (It == Images.end())
    return false;
  Images.erase(It);
  return true;
}

size_t CacheStore::compact(size_t MaxImages) {
  if (ReadOnlyMode || MaxImages == 0 || Images.size() <= MaxImages)
    return 0;
  size_t Drop = Images.size() - MaxImages;
  Images.erase(Images.begin(), Images.begin() + long(Drop));
  return Drop;
}

uint64_t CacheStore::totalPayloadBytes() const {
  uint64_t Total = 0;
  for (const StoreImage &Img : Images)
    Total += Img.Payload.size();
  return Total;
}

bool CacheStore::save(const std::string &Path) const {
  ByteWriter W;
  W.putU64(CacheStoreMagic);
  W.putU32(CacheStoreVersion);
  W.putU32(uint32_t(Images.size()));
  size_t IndexCrcOffset = W.size();
  W.putU32(0); // Index CRC; patched once offsets are known.

  size_t IndexOffset = W.size();
  for (size_t B = 0; B != Images.size() * IndexEntryBytes; ++B)
    W.putU8(0); // Index placeholder; patched below.

  for (size_t I = 0; I != Images.size(); ++I) {
    const StoreImage &Img = Images[I];
    size_t Offset = W.size();
    W.putBytes(Img.Payload.data(), Img.Payload.size());
    size_t Entry = IndexOffset + I * IndexEntryBytes;
    W.patchU64(Entry, Img.Fingerprint);
    W.patchU64(Entry + 8, Offset);
    W.patchU64(Entry + 16, Img.Payload.size());
    W.patchU32(Entry + 24, crc32(Img.Payload.data(), Img.Payload.size()));
    W.patchU32(Entry + 28, Img.FragmentCount);
    W.patchU64(Entry + 32, Img.BodyBytes);
    W.patchU32(Entry + 40, Img.SaveCount);
    W.patchU64(Entry + 44, Img.CostUnits);
  }
  W.patchU32(IndexCrcOffset, crc32(W.bytes().data() + IndexOffset,
                                   Images.size() * IndexEntryBytes));

  // Stage and rename so a crash mid-write cannot corrupt an existing
  // store; the staging name is unique so unlocked concurrent savers never
  // truncate each other's in-progress temp. The temp is fsynced before
  // the rename and the containing directory after it, so "save succeeded"
  // is durable against power loss, not merely against process death —
  // without the ordering fsync, a crash after the rename could leave the
  // *name* pointing at unwritten blocks.
  std::string TmpPath = uniqueTmpPath(Path);
#ifndef _WIN32
  {
    int Fd = ::open(TmpPath.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
    if (Fd < 0)
      return false;
    const uint8_t *Data = W.bytes().data();
    size_t Len = W.size();
    auto WriteAll = [&](size_t From, size_t To) {
      while (From != To) {
        ssize_t N = ::write(Fd, Data + From, To - From);
        if (N < 0) {
          if (errno == EINTR)
            continue;
          return false;
        }
        From += size_t(N);
      }
      return true;
    };
    // Two halves with the crash point between them: an injected death
    // leaves the staging file holding only a prefix of the image. The
    // store name still points at the old artifact — a reopen must see
    // old, never a torn half-write.
    size_t Half = Len / 2;
    bool Ok = WriteAll(0, Half);
    if (Ok)
      crashPoint(CrashPoint::MidTmpWrite);
    if (Ok)
      Ok = WriteAll(Half, Len);
    if (!Ok) {
      ::close(Fd);
      std::remove(TmpPath.c_str());
      return false;
    }
    if (::fsync(Fd) != 0) {
      ::close(Fd);
      std::remove(TmpPath.c_str());
      return false;
    }
    ::close(Fd);
  }
  // Crash point: the staging file is complete and durable, but the store
  // name was never switched — a reopen must see the old image set intact.
  crashPoint(CrashPoint::PostTmpPreRename);
  if (std::rename(TmpPath.c_str(), Path.c_str()) != 0) {
    std::remove(TmpPath.c_str());
    return false;
  }
  // Durability of the rename itself: fsync the containing directory so
  // the new directory entry survives power loss (best-effort — a store in
  // an unfsyncable location still saved correctly for process death).
  // (Constructed rather than assigned: GCC 12 at -O3 raises a
  // false-positive -Wrestrict on assigning a literal here.)
  size_t Slash = Path.find_last_of('/');
  std::string Dir = Slash == std::string::npos ? std::string(".")
                    : Slash == 0                ? std::string("/")
                                                : Path.substr(0, Slash);
  int DirFd = ::open(Dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (DirFd >= 0) {
    ::fsync(DirFd);
    ::close(DirFd);
  }
#else
  {
    std::ofstream Out(TmpPath, std::ios::binary | std::ios::trunc);
    if (!Out)
      return false;
    Out.write(reinterpret_cast<const char *>(W.bytes().data()),
              std::streamsize(W.size()));
    if (!Out)
      return false;
  }
  if (std::rename(TmpPath.c_str(), Path.c_str()) != 0) {
    std::remove(TmpPath.c_str());
    return false;
  }
#endif
  return true;
}

SaveMergeResult CacheStore::saveMerged(const std::string &Path,
                                       size_t MaxImages) {
  SaveMergeResult Result;
  // A read-only store never writes and — the point of the mode — never
  // creates "<path>.lock": a fleet of readers must not contend with (or
  // delay) a concurrent writer's lock acquisition.
  if (ReadOnlyMode)
    return Result;
  // The crash-recoverable lock (StoreLock.h): a holder that dies at ANY
  // point below leaves a lock file naming a dead PID, which the next
  // writer detects and breaks instead of waiting out a timeout — and a
  // *live* holder is waited for rather than raced (the PR-5 version fell
  // through to unlocked read-merge-write after 500ms, reopening the
  // lost-update window it existed to close).
  StoreLock Lock(Path + ".lock");
  Result.LockContended = Lock.contended();
  Result.LockBroken = Lock.broken();
  Result.LockTimedOut = Lock.timedOut();

  // Adopt slots written since this store was opened (or that a
  // load-disabled VM never read): concurrent writers of *different*
  // images all survive. Our own slots win on fingerprint collision —
  // last writer wins per image, never per store. A legacy or corrupt
  // on-disk file contributes nothing and is rewritten in store format.
  CacheStore Disk;
  StoreStatus DiskState = Disk.open(Path);
  // Crash point: the on-disk store has been read, nothing written, and
  // this process holds "<path>.lock". Dying here must leave the old
  // artifact intact and a breakable (dead-PID) lock behind.
  crashPoint(CrashPoint::MidMergeRead);
  if (DiskState == StoreStatus::Ok) {
    // Keep adopted slots older than everything this store wrote itself.
    size_t InsertAt = 0;
    for (StoreImage &Img : Disk.Images)
      if (!contains(Img.Fingerprint)) {
        Images.insert(Images.begin() + long(InsertAt++), std::move(Img));
        ++Result.Adopted;
      }
  }

  Result.Compacted = compact(MaxImages);
  Result.Saved = save(Path);
  // Crash point: the new store is durably in place but the lock file
  // still names this process. Readers see new; the next writer must
  // break the dead lock within one takeover, not wait out a timeout.
  crashPoint(CrashPoint::PostRenamePreUnlock);
  return Result;
}
