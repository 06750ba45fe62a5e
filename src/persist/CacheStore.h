//===- persist/CacheStore.h - Multi-image persistent cache store ----------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A multi-image translation-cache store: one checksummed artifact holding
/// any number of fingerprinted guest images, each with its own fragment
/// payload and per-image bookkeeping. A server process warming many Alpha
/// guests shares one store file instead of one cache file per (image,
/// config) pair; a VM warm-starts by fingerprint lookup and saves (or
/// updates) only its own image slot on exit, leaving every other slot
/// intact. Layout (all integers little-endian):
///
///   header  magic u64 ("ILDPTS1\0"), format version u32, image count u32,
///           index CRC32 u32                                    (20 bytes)
///   index   per image: fingerprint u64, payload offset u64, payload size
///           u64, payload CRC32 u32, fragment count u32, total body bytes
///           u64, save count u32, translation cost units u64    (52 bytes)
///   images  per image: FragmentCodec encodings, back to back
///
/// The loader is strictly fail-safe: magic/version gate first, then the index is CRC-checked as a unit (a flipped
/// fingerprint or offset must be caught, not silently missed at lookup),
/// then every payload is bounds- and CRC-checked, and duplicate
/// fingerprints are rejected — all before a single fragment byte is
/// decoded. Fragment decoding happens per image at lookup() time and is
/// itself bounds-checked with count/byte cross-checks. Any failure yields
/// a distinct StoreStatus and an empty store — the VM counts the reason
/// under persist.import_rejected.<reason> and runs cold. Loading NEVER
/// crashes on a bad file.
///
/// Saves stage through a unique "<path>.tmp.*" file — fsynced, renamed
/// into place, directory fsynced — so a crashed save never corrupts a
/// good store and a completed save survives power loss. saveMerged()
/// additionally serializes writers through an flock on "<path>.lock"
/// (StoreLock.h; the kernel releases it if its holder dies) and re-reads
/// the on-disk store under the lock, adopting every slot this store does
/// not hold: a writer puts only its own slots into a fresh store, so two
/// VMs saving different images into one store both survive, and a slot
/// another writer updated meanwhile is never reverted. A live-but-wedged
/// holder is waited for up to a generous bound before the save degrades
/// to unlocked read-merge-write (reported via
/// SaveMergeResult::LockTimedOut). The §15 crash model is chaos-tested by
/// ildp-crashtest at named crash points (support/Injector.h) covering
/// every instant of this protocol.
///
//===----------------------------------------------------------------------===//

#ifndef ILDP_PERSIST_CACHESTORE_H
#define ILDP_PERSIST_CACHESTORE_H

#include "core/Fragment.h"

#include <cstdint>
#include <string>
#include <vector>

namespace ildp {
namespace persist {

/// "ILDPTS1\0" as a little-endian u64 (TS = translation store).
constexpr uint64_t CacheStoreMagic = 0x0031535450444C49ull;
/// Bumped on any incompatible change to the header, index, or fragment
/// encoding.
constexpr uint32_t CacheStoreVersion = 1;
/// Corruption guard on the image count: a store serving even a very large
/// fleet holds a few dozen images, and a corrupt count must never drive a
/// huge allocation.
constexpr uint32_t MaxStoreImages = 4096;

/// Why a store operation succeeded or was rejected.
enum class StoreStatus : uint8_t {
  Ok,
  FileNotFound,   ///< No file at the path (first run; not an error).
  BadMagic,       ///< Not a translation-cache artifact at all.
  BadVersion,     ///< Produced by an incompatible format revision.
  Truncated,      ///< Header, index, or a payload extends past end of file.
  BadIndex,       ///< Index CRC mismatch or implausible index fields.
  BadChecksum,    ///< An image payload's CRC32 does not match its bytes.
  DuplicateImage, ///< Two index entries carry the same fingerprint.
  BadPayload,     ///< CRCs passed but fragment decoding failed
                  ///< (structurally invalid records).
  ImageNotFound,  ///< lookup(): no slot with that fingerprint (not an
                  ///< error; the image runs cold and saves a new slot).
};

const char *getStoreStatusName(StoreStatus Status);

/// One image slot held in memory: identity, bookkeeping, and the encoded
/// (not yet decoded) fragment payload.
struct StoreImage {
  uint64_t Fingerprint = 0;
  uint32_t FragmentCount = 0;
  uint64_t BodyBytes = 0; ///< Sum of fragment body bytes (cross-check).
  uint32_t SaveCount = 0; ///< Times this slot has been written.
  /// Translator work units (dbt.cost.total) invested in this slot across
  /// its producing runs — the work a warm start avoids re-spending.
  uint64_t CostUnits = 0;
  std::vector<uint8_t> Payload; ///< FragmentCodec encodings, back to back.
};

/// Result of saveMerged().
struct SaveMergeResult {
  bool Saved = false;
  size_t Adopted = 0; ///< Slots adopted from the on-disk store.
  bool LockContended = false; ///< The lock was busy at least once.
  /// A live holder outlasted the wait bound (or no lock file could be
  /// opened) and this save proceeded unlocked — the last remaining lost-update path, reported so callers
  /// can count it (persist.store_lock_timeout) instead of racing silently.
  bool LockTimedOut = false;
};

/// An in-memory multi-image store. Slot order is write order (put() moves
/// an updated slot to the back).
class CacheStore {
public:
  /// Loads and validates the store at \p Path, replacing this store's
  /// contents. On any non-Ok status the store is left empty, so a
  /// subsequent save rewrites the path with a clean artifact.
  StoreStatus open(const std::string &Path);

  /// open() + freeze: loads the store and marks it read-only. A read-only
  /// store never touches "<path>.lock" (open() never did; the flag
  /// guarantees no later saveMerged() will either) and refuses every
  /// mutation — put/putRaw become no-ops and saveMerged() returns
  /// Saved=false without staging a temp file or taking the lock. The
  /// fleet service opens one store this way and shares it across every
  /// pool VM, so a thousand concurrent warm starts contend on nothing:
  /// lookup() is const over an immutable payload. Counted by the VM under
  /// "persist.store_readonly".
  StoreStatus openReadOnly(const std::string &Path);

  /// True once openReadOnly() loaded this store.
  bool readOnly() const { return ReadOnlyMode; }

  /// Decodes the fragments of the image slot fingerprinted \p Fingerprint
  /// into \p Out. Returns Ok, ImageNotFound, or BadPayload (corruption
  /// that kept the CRC intact); \p Out is empty unless Ok.
  StoreStatus lookup(uint64_t Fingerprint,
                     std::vector<dbt::Fragment> &Out) const;

  /// Inserts or replaces the slot for \p Fingerprint with \p Fragments
  /// (install order) and moves it to the back (most recently written).
  /// A replaced slot's SaveCount carries over (and is incremented).
  void put(uint64_t Fingerprint,
           const std::vector<const dbt::Fragment *> &Fragments,
           uint64_t CostUnits);

  /// Inserts or replaces the slot for \p Fingerprint with an opaque
  /// payload that is NOT FragmentCodec data (e.g. the native-object
  /// payload, NativeStore.h). Raw slots ride the same index, CRC, and
  /// merge machinery as image slots; FragmentCount/BodyBytes are zero so
  /// the loader's fragment cross-checks are vacuous, and lookup() on a
  /// raw slot reports BadPayload rather than decoding garbage — readers
  /// must use lookupRaw(). Callers keep raw fingerprints disjoint from
  /// image fingerprints by salting (see native::slotFingerprint).
  void putRaw(uint64_t Fingerprint, std::vector<uint8_t> Payload,
              uint64_t CostUnits = 0);

  /// The raw payload bytes for \p Fingerprint, or nullptr if absent.
  const std::vector<uint8_t> *lookupRaw(uint64_t Fingerprint) const;

  /// Writes the store to \p Path via a unique temp file + atomic rename.
  /// Returns false on I/O failure (the previous file is left intact).
  bool save(const std::string &Path) const;

  /// Read-merge-write: under a best-effort "<path>.lock", re-reads the
  /// on-disk store, adopts every slot this store does not hold, and saves
  /// atomically. A slot this store replaces gets the on-disk SaveCount
  /// + 1, so SaveCount counts writes. See file comment.
  SaveMergeResult saveMerged(const std::string &Path);

  bool contains(uint64_t Fingerprint) const { return find(Fingerprint); }
  /// The slot for \p Fingerprint, or nullptr.
  const StoreImage *find(uint64_t Fingerprint) const;

  size_t imageCount() const { return Images.size(); }
  const std::vector<StoreImage> &images() const { return Images; }
  /// Total encoded payload bytes across all slots.
  uint64_t totalPayloadBytes() const;
  void clear() { Images.clear(); }

private:
  /// The slot for \p Fingerprint, or Images.end().
  std::vector<StoreImage>::iterator slot(uint64_t Fingerprint);
  /// Inserts \p Img, replacing (and carrying the SaveCount of) any slot
  /// with its fingerprint, as the most recently written slot.
  void place(StoreImage Img);

  std::vector<StoreImage> Images;
  bool ReadOnlyMode = false;
};

} // namespace persist
} // namespace ildp

#endif // ILDP_PERSIST_CACHESTORE_H
