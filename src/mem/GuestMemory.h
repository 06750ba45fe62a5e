//===- mem/GuestMemory.h - Sparse guest address space ---------------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A sparse, page-granular 64-bit guest memory image shared by the Alpha
/// interpreter, the I-ISA functional executor, and the workload loader.
///
/// Accesses outside mapped pages and misaligned accesses report faults
/// instead of aborting: these are exactly the potentially-excepting events
/// (PEIs) the paper's precise-trap machinery (Section 2.2) must recover
/// from, and the trap tests inject them deliberately.
///
/// load()/store()/fetch32() go through a small direct-mapped software TLB
/// (page index -> host page pointer) whose hit path is inline here; only a
/// miss probes the page map (DESIGN.md §16). Pages are never unmapped, so a
/// filled entry stays valid for the life of the image; moves reset it.
///
//===----------------------------------------------------------------------===//

#ifndef ILDP_MEM_GUESTMEMORY_H
#define ILDP_MEM_GUESTMEMORY_H

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <vector>

namespace ildp {

/// Why a guest memory access failed.
enum class MemFaultKind {
  None,      ///< Access succeeded.
  Unmapped,  ///< No page is mapped at the address.
  Unaligned, ///< Address not naturally aligned for the access size.
  BadSize,   ///< Access size is not 1, 2, 4, or 8 bytes.
};

/// Result of a guest load: the value plus the fault status.
struct MemAccessResult {
  uint64_t Value = 0;
  MemFaultKind Fault = MemFaultKind::None;

  bool ok() const { return Fault == MemFaultKind::None; }
};

/// Sparse paged little-endian guest memory.
///
/// Pages are allocated on demand by mapRegion() (or implicitly by the
/// poke*() test helpers). Regular load()/store() never allocate: they fault
/// on unmapped addresses, which the VM turns into precise traps.
class GuestMemory {
public:
  static constexpr unsigned PageShift = 12;
  static constexpr uint64_t PageSize = uint64_t(1) << PageShift;

  /// Software TLB entries (a power of two), sized from measured misses
  /// over the 12 workloads at scale 4 (interpreter): 256 hashed entries
  /// miss on 0.008% of accesses (compulsory misses only), 128 on 0.18%,
  /// 64 on 1.5%.
  static constexpr unsigned TlbBits = 8;
  static constexpr size_t TlbEntries = size_t(1) << TlbBits;

  /// TLB set of \p PageIndex (Fibonacci hashing). The guest regions start
  /// at large aligned bases, so code, data and stack page indices differ
  /// only in high bits; indexing by the low bits put them in one set and
  /// missed on 13% of accesses at any size.
  static size_t tlbSet(uint64_t PageIndex) {
    return size_t((PageIndex * 0x9E3779B97F4A7C15ull) >> (64 - TlbBits));
  }

  GuestMemory() { resetTlb(); }

  // GuestMemory owns page storage: movable, not copyable. A move hands the
  // pages over and leaves the source empty (every access faults Unmapped);
  // both TLBs restart cold.
  GuestMemory(const GuestMemory &) = delete;
  GuestMemory &operator=(const GuestMemory &) = delete;
  GuestMemory(GuestMemory &&Other) noexcept { *this = std::move(Other); }
  GuestMemory &operator=(GuestMemory &&Other) noexcept;

  /// Maps (allocates and zeroes) all pages overlapping [Base, Base+Size).
  void mapRegion(uint64_t Base, uint64_t Size);

  /// Returns true if the byte at \p Addr is backed by a mapped page.
  bool isMapped(uint64_t Addr) const;

  /// Loads \p Size bytes (1, 2, 4, or 8) from \p Addr, little-endian.
  /// Requires natural alignment; faults otherwise. Any other size reports
  /// MemFaultKind::BadSize (a malformed guest encoding traps, it does not
  /// abort the host).
  MemAccessResult load(uint64_t Addr, unsigned Size) const {
    MemAccessResult Result;
    Result.Fault = checkAccess(Addr, Size);
    if (Result.Fault != MemFaultKind::None)
      return Result;
    const uint8_t *Page = hostPage(Addr);
    if (!Page) {
      Result.Fault = MemFaultKind::Unmapped;
      return Result;
    }
    // Natural alignment guarantees the access does not cross a page.
    Result.Value = readLE(Page + (Addr & (PageSize - 1)), Size);
    return Result;
  }

  /// Stores the low \p Size bytes of \p Value at \p Addr, little-endian.
  /// Requires natural alignment; returns the fault status (BadSize for any
  /// size other than 1, 2, 4, or 8).
  MemFaultKind store(uint64_t Addr, uint64_t Value, unsigned Size) {
    MemFaultKind Fault = checkAccess(Addr, Size);
    if (Fault != MemFaultKind::None)
      return Fault;
    uint8_t *Page = hostPage(Addr);
    if (!Page)
      return MemFaultKind::Unmapped;
    writeLE(Page + (Addr & (PageSize - 1)), Value, Size);
    return MemFaultKind::None;
  }

  /// Copies a raw byte blob into guest memory, mapping pages as needed.
  void writeBlob(uint64_t Addr, const void *Data, uint64_t Size);

  /// Test/loader convenience: stores that map pages on demand.
  void poke8(uint64_t Addr, uint8_t Value);
  void poke32(uint64_t Addr, uint32_t Value);
  void poke64(uint64_t Addr, uint64_t Value);

  /// Fetches a 32-bit instruction word; instruction fetch requires 4-byte
  /// alignment on Alpha.
  MemAccessResult fetch32(uint64_t Addr) const { return load(Addr, 4); }

  /// Number of currently mapped pages (for footprint statistics).
  size_t mappedPageCount() const { return Pages.size(); }

  /// Base addresses of all mapped pages, sorted ascending. Deterministic
  /// order makes whole-image fingerprints (persistent translation cache)
  /// reproducible across runs.
  std::vector<uint64_t> mappedPageBases() const;

  /// Read-only bytes of the mapped page starting at \p PageBase (exactly
  /// PageSize bytes), or nullptr when unmapped or misaligned.
  const uint8_t *pageData(uint64_t PageBase) const;

  /// Accesses that missed the TLB since construction (or the last move).
  uint64_t tlbMisses() const { return TlbMisses; }

private:
  struct TlbEntry {
    uint64_t Tag; ///< Page index; NoTag when empty.
    uint8_t *Page;
  };
  /// Page indices are at most 52 bits wide, so this tag never matches.
  static constexpr uint64_t NoTag = ~uint64_t(0);

  /// Size, then alignment check: the fault order is BadSize -> Unaligned
  /// -> Unmapped on every path.
  static MemFaultKind checkAccess(uint64_t Addr, unsigned Size) {
    if (Size == 0 || Size > 8 || (Size & (Size - 1)) != 0)
      return MemFaultKind::BadSize;
    if (Addr & (Size - 1))
      return MemFaultKind::Unaligned;
    return MemFaultKind::None;
  }

  /// Host page backing \p Addr, or nullptr when unmapped. The hit path is
  /// one compare; a miss probes the page map and fills the entry.
  uint8_t *hostPage(uint64_t Addr) const {
    uint64_t Index = Addr >> PageShift;
    const TlbEntry &Entry = Tlb[tlbSet(Index)];
    if (Entry.Tag == Index)
      return Entry.Page;
    return refillTlb(Index);
  }
  uint8_t *refillTlb(uint64_t PageIndex) const;
  void resetTlb();

  static uint64_t readLE(const uint8_t *P, unsigned Size) {
    switch (Size) {
    case 1:
      return *P;
    case 2:
      return readAs<uint16_t>(P);
    case 4:
      return readAs<uint32_t>(P);
    default:
      return readAs<uint64_t>(P);
    }
  }

  static void writeLE(uint8_t *P, uint64_t Value, unsigned Size) {
    switch (Size) {
    case 1:
      *P = uint8_t(Value);
      return;
    case 2:
      return writeAs<uint16_t>(P, Value);
    case 4:
      return writeAs<uint32_t>(P, Value);
    default:
      return writeAs<uint64_t>(P, Value);
    }
  }

  template <typename T> static uint64_t readAs(const uint8_t *P) {
    T V;
    std::memcpy(&V, P, sizeof(T));
    return toLE(V);
  }

  template <typename T> static void writeAs(uint8_t *P, uint64_t Value) {
    T V = toLE(T(Value));
    std::memcpy(P, &V, sizeof(T));
  }

  /// Guest memory is little-endian; a no-op on little-endian hosts.
  template <typename T> static T toLE(T V) {
    if constexpr (std::endian::native == std::endian::little) {
      return V;
    } else {
      T Out = 0;
      for (unsigned I = 0; I != sizeof(T); ++I)
        Out = T(Out << 8) | T((V >> (8 * I)) & 0xFF);
      return Out;
    }
  }

  uint8_t *pageFor(uint64_t Addr, bool Allocate);
  const uint8_t *pageFor(uint64_t Addr) const;

  std::unordered_map<uint64_t, std::unique_ptr<uint8_t[]>> Pages;
  /// Direct-mapped page-index cache. Mutable: load() fills it. Only the
  /// owning thread executes guest code, so no locking is needed.
  mutable std::array<TlbEntry, TlbEntries> Tlb;
  mutable uint64_t TlbMisses = 0;
};

} // namespace ildp

#endif // ILDP_MEM_GUESTMEMORY_H
