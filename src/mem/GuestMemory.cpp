//===- mem/GuestMemory.cpp - Sparse guest address space -------------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//

#include "mem/GuestMemory.h"

#include <algorithm>
#include <cstring>

using namespace ildp;

uint8_t *GuestMemory::pageFor(uint64_t Addr, bool Allocate) {
  uint64_t PageIndex = Addr >> PageShift;
  auto It = Pages.find(PageIndex);
  if (It != Pages.end())
    return It->second.get();
  if (!Allocate)
    return nullptr;
  auto Page = std::make_unique<uint8_t[]>(PageSize);
  std::memset(Page.get(), 0, PageSize);
  uint8_t *Raw = Page.get();
  Pages.emplace(PageIndex, std::move(Page));
  return Raw;
}

const uint8_t *GuestMemory::pageFor(uint64_t Addr) const {
  auto It = Pages.find(Addr >> PageShift);
  return It == Pages.end() ? nullptr : It->second.get();
}

void GuestMemory::mapRegion(uint64_t Base, uint64_t Size) {
  if (Size == 0)
    return;
  uint64_t First = Base >> PageShift;
  uint64_t Last = (Base + Size - 1) >> PageShift;
  for (uint64_t Index = First; Index <= Last; ++Index)
    (void)pageFor(Index << PageShift, /*Allocate=*/true);
}

bool GuestMemory::isMapped(uint64_t Addr) const {
  return pageFor(Addr) != nullptr;
}

GuestMemory &GuestMemory::operator=(GuestMemory &&Other) noexcept {
  if (this == &Other)
    return *this;
  Pages = std::move(Other.Pages);
  Other.Pages.clear();
  resetTlb();
  Other.resetTlb();
  return *this;
}

void GuestMemory::resetTlb() {
  Tlb.fill(TlbEntry{NoTag, nullptr});
  TlbMisses = 0;
}

uint8_t *GuestMemory::refillTlb(uint64_t PageIndex) const {
  ++TlbMisses;
  auto It = Pages.find(PageIndex);
  if (It == Pages.end())
    return nullptr; // Unmapped pages are never cached: mapping may follow.
  Tlb[tlbSet(PageIndex)] = {PageIndex, It->second.get()};
  return It->second.get();
}

void GuestMemory::writeBlob(uint64_t Addr, const void *Data, uint64_t Size) {
  const uint8_t *Bytes = static_cast<const uint8_t *>(Data);
  for (uint64_t I = 0; I != Size; ++I) {
    uint8_t *Page = pageFor(Addr + I, /*Allocate=*/true);
    Page[(Addr + I) & (PageSize - 1)] = Bytes[I];
  }
}

std::vector<uint64_t> GuestMemory::mappedPageBases() const {
  std::vector<uint64_t> Bases;
  Bases.reserve(Pages.size());
  for (const auto &[Index, Page] : Pages)
    Bases.push_back(Index << PageShift);
  std::sort(Bases.begin(), Bases.end());
  return Bases;
}

const uint8_t *GuestMemory::pageData(uint64_t PageBase) const {
  if (PageBase & (PageSize - 1))
    return nullptr;
  return pageFor(PageBase);
}

void GuestMemory::poke8(uint64_t Addr, uint8_t Value) {
  writeBlob(Addr, &Value, 1);
}

void GuestMemory::poke32(uint64_t Addr, uint32_t Value) {
  uint8_t Bytes[4];
  for (unsigned I = 0; I != 4; ++I)
    Bytes[I] = uint8_t(Value >> (8 * I));
  writeBlob(Addr, Bytes, 4);
}

void GuestMemory::poke64(uint64_t Addr, uint64_t Value) {
  uint8_t Bytes[8];
  for (unsigned I = 0; I != 8; ++I)
    Bytes[I] = uint8_t(Value >> (8 * I));
  writeBlob(Addr, Bytes, 8);
}
