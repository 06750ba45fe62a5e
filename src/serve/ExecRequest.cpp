//===- serve/ExecRequest.cpp - Execution-service request/response types ---===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//

#include "serve/ExecRequest.h"

#include "workloads/Workloads.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <istream>

using namespace ildp;
using namespace ildp::serve;

const char *serve::getExecStatusName(ExecStatus Status) {
  switch (Status) {
  case ExecStatus::Ok:
    return "ok";
  case ExecStatus::Trapped:
    return "trapped";
  case ExecStatus::BadImage:
    return "bad-image";
  case ExecStatus::QueueFull:
    return "queue-full";
  case ExecStatus::DeadlineExceeded:
    return "deadline";
  case ExecStatus::InstBudgetExceeded:
    return "inst-budget";
  case ExecStatus::ShutDown:
    return "shutdown";
  case ExecStatus::TenantQuotaExceeded:
    return "tenant-quota";
  case ExecStatus::HostCrashed:
    return "host-crashed";
  }
  return "unknown";
}

bool serve::parseExecStatusName(const std::string &Name, ExecStatus &Status) {
  for (unsigned I = 0; I != NumExecStatuses; ++I)
    if (Name == getExecStatusName(ExecStatus(I))) {
      Status = ExecStatus(I);
      return true;
    }
  return false;
}

const char *serve::getPriorityName(Priority P) {
  switch (P) {
  case Priority::Interactive:
    return "interactive";
  case Priority::Normal:
    return "normal";
  case Priority::Batch:
    return "batch";
  }
  return "unknown";
}

bool serve::parsePriorityName(const std::string &Name, Priority &P) {
  for (unsigned I = 0; I != NumPriorities; ++I)
    if (Name == getPriorityName(Priority(I))) {
      P = Priority(I);
      return true;
    }
  return false;
}

/// Parses all of \p Val as an unsigned number (strtoull base 0). The
/// leading-digit check rejects the sign and whitespace strtoull skips.
static bool parseNumber(const std::string &Val, uint64_t &Out) {
  if (Val.empty() || !std::isdigit(static_cast<unsigned char>(Val[0])))
    return false;
  errno = 0;
  char *End = nullptr;
  unsigned long long N = std::strtoull(Val.c_str(), &End, 0);
  if (errno == ERANGE || *End != '\0')
    return false;
  Out = N;
  return true;
}

const char *serve::parseRunRequest(std::istream &In, ExecRequest &Req) {
  In >> Req.Workload;
  if (Req.Workload.empty())
    return "missing-workload";
  std::string Opt;
  while (In >> Opt) {
    size_t Eq = Opt.find('=');
    std::string Key = Opt.substr(0, Eq);
    std::string Val = Eq == std::string::npos ? "" : Opt.substr(Eq + 1);
    if (Key == "tenant") {
      Req.Tenant = Val;
    } else if (Key == "priority") {
      if (!parsePriorityName(Val, Req.Lane))
        return "bad-priority";
    } else if (Key == "max_insts" || Key == "deadline_us" ||
               Key == "cache_bytes") {
      uint64_t &Field = Key == "max_insts"     ? Req.MaxGuestInsts
                        : Key == "deadline_us" ? Req.DeadlineMicros
                                               : Req.CodeCacheBytes;
      if (!parseNumber(Val, Field))
        return "bad-number";
    } else {
      return "unknown-option";
    }
  }
  return nullptr;
}

GuestImage serve::imageFromWorkload(const std::string &Name, unsigned Scale) {
  GuestMemory Mem;
  workloads::WorkloadImage Built = workloads::buildWorkload(Name, Mem, Scale);
  GuestImage Image;
  Image.Name = Built.Name;
  Image.EntryPc = Built.EntryPc;
  // Snapshot page-for-page: a memory rebuilt from these segments maps the
  // same pages with the same bytes, so the persistence fingerprint (and
  // with it the shared-store slot) is identical to a directly built
  // workload's.
  for (uint64_t Base : Mem.mappedPageBases()) {
    ImageSegment Seg;
    Seg.Base = Base;
    const uint8_t *Data = Mem.pageData(Base);
    Seg.Bytes.assign(Data, Data + GuestMemory::PageSize);
    Image.Segments.push_back(std::move(Seg));
  }
  return Image;
}

const char *serve::buildGuestMemory(const GuestImage &Image,
                                    GuestMemory &Mem) {
  if (Image.empty())
    return "empty-image";
  if (Image.EntryPc % 4 != 0)
    return "entry-misaligned";
  uint64_t TotalBytes = 0;
  for (const ImageSegment &Seg : Image.Segments) {
    if (Seg.Bytes.empty())
      return "empty-segment";
    // Overflow/absurd-size guard: segment lengths come from tenants —
    // never trust them to drive an allocation.
    if (Seg.Bytes.size() > (uint64_t(1) << 32) ||
        Seg.Base + Seg.Bytes.size() < Seg.Base)
      return "segment-bounds";
    TotalBytes += Seg.Bytes.size();
    if (TotalBytes > (uint64_t(1) << 32))
      return "image-too-large";
  }
  for (const ImageSegment &Seg : Image.Segments)
    Mem.writeBlob(Seg.Base, Seg.Bytes.data(), Seg.Bytes.size());
  if (!Mem.isMapped(Image.EntryPc))
    return "entry-unmapped";
  return nullptr;
}
