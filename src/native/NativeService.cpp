//===- native/NativeService.cpp - Background native compilation workers ---===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//

#include "native/NativeService.h"

#include "native/NativeEmitter.h"

using namespace ildp;
using namespace ildp::native;

NativeService::NativeService(const HostCompiler &CC, unsigned Workers,
                             size_t QueueDepth)
    : CC(CC), Requests(QueueDepth) {
  if (Workers == 0)
    Workers = 1;
  this->Workers.reserve(Workers);
  for (unsigned I = 0; I != Workers; ++I)
    this->Workers.emplace_back([this] { workerMain(); });
}

NativeService::~NativeService() {
  Requests.close();
  for (std::thread &W : Workers)
    W.join();
}

bool NativeService::trySubmit(NativeRequest Req) {
  if (!Requests.tryPush(Req))
    return false;
  Submitted.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void NativeService::drainCompleted(std::vector<NativeCompletion> &Out) {
  std::lock_guard<std::mutex> Lock(DoneMutex);
  for (NativeCompletion &C : Done)
    Out.push_back(std::move(C));
  Done.clear();
  CompletedCount.store(0, std::memory_order_release);
}

void NativeService::waitAllIdle() {
  std::unique_lock<std::mutex> Lock(DoneMutex);
  DoneCv.wait(Lock, [&] {
    return Finished.load(std::memory_order_acquire) ==
           Submitted.load(std::memory_order_acquire);
  });
}

void NativeService::workerMain() {
  while (auto Req = Requests.pop()) {
    NativeCompletion C;
    C.Key = Req->Key;
    C.EntryVAddr = Req->EntryVAddr;

    EmitResult Emitted = emitFragmentC(Req->Body, Req->Variant);
    if (!Emitted.Ok) {
      C.Reason = Emitted.Reason;
    } else {
      CompileResult Compiled = compileToObject(CC, Emitted.Source);
      if (Compiled.Ok) {
        C.Ok = true;
        C.Object = std::move(Compiled.Object);
      } else {
        C.Reason = "host-compile-failed";
      }
    }

    {
      std::lock_guard<std::mutex> Lock(DoneMutex);
      Done.push_back(std::move(C));
      CompletedCount.store(Done.size(), std::memory_order_release);
      Finished.fetch_add(1, std::memory_order_release);
    }
    DoneCv.notify_all();
  }
}
