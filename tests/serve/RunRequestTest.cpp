//===- tests/serve/RunRequestTest.cpp -------------------------------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The line-protocol "run" request parser shared by serve_demo and
/// ildp-crashhost: every option lands in its ExecRequest field, and a
/// number a client mistyped is a typed "bad-number" rejection instead of a
/// silently different limit (0 = "fleet default", a truncated deadline,
/// or a negative value wrapped to UINT64_MAX).
///
//===----------------------------------------------------------------------===//

#include "serve/ExecRequest.h"

#include <gtest/gtest.h>
#include <sstream>

using namespace ildp;
using namespace ildp::serve;

namespace {

/// Parses \p Args (the text after "run"); returns the detail or "ok".
std::string parse(const std::string &Args, ExecRequest &Req) {
  std::istringstream In(Args);
  const char *Problem = parseRunRequest(In, Req);
  return Problem ? Problem : "ok";
}

} // namespace

TEST(RunRequestParse, EveryOptionLandsInItsField) {
  ExecRequest Req;
  ASSERT_EQ(parse("gzip tenant=acme priority=batch max_insts=1000 "
                  "deadline_us=0x10 cache_bytes=0",
                  Req),
            "ok");
  EXPECT_EQ(Req.Workload, "gzip");
  EXPECT_EQ(Req.Tenant, "acme");
  EXPECT_EQ(Req.Lane, Priority::Batch);
  EXPECT_EQ(Req.MaxGuestInsts, 1000u);
  EXPECT_EQ(Req.DeadlineMicros, 16u); // strtoull base 0: hex accepted.
  EXPECT_EQ(Req.CodeCacheBytes, 0u);
}

TEST(RunRequestParse, DefaultsSurviveABareRequest) {
  ExecRequest Req;
  ASSERT_EQ(parse("mcf", Req), "ok");
  EXPECT_EQ(Req.Workload, "mcf");
  EXPECT_EQ(Req.Lane, Priority::Normal);
  EXPECT_EQ(Req.MaxGuestInsts, 0u);
  EXPECT_EQ(Req.DeadlineMicros, 0u);
  EXPECT_EQ(Req.CodeCacheBytes, InheritCacheBudget);
}

TEST(RunRequestParse, MalformedNumbersAreRejected) {
  for (const char *Args :
       {"gzip max_insts=abc", "gzip deadline_us=5ms", "gzip deadline_us=-1",
        "gzip max_insts=", "gzip max_insts", "gzip cache_bytes=+4",
        "gzip cache_bytes=0x", "gzip max_insts=99999999999999999999"}) {
    ExecRequest Req;
    EXPECT_EQ(parse(Args, Req), "bad-number") << Args;
  }
}

TEST(RunRequestParse, OtherProblemsAreTyped) {
  ExecRequest Req;
  EXPECT_EQ(parse("", Req), "missing-workload");
  EXPECT_EQ(parse("gzip priority=urgent", Req), "bad-priority");
  EXPECT_EQ(parse("gzip colour=blue", Req), "unknown-option");
}
