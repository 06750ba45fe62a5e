//===- perfbench/Trace.h - In-memory span recorder for the traced run -----===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans recorded by the benchmark around its own calls into each module.
/// A span has a name, a start, an end, a parent and an optional request
/// id. Spans stay in memory while the run measures and are written out
/// once at the end. A disabled tracer records nothing and costs one branch
/// per call, so the untraced code path is the same code.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

class Tracer {
public:
  explicit Tracer(bool Enabled) : Enabled(Enabled) { Spans.reserve(1 << 16); }

  void setEnabled(bool On) { Enabled = On; }

  /// Opens a span; returns its id, or -1 when disabled. \p Name must be a
  /// string literal (spans keep the pointer).
  int begin(const char *Name, int Parent = -1, int64_t Request = -1);
  void end(int Id);
  /// Records a span whose bounds were measured elsewhere.
  int add(const char *Name, Clock::time_point Start, Clock::time_point End,
          int Parent = -1, int64_t Request = -1);

  /// Self time in seconds per span name, over spans whose root is named
  /// \p Root: each span's duration minus the part its children cover.
  std::map<std::string, double> selfSeconds(const char *Root) const;
  /// Summed duration in seconds of all spans named \p Name.
  double totalSeconds(const char *Name) const;
  /// Number of spans named \p Name.
  size_t count(const char *Name) const;

  /// Writes one JSON object per span. Returns false on I/O failure.
  bool write(const std::string &Path) const;

private:
  struct Span {
    const char *Name;
    Clock::time_point Start, End;
    int Parent;
    int64_t Request;
  };
  bool Enabled;
  Clock::time_point Epoch = Clock::now();
  std::vector<Span> Spans;
};

/// Scoped span.
class Scope {
public:
  Scope(Tracer &T, const char *Name, int Parent = -1, int64_t Request = -1)
      : T(T), Id(T.begin(Name, Parent, Request)) {}
  ~Scope() { T.end(Id); }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

private:
  Tracer &T;
  int Id;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
