//===- perfbench/Trace.cpp - In-memory span recorder ----------------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

using namespace perfbench;

namespace {
double seconds(Clock::duration D) {
  return std::chrono::duration<double>(D).count();
}
} // namespace

int Tracer::begin(const char *Name, int Parent, int64_t Request) {
  if (!Enabled)
    return -1;
  Clock::time_point Now = Clock::now();
  Spans.push_back({Name, Now, Now, Parent, Request});
  return int(Spans.size() - 1);
}

void Tracer::end(int Id) {
  if (Id >= 0)
    Spans[size_t(Id)].End = Clock::now();
}

int Tracer::add(const char *Name, Clock::time_point Start,
                Clock::time_point End, int Parent, int64_t Request) {
  if (!Enabled)
    return -1;
  Spans.push_back({Name, Start, End, Parent, Request});
  return int(Spans.size() - 1);
}

std::map<std::string, double> Tracer::selfSeconds(const char *Root) const {
  std::vector<std::vector<size_t>> Children(Spans.size());
  for (size_t I = 0; I != Spans.size(); ++I)
    if (Spans[I].Parent >= 0)
      Children[size_t(Spans[I].Parent)].push_back(I);

  std::map<std::string, double> Self;
  for (size_t I = 0; I != Spans.size(); ++I) {
    size_t R = I;
    while (Spans[R].Parent >= 0)
      R = size_t(Spans[R].Parent);
    if (std::strcmp(Spans[R].Name, Root) != 0)
      continue;
    const Span &S = Spans[I];
    // Union of the children's intervals, clipped to this span.
    std::vector<std::pair<Clock::time_point, Clock::time_point>> Cover;
    for (size_t C : Children[I])
      Cover.emplace_back(std::max(Spans[C].Start, S.Start),
                         std::min(Spans[C].End, S.End));
    std::sort(Cover.begin(), Cover.end());
    Clock::duration Covered{0};
    Clock::time_point Reach = S.Start;
    for (auto &[B, E] : Cover) {
      Clock::time_point From = std::max(B, Reach);
      if (E > From) {
        Covered += E - From;
        Reach = E;
      }
    }
    Self[S.Name] += seconds((S.End - S.Start) - Covered);
  }
  return Self;
}

double Tracer::totalSeconds(const char *Name) const {
  double Sum = 0;
  for (const Span &S : Spans)
    if (std::strcmp(S.Name, Name) == 0)
      Sum += seconds(S.End - S.Start);
  return Sum;
}

size_t Tracer::count(const char *Name) const {
  size_t N = 0;
  for (const Span &S : Spans)
    N += std::strcmp(S.Name, Name) == 0;
  return N;
}

bool Tracer::write(const std::string &Path) const {
  std::FILE *Out = std::fopen(Path.c_str(), "w");
  if (!Out)
    return false;
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(Out,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_us\": %.3f, "
                 "\"end_us\": %.3f, \"parent\": %d, \"request\": %lld}\n",
                 I, S.Name, seconds(S.Start - Epoch) * 1e6,
                 seconds(S.End - Epoch) * 1e6, S.Parent,
                 (long long)S.Request);
  }
  return std::fclose(Out) == 0;
}
