//===- perfbench/src/Spans.cpp - Benchmark-side spans and counts ----------===//

#include "Spans.h"

#include "Allocs.h"

#include <chrono>
#include <cstdio>

using namespace perfbench;

namespace {

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

} // namespace

const char *perfbench::spanName(SpanKind K) {
  static const char *const Names[NumSpanKinds] = {
      "op",
      "lexer.scan_us",
      "glr.parse_us",
      "glr.first_tree_us",
      "incremental.reparse_us",
      "server.fork_us",
      "server.migrate_us",
      "server.reparse_after_migrate_us",
  };
  return Names[static_cast<size_t>(K)];
}

void SpanLog::beginReplay(uint32_t Replay, bool Traced) {
  Enabled = Traced;
  CurReplay = Replay;
  CurOp = 0;
  Open = -1;
}

uint64_t SpanLog::allocsNow() const { return allocationCount() - OwnAllocs; }

int32_t SpanLog::open(SpanKind Kind) {
  if (Spans.size() == Spans.capacity()) {
    Spans.reserve(Spans.empty() ? 4096 : Spans.capacity() * 2);
    ++OwnAllocs;
  }
  SpanRecord R{Kind, CurOp, CurReplay, Open, 0, 0, 0, 0};
  Spans.push_back(R);
  int32_t Index = static_cast<int32_t>(Spans.size() - 1);
  Open = Index;
  Spans[Index].AllocsAtStart = allocsNow();
  Spans[Index].StartNs = nowNs();
  return Index;
}

void SpanLog::close(int32_t Index) {
  SpanRecord &R = Spans[Index];
  R.EndNs = nowNs();
  R.AllocsAtEnd = allocsNow();
  Open = R.Parent;
}

std::vector<SpanLog::Self> SpanLog::selfCosts() const {
  std::vector<Self> Out(Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I) {
    const SpanRecord &R = Spans[I];
    Out[I].Ns += R.EndNs - R.StartNs;
    Out[I].Allocs += R.AllocsAtEnd - R.AllocsAtStart;
    if (R.Parent >= 0) {
      Out[R.Parent].Ns -= R.EndNs - R.StartNs;
      Out[R.Parent].Allocs -= R.AllocsAtEnd - R.AllocsAtStart;
    }
  }
  return Out;
}

bool SpanLog::writeChromeTrace(const std::string &Path,
                               uint32_t Replay) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  uint64_t Origin = 0;
  for (const SpanRecord &R : Spans)
    if (R.Replay == Replay && (Origin == 0 || R.StartNs < Origin))
      Origin = R.StartNs;
  std::fprintf(F, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
  bool First = true;
  for (const SpanRecord &R : Spans) {
    if (R.Replay != Replay)
      continue;
    std::fprintf(F,
                 "%s{\"name\": \"%s\", \"cat\": \"perfbench\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"op\": %u, \"replay\": %u, \"allocs\": %llu}}",
                 First ? "" : ",\n", spanName(R.Kind),
                 static_cast<double>(R.StartNs - Origin) / 1e3,
                 static_cast<double>(R.EndNs - R.StartNs) / 1e3, R.Op,
                 R.Replay,
                 static_cast<unsigned long long>(R.AllocsAtEnd -
                                                 R.AllocsAtStart));
    First = false;
  }
  std::fprintf(F, "\n]}\n");
  return std::fclose(F) == 0;
}
