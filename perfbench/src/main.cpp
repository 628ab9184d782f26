//===- perfbench/src/main.cpp - Replay loop and metric report -------------===//
///
/// \file
/// Runs one workload's seeded op script again and again for a time
/// budget, each replay from scratch, and reports:
///
///   --trace 0  the end-to-end metrics: setup_s (median over replays),
///              latency_p50_ms / latency_p90_ms / ops_per_s over the
///              per-op minima across replays, peak_rss_mb.
///   --trace 1  the per-layer metrics. Even replays record spans, work
///              counts (per op, and the table work of set-up) and
///              allocations; odd replays run untraced with allocation
///              counting off, and their p50 against the traced p50 gives
///              the tracing overhead. A Chrome trace of the first replay
///              and a per-layer JSON with self times go to --out.
///
/// Every op is checked against an oracle outside the timed path; any
/// failure makes the run exit 1. The last stdout line is the JSON result;
/// the lines before it are `# key: value` metadata and a readable table.
///
/// Usage: perfbench_{plain,traced} --workload NAME --seed N --seconds S
///                                 --trace 0|1 [--out DIR]
///
//===----------------------------------------------------------------------===//

#include "Allocs.h"
#include "Spans.h"
#include "Workloads.h"

#include "support/Hashing.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#ifdef __GLIBC__
#include <malloc.h>
#endif

using namespace perfbench;

namespace {

constexpr size_t MinPlainReplays = 3;
constexpr size_t MinTracedRunReplays = 4; ///< Two traced, two untraced.

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Linear-interpolated percentile of unsorted \p V (0..100).
double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Rank = P / 100.0 * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Rank);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Rank - static_cast<double>(Lo));
}

double peakRssMb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

struct Options {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 0;
  bool Trace = false;
  std::string OutDir = ".";
};

bool parseArgs(int Argc, char **Argv, Options &O) {
  bool HaveW = false, HaveSeed = false, HaveSecs = false, HaveTrace = false;
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string Key = Argv[I], Val = Argv[I + 1];
    char *End = nullptr;
    if (Key == "--workload") {
      O.Workload = Val;
      HaveW = true;
    } else if (Key == "--seed") {
      O.Seed = std::strtoull(Val.c_str(), &End, 10);
      HaveSeed = End && *End == '\0' && !Val.empty();
    } else if (Key == "--seconds") {
      O.Seconds = std::strtod(Val.c_str(), &End);
      HaveSecs = End && *End == '\0' && O.Seconds > 0;
    } else if (Key == "--trace") {
      O.Trace = Val == "1";
      HaveTrace = Val == "0" || Val == "1";
    } else if (Key == "--out") {
      O.OutDir = Val;
    } else {
      return false;
    }
  }
  return Argc % 2 == 1 && HaveW && HaveSeed && HaveSecs && HaveTrace;
}

/// The registry counters the runner turns into per-op deltas.
struct RegistryCounters {
  struct Entry {
    ipg::MetricCounter *C;
    Count Into;
  };
  std::vector<Entry> Entries;

  RegistryCounters() {
    ipg::MetricsRegistry &R = ipg::MetricsRegistry::process();
    Entries = {{&R.counter("glr.gss.nodes_constructed"), Count::GlrGssNodes},
               {&R.counter("ipg.expand.total"), Count::LrExpansions},
               {&R.counter("ipg.expand.reexpansions"), Count::LrReexpansions},
               {&R.counter("ipg.expand.closure_items"), Count::LrClosureItems},
               {&R.counter("ipg.modify.dirty_marks"), Count::LrDirtyMarks}};
  }
  std::vector<uint64_t> snapshot() const {
    std::vector<uint64_t> Out;
    for (const Entry &E : Entries)
      Out.push_back(E.C->total());
    return Out;
  }
  /// Adds the deltas since \p Before to \p Into.
  void addDeltas(const std::vector<uint64_t> &Before, Counts &Into) const {
    for (size_t I = 0; I < Entries.size(); ++I)
      Into[static_cast<size_t>(Entries[I].Into)] +=
          Entries[I].C->total() - Before[I];
  }
};

/// Everything one run measured.
struct Measured {
  size_t Ops = 0;
  size_t Replays = 0;
  size_t TracedReplays = 0;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<double> SetupSeconds;
  std::vector<double> PlainMinNs;  ///< Per op, over untraced replays.
  std::vector<double> TracedMinNs; ///< Per op, over traced replays.
  std::vector<Counts> RefCounts;   ///< Per op, the reference replay.
  Counts RefSetupCounts{};         ///< setUp() of the reference replay.
  uint32_t RefReplay = 0;
  bool CountsRepeat = true;
};

Measured replay(Workload &W, SpanLog &Log, const Options &O) {
  Measured M;
  M.Ops = W.numOps();
  const double Inf = std::numeric_limits<double>::infinity();
  M.PlainMinNs.assign(M.Ops, Inf);
  M.TracedMinNs.assign(M.Ops, Inf);
  RegistryCounters Registry;
  std::vector<std::vector<Counts>> TracedCounts;
  std::vector<Counts> TracedSetupCounts;
  const size_t MinReplays = O.Trace ? MinTracedRunReplays : MinPlainReplays;
  const uint64_t Budget = static_cast<uint64_t>(O.Seconds * 1e9);
  const uint64_t Start = nowNs();
  size_t Reported = 0;

  for (uint32_t R = 0; R < MinReplays || nowNs() - Start < Budget; ++R) {
    const bool Traced = O.Trace && R % 2 == 0;
    Log.beginReplay(R, Traced);
    setAllocationCounting(Traced);
    if (Traced)
      Log.resetCounts(M.Ops);
    std::vector<uint64_t> SetupBefore = Registry.snapshot();
    uint64_t T0 = nowNs();
    W.setUp();
    M.SetupSeconds.push_back(static_cast<double>(nowNs() - T0) / 1e9);
    if (Traced) {
      TracedSetupCounts.emplace_back();
      Registry.addDeltas(SetupBefore, TracedSetupCounts.back());
    }

    std::vector<double> &Min = Traced ? M.TracedMinNs : M.PlainMinNs;
    for (size_t K = 0; K < M.Ops; ++K) {
      Log.beginOp(static_cast<uint32_t>(K));
      std::vector<uint64_t> Before;
      if (Traced)
        Before = Registry.snapshot();
      uint64_t OpStart = nowNs();
      {
        SpanLog::Scope Sp(Log, SpanKind::Op);
        W.runOp(K, Log);
      }
      double Ns = static_cast<double>(nowNs() - OpStart);
      Min[K] = std::min(Min[K], Ns);
      if (Traced) {
        Counts Delta{};
        Registry.addDeltas(Before, Delta);
        for (size_t C = 0; C < NumCounts; ++C)
          Log.count(static_cast<Count>(C), Delta[C]);
      }
      ++M.Attempted;
      std::string Why;
      if (!W.check(K, R == 0, Why)) {
        ++M.Failed;
        if (Reported++ < 10)
          std::fprintf(stderr, "perfbench: replay %u: %s\n", R, Why.c_str());
      }
    }
    if (Traced) {
      W.afterScript(Log);
      TracedCounts.push_back(Log.opCounts());
      ++M.TracedReplays;
    }
    W.tearDown();
    ++M.Replays;
  }

  // The reference counts come from the second traced replay: the first
  // also pays process-wide one-time initialisation (static caches,
  // registry entries), which later replays and later runs do not.
  if (!TracedCounts.empty()) {
    size_t Ref = TracedCounts.size() > 1 ? 1 : 0;
    M.RefCounts = TracedCounts[Ref];
    M.RefSetupCounts = TracedSetupCounts[Ref];
    M.RefReplay = static_cast<uint32_t>(2 * Ref); // Traced replays are even.
    for (size_t I = Ref + 1; I < TracedCounts.size(); ++I)
      M.CountsRepeat &= TracedCounts[I] == M.RefCounts &&
                        TracedSetupCounts[I] == M.RefSetupCounts;
  }
  return M;
}

/// One named metric of the JSON result.
struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

std::vector<Metric> endToEnd(const Measured &M, double RssMb) {
  std::vector<double> Ms;
  double SumNs = 0;
  for (double Ns : M.PlainMinNs) {
    Ms.push_back(Ns / 1e6);
    SumNs += Ns;
  }
  return {{"setup_s", percentile(M.SetupSeconds, 50), "s"},
          {"latency_p50_ms", percentile(Ms, 50), "ms"},
          {"latency_p90_ms", percentile(Ms, 90), "ms"},
          {"ops_per_s", static_cast<double>(M.Ops) / (SumNs / 1e9), "ops/s"},
          {"peak_rss_mb", RssMb, "MB"}};
}

/// The traced run's per-layer metrics (see CATALOG.md for definitions).
std::vector<Metric> perLayer(const Measured &M, const SpanLog &Log) {
  const size_t N = M.Ops;
  // Per (span kind, op): the span's summed duration in each traced
  // replay (0 for ops that make no such call), minimised over replays.
  // Self allocations come from the reference replay, summed per layer.
  std::vector<std::vector<double>> MinNs(
      NumSpanKinds, std::vector<double>(N, std::numeric_limits<double>::infinity()));
  std::vector<std::vector<double>> Cur(NumSpanKinds, std::vector<double>(N, 0));
  enum Layer { Lexer, Glr, Incremental, Server, NumLayers };
  auto LayerOf = [](SpanKind K) -> int {
    switch (K) {
    case SpanKind::LexerScan:
      return Lexer;
    case SpanKind::GlrParse:
    case SpanKind::GlrFirstTree:
      return Glr;
    case SpanKind::IncrementalReparse:
      return Incremental;
    case SpanKind::ServerFork:
    case SpanKind::ServerMigrate:
    case SpanKind::ServerReparseAfterMigrate:
      return Server;
    case SpanKind::Op:
      break;
    }
    return -1;
  };
  std::vector<uint64_t> LayerAllocs(NumLayers, 0);
  const std::vector<SpanRecord> &Spans = Log.spans();
  std::vector<SpanLog::Self> Self = Log.selfCosts();
  auto Flush = [&] {
    for (size_t K = 0; K < NumSpanKinds; ++K)
      for (size_t Op = 0; Op < N; ++Op) {
        MinNs[K][Op] = std::min(MinNs[K][Op], Cur[K][Op]);
        Cur[K][Op] = 0;
      }
  };
  uint32_t Replay = Spans.empty() ? 0 : Spans.front().Replay;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const SpanRecord &S = Spans[I];
    if (S.Replay != Replay) {
      Flush();
      Replay = S.Replay;
    }
    size_t K = static_cast<size_t>(S.Kind);
    Cur[K][S.Op] += static_cast<double>(S.EndNs - S.StartNs);
    int L = LayerOf(S.Kind);
    if (L >= 0 && S.Replay == M.RefReplay)
      LayerAllocs[L] += Self[I].Allocs;
  }
  Flush();

  auto MeanUs = [&](SpanKind Kind, size_t From, size_t To) {
    double Sum = 0;
    size_t K = static_cast<size_t>(Kind);
    for (size_t Op = From; Op < To; ++Op)
      Sum += MinNs[K][Op];
    return To > From ? Sum / static_cast<double>(To - From) / 1e3 : 0.0;
  };
  auto Total = [&](Count C, size_t From = 0, size_t To = SIZE_MAX) {
    double Sum = 0;
    To = std::min(To, M.RefCounts.size());
    for (size_t Op = From; Op < To; ++Op)
      Sum += static_cast<double>(M.RefCounts[Op][static_cast<size_t>(C)]);
    return Sum;
  };
  const double Ops = static_cast<double>(N);
  auto PerOp = [&](Count C) { return Total(C) / Ops; };
  auto SetupCount = [&](Count C) {
    return static_cast<double>(M.RefSetupCounts[static_cast<size_t>(C)]);
  };
  const size_t Tenth = std::max<size_t>(1, N / 10);
  auto TenthMean = [&](Count C, bool Last) {
    size_t From = Last ? N - Tenth : 0;
    return Total(C, From, From + Tenth) / static_cast<double>(Tenth);
  };

  double ScanSec = MeanUs(SpanKind::LexerScan, 0, N) * Ops / 1e6;
  double Reparses = Total(Count::IncReparses);
  double TracedP50 = percentile(M.TracedMinNs, 50) / 1e6;
  double PlainP50 = percentile(M.PlainMinNs, 50) / 1e6;
  double EpochBytes =
      M.RefCounts.empty()
          ? 0.0
          : static_cast<double>(M.RefCounts.back()[static_cast<size_t>(
                Count::ServerEpochBytes)]);

  std::vector<Metric> Out = {
      {"lexer.scan_us", MeanUs(SpanKind::LexerScan, 0, N), "us"},
      {"lexer.tokens", PerOp(Count::LexerTokens), "count"},
      {"lexer.bytes_per_s",
       ScanSec > 0 ? Total(Count::LexerBytes) / ScanSec : 0.0, "B/s"},
      {"lexer.allocs", static_cast<double>(LayerAllocs[Lexer]) / Ops, "count"},
      {"glr.parse_us", MeanUs(SpanKind::GlrParse, 0, N), "us"},
      {"glr.gss_nodes", PerOp(Count::GlrGssNodes), "count"},
      {"glr.gss_edges", PerOp(Count::GlrGssEdges), "count"},
      {"glr.reductions", PerOp(Count::GlrReductions), "count"},
      {"glr.reduction_paths", PerOp(Count::GlrReductionPaths), "count"},
      {"glr.forest_nodes", PerOp(Count::GlrForestNodes), "count"},
      {"glr.forest_alternatives", PerOp(Count::GlrForestAlternatives), "count"},
      {"glr.allocs", static_cast<double>(LayerAllocs[Glr]) / Ops, "count"},
      {"glr.first_tree_us", MeanUs(SpanKind::GlrFirstTree, 0, N), "us"},
      {"lr.expansions", PerOp(Count::LrExpansions), "count"},
      {"lr.reexpansions", PerOp(Count::LrReexpansions), "count"},
      {"lr.closure_items", PerOp(Count::LrClosureItems), "count"},
      {"lr.dirty_marks", PerOp(Count::LrDirtyMarks), "count"},
      {"lr.setup_expansions", SetupCount(Count::LrExpansions), "count"},
      {"lr.setup_closure_items", SetupCount(Count::LrClosureItems), "count"},
      {"incremental.reparse_us", MeanUs(SpanKind::IncrementalReparse, 0, N),
       "us"},
      {"incremental.gss_nodes_constructed",
       PerOp(Count::IncGssNodesConstructed), "count"},
      {"incremental.grafted_ratio",
       Reparses > 0 ? Total(Count::IncGrafted) / Reparses : 0.0, "ratio"},
      {"incremental.iso_walk_failures", PerOp(Count::IncIsoWalkFailures),
       "count"},
      {"incremental.suffix_layers", PerOp(Count::IncSuffixLayers), "count"},
      {"incremental.allocs",
       static_cast<double>(LayerAllocs[Incremental]) / Ops, "count"},
      {"incremental.forest_nodes_live.first_tenth",
       TenthMean(Count::IncForestNodesLive, false), "count"},
      {"incremental.forest_nodes_live.last_tenth",
       TenthMean(Count::IncForestNodesLive, true), "count"},
  };
  for (auto [Kind, Name] :
       {std::pair{SpanKind::ServerFork, "server.fork_us"},
        std::pair{SpanKind::ServerMigrate, "server.migrate_us"},
        std::pair{SpanKind::ServerReparseAfterMigrate,
                  "server.reparse_after_migrate_us"}}) {
    Out.push_back({std::string(Name) + ".first_tenth", MeanUs(Kind, 0, Tenth),
                   "us"});
    Out.push_back({std::string(Name) + ".last_tenth",
                   MeanUs(Kind, N - Tenth, N), "us"});
  }
  std::vector<Metric> Tail = {
      {"server.migrations_reused", PerOp(Count::ServerMigrationsReused),
       "count"},
      {"server.migrations_bounded", PerOp(Count::ServerMigrationsBounded),
       "count"},
      {"server.migrations_full", PerOp(Count::ServerMigrationsFull), "count"},
      {"server.epoch_bytes", EpochBytes, "B"},
      {"server.allocs", static_cast<double>(LayerAllocs[Server]) / Ops,
       "count"},
      {"trace.overhead_p50_ms", TracedP50 - PlainP50, "ms"},
  };
  Out.insert(Out.end(), Tail.begin(), Tail.end());
  return Out;
}

/// Per-span-name self times and allocations over every traced replay,
/// plus the metrics, as one JSON document.
bool writeLayerJson(const std::string &Path, const SpanLog &Log,
                    const Measured &M, const std::vector<Metric> &Metrics) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  struct Agg {
    uint64_t Count = 0, SelfNs = 0, SelfAllocs = 0;
  };
  std::vector<Agg> ByKind(NumSpanKinds);
  std::vector<SpanLog::Self> Self = Log.selfCosts();
  for (size_t I = 0; I < Log.spans().size(); ++I) {
    Agg &A = ByKind[static_cast<size_t>(Log.spans()[I].Kind)];
    ++A.Count;
    A.SelfNs += Self[I].Ns;
    A.SelfAllocs += Self[I].Allocs;
  }
  std::fprintf(F, "{\n  \"traced_replays\": %zu,\n  \"spans\": {\n",
               M.TracedReplays);
  for (size_t K = 0; K < NumSpanKinds; ++K) {
    const Agg &A = ByKind[K];
    std::fprintf(F,
                 "    \"%s\": {\"count\": %" PRIu64 ", \"self_us_total\": %.3f, "
                 "\"self_us_mean\": %.3f, \"self_allocs_total\": %" PRIu64 "}%s\n",
                 spanName(static_cast<SpanKind>(K)), A.Count,
                 static_cast<double>(A.SelfNs) / 1e3,
                 A.Count ? static_cast<double>(A.SelfNs) / 1e3 /
                               static_cast<double>(A.Count)
                         : 0.0,
                 A.SelfAllocs, K + 1 < NumSpanKinds ? "," : "");
  }
  std::fprintf(F, "  },\n  \"metrics\": {\n");
  for (size_t I = 0; I < Metrics.size(); ++I)
    std::fprintf(F, "    \"%s\": {\"value\": %.17g, \"unit\": \"%s\"}%s\n",
                 Metrics[I].Name.c_str(), Metrics[I].Value,
                 Metrics[I].Unit.c_str(), I + 1 < Metrics.size() ? "," : "");
  std::fprintf(F, "  }\n}\n");
  return std::fclose(F) == 0;
}

uint64_t countsDigest(const Measured &M, const std::vector<Metric> &Metrics) {
  uint64_t H =
      ipg::hashBytes(M.RefCounts.data(), M.RefCounts.size() * sizeof(Counts));
  H = ipg::hashBytes(M.RefSetupCounts.data(), sizeof(Counts), H);
  for (const Metric &Mt : Metrics)
    if (Mt.Unit == "count" || Mt.Unit == "B")
      H = ipg::hashBytes(&Mt.Value, sizeof(Mt.Value), H);
  return H;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  if (!parseArgs(Argc, Argv, O)) {
    std::fprintf(stderr, "usage: %s --workload NAME --seed N --seconds S "
                         "--trace 0|1 [--out DIR]\n",
                 Argv[0]);
    return 2;
  }
  if (O.Trace && !allocationsCounted()) {
    std::fprintf(stderr, "perfbench: --trace 1 needs the traced binary\n");
    return 2;
  }
#ifdef __GLIBC__
  // Keep freed memory in the process: otherwise glibc returns it to the
  // kernel between replays, and how much each replay then pays in page
  // faults depends on heap layout, which swamps the library's own cost.
  mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
  mallopt(M_MMAP_THRESHOLD, 32 << 20); // glibc's largest accepted value.
#endif

  std::unique_ptr<Workload> W;
  try {
    W = makeWorkload(O.Workload, O.Seed, IPG_CORPUS_DIR);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "perfbench: %s\n", E.what());
    return 1;
  }
  if (!W) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 O.Workload.c_str());
    return 2;
  }
  // run.py --self-check compares this digest across processes.
  uint64_t ScriptDigest = ipg::hashString(W->scriptText());

  SpanLog Log;
  Measured M;
  try {
    M = replay(*W, Log, O);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "perfbench: run aborted: %s\n", E.what());
    return 1;
  }
  double RssMb = peakRssMb();

  std::vector<Metric> Metrics = O.Trace ? perLayer(M, Log) : endToEnd(M, RssMb);

  std::printf("# workload: %s\n# seed: %" PRIu64 "\n", O.Workload.c_str(),
              O.Seed);
  std::printf("# nproc: %u\n# compiler: %s\n# build_type: %s\n"
              "# IPG_TRACING: %d\n",
              std::thread::hardware_concurrency(), PERFBENCH_COMPILER,
              PERFBENCH_BUILD_TYPE, ipg::trace::compiledIn() ? 1 : 0);
  std::printf("# ops_per_replay: %zu\n# replays: %zu\n# traced_replays: %zu\n",
              M.Ops, M.Replays, M.TracedReplays);
  std::printf("# script_digest: %016" PRIx64 "\n", ScriptDigest);
  if (O.Trace) {
    std::printf("# counts_digest: %016" PRIx64 "\n", countsDigest(M, Metrics));
    std::printf("# counts_repeat_across_replays: %s\n",
                M.CountsRepeat ? "yes" : "no");
    std::error_code Ec;
    std::filesystem::create_directories(O.OutDir, Ec);
    std::string Base = O.OutDir + "/" + O.Workload;
    bool Wrote = Log.writeChromeTrace(Base + ".trace.json", 0) &&
                 writeLayerJson(Base + ".layers.json", Log, M, Metrics);
    std::printf("# trace_files: %s\n",
                Wrote ? (Base + ".{trace,layers}.json").c_str() : "not written");
  }
  std::printf("# attempted: %" PRIu64 "\n# failed: %" PRIu64 "\n",
              M.Attempted, M.Failed);
  for (const Metric &Mt : Metrics)
    std::printf("# %-44s %16.6f %s\n", Mt.Name.c_str(), Mt.Value,
                Mt.Unit.c_str());
  if (!O.Trace)
    std::printf("# %-44s %16.6f ratio\n", "fail_ratio",
                static_cast<double>(M.Failed) /
                    static_cast<double>(M.Attempted));

  const bool Correct = M.Failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              Correct ? "true" : "false", M.Attempted, M.Failed);
  for (size_t I = 0; I < Metrics.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", Metrics[I].Name.c_str(), Metrics[I].Value,
                Metrics[I].Unit.c_str());
  std::printf("}}\n");
  return Correct ? 0 : 1;
}
