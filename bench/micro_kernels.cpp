//===- bench/micro_kernels.cpp - google-benchmark micro kernels ------------===//
///
/// \file
/// Micro-benchmarks (google-benchmark) for the hot kernels behind the
/// paper's measurements: CLOSURE, EXPAND/full generation, LALR lookahead
/// computation, the three parsers on SDF input, ACTION queries and the
/// scanner. These complement the scenario benches with per-operation
/// numbers and regression tracking.
///
//===----------------------------------------------------------------------===//

#include "common/BenchHarness.h"

#include "core/Ipg.h"
#include "earley/EarleyParser.h"
#include "glr/GlrParser.h"
#include "lalr/LalrGen.h"
#include "lr/LrParser.h"
#include "sdf/Samples.h"
#include "sdf/SdfLanguage.h"
#include "sdf/SdfLexer.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include <benchmark/benchmark.h>

using namespace ipg;

namespace {

std::vector<SymbolId> tokenizeSample(SdfLanguage &Lang, size_t Index) {
  Scanner S;
  configureSdfScanner(S);
  Expected<std::vector<SymbolId>> Tokens =
      S.tokenizeToSymbols(sdfSamples()[Index].Text, Lang.grammar());
  return Tokens ? Tokens.take() : std::vector<SymbolId>{};
}

void BM_ClosureOfStartKernel(benchmark::State &State) {
  SdfLanguage Lang;
  ItemSetGraph Graph(Lang.grammar());
  KernelView K = Graph.kernel(Graph.startSet());
  for (auto _ : State)
    benchmark::DoNotOptimize(Graph.closure(K));
}
BENCHMARK(BM_ClosureOfStartKernel);

void BM_GenerateFullSdfTable(benchmark::State &State) {
  for (auto _ : State) {
    SdfLanguage Lang;
    ItemSetGraph Graph(Lang.grammar());
    benchmark::DoNotOptimize(Graph.generateAll());
  }
}
BENCHMARK(BM_GenerateFullSdfTable);

void BM_GenerateLalrTable(benchmark::State &State) {
  for (auto _ : State) {
    SdfLanguage Lang;
    ItemSetGraph Graph(Lang.grammar());
    ParseTable Table = buildLalr1Table(Graph);
    benchmark::DoNotOptimize(Table.numStates());
  }
}
BENCHMARK(BM_GenerateLalrTable);

void BM_IpgColdFirstParse(benchmark::State &State) {
  SdfLanguage Tok;
  std::vector<SymbolId> Unused = tokenizeSample(Tok, 2);
  (void)Unused;
  for (auto _ : State) {
    State.PauseTiming();
    SdfLanguage Lang;
    std::vector<SymbolId> Tokens = tokenizeSample(Lang, 2);
    Ipg Gen(Lang.grammar());
    State.ResumeTiming();
    benchmark::DoNotOptimize(Gen.recognize(Tokens));
  }
}
BENCHMARK(BM_IpgColdFirstParse);

void BM_GlrParseSdf(benchmark::State &State) {
  SdfLanguage Lang;
  std::vector<SymbolId> Tokens = tokenizeSample(Lang, 2);
  ItemSetGraph Graph(Lang.grammar());
  Graph.generateAll();
  GlrParser Parser(Graph);
  for (auto _ : State) {
    Forest F;
    benchmark::DoNotOptimize(Parser.parse(Tokens, F).Accepted);
  }
  State.SetItemsProcessed(State.iterations() * Tokens.size());
}
BENCHMARK(BM_GlrParseSdf);

void BM_DeterministicParseSdf(benchmark::State &State) {
  SdfLanguage Lang;
  std::vector<SymbolId> Tokens = tokenizeSample(Lang, 2);
  ItemSetGraph Graph(Lang.grammar());
  ParseTable Table = buildLalr1Table(Graph);
  resolveConflictsYaccStyle(Table, Lang.grammar());
  LrParser Parser(Table, Lang.grammar());
  for (auto _ : State)
    benchmark::DoNotOptimize(Parser.recognize(Tokens));
  State.SetItemsProcessed(State.iterations() * Tokens.size());
}
BENCHMARK(BM_DeterministicParseSdf);

void BM_EarleyParseSdf(benchmark::State &State) {
  SdfLanguage Lang;
  std::vector<SymbolId> Tokens = tokenizeSample(Lang, 2);
  EarleyParser Parser(Lang.grammar());
  for (auto _ : State)
    benchmark::DoNotOptimize(Parser.recognize(Tokens));
  State.SetItemsProcessed(State.iterations() * Tokens.size());
}
BENCHMARK(BM_EarleyParseSdf);

/// One warm ACTION query on SDF's start state through the view API the
/// parser drivers use: a reduction span plus a binary-searched shift
/// target, with no allocation per query.
void BM_ActionQueryViewWarm(benchmark::State &State) {
  SdfLanguage Lang;
  ItemSetGraph Graph(Lang.grammar());
  Graph.generateAll();
  ItemSet *Start = Graph.startSet();
  SymbolId Module = Lang.grammar().symbols().lookup("module");
  for (auto _ : State) {
    LrActionsView View = Graph.actionsView(Start, Module);
    benchmark::DoNotOptimize(View.shiftTarget());
  }
}
BENCHMARK(BM_ActionQueryViewWarm);

/// GOTO via the binary-searched action index, over every nonterminal
/// transition of the start state (SDF's widest row).
void BM_GotoQueryWarm(benchmark::State &State) {
  SdfLanguage Lang;
  ItemSetGraph Graph(Lang.grammar());
  Graph.generateAll();
  ItemSet *Start = Graph.startSet();
  std::vector<SymbolId> Nonterminals;
  for (ItemSet::Transition T : Graph.transitions(Start))
    if (Lang.grammar().symbols().isNonterminal(T.Label))
      Nonterminals.push_back(T.Label);
  for (auto _ : State)
    for (SymbolId Sym : Nonterminals)
      benchmark::DoNotOptimize(Graph.gotoState(Start, Sym));
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(Nonterminals.size()));
}
BENCHMARK(BM_GotoQueryWarm);

void BM_ScanSdfSource(benchmark::State &State) {
  Scanner S;
  configureSdfScanner(S);
  std::string_view Text = sdfSamples()[2].Text;
  for (auto _ : State)
    benchmark::DoNotOptimize(S.scan(Text));
  State.SetBytesProcessed(State.iterations() * Text.size());
}
BENCHMARK(BM_ScanSdfSource);

void BM_IncrementalModify(benchmark::State &State) {
  SdfLanguage Lang;
  Ipg Gen(Lang.grammar());
  Gen.generateAll();
  auto [Lhs, Rhs] = Lang.modificationRule();
  for (auto _ : State) {
    Gen.addRule(Lhs, std::vector<SymbolId>(Rhs));
    Gen.deleteRule(Lhs, Rhs);
  }
}
BENCHMARK(BM_IncrementalModify);

/// Edge workload for the LALR digraph-allocation pair below: one
/// deterministic (from, to) multiset shaped like the reads/includes
/// relations — many low-degree nodes, a few dense hubs — over the node
/// count of the SDF graph's nonterminal transitions.
std::vector<std::pair<uint32_t, uint32_t>> digraphEdgeWorkload(uint32_t Nodes) {
  std::vector<std::pair<uint32_t, uint32_t>> Edges;
  uint64_t S = 0x9e3779b97f4a7c15ULL;
  auto Next = [&S] {
    S ^= S << 13;
    S ^= S >> 7;
    S ^= S << 17;
    return S;
  };
  for (uint32_t From = 0; From < Nodes; ++From) {
    uint32_t Degree = From % 16 == 0 ? 24 : From % 3;
    for (uint32_t I = 0; I < Degree; ++I)
      Edges.emplace_back(From, static_cast<uint32_t>(Next() % Nodes));
  }
  return Edges;
}

/// BEFORE shape of the LALR lookahead digraph adjacency: one std::vector
/// per node, appended in edge order — per-node headers plus geometric
/// regrowth for every hub.
void BM_LalrDigraphAllocVectors(benchmark::State &State) {
  SdfLanguage Lang;
  ItemSetGraph Graph(Lang.grammar());
  Graph.generateAll();
  uint32_t Nodes = 0;
  for (const ItemSet *Set : Graph.liveSets())
    for (ItemSet::Transition T : Graph.transitions(Set))
      Nodes += Lang.grammar().symbols().isNonterminal(T.Label);
  std::vector<std::pair<uint32_t, uint32_t>> Edges = digraphEdgeWorkload(Nodes);
  for (auto _ : State) {
    std::vector<std::vector<uint32_t>> Succ(Nodes);
    for (const auto &[From, To] : Edges)
      Succ[From].push_back(To);
    uint64_t Sum = 0;
    for (const std::vector<uint32_t> &Row : Succ)
      for (uint32_t To : Row)
        Sum += To;
    benchmark::DoNotOptimize(Sum);
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(Edges.size()));
}
BENCHMARK(BM_LalrDigraphAllocVectors);

/// AFTER shape (what lalr/LalrGen.cpp's FlatRelation does): accumulate
/// pairs in one flat vector, then counting-sort into CSR offset/edge
/// arrays — three allocations total regardless of node count.
void BM_LalrDigraphAllocFlat(benchmark::State &State) {
  SdfLanguage Lang;
  ItemSetGraph Graph(Lang.grammar());
  Graph.generateAll();
  uint32_t Nodes = 0;
  for (const ItemSet *Set : Graph.liveSets())
    for (ItemSet::Transition T : Graph.transitions(Set))
      Nodes += Lang.grammar().symbols().isNonterminal(T.Label);
  std::vector<std::pair<uint32_t, uint32_t>> Edges = digraphEdgeWorkload(Nodes);
  for (auto _ : State) {
    std::vector<std::pair<uint32_t, uint32_t>> Pairs(Edges);
    std::vector<uint32_t> Offsets(Nodes + 1, 0);
    for (const auto &[From, To] : Pairs)
      ++Offsets[From + 1];
    for (size_t I = 1; I <= Nodes; ++I)
      Offsets[I] += Offsets[I - 1];
    std::vector<uint32_t> Flat(Pairs.size());
    std::vector<uint32_t> Fill(Offsets.begin(), Offsets.end() - 1);
    for (const auto &[From, To] : Pairs)
      Flat[Fill[From]++] = To;
    uint64_t Sum = 0;
    for (uint32_t To : Flat)
      Sum += To;
    benchmark::DoNotOptimize(Sum);
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(Edges.size()));
}
BENCHMARK(BM_LalrDigraphAllocFlat);

/// The cost of one metrics bump through the cached-static idiom the
/// library's instrumentation sites use — the per-event price of the
/// always-on registry (a relaxed load+store on a thread-sharded line).
void BM_MetricsCounterBump(benchmark::State &State) {
  static MetricCounter &C =
      MetricsRegistry::process().counter("bench.micro.bump");
  for (auto _ : State)
    C.bump();
  benchmark::DoNotOptimize(C.total());
}
BENCHMARK(BM_MetricsCounterBump);

/// The cost of an IPG_TRACE_SPAN when tracing is compiled in but not
/// recording — the steady-state price every instrumented site pays. The
/// zero-overhead contract says this is one predictable branch; in
/// tracing-off builds the macro is `((void)0)` and this measures an
/// empty loop.
void BM_TraceSpanDisabled(benchmark::State &State) {
  for (auto _ : State) {
    IPG_TRACE_SPAN(Sp, "bench.micro.span");
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_TraceSpanDisabled);

/// Console output as usual, plus capture of every run into the shared
/// ipg-bench-v1 report (per-iteration wall/CPU seconds and the iteration
/// count). Only members present in both the 1.7 and 1.8 Google Benchmark
/// APIs are used.
class CapturingReporter : public benchmark::ConsoleReporter {
public:
  explicit CapturingReporter(PerfReport &Report) : Report(Report) {}

  void ReportRuns(const std::vector<Run> &Runs) override {
    benchmark::ConsoleReporter::ReportRuns(Runs);
    for (const Run &R : Runs) {
      if (R.iterations == 0)
        continue;
      std::string Name = R.benchmark_name();
      double Iterations = static_cast<double>(R.iterations);
      Report.addScalar(Name + "/real_time",
                       R.real_accumulated_time / Iterations, "seconds");
      Report.addScalar(Name + "/cpu_time",
                       R.cpu_accumulated_time / Iterations, "seconds");
      Report.addCounter(Name + "/iterations",
                        static_cast<uint64_t>(R.iterations));
    }
  }

private:
  PerfReport &Report;
};

} // namespace

int main(int argc, char **argv) {
  ipg::bench::BenchOptions Options =
      ipg::bench::parseBenchOptions(argc, argv, /*AllowPassthrough=*/true);
  if (Options.ParseError)
    return 2;
  PerfReport Report("micro_kernels");
  Report.setReduced(Options.Reduced);

  // Forward the unconsumed arguments (plus a short --benchmark_min_time
  // under --reduced) to Google Benchmark.
  std::vector<char *> Args = Options.Passthrough;
  std::string MinTime = "--benchmark_min_time=0.01";
  if (Options.Reduced)
    Args.push_back(MinTime.data());
  int BenchArgc = static_cast<int>(Args.size());
  benchmark::Initialize(&BenchArgc, Args.data());
  if (benchmark::ReportUnrecognizedArguments(BenchArgc, Args.data()))
    return 2;

  CapturingReporter Reporter(Report);
  benchmark::RunSpecifiedBenchmarks(&Reporter);
  benchmark::Shutdown();

  return ipg::bench::emitReport(Report, Options.EmitJsonPath);
}
