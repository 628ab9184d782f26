//===- bench/fig7_1_measurements.cpp - Fig 7.1: Yacc vs PG vs IPG ----------===//
///
/// \file
/// Regenerates Fig 7.1, the paper's headline measurement. For each of the
/// four SDF inputs and each generator we time the paper's six phases:
///
///   construct — build the parse table for the SDF grammar;
///   parse 1/2 — parse the input twice (trees are constructed, not
///               printed, exactly as in §7);
///   modify    — add the rule CF-ELEM ::= "(" CF-ELEM+ ")?" and update
///               the table;
///   parse 3/4 — parse the same input twice against the updated table.
///
/// Generators:
///   Yacc — our LALR(1) generator + deterministic LR driver. The paper's
///          9.6 s Yacc figure is dominated by compiling generated C
///          (8.3 s), which has no analogue here, and a 1989 SUN 3/60 made
///          even the ~100-state SDF table feel expensive. To reproduce
///          that *regime* honestly, a second section scales the grammar
///          (the paper: "we expect grammars that are much larger than the
///          grammar of SDF and input sentences to be quite small");
///   PG   — full LR(0) generation + Tomita parser (§4);
///   IPG  — lazy & incremental generation + Tomita parser (§5/§6).
///
/// Absolute times are hardware-bound; the shape checks assert the paper's
/// qualitative findings.
///
//===----------------------------------------------------------------------===//

#include "common/BenchHarness.h"
#include "common/BenchSupport.h"
#include "common/ScaledSdf.h"

#include "core/Ipg.h"
#include "glr/GlrParser.h"
#include "lalr/LalrGen.h"
#include "lr/LrParser.h"
#include "sdf/Samples.h"
#include "sdf/SdfLanguage.h"
#include "sdf/SdfLexer.h"

#include <cassert>
#include <cstdio>
#include <functional>

using namespace ipg;
using namespace ipg::bench;

namespace {

constexpr int Repetitions = 7;

/// The six per-phase times of one scenario run.
struct PhaseTimes {
  double Construct = 0, Parse1 = 0, Parse2 = 0, Modify = 0, Parse3 = 0,
         Parse4 = 0;
  double total() const {
    return Construct + Parse1 + Parse2 + Modify + Parse3 + Parse4;
  }
};

/// A measurement scenario: how to build the grammar, and what to parse.
struct Workload {
  std::function<void(Grammar &)> Build;
  std::string_view InputText;
};

/// Fills \p G with the SDF grammar of Appendix B.
void buildSdf(Grammar &G) {
  SdfLanguage Lang;
  Grammar::cloneActiveRules(Lang.grammar(), G);
}

/// The Fig 7.1 modification against the (unprefixed) CF-ELEM; the scaled
/// grammar itself comes from the shared bench/common/ScaledSdf.h.
std::pair<SymbolId, std::vector<SymbolId>> modification(Grammar &G) {
  return scaledSdfModification(G);
}

std::vector<SymbolId> tokenize(Grammar &G, std::string_view Text) {
  Scanner S;
  configureSdfScanner(S);
  Expected<std::vector<SymbolId>> Tokens = S.tokenizeToSymbols(Text, G);
  assert(Tokens && "sample must tokenize");
  return Tokens.take();
}

/// One Yacc scenario run: every phase regenerates from scratch, as Yacc
/// must (grammar change == rerun yacc + recompile).
PhaseTimes runYacc(const Workload &W) {
  PhaseTimes T;
  Grammar G;
  W.Build(G);
  std::vector<SymbolId> Tokens = tokenize(G, W.InputText);

  Stopwatch Watch;
  ItemSetGraph Graph(G);
  ParseTable Table = buildLalr1Table(Graph);
  resolveConflictsYaccStyle(Table, G);
  T.Construct = Watch.seconds();

  LrParser Parser(Table, G);
  for (double *Slot : {&T.Parse1, &T.Parse2}) {
    TreeArena Arena;
    Watch.reset();
    LrParseResult R = Parser.parse(Tokens, Arena);
    *Slot = Watch.seconds();
    assert(R.Accepted && "Yacc baseline must accept the sample");
    (void)R;
  }

  auto [Lhs, Rhs] = modification(G);
  Watch.reset();
  G.addRule(Lhs, std::move(Rhs));
  ItemSetGraph Graph2(G);
  ParseTable Table2 = buildLalr1Table(Graph2);
  resolveConflictsYaccStyle(Table2, G);
  T.Modify = Watch.seconds();

  LrParser Parser2(Table2, G);
  for (double *Slot : {&T.Parse3, &T.Parse4}) {
    TreeArena Arena;
    Watch.reset();
    LrParseResult R = Parser2.parse(Tokens, Arena);
    *Slot = Watch.seconds();
    assert(R.Accepted && "Yacc baseline must accept after modification");
    (void)R;
  }
  return T;
}

/// One PG scenario run: conventional full LR(0) generation, Tomita
/// parser; modification regenerates everything (§4).
PhaseTimes runPg(const Workload &W) {
  PhaseTimes T;
  Grammar G;
  W.Build(G);
  std::vector<SymbolId> Tokens = tokenize(G, W.InputText);

  Stopwatch Watch;
  ItemSetGraph Graph(G);
  Graph.generateAll();
  T.Construct = Watch.seconds();

  GlrParser Parser(Graph);
  for (double *Slot : {&T.Parse1, &T.Parse2}) {
    Forest F;
    Watch.reset();
    GlrResult R = Parser.parse(Tokens, F);
    *Slot = Watch.seconds();
    assert(R.Accepted && "PG must accept the sample");
    (void)R;
  }

  auto [Lhs, Rhs] = modification(G);
  Watch.reset();
  G.addRule(Lhs, std::move(Rhs));
  ItemSetGraph Graph2(G);
  Graph2.generateAll();
  T.Modify = Watch.seconds();

  GlrParser Parser2(Graph2);
  for (double *Slot : {&T.Parse3, &T.Parse4}) {
    Forest F;
    Watch.reset();
    GlrResult R = Parser2.parse(Tokens, F);
    *Slot = Watch.seconds();
    assert(R.Accepted && "PG must accept after modification");
    (void)R;
  }
  return T;
}

/// One IPG scenario run: lazy construction, incremental modification.
PhaseTimes runIpg(const Workload &W) {
  PhaseTimes T;
  Grammar G;
  W.Build(G);
  std::vector<SymbolId> Tokens = tokenize(G, W.InputText);

  Stopwatch Watch;
  Ipg Gen(G);
  T.Construct = Watch.seconds();

  for (double *Slot : {&T.Parse1, &T.Parse2}) {
    Forest F;
    Watch.reset();
    GlrResult R = Gen.parse(Tokens, F);
    *Slot = Watch.seconds();
    assert(R.Accepted && "IPG must accept the sample");
    (void)R;
  }

  auto [Lhs, Rhs] = modification(G);
  Watch.reset();
  Gen.addRule(Lhs, std::move(Rhs));
  T.Modify = Watch.seconds();

  for (double *Slot : {&T.Parse3, &T.Parse4}) {
    Forest F;
    Watch.reset();
    GlrResult R = Gen.parse(Tokens, F);
    *Slot = Watch.seconds();
    assert(R.Accepted && "IPG must accept after modification");
    (void)R;
  }
  return T;
}

/// Full sample statistics per phase over repeated scenario runs (one
/// warmup run first), so the emitted JSON carries the spread alongside the
/// median the tables print.
struct PhaseStats {
  SampleStats Construct, Parse1, Parse2, Modify, Parse3, Parse4, Total;
};

/// A scenario's total read from its per-phase minima over the replays:
/// host noise only ever adds time, so each phase contributes the replay
/// least disturbed by it.
double minTotal(const PhaseStats &S) {
  return S.Construct.Min + S.Parse1.Min + S.Parse2.Min + S.Modify.Min +
         S.Parse3.Min + S.Parse4.Min;
}

using ScenarioFn = PhaseTimes (*)(const Workload &);

/// Samples every scenario in \p Runs \p Reps times, round-robin: each
/// replay runs all of them back to back, so a noisy stretch of the host
/// lands on every generator instead of on whichever one it happened to
/// be timing. Returns one PhaseStats per scenario, in order.
std::vector<PhaseStats> samplePhases(const std::vector<ScenarioFn> &Runs,
                                     const Workload &W, int Reps) {
  for (ScenarioFn Run : Runs)
    Run(W); // Warmup: fault in code and allocator state.
  std::vector<std::vector<PhaseTimes>> Samples(Runs.size());
  for (int I = 0; I < Reps; ++I)
    for (size_t K = 0; K < Runs.size(); ++K)
      Samples[K].push_back(Runs[K](W));
  std::vector<PhaseStats> Result(Runs.size());
  for (size_t K = 0; K < Runs.size(); ++K) {
    auto StatsOf = [&](double PhaseTimes::*Member) {
      std::vector<double> Values;
      Values.reserve(Samples[K].size());
      for (const PhaseTimes &S : Samples[K])
        Values.push_back(S.*Member);
      return SampleStats::of(std::move(Values));
    };
    PhaseStats &R = Result[K];
    R.Construct = StatsOf(&PhaseTimes::Construct);
    R.Parse1 = StatsOf(&PhaseTimes::Parse1);
    R.Parse2 = StatsOf(&PhaseTimes::Parse2);
    R.Modify = StatsOf(&PhaseTimes::Modify);
    R.Parse3 = StatsOf(&PhaseTimes::Parse3);
    R.Parse4 = StatsOf(&PhaseTimes::Parse4);
    std::vector<double> Totals;
    Totals.reserve(Samples[K].size());
    for (const PhaseTimes &S : Samples[K])
      Totals.push_back(S.total());
    R.Total = SampleStats::of(std::move(Totals));
  }
  return Result;
}

/// Non-timing ground truth for the laziness claims: expansion counts per
/// phase from one instrumented IPG run.
struct IpgWork {
  uint64_t ExpansionsParse1 = 0;
  uint64_t ExpansionsParse2 = 0;
  uint64_t ReExpansionsParse3 = 0;
};

IpgWork measureIpgWork(const Workload &W) {
  IpgWork Work;
  Grammar G;
  W.Build(G);
  std::vector<SymbolId> Tokens = tokenize(G, W.InputText);
  Ipg Gen(G);
  Gen.recognize(Tokens);
  Work.ExpansionsParse1 = Gen.stats().Expansions;
  Gen.recognize(Tokens);
  Work.ExpansionsParse2 = Gen.stats().Expansions - Work.ExpansionsParse1;
  auto [Lhs, Rhs] = modification(G);
  Gen.addRule(Lhs, std::move(Rhs));
  uint64_t Before = Gen.stats().ReExpansions;
  Gen.recognize(Tokens);
  Work.ReExpansionsParse3 = Gen.stats().ReExpansions - Before;
  return Work;
}

void runSection(BenchHarness &H, const char *Title, const std::string &Key,
                const Workload &W, bool Scaled) {
  Grammar CountG;
  W.Build(CountG);
  size_t NumTokens = tokenize(CountG, W.InputText).size();
  std::printf("== %s (%zu tokens) ==\n", Title, NumTokens);

  // Every replay count, reduced passes included: the shape checks below
  // compare timings between generators, and a minimum over three replays
  // still lets one noisy stretch decide them. A full section costs well
  // under a second.
  const int Reps = Repetitions;
  std::vector<PhaseStats> Sampled =
      samplePhases({runYacc, runPg, runIpg}, W, Reps);
  const PhaseStats &Yacc = Sampled[0], &Pg = Sampled[1], &Ipg = Sampled[2];
  IpgWork Work = measureIpgWork(W);

  TextTable Table({"phase", "Yacc", "PG", "IPG"});
  struct PhaseName {
    const char *Label;
    const char *Slug;
    SampleStats PhaseStats::*Member;
  };
  const PhaseName Phases[] = {
      {"construct", "construct", &PhaseStats::Construct},
      {"parse 1", "parse1", &PhaseStats::Parse1},
      {"parse 2", "parse2", &PhaseStats::Parse2},
      {"modify", "modify", &PhaseStats::Modify},
      {"parse 3", "parse3", &PhaseStats::Parse3},
      {"parse 4", "parse4", &PhaseStats::Parse4},
      {"total", "total", &PhaseStats::Total},
  };
  struct GeneratorColumn {
    const char *Slug;
    const PhaseStats *Times;
  };
  const GeneratorColumn Generators[] = {
      {"yacc", &Yacc}, {"pg", &Pg}, {"ipg", &Ipg}};
  for (const PhaseName &Phase : Phases)
    Table.addRow({Phase.Label, ms((Yacc.*(Phase.Member)).Median),
                  ms((Pg.*(Phase.Member)).Median),
                  ms((Ipg.*(Phase.Member)).Median)});
  Table.print();
  // The Fig 7.1 grid, one timing (median + spread) per (generator, phase).
  for (const GeneratorColumn &Generator : Generators)
    for (const PhaseName &Phase : Phases)
      H.report().addTiming(Key + "/" + Generator.Slug + "/" + Phase.Slug,
                           Generator.Times->*(Phase.Member));
  H.report().addCounter(Key + "/tokens", NumTokens);
  H.report().addCounter(Key + "/ipg/expansions_parse1",
                        Work.ExpansionsParse1);
  H.report().addCounter(Key + "/ipg/expansions_parse2",
                        Work.ExpansionsParse2);
  H.report().addCounter(Key + "/ipg/re_expansions_parse3",
                        Work.ReExpansionsParse3);
  std::printf("IPG work: %llu expansions in parse 1, %llu in parse 2, "
              "%llu re-expansions in parse 3\n",
              (unsigned long long)Work.ExpansionsParse1,
              (unsigned long long)Work.ExpansionsParse2,
              (unsigned long long)Work.ReExpansionsParse3);

  std::printf("shape checks (the paper's qualitative findings):\n");
  H.check(Ipg.Construct.Median < Pg.Construct.Median / 10,
          "IPG construction time is almost zero");
  H.check(Pg.Construct.Median < Yacc.Construct.Median,
          "PG (LR(0)) generates faster than Yacc (LALR(1))");
  H.check(Ipg.Modify.Median < Pg.Modify.Median / 5,
          "IPG modification is far cheaper than PG regeneration");
  H.check(Ipg.Modify.Median < Yacc.Modify.Median / 5,
          "IPG modification is far cheaper than Yacc regeneration");
  H.check(Work.ExpansionsParse1 > 0 && Work.ExpansionsParse2 == 0,
          "the first parse generates table parts, the second generates "
          "none (§5)");
  H.check(Work.ReExpansionsParse3 > 0,
          "after MODIFY only re-expansions repair the table (§6)");
  // The ground truth for §5's claim is the expansion counter above; the
  // timing check carries a generous noise band (sub-millisecond parses
  // on a ~100-state table jitter by tens of percent). This check and the
  // totals below compare per-phase minima over the replays (minTotal),
  // which a noisy stretch of the host moves far less than a median.
  H.check(Ipg.Parse2.Min <= Ipg.Parse1.Min * 1.4,
          "IPG second parse is not slower (within timing noise)");
  H.check(Yacc.Parse2.Median <= Pg.Parse2.Median,
          "deterministic Yacc parser is at least as fast as the Tomita "
          "parser");
  // On the plain SDF grammar parsing dominates both totals, so IPG's
  // generation savings show as near-parity; the scaled section shows the
  // decisive win. Allow the noise band of sub-ms parses here.
  H.check(minTotal(Ipg) <= minTotal(Pg) * 1.2,
          "lazy+incremental is never beaten by conventional generation "
          "within the Tomita family");
  if (Scaled) {
    H.check(Ipg.Construct.Median + Ipg.Parse1.Median < Yacc.Construct.Median,
            "time-to-first-parse: IPG parses before Yacc finishes "
            "generating");
    H.check(Ipg.Total.Median < Yacc.Total.Median,
            "IPG wins the interactive scenario end-to-end on a large "
            "grammar");
  }
  std::printf("\n");
}

} // namespace

int main(int argc, char **argv) {
  BenchHarness H("fig7_1_measurements", argc, argv);
  std::printf("Fig 7.1 — CPU time for Yacc (LALR(1)+LR), PG (LR(0)+Tomita) "
              "and IPG (lazy/incremental+Tomita)\n");
  std::printf("Phases: construct table; parse twice; modify grammar "
              "(CF-ELEM ::= \"(\" CF-ELEM+ \")?\"); parse twice.\n\n");

  for (const SdfSample &Sample : sdfSamples()) {
    Workload W{buildSdf, Sample.Text};
    std::string Title = std::string(Sample.Name) + ", paper used " +
                        std::to_string(Sample.PaperTokenCount) + " tokens";
    runSection(H, Title.c_str(), "fig7_1/" + std::string(Sample.Name), W,
               /*Scaled=*/false);
  }

  // The regime the paper actually targets: a large grammar, small inputs.
  std::printf("-- scaled grammar: 12 SDF-sized module copies, input "
              "exercises one --\n");
  Workload Scaled{[](Grammar &G) { buildScaledSdf(G, 12); },
                  sdfSamples()[1].Text};
  runSection(H, "Exam.sdf against the 12x grammar", "fig7_1/scaled-12x",
             Scaled, /*Scaled=*/true);

  return H.finish();
}
