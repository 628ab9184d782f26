//===- bench/editor_session.cpp - Keystroke edit-script replay ------------===//
///
/// \file
/// The editor/LSP workload the incremental parse sessions exist for:
/// replay keystroke-level edit scripts over the real-language corpus
/// grammars (json, c_subset, sql_select) through a ParseDocument and
/// measure re-parse cost against the from-scratch baseline, broken down
/// by the edit's distance from the end of input. A bounded re-parse pays
/// for the damage window, not the document, so cost should track edit
/// *locality* while the scratch baseline tracks document *size*.
///
/// Also carries the bounded-work evidence: a single-token edit in the
/// middle of a >= 500-token input must re-parse with >= 5x fewer GSS node
/// constructions (counted via the `glr.gss.nodes_constructed`
/// metrics-registry counter) and >= 5x fewer new forest nodes
/// (ReparseStats::ForestNodesCreated) than the scratch parse, with
/// identical verdict and tree count.
///
//===----------------------------------------------------------------------===//

#include "common/BenchHarness.h"
#include "common/BenchSupport.h"
#include "common/Corpus.h"

#include "core/Ipg.h"
#include "incremental/ParseDocument.h"
#include "support/Metrics.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

using namespace ipg;
using namespace ipg::bench;
using namespace ipg::testing;

namespace {

/// The real-language corpus members this driver replays edits over.
constexpr const char *Targets[] = {"json", "c_subset", "sql_select"};

/// Builds Prefix + Unit*Repeat + Suffix, growing Repeat past the bench
/// directive until the stream reaches \p MinTokens (the acceptance
/// criterion wants >= 500-token documents regardless of the directive's
/// parse-bench sizing). False when a word is not a symbol of \p G.
bool pumpAtLeast(const Grammar &G, const BenchPump &Pump, size_t MinTokens,
                 std::vector<SymbolId> &Out) {
  size_t UnitWords = splitWords(Pump.Unit).size();
  unsigned Repeat = Pump.Repeat;
  if (UnitWords > 0)
    Repeat = std::max<unsigned>(
        Repeat, static_cast<unsigned>(MinTokens / UnitWords + 1));
  std::string Text = Pump.Prefix;
  for (unsigned I = 0; I < Repeat; ++I) {
    Text += ' ';
    Text += Pump.Unit;
  }
  Text += ' ';
  Text += Pump.Suffix;
  Out.clear();
  for (std::string_view Word : splitWords(Text)) {
    SymbolId Sym = G.symbols().lookup(Word);
    if (Sym == InvalidSymbol)
      return false;
    Out.push_back(Sym);
  }
  return Out.size() >= MinTokens;
}

/// One keystroke at \p Pos: retype the token (replace it with itself) and
/// bring the parse up to date. Content-neutral, so the verdict is stable
/// across the whole script and every re-parse is comparable.
void keystroke(ParseDocument &Doc, size_t Pos) {
  SymbolId Tok = Doc.tokens()[Pos];
  Doc.replace(Pos, Pos + 1, ArrayView<SymbolId>(&Tok, 1));
  Doc.reparse();
}

} // namespace

int main(int argc, char **argv) {
  BenchHarness H("editor_session", argc, argv);
  const int FullReps = 20;
  MetricCounter &NodeCtr =
      MetricsRegistry::process().counter("glr.gss.nodes_constructed");

  Expected<std::vector<CorpusCase>> Corpus = loadCorpusDir(IPG_CORPUS_DIR);
  if (!Corpus) {
    std::fprintf(stderr, "corpus load failed: %s\n",
                 Corpus.error().str().c_str());
    return 1;
  }

  std::printf("Keystroke edit-script replay: bounded re-parse vs from-"
              "scratch\n\n");
  TextTable Table({"grammar", "tokens", "edit at", "bounded", "scratch",
                   "nodes b/s", "reuse"});

  size_t Benched = 0;
  bool AllGrafted = true;
  bool AllVerdictsMatch = true;
  bool AllTreesMatch = true;
  bool MidEvidence = true;
  bool MidForestEvidence = true;
  for (const CorpusCase &Case : *Corpus) {
    if (std::find_if(std::begin(Targets), std::end(Targets),
                     [&](const char *T) { return Case.Name == T; }) ==
        std::end(Targets))
      continue;
    Grammar G;
    Expected<size_t> Built = Case.build(G);
    if (!Built) {
      std::fprintf(stderr, "%s: %s\n", Case.Name.c_str(),
                   Built.error().str().c_str());
      return 1;
    }
    std::vector<SymbolId> Tokens;
    if (!pumpAtLeast(G, Case.Bench, 520, Tokens)) {
      std::fprintf(stderr, "%s: pump did not reach 520 tokens\n",
                   Case.Name.c_str());
      return 1;
    }
    const size_t N = Tokens.size();
    const std::string Key = "editor_session/" + Case.Name;

    Ipg Gen(G);

    // From-scratch baseline: a fresh session per repetition (setTokens
    // resets the parse), over the warm shared graph.
    ParseDocument Fresh(Gen.graph());
    Fresh.setTokens(Tokens);
    const GlrResult ScratchResult = Fresh.reparse();
    const uint64_t TreeCap = 1u << 20;
    const uint64_t ScratchTrees =
        Fresh.forest().countTrees(ScratchResult.Root, TreeCap);
    uint64_t Mark = NodeCtr.total();
    Fresh.setTokens(Tokens);
    Fresh.reparse();
    const uint64_t ScratchNodes = NodeCtr.total() - Mark;
    const uint64_t ScratchForestNodes =
        Fresh.lastReparse().ForestNodesCreated;
    double ScratchTime = H.measure(Key + "/scratch", FullReps, [&] {
                            Fresh.setTokens(Tokens);
                            Fresh.reparse();
                          }).Median;

    // The edit script: keystrokes at increasing distance from the end of
    // input. The document persists across the script like an editor
    // buffer; every re-parse is bounded by its own damage window.
    ParseDocument Doc(Gen.graph());
    Doc.setTokens(Tokens);
    Doc.reparse();
    for (double Frac : {0.9, 0.75, 0.5, 0.25, 0.1}) {
      const size_t Pos = static_cast<size_t>(static_cast<double>(N) * Frac);
      Mark = NodeCtr.total();
      keystroke(Doc, Pos);
      const uint64_t BoundedNodes = NodeCtr.total() - Mark;
      AllGrafted &= Doc.lastReparse().Path == ReparseStats::Grafted;
      AllVerdictsMatch &=
          Doc.result().Accepted == ScratchResult.Accepted;
      AllTreesMatch &=
          Doc.forest().countTrees(Doc.result().Root, TreeCap) == ScratchTrees;

      char Label[32];
      std::snprintf(Label, sizeof(Label), "%2d%%",
                    static_cast<int>(Frac * 100));
      std::string EditKey = Key + "/edit_at_" + std::to_string(
                                static_cast<int>(Frac * 100));
      double EditTime =
          H.measure(EditKey, FullReps, [&] { keystroke(Doc, Pos); }).Median;
      double Reuse = BoundedNodes
                         ? static_cast<double>(ScratchNodes) /
                               static_cast<double>(BoundedNodes)
                         : static_cast<double>(ScratchNodes);
      char ReuseStr[32];
      std::snprintf(ReuseStr, sizeof(ReuseStr), "%.1fx", Reuse);
      Table.addRow({Case.Name, std::to_string(N), Label, ms(EditTime),
                    ms(ScratchTime),
                    std::to_string(BoundedNodes) + "/" +
                        std::to_string(ScratchNodes),
                    ReuseStr});
      H.report().addCounter(EditKey + "/gss_nodes", BoundedNodes);

      // The headline evidence is the mid-document keystroke.
      if (Frac == 0.5) {
        MidEvidence &= BoundedNodes * 5 <= ScratchNodes;
        MidForestEvidence &=
            Doc.lastReparse().ForestNodesCreated * 5 <= ScratchForestNodes;
      }
    }
    H.report().addCounter(Key + "/tokens", N);
    H.report().addCounter(Key + "/scratch_gss_nodes", ScratchNodes);
    ++Benched;
  }
  Table.print();

  std::printf("\nshape checks:\n");
  H.check(Benched == 3, "json, c_subset and sql_select all replayed");
  H.check(AllGrafted,
          "every keystroke re-parse converged and grafted the old suffix");
  H.check(AllVerdictsMatch, "bounded and scratch verdicts agree");
  H.check(AllTreesMatch, "bounded and scratch tree counts agree");
  H.check(MidEvidence, "mid-document keystroke re-parses with >= 5x fewer "
                       "GSS node constructions than scratch");
  H.check(MidForestEvidence, "mid-document keystroke creates >= 5x fewer "
                             "forest nodes than scratch");
  return H.finish();
}
