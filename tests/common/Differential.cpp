//===- tests/common/Differential.cpp - Cross-engine differential ----------===//

#include "common/Differential.h"

#include "common/GraphCanon.h"
#include "core/Ipg.h"
#include "earley/EarleyParser.h"
#include "glr/Forest.h"
#include "glr/GlrParser.h"
#include "lalr/LalrGen.h"
#include "lalr/Lr1Gen.h"
#include "lalr/SlrGen.h"
#include "lr/LrParser.h"
#include "lr/ParseTable.h"
#include "support/StringUtils.h"

#include <filesystem>
#include <fstream>
#include <optional>

using namespace ipg;
using namespace ipg::testing;

namespace {

/// One input sentence with its (optional) expectations.
struct ProbeInput {
  std::string Text;
  std::optional<bool> ExpectAccept;        ///< Unset for probe inputs.
  std::optional<TreeExpectation> Expect;   ///< Tree-count expectation.
};

/// Tokenizes against the grammar; false when a spelling is unknown.
bool tokenize(const Grammar &G, const std::string &Text,
              std::vector<SymbolId> &Out) {
  Out.clear();
  for (std::string_view Word : splitWords(Text)) {
    SymbolId Sym = G.symbols().lookup(Word);
    if (Sym == InvalidSymbol)
      return false;
    Out.push_back(Sym);
  }
  return true;
}

std::vector<uint8_t> slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(In),
                              std::istreambuf_iterator<char>());
}

class Runner {
public:
  Runner(const CorpusCase &Case, const DifferentialOptions &Opts)
      : Case(Case), Opts(Opts) {
    Report.GrammarName = Case.Name;
  }

  DifferentialReport run() {
    Expected<size_t> Built = Case.build(G);
    if (!Built) {
      diverge("grammar failed to build: " + Built.error().str());
      return Report;
    }

    collectInputs();

    // Engine stacks. The lazy IPG expands on demand across the whole
    // input sequence; the eager graph is generated up front and shared by
    // the GLR driver and the SLR/LALR table generators.
    Ipg Lazy(G);
    ItemSetGraph EagerGraph(G);
    EagerGraph.generateAll();
    GlrParser EagerGlr(EagerGraph);
    EarleyParser Earley(G);

    ParseTable Slr = buildSlr1Table(EagerGraph);
    ParseTable Lr1 = buildLr1Table(G);
    ParseTable Lalr = buildLalr1Table(EagerGraph);
    struct NamedTable {
      const char *Name;
      const ParseTable *Table;
      std::optional<LrParser> Parser;
    };
    std::vector<NamedTable> Tables;
    Tables.push_back({"slr1", &Slr, std::nullopt});
    Tables.push_back({"lr1", &Lr1, std::nullopt});
    Tables.push_back({"lalr1", &Lalr, std::nullopt});
    for (NamedTable &T : Tables)
      if (T.Table->isDeterministic()) {
        T.Parser.emplace(*T.Table, G);
        ++Report.DeterministicTables;
      }

    for (const ProbeInput &Probe : Inputs) {
      ++Report.Inputs;
      std::vector<SymbolId> Toks;
      if (!tokenize(G, Probe.Text, Toks)) {
        // A spelling the grammar never mentions cannot be derived; only an
        // accept/trees expectation makes that a corpus bug.
        if ((Probe.ExpectAccept && *Probe.ExpectAccept) || Probe.Expect)
          diverge("input '" + Probe.Text +
                  "' uses a token the grammar does not intern");
        continue;
      }

      Forest LazyForest;
      GlrResult LazyRes = Lazy.parse(Toks, LazyForest);
      Forest EagerForest;
      GlrResult EagerRes = EagerGlr.parse(Toks, EagerForest);
      bool EarleyAccepts = Earley.recognize(Toks);
      Report.EngineChecks += 3;

      check(Probe, "glr_eager", EagerRes.Accepted, LazyRes.Accepted);
      check(Probe, "earley", EarleyAccepts, LazyRes.Accepted);
      if (Probe.ExpectAccept && LazyRes.Accepted != *Probe.ExpectAccept)
        diverge("input '" + Probe.Text + "': ipg_lazy says " +
                verdict(LazyRes.Accepted) + ", corpus expects " +
                verdict(*Probe.ExpectAccept));

      for (NamedTable &T : Tables)
        if (T.Parser) {
          ++Report.EngineChecks;
          check(Probe, T.Name, T.Parser->recognize(Toks), LazyRes.Accepted);
        }

      if (LazyRes.Accepted) {
        uint64_t LazyTrees = LazyForest.countTrees(LazyRes.Root, Opts.TreeCap);
        uint64_t EagerTrees =
            EagerForest.countTrees(EagerRes.Root, Opts.TreeCap);
        uint64_t EarleyTrees = Earley.countDerivations(Toks, Opts.TreeCap);
        if (EagerTrees != LazyTrees)
          diverge("input '" + Probe.Text + "': eager GLR counts " +
                  std::to_string(EagerTrees) + " trees, lazy counts " +
                  std::to_string(LazyTrees));
        if (EarleyTrees != LazyTrees)
          diverge("input '" + Probe.Text + "': Earley counts " +
                  std::to_string(EarleyTrees) + " derivations, GLR counts " +
                  std::to_string(LazyTrees));
        if (Probe.Expect) {
          uint64_t Want =
              Probe.Expect->Infinite ? Opts.TreeCap : Probe.Expect->Trees;
          if (LazyTrees != Want)
            diverge("input '" + Probe.Text + "': counted " +
                    std::to_string(LazyTrees) + " trees, corpus expects " +
                    (Probe.Expect->Infinite ? "saturation at cap"
                                            : std::to_string(Want)));
        }
      } else if (Probe.Expect) {
        diverge("input '" + Probe.Text +
                "' has a trees expectation but was rejected");
      }
    }

    if (Opts.CheckSnapshots)
      checkSnapshots(Lazy);
    return Report;
  }

private:
  void collectInputs() {
    for (const std::string &Text : Case.Accept)
      Inputs.push_back({Text, true, std::nullopt});
    for (const std::string &Text : Case.Reject)
      Inputs.push_back({Text, false, std::nullopt});
    for (const std::string &Text : Case.Probe)
      Inputs.push_back({Text, std::nullopt, std::nullopt});
    for (const TreeExpectation &E : Case.TreeCounts) {
      // Reuse an existing row when the sentence also appears in Accept.
      bool Found = false;
      for (ProbeInput &Probe : Inputs)
        if (Probe.Text == E.Input) {
          Probe.Expect = E;
          Found = true;
          break;
        }
      if (!Found)
        Inputs.push_back({E.Input, true, E});
    }
  }

  static const char *verdict(bool Accepted) {
    return Accepted ? "accept" : "reject";
  }

  void check(const ProbeInput &Probe, const char *Engine, bool Got,
             bool Want) {
    if (Got != Want)
      diverge("input '" + Probe.Text + "': " + Engine + " says " +
              verdict(Got) + ", ipg_lazy says " + verdict(Want));
  }

  void diverge(std::string Message) {
    Report.Divergences.push_back(Case.Name + ": " + std::move(Message));
  }

  void checkSnapshots(Ipg &Lazy) {
    namespace fs = std::filesystem;
    std::error_code Ec;
    fs::path Dir = fs::temp_directory_path(Ec);
    if (Ec) {
      diverge("no temp directory for snapshot round-trip: " + Ec.message());
      return;
    }
    std::string Path = (Dir / ("ipg-diff-" + Case.Name + ".snap")).string();
    Expected<size_t> Saved = Lazy.saveSnapshot(Path);
    if (!Saved) {
      diverge("snapshot save failed: " + Saved.error().str());
      return;
    }

    // Byte determinism: an immediate re-save must be identical.
    std::string Path2 = Path + ".again";
    Expected<size_t> Saved2 = Lazy.saveSnapshot(Path2);
    if (!Saved2 || slurp(Path) != slurp(Path2))
      diverge("snapshot re-save is not byte-identical");

    Grammar Clone;
    Grammar::cloneActiveRules(G, Clone);
    Ipg Restored(Clone);
    Expected<SnapshotLoadResult> Loaded = Restored.loadSnapshot(Path);
    if (!Loaded) {
      diverge("snapshot load failed: " + Loaded.error().str());
    } else {
      if (!Loaded->FingerprintMatched)
        diverge("snapshot load of an unchanged grammar needed repair");
      if (canonicalize(Restored.graph()) != canonicalize(Lazy.graph()))
        diverge("snapshot round-trip changed the canonical graph");
      for (const ProbeInput &Probe : Inputs) {
        std::vector<SymbolId> Toks;
        if (!tokenize(Clone, Probe.Text, Toks))
          continue;
        ++Report.EngineChecks;
        bool Got = Restored.recognize(Toks);
        bool Want = Lazy.recognize(tokenizeOrDie(G, Probe.Text));
        if (Got != Want)
          diverge("input '" + Probe.Text +
                  "': snapshot-restored engine says " + verdict(Got) +
                  ", original says " + verdict(Want));
      }
    }
    fs::remove(Path, Ec);
    fs::remove(Path2, Ec);
  }

  static std::vector<SymbolId> tokenizeOrDie(const Grammar &G,
                                             const std::string &Text) {
    std::vector<SymbolId> Toks;
    tokenize(G, Text, Toks);
    return Toks;
  }

  const CorpusCase &Case;
  const DifferentialOptions &Opts;
  Grammar G;
  std::vector<ProbeInput> Inputs;
  DifferentialReport Report;
};

} // namespace

std::string DifferentialReport::str() const {
  std::string Out;
  for (const std::string &D : Divergences) {
    if (!Out.empty())
      Out += '\n';
    Out += D;
  }
  return Out;
}

DifferentialReport
ipg::testing::runDifferential(const CorpusCase &Case,
                              const DifferentialOptions &Opts) {
  return Runner(Case, Opts).run();
}
