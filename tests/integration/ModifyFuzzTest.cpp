//===- tests/integration/ModifyFuzzTest.cpp - MODIFY edit-script fuzzer ---===//
///
/// \file
/// Long random ADD-RULE / DELETE-RULE / GC / parse / snapshot edit scripts
/// (§6 churn at production length), generalizing the ActionIndexPropertyTest
/// machinery from 14 steps to 100+ and replaying every script twice:
///
///  * against the plain lazy graph, where each parse verdict is checked
///    against Earley (grammar-driven, no generated state — the ground
///    truth that cannot have a MODIFY-repair bug), snapshot ops
///    round-trip the graph through snapshot files and continue the script
///    on the *restored* engine (driving MODIFY-after-adopt COW), and
///    periodic checkpoints demand index/linear-scan equivalence plus
///    isomorphism with a from-scratch generation;
///
///  * through GrammarServer epoch forks, with two background sessions
///    parsing concurrently while the script's edits fork epochs (the
///    TSan CI job runs this binary), and a final canonical comparison of
///    the surviving epoch's shared graph against a from-scratch
///    generation.
///
/// Scale knobs, read once at start-up so CI can grow them without a
/// rebuild: IPG_FUZZ_SEEDS (default 20), IPG_FUZZ_STEPS (default 100).
/// When IPG_FUZZ_ARTIFACT_DIR is set, failing seeds are appended to
/// failing_seeds.txt there — the scheduled fuzz-long job uploads it.
/// docs/TESTING.md has the repro recipe for a printed seed.
///
//===----------------------------------------------------------------------===//

#include "common/IndexCheck.h"
#include "common/TestGrammars.h"
#include "core/Ipg.h"
#include "earley/EarleyParser.h"
#include "server/GrammarServer.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace ipg;
using namespace ipg::testing;

namespace {

unsigned envUnsigned(const char *Name, unsigned Default) {
  const char *Value = std::getenv(Name);
  if (Value == nullptr || *Value == '\0')
    return Default;
  unsigned Out = 0;
  for (const char *C = Value; *C != '\0'; ++C) {
    if (*C < '0' || *C > '9')
      return Default;
    Out = Out * 10 + unsigned(*C - '0');
  }
  return Out == 0 ? Default : Out;
}

unsigned fuzzSeeds() {
  static unsigned N = envUnsigned("IPG_FUZZ_SEEDS", 20);
  return N;
}

unsigned fuzzSteps() {
  static unsigned N = envUnsigned("IPG_FUZZ_STEPS", 100);
  return N;
}

/// One edit-script step. Symbol ids refer to the base grammar built by
/// buildBaseGrammar(Seed); every replay clones that grammar id-exactly,
/// so the ids stay valid in each.
struct Op {
  enum KindT { Add, Delete, Gc, Parse, Snapshot } Kind = Gc;
  SymbolId Lhs = 0;
  std::vector<SymbolId> Rhs;   ///< Add/Delete payload.
  std::vector<SymbolId> Input; ///< Parse payload.
};

struct Script {
  uint64_t Seed = 0;
  std::vector<Op> Ops;
  /// Sentence pool for the server replay's background parser threads.
  std::vector<std::vector<SymbolId>> Sentences;
};

/// The base grammar every replay starts from: a seeded random grammar
/// plus spare terminals "x0".."x3" that no rule mentions yet, so an
/// ADD-RULE drawing one behaves like introducing a brand-new token
/// mid-flight while keeping symbol ids identical across replays.
RandomGrammarCase buildBaseGrammar(Grammar &G, uint64_t Seed) {
  RandomGrammarCase Case = buildRandomGrammar(G, Seed);
  GrammarBuilder B(G);
  // (Two-step concat: "x" + to_string trips GCC-12 -Wrestrict at -O3.)
  for (int I = 0; I < 4; ++I) {
    std::string Name = "x";
    Name += std::to_string(I);
    B.symbol(Name);
  }
  return Case;
}

/// Generates the script by simulating the edit sequence on a scratch
/// copy of the grammar — DELETE must pick live victims and fresh parse
/// inputs must be derivable from the rule set as edited so far, and both
/// have to come out identical for every replay.
Script makeScript(uint64_t Seed, unsigned Steps) {
  Script S;
  S.Seed = Seed;
  Grammar G;
  RandomGrammarCase Case = buildBaseGrammar(G, Seed);
  for (std::vector<SymbolId> &Sent : Case.Positive)
    S.Sentences.push_back(std::move(Sent));
  for (std::vector<SymbolId> &Sent : Case.Mutated)
    S.Sentences.push_back(std::move(Sent));

  Prng R(Seed ^ 0xf022ed5c17ULL);
  std::vector<SymbolId> Nts, Syms;
  for (SymbolId Sym = 0; Sym < G.symbols().size(); ++Sym) {
    if (Sym == G.endMarker() || Sym == G.startSymbol())
      continue; // Neither may occur in a right-hand side.
    Syms.push_back(Sym);
    if (G.symbols().isNonterminal(Sym))
      Nts.push_back(Sym);
  }

  // deriveSentence recurses through rulesFor, so it is only safe while
  // every reachable nonterminal still has at least one active rule.
  auto CanDerive = [&] {
    if (G.rulesFor(G.startSymbol()).empty())
      return false;
    for (SymbolId N : Nts)
      if (G.rulesFor(N).empty())
        return false;
    return true;
  };

  for (unsigned Step = 0; Step < Steps; ++Step) {
    Op O;
    uint64_t Draw = R.below(10);
    if (Draw < 2) { // ADD-RULE.
      O.Kind = Op::Add;
      O.Lhs = Nts[R.below(Nts.size())];
      for (uint64_t I = 0, N = R.below(4); I < N; ++I)
        O.Rhs.push_back(Syms[R.below(Syms.size())]);
      G.addRule(O.Lhs, O.Rhs);
    } else if (Draw < 4) { // DELETE-RULE (keep at least one active rule).
      std::vector<RuleId> Active = G.activeRules();
      if (Active.size() > 1) {
        const Rule &Victim = G.rule(Active[R.below(Active.size())]);
        O.Kind = Op::Delete;
        O.Lhs = Victim.Lhs;
        O.Rhs = Victim.Rhs;
        G.removeRule(O.Lhs, O.Rhs);
      } // else: recorded as a GC step (Op's default Kind).
    } else if (Draw == 4) {
      O.Kind = Op::Gc;
    } else if (Draw == 5) {
      O.Kind = Op::Snapshot;
    } else { // Parse: half fresh derivations, half pool sentences.
      O.Kind = Op::Parse;
      bool Derived = false;
      if (R.below(2) == 0 && CanDerive()) {
        std::vector<RuleId> Cheapest = cheapestRules(G);
        std::vector<SymbolId> Fresh =
            deriveSentence(G, G.startSymbol(), R, Cheapest, 24);
        if (!Fresh.empty()) {
          O.Input = std::move(Fresh);
          Derived = true;
        }
      }
      if (!Derived && !S.Sentences.empty())
        O.Input = S.Sentences[R.below(S.Sentences.size())];
    }
    S.Ops.push_back(std::move(O));
  }
  return S;
}

/// The engine under test for the plain replay. Heap-held so a snapshot
/// op can swap in the restored generator and the script continues
/// against it (Ipg keeps a reference to the Grammar, so both live behind
/// stable pointers).
struct PlainEngine {
  std::unique_ptr<Grammar> G;
  std::unique_ptr<Ipg> Gen;

  explicit PlainEngine(const Grammar &Base) : G(std::make_unique<Grammar>()) {
    Grammar::cloneExact(Base, *G);
    Gen = std::make_unique<Ipg>(*G);
  }
};

void replayPlain(const Script &S, unsigned CheckEvery) {
  Grammar Base;
  buildBaseGrammar(Base, S.Seed);
  PlainEngine E(Base);

  for (size_t I = 0; I < S.Ops.size(); ++I) {
    const Op &O = S.Ops[I];
    switch (O.Kind) {
    case Op::Add:
      E.Gen->addRule(O.Lhs, std::vector<SymbolId>(O.Rhs));
      break;
    case Op::Delete:
      E.Gen->deleteRule(O.Lhs, O.Rhs);
      break;
    case Op::Gc:
      E.Gen->collectGarbage();
      break;
    case Op::Parse: {
      // Earley carries no generated state at all, so it cannot have a
      // MODIFY-repair bug: the ground-truth verdict for this step.
      EarleyParser Earley(E.Gen->grammar());
      EXPECT_EQ(E.Gen->recognize(O.Input), Earley.recognize(O.Input))
          << "seed " << S.Seed << " step " << I;
      break;
    }
    case Op::Snapshot: {
      std::string Path = ::testing::TempDir() + "modify_fuzz_" +
                         std::to_string(S.Seed) + ".snap";
      std::remove(Path.c_str());
      Expected<size_t> Saved = E.Gen->saveSnapshot(Path);
      ASSERT_TRUE(Saved) << Saved.error().str();

      PlainEngine Restored(E.Gen->grammar());
      Expected<SnapshotLoadResult> Loaded = Restored.Gen->loadSnapshot(Path);
      std::remove(Path.c_str());
      ASSERT_TRUE(Loaded) << Loaded.error().str();
      EXPECT_TRUE(Loaded->FingerprintMatched)
          << "seed " << S.Seed << " step " << I;
      EXPECT_EQ(canonicalize(Restored.Gen->graph()),
                canonicalize(E.Gen->graph()))
          << "seed " << S.Seed << " step " << I;
      // Continue the rest of the script on the restored engine: the
      // remaining edits now hit the adopted / copy-on-write paths.
      E = std::move(Restored);
      break;
    }
    }
    if ((I + 1) % CheckEvery == 0) {
      verifyIndexEquivalence(E.Gen->graph());
      if (::testing::Test::HasFatalFailure())
        return;
    }
  }
  verifyIndexEquivalence(E.Gen->graph());
  verifyMatchesFreshGeneration(*E.Gen);
}

void replayServer(const Script &S) {
  Grammar Base;
  buildBaseGrammar(Base, S.Seed);
  GrammarServer Server(Base);

  // Background sessions hammer whatever epoch is current while the
  // script's edits fork new ones underneath them — the interleaving the
  // CI ThreadSanitizer job is pointed at. Their verdicts are not
  // asserted; each session answers for the epoch it pinned.
  std::atomic<bool> Stop{false};
  std::vector<std::thread> Workers;
  if (!S.Sentences.empty()) {
    for (unsigned T = 0; T < 2; ++T)
      Workers.emplace_back([&Server, &S, &Stop, T] {
        Prng R(S.Seed ^ (0x517cc1b727220a95ULL + T));
        while (!Stop.load(std::memory_order_acquire)) {
          ParseSession Session = Server.openSession();
          Session.recognize(S.Sentences[R.below(S.Sentences.size())]);
        }
      });
  }

  for (size_t I = 0; I < S.Ops.size(); ++I) {
    const Op &O = S.Ops[I];
    switch (O.Kind) {
    case Op::Add:
      Server.addRule(O.Lhs, std::vector<SymbolId>(O.Rhs));
      break;
    case Op::Delete:
      Server.removeRule(O.Lhs, O.Rhs);
      break;
    case Op::Parse: {
      ParseSession Session = Server.openSession();
      EarleyParser Earley(Session.epoch().grammar());
      EXPECT_EQ(Session.recognize(O.Input), Earley.recognize(O.Input))
          << "seed " << S.Seed << " step " << I;
      break;
    }
    case Op::Gc:
    case Op::Snapshot:
      break; // Plain-graph concepts; epochs checkpoint by forking.
    }
  }
  Stop.store(true, std::memory_order_release);
  for (std::thread &W : Workers)
    W.join();

  // The surviving epoch's shared graph answers like a from-scratch
  // generation over its (active-rule) grammar.
  std::shared_ptr<GraphEpoch> Epoch = Server.epoch();
  Grammar Fresh;
  Grammar::cloneActiveRules(Epoch->grammar(), Fresh);
  ItemSetGraph FreshGraph(Fresh);
  EXPECT_EQ(canonicalize(Epoch->graph()), canonicalize(FreshGraph))
      << "seed " << S.Seed;
}

/// Per-seed observability capture: when IPG_FUZZ_ARTIFACT_DIR is set (and
/// the tracer is compiled in), each replay records into a fresh trace
/// ring, so a failing seed can dump the event history of exactly its own
/// replay next to failing_seeds.txt. Construct at the top of a test body;
/// recordIfFailed() stops recording before any drain.
struct SeedArtifacts {
  SeedArtifacts() {
    if (std::getenv("IPG_FUZZ_ARTIFACT_DIR") != nullptr &&
        trace::compiledIn()) {
      trace::stop();
      trace::clear();
      trace::start();
    }
  }
  ~SeedArtifacts() { trace::stop(); }
};

/// Prints the repro line and records the seed for the CI artifact
/// upload (the fuzz-long workflow collects failing_seeds.txt), plus the
/// failing replay's trace ring and the process metrics registry — the
/// docs/TESTING.md triage bundle.
void recordIfFailed(uint64_t Seed) {
  const char *Dir = std::getenv("IPG_FUZZ_ARTIFACT_DIR");
  if (Dir != nullptr)
    trace::stop(); // Quiesce before any drain below.
  if (!::testing::Test::HasFailure())
    return;
  std::cerr << "[ModifyFuzz] failing seed " << Seed
            << " (reproduce: IPG_FUZZ_STEPS=" << fuzzSteps()
            << " ./ipg_modify_fuzz_test --gtest_filter='*ModifyFuzz*/"
            << (Seed - 1) << "')\n";
  if (Dir == nullptr)
    return;
  std::string Prefix = std::string(Dir) + "/";
  {
    std::ofstream Out(Prefix + "failing_seeds.txt", std::ios::app);
    Out << Seed << "\n";
  }
  std::string SeedTag = "seed-" + std::to_string(Seed);
  writeJsonFile(MetricsRegistry::process().toJson(),
                Prefix + "metrics-" + SeedTag + ".json");
  if (trace::compiledIn())
    trace::writeChromeTrace(Prefix + "trace-" + SeedTag + ".json");
}

class ModifyFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ModifyFuzz, PlainGraphReplay) {
  SeedArtifacts Artifacts;
  Script S = makeScript(GetParam(), fuzzSteps());
  ASSERT_EQ(S.Ops.size(), fuzzSteps());
  replayPlain(S, /*CheckEvery=*/25);
  recordIfFailed(GetParam());
}

TEST_P(ModifyFuzz, ServerEpochReplay) {
  SeedArtifacts Artifacts;
  Script S = makeScript(GetParam(), fuzzSteps());
  replayServer(S);
  recordIfFailed(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModifyFuzz,
                         ::testing::Range<uint64_t>(1, 1 + fuzzSeeds()));

} // namespace
