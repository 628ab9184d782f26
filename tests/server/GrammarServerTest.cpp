//===- tests/server/GrammarServerTest.cpp - Grammar server semantics ------===//
///
/// \file
/// Functional contract of the concurrent grammar server: epoch pinning
/// (sessions keep parsing the grammar they opened against), id stability
/// across epochs, no-op edit detection, epoch reclamation, the zero-copy
/// fork fast path, and equivalence of the served graph with a fresh
/// single-threaded generation for the same rules.
///
//===----------------------------------------------------------------------===//

#include "common/GraphCanon.h"
#include "common/TestGrammars.h"
#include "lr/GraphSnapshot.h"
#include "server/GrammarServer.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

using namespace ipg;
using namespace ipg::testing;

namespace {

TEST(GrammarServer, ServesInitialGrammar) {
  Grammar G;
  buildBooleans(G);
  GrammarServer Server(G);
  EXPECT_EQ(Server.generation(), 0u);
  EXPECT_EQ(Server.liveEpochs(), 1u);

  ParseSession S = Server.openSession();
  EXPECT_TRUE(S.recognize(sentence(G, "true or false")));
  EXPECT_FALSE(S.recognize(sentence(G, "true or")));
}

TEST(GrammarServer, ArgumentGrammarIsNotRetained) {
  GrammarServer *Server;
  {
    Grammar G;
    buildBooleans(G);
    Server = new GrammarServer(G);
  } // G destroyed; the server must have its own replica.
  ParseSession S = Server->openSession();
  const Grammar &Served = S.epoch().grammar();
  EXPECT_TRUE(S.recognize(sentence(Served, "true and false")));
  delete Server;
}

TEST(GrammarServer, SessionsPinTheirEpochAcrossEdits) {
  Grammar G;
  buildBooleans(G);
  G.symbols().intern("xor"); // Interned up front so epoch 0 can tokenize it.
  GrammarServer Server(G);

  ParseSession Old = Server.openSession();
  std::vector<SymbolId> Xor = sentence(Old.epoch().grammar(), "true xor true");

  EXPECT_TRUE(Server.addRule("B", {"B", "xor", "B"}));
  EXPECT_EQ(Server.generation(), 1u);

  // The pinned session still speaks the old language...
  EXPECT_EQ(Old.generation(), 0u);
  EXPECT_FALSE(Old.recognize(Xor));
  // ...while a new session speaks the edited one.
  ParseSession New = Server.openSession();
  EXPECT_EQ(New.generation(), 1u);
  EXPECT_TRUE(New.recognize(Xor));
}

TEST(GrammarServer, TokenIdsStayValidAcrossEpochs) {
  Grammar G;
  buildBooleans(G);
  GrammarServer Server(G);

  // Tokenize once against the first epoch.
  std::vector<SymbolId> Input =
      sentence(Server.epoch()->grammar(), "true or false and true");

  for (int Round = 0; Round < 4; ++Round) {
    ASSERT_TRUE(Server.addRule("B", {"B", "op" + std::to_string(Round), "B"}));
    ParseSession S = Server.openSession();
    // cloneExact preserved every SymbolId, so the old token stream parses
    // identically in every successor epoch.
    EXPECT_TRUE(S.recognize(Input)) << "generation " << S.generation();
  }
}

TEST(GrammarServer, NoOpEditsPublishNothing) {
  Grammar G;
  buildBooleans(G);
  GrammarServer Server(G);

  // Already-active rule (id- and name-based) and unknown-name deletion.
  SymbolId B = G.symbols().lookup("B");
  SymbolId True = G.symbols().lookup("true");
  EXPECT_FALSE(Server.addRule(B, {True}));
  EXPECT_FALSE(Server.addRule("B", {"true"}));
  EXPECT_FALSE(Server.removeRule("B", {"never_interned"}));
  EXPECT_FALSE(Server.removeRule("nosuchlhs", {"true"}));
  EXPECT_EQ(Server.generation(), 0u);
  EXPECT_EQ(Server.liveEpochs(), 1u);

  // A real edit, then deleting it again, are both real changes.
  EXPECT_TRUE(Server.removeRule("B", {"true"}));
  EXPECT_FALSE(Server.removeRule("B", {"true"}));
  EXPECT_TRUE(Server.addRule("B", {"true"}));
  EXPECT_EQ(Server.generation(), 2u);
}

TEST(GrammarServer, DisplacedEpochsAreReclaimed) {
  Grammar G;
  buildBooleans(G);
  GrammarServer Server(G);

  {
    ParseSession Pin = Server.openSession();
    ASSERT_TRUE(Server.addRule("B", {"B", "xor", "B"}));
    ASSERT_TRUE(Server.removeRule("B", {"false"}));
    // The pinned generation-0 epoch and the current one are alive; the
    // intermediate generation-1 epoch had no pins and is already gone.
    EXPECT_EQ(Server.liveEpochs(), 2u);
    EXPECT_TRUE(Pin.recognize(sentence(G, "false or false")));
  }
  // Dropping the session reclaims the displaced epoch.
  EXPECT_EQ(Server.liveEpochs(), 1u);
}

TEST(GrammarServer, ForkAdoptsPredecessorZeroCopy) {
  Grammar G;
  buildBooleans(G);
  GrammarServer Server(G);

  // Warm the first epoch so the fork has a real graph to carry over.
  ParseSession Warm = Server.openSession();
  ASSERT_TRUE(Warm.recognize(sentence(G, "true and true or false")));
  uint64_t Before = Warm.epoch().graph().stats().Expansions;
  ASSERT_GT(Before, 0u);

  ASSERT_TRUE(Server.addRule("B", {"B", "xor", "B"}));
  EXPECT_TRUE(Server.lastForkAdopted());

  // The successor's pools read through the fork buffer: the §6 repair
  // appends into the grow segments, so the adopted base (and its backing
  // mapping) stays installed.
  std::shared_ptr<GraphEpoch> Cur = Server.epoch();
  EXPECT_GT(Cur->graph().numAdoptedSets(), 0u);

  // The carried-over graph still parses the old language, and the fork
  // carried the predecessor's stats forward (saveV2 persists them).
  ParseSession S = Server.openSession();
  ASSERT_TRUE(S.recognize(sentence(G, "true and true or false")));
  EXPECT_GE(S.epoch().graph().stats().Expansions, Before);
}

TEST(GrammarServer, ServedGraphMatchesFreshGeneration) {
  Grammar G;
  RandomGrammarCase Case = buildRandomGrammar(G, /*Seed=*/7);
  GrammarServer Server(G);
  Prng R(0x5e12f00dULL);

  std::vector<SymbolId> Nts, Syms;
  for (SymbolId Sym = 0; Sym < G.symbols().size(); ++Sym) {
    if (Sym == G.endMarker() || Sym == G.startSymbol())
      continue;
    Syms.push_back(Sym);
    if (G.symbols().isNonterminal(Sym))
      Nts.push_back(Sym);
  }
  ASSERT_FALSE(Nts.empty());

  for (int Step = 0; Step < 12; ++Step) {
    if (R.below(2) == 0) {
      std::vector<SymbolId> Rhs;
      for (uint64_t I = 0, N = R.below(3); I < N; ++I)
        Rhs.push_back(Syms[R.below(Syms.size())]);
      Server.addRule(Nts[R.below(Nts.size())], std::move(Rhs));
    } else {
      ParseSession S = Server.openSession();
      S.recognize(Case.Positive[R.below(Case.Positive.size())]);
    }
  }

  // The epoch-chained, fork-adopted graph answers exactly like one
  // generated from scratch for the same active rules.
  std::shared_ptr<GraphEpoch> Cur = Server.epoch();
  Grammar Fresh;
  Grammar::cloneActiveRules(Cur->grammar(), Fresh);
  ItemSetGraph FreshGraph(Fresh);
  EXPECT_EQ(canonicalize(Cur->graph()), canonicalize(FreshGraph));
}

TEST(GrammarServer, ConcurrentSessionsShareOneGraph) {
  Grammar G;
  buildArith(G);
  GrammarServer Server(G);

  const std::vector<std::vector<SymbolId>> Inputs = {
      sentence(G, "id + id * id"),
      sentence(G, "( id + id ) * id"),
      sentence(G, "id * ( id )"),
      sentence(G, "id + + id"), // Rejected.
  };
  const std::vector<bool> Expect = {true, true, true, false};

  constexpr int NumThreads = 4;
  std::atomic<int> Failures{0};
  std::vector<std::thread> Threads;
  for (int T = 0; T < NumThreads; ++T) {
    Threads.emplace_back([&Server, &Inputs, &Expect, &Failures] {
      ParseSession S = Server.openSession();
      for (int Round = 0; Round < 25; ++Round)
        for (size_t I = 0; I < Inputs.size(); ++I)
          if (S.recognize(Inputs[I]) != Expect[I])
            Failures.fetch_add(1, std::memory_order_relaxed);
    });
  }
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Failures.load(), 0);

  // All sessions populated ONE graph; it matches a fresh generation.
  std::shared_ptr<GraphEpoch> Cur = Server.epoch();
  Grammar Fresh;
  Grammar::cloneActiveRules(Cur->grammar(), Fresh);
  ItemSetGraph FreshGraph(Fresh);
  EXPECT_EQ(canonicalize(Cur->graph()), canonicalize(FreshGraph));
}

TEST(GrammarServer, MetricsJsonShape) {
  Grammar G;
  buildBooleans(G);
  GrammarServer Server(G);

  // Serve a couple of parses, then fork once so the document has real
  // values in every field. The session lives in a scope so its epoch pin
  // can be released for the reclamation check at the end.
  JsonValue Doc;
  {
    ParseSession S = Server.openSession();
    std::vector<SymbolId> Input = sentence(Server.epoch()->grammar(), "true");
    EXPECT_TRUE(S.recognize(Input));
    EXPECT_TRUE(S.recognize(Input));
    ASSERT_TRUE(Server.addRule("B", {"not", "B"}));
    Doc = Server.metricsJson();
  }
  ASSERT_TRUE(Doc.isObject());
  EXPECT_EQ(Doc.find("generation")->asNumber(), 1.0);
  // The pinned session holds generation 0 alive alongside generation 1.
  EXPECT_EQ(Doc.find("live_epochs")->asNumber(), 2.0);
  EXPECT_EQ(Doc.find("oldest_live_generation")->asNumber(), 0.0);
  EXPECT_EQ(Doc.find("reclamation_lag")->asNumber(), 1.0);
  // Both parses hit the displaced epoch; the live tally still sees them.
  EXPECT_EQ(Doc.find("live_epoch_parses")->asNumber(), 2.0);
  EXPECT_EQ(Doc.find("epoch_parses")->asNumber(), 0.0);
  const JsonValue *GraphDoc = Doc.find("graph");
  ASSERT_NE(GraphDoc, nullptr);
  ASSERT_NE(GraphDoc->find("expansions"), nullptr);
  ASSERT_NE(GraphDoc->find("dirty_marks"), nullptr);
  // The process registry rides along, with the server's own counters.
  const JsonValue *Counters = Doc.find("process")->find("counters");
  ASSERT_NE(Counters, nullptr);
  const JsonValue *Sessions = Counters->find("ipg.server.sessions");
  ASSERT_NE(Sessions, nullptr);
  EXPECT_GE(Sessions->asNumber(), 1.0);
  ASSERT_NE(Counters->find("ipg.server.forks"), nullptr);
  ASSERT_NE(Doc.find("process")->find("histograms")->find("ipg.server.fork"),
            nullptr);

  // With the pinned session gone the displaced epoch reclaims; the
  // document converges back to one live epoch with zero lag.
  JsonValue After = Server.metricsJson();
  EXPECT_EQ(After.find("live_epochs")->asNumber(), 1.0);
  EXPECT_EQ(After.find("reclamation_lag")->asNumber(), 0.0);
}

} // namespace
