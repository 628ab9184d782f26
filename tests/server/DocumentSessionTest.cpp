//===- tests/server/DocumentSessionTest.cpp - Epoch migration -------------===//
///
/// \file
/// Contract of the epoch-pinned parse document: documents parse and edit
/// like plain ParseDocuments, pin their epoch while the server forks, and
/// migrate() carries the parse across MODIFY forks — verbatim when no
/// checkpoint touched an invalidated set, by bounded re-parse from the
/// first affected layer otherwise, from scratch only when the damage is
/// unknowable or total. Every migrated verdict is cross-checked against a
/// fresh session of the target epoch.
///
//===----------------------------------------------------------------------===//

#include "common/TestGrammars.h"
#include "server/DocumentSession.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

using namespace ipg;
using namespace ipg::testing;

namespace {

/// START ::= a a a X, X ::= x — an edit to X dirties only the item set
/// reached after the three a's (the one whose closure expands X), so a
/// parse of "a a a x" has affected layers only from 3 on.
void buildLateX(Grammar &G) {
  GrammarBuilder B(G);
  B.rule("START", {"a", "a", "a", "X"});
  B.rule("X", {"x"});
}

TEST(DocumentSession, ParsesAndEditsLikeAPlainDocument) {
  Grammar G;
  buildBooleans(G);
  GrammarServer Server(G);

  DocumentSession Session(Server);
  ParseDocument &Doc = Session.document();
  Doc.setTokens(sentence(Session.epoch().grammar(), "true or false"));
  EXPECT_TRUE(Doc.reparse().Accepted);

  SymbolId And = Session.epoch().grammar().symbols().lookup("and");
  Doc.replace(1, 2, ArrayView<SymbolId>(&And, 1));
  EXPECT_TRUE(Doc.reparse().Accepted);
  EXPECT_FALSE(Session.stale());
  EXPECT_EQ(Session.migrate(), DocumentSession::Migration::Current);
}

TEST(DocumentSession, UnaffectedParseSurvivesMigrationVerbatim) {
  Grammar G;
  buildBooleans(G);
  GrammarServer Server(G);

  DocumentSession Session(Server);
  Session.document().setTokens(
      sentence(Session.epoch().grammar(), "true and false or true"));
  ASSERT_TRUE(Session.document().reparse().Accepted);
  const uint64_t NodesBefore = Session.document().result().GssNodes;

  // Z is unreachable from START: no existing set's closure mentions it,
  // so the fork invalidates nothing the parse used.
  ASSERT_TRUE(Server.addRule("Z", {"z"}));
  EXPECT_TRUE(Session.stale());

  EXPECT_EQ(Session.migrate(), DocumentSession::Migration::Reused);
  EXPECT_EQ(Session.generation(), 1u);
  EXPECT_FALSE(Session.stale());

  // The verdict survived; a no-damage reparse is the cached one.
  EXPECT_TRUE(Session.document().result().Accepted);
  EXPECT_TRUE(Session.document().reparse().Accepted);
  EXPECT_EQ(Session.document().lastReparse().Path, ReparseStats::Unchanged);
  EXPECT_EQ(Session.document().result().GssNodes, NodesBefore);

  // And the migrated document really is on the new graph: later edits
  // parse against the pinned (new) epoch.
  ParseSession Fresh = Server.openSession();
  EXPECT_TRUE(Fresh.recognize(Session.document().view()));
}

TEST(DocumentSession, AffectedSuffixMigratesByBoundedReparse) {
  Grammar G;
  buildLateX(G);
  G.symbols().intern("y"); // So epoch-0 token streams can mention it.
  GrammarServer Server(G);

  DocumentSession Session(Server);
  Session.document().setTokens(
      sentence(Session.epoch().grammar(), "a a a x"));
  ASSERT_TRUE(Session.document().reparse().Accepted);

  // Dirties exactly the sets whose closure expands X — first met at
  // layer 3 of this parse.
  ASSERT_TRUE(Server.addRule("X", {"y"}));

  EXPECT_EQ(Session.migrate(), DocumentSession::Migration::Bounded);
  const GlrResult &R = Session.document().reparse();
  EXPECT_TRUE(R.Accepted);
  // Bounded evidence: the re-parse resumed from the checkpoint before
  // the first affected layer instead of token zero.
  EXPECT_EQ(Session.document().lastReparse().Path, ReparseStats::Resumed);
  EXPECT_EQ(Session.document().lastReparse().ResumedAt, 2u);

  // The document now speaks the new epoch's language: X ::= y.
  SymbolId Y = Session.epoch().grammar().symbols().lookup("y");
  ASSERT_NE(Y, InvalidSymbol);
  Session.document().replace(3, 4, ArrayView<SymbolId>(&Y, 1));
  EXPECT_TRUE(Session.document().reparse().Accepted);
}

TEST(DocumentSession, StartSetDamageFallsBackToFullReparse) {
  Grammar G;
  buildBooleans(G);
  G.symbols().intern("xor");
  GrammarServer Server(G);

  DocumentSession Session(Server);
  Session.document().setTokens(
      sentence(Session.epoch().grammar(), "true or false"));
  ASSERT_TRUE(Session.document().reparse().Accepted);

  // B is in the start set's closure: layer 0 is affected, nothing
  // survives.
  ASSERT_TRUE(Server.addRule("B", {"B", "xor", "B"}));
  EXPECT_EQ(Session.migrate(), DocumentSession::Migration::Full);

  // Tokens survive the fallback; the parse restarts from scratch.
  EXPECT_EQ(Session.document().size(), 3u);
  EXPECT_TRUE(Session.document().reparse().Accepted);
  EXPECT_EQ(Session.document().lastReparse().Path, ReparseStats::Scratch);

  // And the new language is in effect.
  std::vector<SymbolId> Xor =
      sentence(Session.epoch().grammar(), "true xor true");
  Session.document().setTokens(Xor);
  EXPECT_TRUE(Session.document().reparse().Accepted);
}

TEST(DocumentSession, SuspendedDocumentMigratesAndResumes) {
  Grammar G;
  buildBooleans(G);
  GrammarServer Server(G);

  DocumentSession Session(Server);
  Session.document().setTokens(
      sentence(Session.epoch().grammar(), "true and false or true"));
  ASSERT_TRUE(Session.document().advanceTo(2));
  ASSERT_TRUE(Session.document().suspended());

  ASSERT_TRUE(Server.addRule("Z", {"z"}));
  EXPECT_EQ(Session.migrate(), DocumentSession::Migration::Reused);

  // The suspended stack carried over; finish it on the new epoch.
  EXPECT_TRUE(Session.document().suspended());
  EXPECT_TRUE(Session.document().reparse().Accepted);
}

TEST(DocumentSession, ForkLogRolloverForcesFullReparse) {
  Grammar G;
  buildBooleans(G);
  GrammarServer Server(G);

  DocumentSession Session(Server);
  Session.document().setTokens(
      sentence(Session.epoch().grammar(), "true or false"));
  ASSERT_TRUE(Session.document().reparse().Accepted);

  // Push the bounded fork log past its window: the gap from generation 0
  // becomes unknowable and the migration must refuse to reuse anything.
  // (Two-step concat: "Z" + to_string trips GCC-12 -Wrestrict at -O3.)
  for (int I = 0; I < 70; ++I) {
    std::string Name = "Z";
    Name += std::to_string(I);
    ASSERT_TRUE(Server.addRule(Name, {"z"}));
  }

  EXPECT_EQ(Session.migrate(), DocumentSession::Migration::Full);
  EXPECT_TRUE(Session.document().reparse().Accepted);
}

TEST(DocumentSession, MigrateRacesWithForks) {
  Grammar G;
  buildBooleans(G);
  GrammarServer Server(G);

  DocumentSession Session(Server);
  Session.document().setTokens(
      sentence(Session.epoch().grammar(), "true and false or true"));
  ASSERT_TRUE(Session.document().reparse().Accepted);

  // A writer forks the server while the document migrates and reparses.
  // Every fork adds an unreachable rule, so whatever epoch a migration
  // lands on, the document's language — and verdict — is unchanged.
  std::thread Writer([&Server] {
    for (int I = 0; I < 40; ++I) {
      std::string Name = "W";
      Name += std::to_string(I);
      Server.addRule(Name, {"w"});
    }
  });
  for (int I = 0; I < 40; ++I) {
    Session.migrate();
    EXPECT_TRUE(Session.document().reparse().Accepted);
  }
  Writer.join();

  Session.migrate();
  EXPECT_TRUE(Session.document().reparse().Accepted);
  EXPECT_EQ(Session.generation(), Server.generation());
}

} // namespace
