//===- tests/incremental/ParseSnapshotTest.cpp - Suspended parses ---------===//
///
/// The PARS section round trip: a parse suspended mid-input, saved, and
/// resumed over a cloneExact replica must finish to the byte-identical
/// canonical forest; corrupted, truncated or grammar-mismatched files
/// must be rejected, and the rider must be invisible to plain v2
/// snapshot consumers.
///
//===----------------------------------------------------------------------===//

#include "incremental/ParseSnapshot.h"

#include "common/Corpus.h"
#include "common/ForestCanon.h"
#include "common/SnapshotReseal.h"
#include "common/TestGrammars.h"
#include "core/Ipg.h"
#include "support/MappedFile.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

using namespace ipg;
using namespace ipg::testing;

namespace {

/// A unique temp path per test, removed on destruction.
class TempFile {
public:
  explicit TempFile(const std::string &Stem) {
    Path = ::testing::TempDir() + "/" + Stem + "-" +
           std::to_string(reinterpret_cast<uintptr_t>(this)) + ".snap";
  }
  ~TempFile() { std::remove(Path.c_str()); }
  const std::string &str() const { return Path; }

private:
  std::string Path;
};

std::vector<SymbolId> pumpedJson(const Grammar &G, const CorpusCase &Case,
                                 unsigned Repeat) {
  std::string Text = Case.Bench.Prefix;
  for (unsigned I = 0; I < Repeat; ++I) {
    Text += ' ';
    Text += Case.Bench.Unit;
  }
  Text += ' ';
  Text += Case.Bench.Suffix;
  return sentence(G, Text);
}

CorpusCase loadJson(Grammar &G) {
  Expected<std::vector<CorpusCase>> Corpus = loadCorpusDir(IPG_CORPUS_DIR);
  EXPECT_TRUE(Corpus);
  for (const CorpusCase &Case : *Corpus)
    if (Case.Name == "json") {
      Expected<size_t> Built = Case.build(G);
      EXPECT_TRUE(Built);
      return Case;
    }
  ADD_FAILURE() << "json corpus grammar missing";
  return CorpusCase();
}

std::vector<char> readAll(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(In),
                           std::istreambuf_iterator<char>());
}

void writeAll(const std::string &Path, const std::vector<char> &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
}

TEST(ParseSnapshotTest, SuspendedRoundTripFinishesIdentically) {
  Grammar G;
  CorpusCase Case = loadJson(G);
  Ipg Gen(G);
  ParseDocument Doc(Gen.graph());
  std::vector<SymbolId> Tokens = pumpedJson(G, Case, 60);
  Doc.setTokens(Tokens);
  ASSERT_TRUE(Doc.advanceTo(Tokens.size() / 2));
  ASSERT_TRUE(Doc.suspended());

  TempFile Snap("pars-roundtrip");
  Expected<size_t> Saved = ParseSnapshot::save(Gen, Doc, Snap.str());
  ASSERT_TRUE(Saved) << (Saved ? "" : Saved.error().str());

  // Resume in a replica process: cloneExact preserves every id, which is
  // what lets the fingerprint gate pass.
  Grammar G2;
  Grammar::cloneExact(G, G2);
  Ipg Gen2(G2);
  Expected<std::unique_ptr<ParseDocument>> Doc2 =
      ParseSnapshot::resume(Gen2, Snap.str());
  ASSERT_TRUE(Doc2) << (Doc2 ? "" : Doc2.error().str());
  EXPECT_TRUE((*Doc2)->suspended());
  EXPECT_EQ((*Doc2)->position(), Tokens.size() / 2);
  EXPECT_EQ((*Doc2)->tokens(), Tokens);

  // Finish both; the acceptance criterion is a byte-identical canonical
  // forest, not merely an equal verdict.
  const GlrResult &A = Doc.reparse();
  const GlrResult &B = (*Doc2)->reparse();
  ASSERT_TRUE(A.Accepted);
  ASSERT_TRUE(B.Accepted);
  EXPECT_EQ(canonForest(A.Root), canonForest(B.Root));
  EXPECT_EQ(Doc.forest().countTrees(A.Root),
            (*Doc2)->forest().countTrees(B.Root));
  EXPECT_EQ(A.GssNodes, B.GssNodes);
  EXPECT_EQ(A.GssEdges, B.GssEdges);
}

TEST(ParseSnapshotTest, ResumedDocumentSupportsBoundedReparse) {
  Grammar G;
  CorpusCase Case = loadJson(G);
  Ipg Gen(G);
  ParseDocument Doc(Gen.graph());
  Doc.setTokens(pumpedJson(G, Case, 60));
  ASSERT_TRUE(Doc.reparse().Accepted);

  TempFile Snap("pars-edit");
  ASSERT_TRUE(ParseSnapshot::save(Gen, Doc, Snap.str()));

  Grammar G2;
  Grammar::cloneExact(G, G2);
  Ipg Gen2(G2);
  Expected<std::unique_ptr<ParseDocument>> Doc2 =
      ParseSnapshot::resume(Gen2, Snap.str());
  ASSERT_TRUE(Doc2) << (Doc2 ? "" : Doc2.error().str());

  // A finished parse resumed elsewhere keeps its checkpoints: an edit
  // re-parses bounded, not from scratch.
  const SymbolId True = G2.symbols().lookup("true");
  const SymbolId Number = G2.symbols().lookup("number");
  size_t Mid = (*Doc2)->size() / 2;
  while ((*Doc2)->tokens()[Mid] != Number)
    ++Mid;
  (*Doc2)->replace(Mid, Mid + 1, ArrayView<SymbolId>(&True, 1));
  ASSERT_TRUE((*Doc2)->reparse().Accepted);
  EXPECT_EQ((*Doc2)->lastReparse().Path, ReparseStats::Grafted);

  // Against a from-scratch parse of the edited buffer.
  GlrParser Ref(Gen2.graph());
  Forest RF;
  GlrResult R = Ref.parse(TokenView((*Doc2)->tokens()), RF);
  ASSERT_TRUE(R.Accepted);
  EXPECT_EQ(canonForest(R.Root), canonForest((*Doc2)->result().Root));
}

TEST(ParseSnapshotTest, GraftedDocumentRoundTrips) {
  Grammar G;
  CorpusCase Case = loadJson(G);
  Ipg Gen(G);
  ParseDocument Doc(Gen.graph());
  Doc.setTokens(pumpedJson(G, Case, 60));
  ASSERT_TRUE(Doc.reparse().Accepted);

  // A grafted re-parse moves old GSS layers and forest spans in place;
  // the saved parse must still satisfy every invariant resume checks.
  const SymbolId True = G.symbols().lookup("true");
  const SymbolId Number = G.symbols().lookup("number");
  size_t Mid = Doc.size() / 3;
  while (Doc.tokens()[Mid] != Number)
    ++Mid;
  Doc.replace(Mid, Mid + 1, ArrayView<SymbolId>(&True, 1));
  ASSERT_TRUE(Doc.reparse().Accepted);
  ASSERT_EQ(Doc.lastReparse().Path, ReparseStats::Grafted);

  TempFile Snap("pars-grafted");
  ASSERT_TRUE(ParseSnapshot::save(Gen, Doc, Snap.str()));
  Grammar G2;
  Grammar::cloneExact(G, G2);
  Ipg Gen2(G2);
  Expected<std::unique_ptr<ParseDocument>> Doc2 =
      ParseSnapshot::resume(Gen2, Snap.str());
  ASSERT_TRUE(Doc2) << (Doc2 ? "" : Doc2.error().str());
  EXPECT_EQ(canonForest((*Doc2)->result().Root),
            canonForest(Doc.result().Root));
}

TEST(ParseSnapshotTest, FinishedRoundTripKeepsVerdict) {
  Grammar G;
  buildAmbiguousExpr(G);
  Ipg Gen(G);
  ParseDocument Doc(Gen.graph());
  Doc.setTokens(sentence(G, "a + a + a + a"));
  ASSERT_TRUE(Doc.reparse().Accepted);
  const uint64_t Trees = Doc.forest().countTrees(Doc.result().Root);
  const std::string Canon = canonForest(Doc.result().Root);

  TempFile Snap("pars-finished");
  ASSERT_TRUE(ParseSnapshot::save(Gen, Doc, Snap.str()));

  Grammar G2;
  Grammar::cloneExact(G, G2);
  Ipg Gen2(G2);
  Expected<std::unique_ptr<ParseDocument>> Doc2 =
      ParseSnapshot::resume(Gen2, Snap.str());
  ASSERT_TRUE(Doc2) << (Doc2 ? "" : Doc2.error().str());
  EXPECT_FALSE((*Doc2)->suspended());
  // The verdict survives without any reparse.
  EXPECT_TRUE((*Doc2)->result().Accepted);
  EXPECT_EQ((*Doc2)->forest().countTrees((*Doc2)->result().Root), Trees);
  EXPECT_EQ(canonForest((*Doc2)->result().Root), Canon);
  // And an explicit reparse is the free Unchanged path.
  (*Doc2)->reparse();
  EXPECT_EQ((*Doc2)->lastReparse().Path, ReparseStats::Unchanged);
}

TEST(ParseSnapshotTest, SaveRequiresQuiescentDocument) {
  Grammar G;
  buildBooleans(G);
  Ipg Gen(G);
  TempFile Snap("pars-quiescent");

  // Idle: nothing parsed yet.
  ParseDocument Idle(Gen.graph());
  Idle.setTokens(sentence(G, "true"));
  EXPECT_FALSE(ParseSnapshot::save(Gen, Idle, Snap.str()));

  // Pending damage: edits not yet reparsed.
  ParseDocument Dirty(Gen.graph());
  Dirty.setTokens(sentence(G, "true and false"));
  Dirty.reparse();
  Dirty.erase(0, 1);
  EXPECT_FALSE(ParseSnapshot::save(Gen, Dirty, Snap.str()));

  // A document over a different graph than the saving generator's.
  Grammar GOther;
  buildBooleans(GOther);
  Ipg GenOther(GOther);
  ParseDocument Foreign(GenOther.graph());
  Foreign.setTokens(sentence(GOther, "true"));
  Foreign.reparse();
  EXPECT_FALSE(ParseSnapshot::save(Gen, Foreign, Snap.str()));
}

TEST(ParseSnapshotTest, RejectsCorruptedAndTruncatedSections) {
  Grammar G;
  CorpusCase Case = loadJson(G);
  Ipg Gen(G);
  ParseDocument Doc(Gen.graph());
  std::vector<SymbolId> Tokens = pumpedJson(G, Case, 30);
  Doc.setTokens(Tokens);
  ASSERT_TRUE(Doc.advanceTo(Tokens.size() / 2));

  TempFile Snap("pars-corrupt");
  ASSERT_TRUE(ParseSnapshot::save(Gen, Doc, Snap.str()));
  const std::vector<char> Good = readAll(Snap.str());
  ASSERT_GT(Good.size(), 200u);

  // Flip one byte near the end — inside the PARS rider. The payload
  // checksum must reject the file.
  {
    std::vector<char> Bad = Good;
    Bad[Bad.size() - 40] = static_cast<char>(Bad[Bad.size() - 40] ^ 0x5a);
    writeAll(Snap.str(), Bad);
    Grammar G2;
    Grammar::cloneExact(G, G2);
    Ipg Gen2(G2);
    EXPECT_FALSE(ParseSnapshot::resume(Gen2, Snap.str()));
  }

  // Truncate the rider: also a checksum failure, never a crash.
  {
    std::vector<char> Bad(Good.begin(), Good.end() - 16);
    writeAll(Snap.str(), Bad);
    Grammar G2;
    Grammar::cloneExact(G, G2);
    Ipg Gen2(G2);
    EXPECT_FALSE(ParseSnapshot::resume(Gen2, Snap.str()));
  }

  // Intact file still resumes (the harness itself is not the problem).
  {
    writeAll(Snap.str(), Good);
    Grammar G2;
    Grammar::cloneExact(G, G2);
    Ipg Gen2(G2);
    EXPECT_TRUE(ParseSnapshot::resume(Gen2, Snap.str()));
  }
}

TEST(ParseSnapshotTest, ResumeRequiresExactGrammar) {
  Grammar G;
  buildBooleans(G);
  Ipg Gen(G);
  ParseDocument Doc(Gen.graph());
  Doc.setTokens(sentence(G, "true or false"));
  ASSERT_TRUE(Doc.reparse().Accepted);
  TempFile Snap("pars-mismatch");
  ASSERT_TRUE(ParseSnapshot::save(Gen, Doc, Snap.str()));

  // A grammar with one extra rule: loadSnapshot would repair it, but a
  // suspended stack must not resume over a repaired graph.
  Grammar G2;
  buildBooleans(G2);
  Ipg Gen2(G2);
  Gen2.addRule("B", {"maybe"});
  EXPECT_FALSE(ParseSnapshot::resume(Gen2, Snap.str()));
}

TEST(ParseSnapshotTest, RiderIsInvisibleToPlainLoads) {
  Grammar G;
  buildArith(G);
  Ipg Gen(G);
  ParseDocument Doc(Gen.graph());
  Doc.setTokens(sentence(G, "id + id * id"));
  ASSERT_TRUE(Doc.reparse().Accepted);
  TempFile Snap("pars-rider");
  ASSERT_TRUE(ParseSnapshot::save(Gen, Doc, Snap.str()));

  // A plain warm start ignores the trailing PARS section entirely.
  Grammar G2;
  Grammar::cloneExact(G, G2);
  Ipg Gen2(G2);
  Expected<SnapshotLoadResult> Load = Gen2.loadSnapshot(Snap.str());
  ASSERT_TRUE(Load) << (Load ? "" : Load.error().str());
  EXPECT_TRUE(Load->FingerprintMatched);
  EXPECT_TRUE(Gen2.recognize(sentence(G2, "id + id")));
}

TEST(ParseSnapshotTest, MissingRiderAndV1AreErrors) {
  Grammar G;
  buildBooleans(G);
  Ipg Gen(G);
  ASSERT_TRUE(Gen.recognize(sentence(G, "true")));
  TempFile Snap("pars-missing");

  // A plain snapshot has no PARS rider to resume from.
  ASSERT_TRUE(Gen.saveSnapshot(Snap.str()));
  Grammar G2;
  Grammar::cloneExact(G, G2);
  Ipg Gen2(G2);
  EXPECT_FALSE(ParseSnapshot::resume(Gen2, Snap.str()));

  // And a file in the retired ipg-snap-v1 container is rejected by name,
  // leaving the generator usable.
  std::vector<uint8_t> V1(11 + 3 * 8, 0);
  std::memcpy(V1.data(), "ipg-snap-v1", 11);
  ASSERT_TRUE(writeBytesToFileAtomic(Snap.str(), V1.data(), V1.size()));
  Expected<std::unique_ptr<ParseDocument>> Resumed =
      ParseSnapshot::resume(Gen2, Snap.str());
  ASSERT_FALSE(Resumed);
  EXPECT_NE(Resumed.error().Message.find("ipg-snap-v1"), std::string::npos)
      << Resumed.error().str();
  EXPECT_TRUE(Gen2.recognize(sentence(G2, "true")));
}

/// The byte range [Begin, End) of the PARS body in the snapshot image
/// \p File: its frame is the first one behind GRPH.
std::pair<size_t, size_t> parsBody(const std::vector<uint8_t> &File) {
  auto Le64 = [&](size_t Off) {
    uint64_t Value = 0;
    for (int I = 0; I < 8; ++I)
      Value |= static_cast<uint64_t>(File[Off + static_cast<size_t>(I)])
               << (8 * I);
    return static_cast<size_t>(Value);
  };
  const size_t Frame = (Le64(48) + Le64(56) + 7) & ~size_t{7};
  EXPECT_EQ(Le64(Frame) & 0xffffffffu, SnapshotParsTag);
  return {Frame + 16, Frame + 16 + Le64(Frame + 8)};
}

/// Resumes \p Path over a replica of \p G. A rejected file yields null;
/// an accepted one must finish its parse.
std::unique_ptr<ParseDocument> resumeAndFinish(const Grammar &G,
                                               const std::string &Path) {
  Grammar G2;
  Grammar::cloneExact(G, G2);
  Ipg Gen2(G2);
  Expected<std::unique_ptr<ParseDocument>> Doc =
      ParseSnapshot::resume(Gen2, Path);
  if (!Doc)
    return nullptr;
  const GlrResult &R = (*Doc)->reparse();
  if (R.Root)
    (void)(*Doc)->forest().countTrees(R.Root);
  return Doc.take();
}

/// Flips bit 0 and bit 7 of every PARS body byte of the file at \p Path,
/// one mutation at a time, reseals the checksums so each reaches the
/// decoder, and resumes. Each must be rejected or finish its parse.
void sweepParsBody(const Grammar &G, const std::string &Path) {
  Expected<std::vector<uint8_t>> Good = readFileBytes(Path);
  ASSERT_TRUE(Good);
  const auto [Begin, End] = parsBody(*Good);
  ASSERT_EQ(End, Good->size());
  size_t Rejected = 0;
  for (size_t I = Begin; I < End; ++I)
    for (uint8_t Mask : {uint8_t{0x01}, uint8_t{0x80}}) {
      std::vector<uint8_t> Bad = *Good;
      Bad[I] = static_cast<uint8_t>(Bad[I] ^ Mask);
      resealV2(Bad);
      ASSERT_TRUE(writeBytesToFileAtomic(Path, Bad.data(), Bad.size()));
      SCOPED_TRACE(::testing::Message()
                   << "body byte " << I - Begin << " ^ " << int{Mask});
      if (!resumeAndFinish(G, Path))
        ++Rejected;
    }
  // The version byte alone rejects two mutations; the index fields many
  // more.
  EXPECT_GT(Rejected, (End - Begin) / 4);

  // The intact file still resumes.
  ASSERT_TRUE(writeBytesToFileAtomic(Path, Good->data(), Good->size()));
  EXPECT_TRUE(resumeAndFinish(G, Path));
}

TEST(ParseSnapshotTest, ResealedBodyMutationsAreRejectedOrFinish) {
  Grammar G;
  buildBooleans(G);
  Ipg Gen(G);
  const std::vector<SymbolId> Tokens =
      sentence(G, "true or false and true or false");

  ParseDocument Suspended(Gen.graph());
  Suspended.setTokens(Tokens);
  ASSERT_TRUE(Suspended.advanceTo(4));
  ASSERT_TRUE(Suspended.suspended());
  TempFile SuspendedSnap("pars-sweep-suspended");
  ASSERT_TRUE(ParseSnapshot::save(Gen, Suspended, SuspendedSnap.str()));
  sweepParsBody(G, SuspendedSnap.str());

  ParseDocument Finished(Gen.graph());
  Finished.setTokens(Tokens);
  ASSERT_TRUE(Finished.reparse().Accepted);
  TempFile FinishedSnap("pars-sweep-finished");
  ASSERT_TRUE(ParseSnapshot::save(Gen, Finished, FinishedSnap.str()));
  sweepParsBody(G, FinishedSnap.str());
}

TEST(ParseSnapshotTest, StackStateOffItsEdgeTransitionIsRejected) {
  // Found by the sweep above: a GSS node whose state id is flipped to
  // another live state resumed, and the next reduction through it hit a
  // GOTO the graph does not have.
  Grammar G;
  buildBooleans(G);
  Ipg Gen(G);
  ParseDocument Doc(Gen.graph());
  Doc.setTokens(sentence(G, "true or false and true"));
  ASSERT_TRUE(Doc.advanceTo(3));
  TempFile Snap("pars-bad-state");
  ASSERT_TRUE(ParseSnapshot::save(Gen, Doc, Snap.str()));

  Expected<std::vector<uint8_t>> File = readFileBytes(Snap.str());
  ASSERT_TRUE(File);
  const size_t Body = parsBody(*File).first;
  auto U32 = [&](size_t Off) {
    uint32_t Value = 0;
    for (int I = 0; I < 4; ++I)
      Value |= static_cast<uint32_t>((*File)[Off + static_cast<size_t>(I)])
               << (8 * I);
    return Value;
  };
  // Header: NumGssNodes at 24, NumEdges at 28, the GSS array's offset at
  // 136; records are {State, Layer, FirstEdge}. Give the first node with
  // an edge the start state, which no transition enters.
  const uint32_t NumGss = U32(Body + 24), NumEdges = U32(Body + 28);
  const size_t Stack = Body + U32(Body + 136);
  const uint32_t StartState = Gen.graph().startSet()->id();
  size_t Victim = NumGss;
  for (uint32_t I = 0; I < NumGss && Victim == NumGss; ++I) {
    const uint32_t End = I + 1 < NumGss ? U32(Stack + 12 * (I + 1) + 8)
                                        : NumEdges;
    if (End > U32(Stack + 12 * I + 8))
      Victim = I;
  }
  ASSERT_LT(Victim, NumGss);
  for (int I = 0; I < 4; ++I)
    (*File)[Stack + 12 * Victim + static_cast<size_t>(I)] =
        static_cast<uint8_t>(StartState >> (8 * I));
  resealV2(*File);
  ASSERT_TRUE(writeBytesToFileAtomic(Snap.str(), File->data(), File->size()));

  Grammar G2;
  Grammar::cloneExact(G, G2);
  Ipg Gen2(G2);
  Expected<std::unique_ptr<ParseDocument>> Resumed =
      ParseSnapshot::resume(Gen2, Snap.str());
  ASSERT_FALSE(Resumed);
  EXPECT_NE(Resumed.error().Message.find("not a transition"),
            std::string::npos)
      << Resumed.error().str();
}

TEST(ParseSnapshotTest, NonterminalTokenIsRejected) {
  // Found by the sweep above under a Debug build: a token past the
  // suspension point flipped to a nonterminal's id resumed, and the next
  // step asked ACTION of a nonterminal.
  Grammar G;
  buildBooleans(G);
  Ipg Gen(G);
  ParseDocument Doc(Gen.graph());
  Doc.setTokens(sentence(G, "true or false and true"));
  ASSERT_TRUE(Doc.advanceTo(2));
  TempFile Snap("pars-bad-token");
  ASSERT_TRUE(ParseSnapshot::save(Gen, Doc, Snap.str()));

  Expected<std::vector<uint8_t>> File = readFileBytes(Snap.str());
  ASSERT_TRUE(File);
  const size_t Body = parsBody(*File).first;
  // The token array's offset is the first entry of the header's offset
  // table (body offset 104); the last token is not parsed yet.
  size_t Tokens = Body;
  for (int I = 0; I < 8; ++I)
    Tokens += static_cast<size_t>((*File)[Body + 104 + static_cast<size_t>(I)])
              << (8 * I);
  const SymbolId B = G.symbols().lookup("B");
  ASSERT_FALSE(G.symbols().isTerminal(B));
  for (int I = 0; I < 4; ++I)
    (*File)[Tokens + 4 * 4 + static_cast<size_t>(I)] =
        static_cast<uint8_t>(B >> (8 * I));
  resealV2(*File);
  ASSERT_TRUE(writeBytesToFileAtomic(Snap.str(), File->data(), File->size()));

  Grammar G2;
  Grammar::cloneExact(G, G2);
  Ipg Gen2(G2);
  Expected<std::unique_ptr<ParseDocument>> Resumed =
      ParseSnapshot::resume(Gen2, Snap.str());
  ASSERT_FALSE(Resumed);
  EXPECT_NE(Resumed.error().Message.find("not a terminal"), std::string::npos)
      << Resumed.error().str();
}

TEST(ParseSnapshotTest, Version1RiderIsRejectedByName) {
  Grammar G;
  buildBooleans(G);
  Ipg Gen(G);
  ASSERT_TRUE(Gen.recognize(sentence(G, "true")));
  TempFile Snap("pars-v1-rider");

  // A version-1 (varint) body of an empty suspended parse: version 1,
  // suspended, not resumed, position 0, no tokens, no forest, one stack
  // node (start state, layer 0) without edges, no records, the frontier
  // and root on that node, and a zeroed result.
  std::vector<SnapshotExtraSection> Extras(1);
  Extras[0].Tag = SnapshotParsTag;
  Extras[0].Bytes = {0x01, 0x01, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00,
                     0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00,
                     0x00, 0x00, 0x00, 0x00, 0x00, 0x00};
  ASSERT_TRUE(Gen.saveSnapshot(Snap.str(), Extras));

  Grammar G2;
  Grammar::cloneExact(G, G2);
  Ipg Gen2(G2);
  Expected<std::unique_ptr<ParseDocument>> Resumed =
      ParseSnapshot::resume(Gen2, Snap.str());
  ASSERT_FALSE(Resumed);
  EXPECT_NE(Resumed.error().Message.find("unsupported suspended-parse version"),
            std::string::npos)
      << Resumed.error().str();
  EXPECT_TRUE(Gen2.recognize(sentence(G2, "true")));
}

} // namespace
