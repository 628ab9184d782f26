//===- incremental/ParseSnapshot.cpp - Suspended parses on disk -----------===//
///
/// Encodes a ParseDocument as the PARS extra section of an `ipg-snap-v2`
/// container and rebuilds one from it. The encoding is a ByteStream
/// varint record; indices replace pointers: item sets by their stable
/// graph id, GSS nodes and forest nodes by their position in the
/// serialized order. Only the *live* parse is written — GSS nodes are the
/// back-edge closure of the checkpoint records, the frontier and the
/// root (the arena's abandoned branches are garbage), and forest nodes
/// are the child closure of the derivations those GSS edges carry (stale
/// pre-edit nodes are unreachable and stay behind). That keeps resumed
/// sessions from resurrecting invalidated packing targets: everything
/// rebuilt is consistent with the saved token buffer, so the fresh
/// forest re-indexes all of it at epoch zero.
///
//===----------------------------------------------------------------------===//

#include "incremental/ParseSnapshot.h"

#include "core/Ipg.h"

#include <unordered_map>
#include <unordered_set>

using namespace ipg;

namespace {

/// PARS body format version.
constexpr uint64_t ParsVersion = 1;

/// Wire values of ParseDocument's state (Idle is not serializable).
constexpr uint8_t ParsSuspended = 1;
constexpr uint8_t ParsFinished = 2;

} // namespace

Expected<size_t> ParseSnapshot::save(const Ipg &Gen, const ParseDocument &Doc,
                                     const std::string &Path) {
  if (&Doc.graph() != &Gen.graph())
    return Error("document does not parse against this generator's graph");
  if (Doc.State == ParseDocument::ParseState::Idle)
    return Error("document has no parse to suspend (nothing parsed yet)");
  if (Doc.Dmg.Pending)
    return Error(
        "document has un-reparsed edits; call reparse() or advanceTo() first");

  const GssEngine &Eng = Doc.Engine;

  // The live GSS: back-edge closure of records ∪ frontier ∪ root, in
  // deterministic discovery order. The arena also holds abandoned
  // branches and pre-restore generations; those are not part of the
  // parse and are not written.
  std::vector<const GssNode *> Stack;
  std::unordered_map<const GssNode *, uint32_t> StackIdx;
  auto AddStack = [&](const GssNode *Node) {
    if (Node && StackIdx.emplace(Node, Stack.size()).second)
      Stack.push_back(Node);
  };
  for (size_t K = 0; K < Eng.records().size(); ++K)
    for (const GssNode *Node : Eng.records()[K])
      AddStack(Node);
  for (const GssNode *Node : Eng.frontier())
    AddStack(Node);
  AddStack(Eng.root());
  for (size_t I = 0; I < Stack.size(); ++I)
    for (const GssNode::Edge &E : Stack[I]->Edges)
      AddStack(E.Back);

  // The live forest: child closure of the derivations on those edges
  // (plus the acceptance root), then filtered through creation order so
  // indices are stable and shared children precede nothing they need.
  std::unordered_set<const ForestNode *> Reached;
  std::vector<const ForestNode *> Work;
  auto AddReached = [&](const ForestNode *Node) {
    if (Node && Reached.insert(Node).second)
      Work.push_back(Node);
  };
  for (const GssNode *Node : Stack)
    for (const GssNode::Edge &E : Node->Edges)
      AddReached(E.Deriv);
  AddReached(Eng.result().Root);
  for (size_t I = 0; I < Work.size(); ++I)
    for (const ForestNode::Alternative &Alt : Work[I]->Alts)
      for (const ForestNode *Child : Alt.Children)
        AddReached(Child);
  std::vector<const ForestNode *> FNodes;
  std::unordered_map<const ForestNode *, uint32_t> FIdx;
  Doc.F.forEachNode([&](const ForestNode &Node) {
    if (Reached.count(&Node)) {
      FIdx.emplace(&Node, static_cast<uint32_t>(FNodes.size()));
      FNodes.push_back(&Node);
    }
  });

  ByteWriter Body;
  Body.writeVarint(ParsVersion);
  Body.writeU8(Doc.State == ParseDocument::ParseState::Finished ? ParsFinished
                                                                : ParsSuspended);
  Body.writeU8(Eng.resumed() ? 1 : 0);
  Body.writeVarint(Eng.position());
  Body.writeVarint(Doc.Tokens.size());
  for (SymbolId Tok : Doc.Tokens)
    Body.writeVarint(Tok);

  // Forest, two-phase: every shell first, then the alternatives (cyclic
  // forests need all targets to exist before any child list decodes).
  Body.writeVarint(FNodes.size());
  for (const ForestNode *Node : FNodes) {
    Body.writeVarint(Node->Sym);
    Body.writeVarint(Node->Start);
    Body.writeVarint(Node->End);
    Body.writeU8(Node->IsToken ? 1 : 0);
  }
  for (const ForestNode *Node : FNodes) {
    Body.writeVarint(Node->Alts.size());
    for (const ForestNode::Alternative &Alt : Node->Alts) {
      Body.writeVarint(Alt.Rule);
      Body.writeVarint(Alt.Children.size());
      for (const ForestNode *Child : Alt.Children)
        Body.writeVarint(FIdx.at(Child));
    }
  }

  // GSS, same two-phase shape: states by stable id, then the edges.
  Body.writeVarint(Stack.size());
  for (const GssNode *Node : Stack) {
    Body.writeVarint(Node->State->id());
    Body.writeVarint(Node->Layer);
  }
  for (const GssNode *Node : Stack) {
    Body.writeVarint(Node->Edges.size());
    for (const GssNode::Edge &E : Node->Edges) {
      auto Deriv = FIdx.find(E.Deriv);
      if (Deriv == FIdx.end())
        return Error("suspended parse has a GSS edge with no derivation");
      Body.writeVarint(StackIdx.at(E.Back));
      Body.writeVarint(Deriv->second);
    }
  }

  // Checkpoint records, the frontier and the root, as stack indices.
  Body.writeVarint(Eng.records().size());
  for (size_t K = 0; K < Eng.records().size(); ++K) {
    Body.writeVarint(Eng.records()[K].size());
    for (const GssNode *Node : Eng.records()[K])
      Body.writeVarint(StackIdx.at(Node));
  }
  Body.writeVarint(Eng.frontier().size());
  for (const GssNode *Node : Eng.frontier())
    Body.writeVarint(StackIdx.at(Node));
  Body.writeVarint(StackIdx.at(Eng.root()));

  // The engine's cumulative result record (stats plus, when finished,
  // the verdict).
  const GlrResult &Res = Eng.result();
  Body.writeU8(Res.Accepted ? 1 : 0);
  Body.writeVarint(Res.Root ? FIdx.at(Res.Root) + 1 : 0);
  Body.writeVarint(Res.ErrorIndex);
  Body.writeVarint(Res.GssNodes);
  Body.writeVarint(Res.GssEdges);
  Body.writeVarint(Res.Shifts);
  Body.writeVarint(Res.Reductions);
  Body.writeVarint(Res.ReductionPaths);

  std::vector<SnapshotExtraSection> Extras(1);
  Extras[0].Tag = SnapshotParsTag;
  Extras[0].Bytes = Body.buffer();
  return Gen.saveSnapshot(Path, Extras);
}

Expected<std::unique_ptr<ParseDocument>>
ParseSnapshot::resume(Ipg &Gen, const std::string &Path) {
  // Graph first: the GSS below is all state *ids*, which only mean the
  // same item sets if the graph is rebuilt exactly as saved. A repaired
  // (fingerprint-mismatched) load gives no such guarantee — and a
  // suspended stack over a different grammar is not worth continuing.
  // The PARS section comes out of the same mapping, checksummed once.
  std::vector<uint8_t> Body;
  Expected<SnapshotLoadResult> Load =
      Gen.loadSnapshot(Path, SnapshotParsTag, Body);
  if (!Load)
    return Load.error();
  if (!Load->FingerprintMatched)
    return Error("suspended parse requires an exact grammar match "
                 "(snapshot grammar differs from the saved one)");
  ByteReader R(Body.data(), Body.size());

  Expected<uint64_t> Version = R.readVarint();
  if (!Version)
    return Version.error();
  if (*Version != ParsVersion)
    return Error("unsupported suspended-parse version");
  Expected<uint8_t> StateByte = R.readU8();
  Expected<uint8_t> ResumedByte = R.readU8();
  Expected<uint64_t> Pos = R.readVarint();
  Expected<uint64_t> NumTokens = R.readVarint();
  if (!StateByte || !ResumedByte || !Pos || !NumTokens)
    return Error("truncated suspended-parse section");
  if ((*StateByte != ParsSuspended && *StateByte != ParsFinished) ||
      *ResumedByte > 1)
    return Error("malformed suspended-parse state");
  const bool Finished = *StateByte == ParsFinished;
  const bool WasResumed = *ResumedByte != 0;
  if (*NumTokens > R.remaining() || *Pos > *NumTokens)
    return Error("malformed suspended-parse position");
  const size_t N = static_cast<size_t>(*NumTokens);

  ItemSetGraph &Graph = Gen.graph();
  Grammar &G = Gen.grammar();
  std::vector<SymbolId> Tokens;
  Tokens.reserve(N);
  for (size_t I = 0; I < N; ++I) {
    Expected<uint64_t> Tok = R.readVarint();
    if (!Tok)
      return Tok.error();
    if (*Tok >= G.symbols().size())
      return Error("suspended-parse token out of range");
    Tokens.push_back(static_cast<SymbolId>(*Tok));
  }

  auto Doc = std::make_unique<ParseDocument>(Graph);
  Doc->Tokens = std::move(Tokens);

  // Forest shells, then alternatives. Every node is complete when its
  // alternatives land, so it is published to the packing index
  // immediately — future derivations of a resumed parse pack onto it.
  Expected<uint64_t> NumForest = R.readVarint();
  if (!NumForest)
    return NumForest.error();
  if (*NumForest > R.remaining())
    return Error("malformed suspended-parse forest");
  Forest &F = Doc->F;
  std::vector<ForestNode *> FNodes;
  FNodes.reserve(static_cast<size_t>(*NumForest));
  std::vector<uint8_t> IsTokenNode(static_cast<size_t>(*NumForest), 0);
  for (size_t I = 0; I < *NumForest; ++I) {
    Expected<uint64_t> Sym = R.readVarint();
    Expected<uint64_t> Start = R.readVarint();
    Expected<uint64_t> End = R.readVarint();
    Expected<uint8_t> IsToken = R.readU8();
    if (!Sym || !Start || !End || !IsToken)
      return Error("truncated suspended-parse forest");
    if (*Sym >= G.symbols().size() || *IsToken > 1 || *Start > *End ||
        *End > N)
      return Error("malformed suspended-parse forest node");
    if (*IsToken &&
        (*End != *Start + 1 ||
         Doc->Tokens[static_cast<size_t>(*Start)] !=
             static_cast<SymbolId>(*Sym)))
      return Error("suspended-parse token node disagrees with the buffer");
    IsTokenNode[I] = static_cast<uint8_t>(*IsToken);
    ForestNode *Node = F.restoreNode(static_cast<SymbolId>(*Sym),
                                     static_cast<uint32_t>(*Start),
                                     static_cast<uint32_t>(*End),
                                     *IsToken != 0);
    F.indexRestored(Node);
    FNodes.push_back(Node);
  }
  std::vector<ForestNode *> Children;
  for (size_t I = 0; I < FNodes.size(); ++I) {
    Expected<uint64_t> NumAlts = R.readVarint();
    if (!NumAlts)
      return NumAlts.error();
    if (IsTokenNode[I] && *NumAlts != 0)
      return Error("suspended-parse token node carries derivations");
    for (size_t A = 0; A < *NumAlts; ++A) {
      Expected<uint64_t> Rule = R.readVarint();
      Expected<uint64_t> NumChildren = R.readVarint();
      if (!Rule || !NumChildren)
        return Error("truncated suspended-parse forest");
      if (*Rule >= G.numInternedRules() || *NumChildren > R.remaining())
        return Error("malformed suspended-parse derivation");
      Children.clear();
      for (size_t C = 0; C < *NumChildren; ++C) {
        Expected<uint64_t> Child = R.readVarint();
        if (!Child)
          return Child.error();
        if (*Child >= FNodes.size())
          return Error("suspended-parse forest child out of range");
        Children.push_back(FNodes[static_cast<size_t>(*Child)]);
      }
      F.addAlternative(FNodes[I], static_cast<RuleId>(*Rule), Children);
    }
  }

  // GSS shells, then edges. States re-bind by id — the fingerprint gate
  // above is what makes those ids meaningful.
  Expected<uint64_t> NumStack = R.readVarint();
  if (!NumStack)
    return NumStack.error();
  if (*NumStack > R.remaining())
    return Error("malformed suspended-parse stack");
  GssEngine &Eng = Doc->Engine;
  Eng.beginRestore(F);
  std::vector<GssNode *> Stack;
  Stack.reserve(static_cast<size_t>(*NumStack));
  for (size_t I = 0; I < *NumStack; ++I) {
    Expected<uint64_t> StateId = R.readVarint();
    Expected<uint64_t> Layer = R.readVarint();
    if (!StateId || !Layer)
      return Error("truncated suspended-parse stack");
    if (*StateId >= Graph.numSetIds() || *Layer > *Pos)
      return Error("malformed suspended-parse stack node");
    ItemSet *State = Graph.setById(static_cast<uint32_t>(*StateId));
    if (!State)
      return Error("suspended-parse stack references a dead item set");
    // Only a pre-fixpoint frontier still has its ACTION query pending;
    // such a frontier is exactly the saved nodes of layer Pos (a resumed
    // or finished frontier is post-fixpoint).
    const bool Processed = Finished || WasResumed || *Layer < *Pos;
    Stack.push_back(
        Eng.restoreNode(State, static_cast<uint32_t>(*Layer), Processed));
  }
  for (size_t I = 0; I < Stack.size(); ++I) {
    Expected<uint64_t> NumEdges = R.readVarint();
    if (!NumEdges)
      return NumEdges.error();
    if (*NumEdges > R.remaining())
      return Error("malformed suspended-parse stack");
    for (size_t E = 0; E < *NumEdges; ++E) {
      Expected<uint64_t> Back = R.readVarint();
      Expected<uint64_t> Deriv = R.readVarint();
      if (!Back || !Deriv)
        return Error("truncated suspended-parse stack");
      if (*Back >= Stack.size() || *Deriv >= FNodes.size() ||
          Stack[static_cast<size_t>(*Back)]->Layer > Stack[I]->Layer)
        return Error("malformed suspended-parse stack edge");
      Eng.addEdge(Stack[I], Stack[static_cast<size_t>(*Back)],
                  FNodes[static_cast<size_t>(*Deriv)]);
    }
  }

  // Checkpoint records. Counts must agree with the state flags (the
  // engine's invariants), frontiers must be sorted by state id (the
  // convergence precheck's contract) and every node must live in the
  // layer its record covers.
  Expected<uint64_t> NumRecords = R.readVarint();
  if (!NumRecords)
    return NumRecords.error();
  const uint64_t WantRecords =
      (Finished || WasResumed) ? *Pos + 1 : *Pos;
  if (*NumRecords != WantRecords)
    return Error("suspended-parse records disagree with its position");
  GssRecords Records;
  std::vector<GssNode *> Rec;
  for (size_t L = 0; L < *NumRecords; ++L) {
    Expected<uint64_t> Count = R.readVarint();
    if (!Count)
      return Count.error();
    if (*Count == 0 || *Count > R.remaining())
      return Error("malformed suspended-parse record");
    Rec.clear();
    uint64_t PrevId = 0;
    for (size_t I = 0; I < *Count; ++I) {
      Expected<uint64_t> Idx = R.readVarint();
      if (!Idx)
        return Idx.error();
      if (*Idx >= Stack.size())
        return Error("suspended-parse record node out of range");
      GssNode *Node = Stack[static_cast<size_t>(*Idx)];
      if (Node->Layer != L)
        return Error("suspended-parse record node in the wrong layer");
      const uint64_t Id = Node->State->id();
      if (I > 0 && Id <= PrevId)
        return Error("suspended-parse record frontier not sorted");
      PrevId = Id;
      Rec.push_back(Node);
    }
    Records.push(Rec);
  }

  Expected<uint64_t> NumFrontier = R.readVarint();
  if (!NumFrontier)
    return NumFrontier.error();
  if (*NumFrontier == 0 || *NumFrontier > R.remaining())
    return Error("malformed suspended-parse frontier");
  std::vector<GssNode *> Frontier;
  Frontier.reserve(static_cast<size_t>(*NumFrontier));
  for (size_t I = 0; I < *NumFrontier; ++I) {
    Expected<uint64_t> Idx = R.readVarint();
    if (!Idx)
      return Idx.error();
    if (*Idx >= Stack.size() ||
        Stack[static_cast<size_t>(*Idx)]->Layer != *Pos)
      return Error("suspended-parse frontier node out of range");
    Frontier.push_back(Stack[static_cast<size_t>(*Idx)]);
  }

  Expected<uint64_t> RootIdx = R.readVarint();
  if (!RootIdx)
    return RootIdx.error();
  if (*RootIdx >= Stack.size() ||
      Stack[static_cast<size_t>(*RootIdx)]->Layer != 0)
    return Error("suspended-parse root out of range");
  GssNode *Root = Stack[static_cast<size_t>(*RootIdx)];

  Expected<uint8_t> Accepted = R.readU8();
  Expected<uint64_t> ResRoot = R.readVarint();
  Expected<uint64_t> ErrorIndex = R.readVarint();
  Expected<uint64_t> GssNodes = R.readVarint();
  Expected<uint64_t> GssEdges = R.readVarint();
  Expected<uint64_t> Shifts = R.readVarint();
  Expected<uint64_t> Reductions = R.readVarint();
  Expected<uint64_t> ReductionPaths = R.readVarint();
  if (!Accepted || !ResRoot || !ErrorIndex || !GssNodes || !GssEdges ||
      !Shifts || !Reductions || !ReductionPaths)
    return Error("truncated suspended-parse result");
  if (*Accepted > 1 || *ResRoot > FNodes.size() || *ErrorIndex > N ||
      (*Accepted && (!Finished || *ResRoot == 0)))
    return Error("malformed suspended-parse result");
  if (!R.atEnd())
    return Error("trailing bytes after suspended-parse section");

  GlrResult Res;
  Res.Accepted = *Accepted != 0;
  Res.Root = *ResRoot ? FNodes[static_cast<size_t>(*ResRoot) - 1] : nullptr;
  Res.ErrorIndex = static_cast<size_t>(*ErrorIndex);
  Res.GssNodes = *GssNodes;
  Res.GssEdges = *GssEdges;
  Res.Shifts = *Shifts;
  Res.Reductions = *Reductions;
  Res.ReductionPaths = *ReductionPaths;

  Eng.seatRestored(std::move(Records), std::move(Frontier), Root,
                   static_cast<size_t>(*Pos), WasResumed, Res);
  Doc->State = Finished ? ParseDocument::ParseState::Finished
                        : ParseDocument::ParseState::Suspended;
  if (Finished)
    Doc->LastResult = Res;
  return Doc;
}
