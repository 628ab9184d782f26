//===- incremental/ParseSnapshot.cpp - Suspended parses on disk -----------===//
///
/// Encodes a ParseDocument as the PARS extra section of an `ipg-snap-v2`
/// container and rebuilds one from it. The body is a FlatSection record:
/// a fixed header of flags, counts, the engine's result record and array
/// offsets, then fixed-width little-endian arrays in which indices
/// replace pointers: item sets by their stable graph id, GSS nodes and
/// forest nodes by their position in the serialized order. Only the
/// *live* parse is written — GSS nodes are the back-edge closure of the
/// checkpoint records, the frontier and the root (the arena's abandoned
/// branches are garbage), and forest nodes are the child closure of the
/// derivations those GSS edges carry (stale pre-edit nodes are
/// unreachable and stay behind). That keeps resumed sessions from
/// resurrecting invalidated packing targets: everything rebuilt is
/// consistent with the saved token buffer, so the fresh forest
/// re-indexes all of it at epoch zero.
///
/// Resume seats every array with one bounds check, validates every index
/// and invariant in one sweep, and only then builds anything.
///
//===----------------------------------------------------------------------===//

#include "incremental/ParseSnapshot.h"

#include "core/Ipg.h"
#include "support/FlatSection.h"

#include <bit>
#include <cassert>

using namespace ipg;

namespace {

/// PARS body format version (the body's first byte). Version 1 was the
/// retired varint record; its bodies are rejected, not read.
constexpr uint8_t ParsVersion = 2;

/// Wire values of ParseDocument's state (Idle is not serializable).
constexpr uint8_t ParsSuspended = 1;
constexpr uint8_t ParsFinished = 2;

/// Marks a node not (yet) numbered in the save-side index vectors.
constexpr uint32_t Unnumbered = ~uint32_t{0};

// Layout:
//
//   ParsHeader (176 bytes)
//   SymbolId[NumTokens]               the token buffer
//   ParsForestNode[NumForestNodes]    in creation order
//   ParsAlternative[NumAlternatives]  node I's are [FirstAlt(I), FirstAlt(I+1))
//   u32[NumChildren]                  forest indices
//   ParsGssNode[NumGssNodes]          in discovery order
//   ParsEdge[NumEdges]                node I's are [FirstEdge(I), FirstEdge(I+1))
//   u32[NumLayers]                    first record node of each layer
//   u32[NumRecordNodes]               GSS indices, per layer sorted by state
//   u32[NumFrontier]                  GSS indices
//
// Every array starts 8-aligned; a range's last element ends at the next
// array's count.

struct ParsHeader {
  uint8_t Version;
  uint8_t State;
  uint8_t Resumed;
  uint8_t Accepted;
  uint32_t Position;
  uint32_t NumTokens;
  uint32_t NumForestNodes;
  uint32_t NumAlternatives;
  uint32_t NumChildren;
  uint32_t NumGssNodes;
  uint32_t NumEdges;
  uint32_t NumLayers;
  uint32_t NumRecordNodes;
  uint32_t NumFrontier;
  uint32_t Root;       ///< GSS index of the stack bottom.
  uint32_t ResultRoot; ///< Forest index + 1 of GlrResult::Root; 0 = none.
  uint32_t Reserved;
  uint64_t ErrorIndex;
  uint64_t GssNodes;
  uint64_t GssEdges;
  uint64_t Shifts;
  uint64_t Reductions;
  uint64_t ReductionPaths;
  uint64_t Offsets[9]; ///< Body offset of each array, in layout order.
};

struct ParsForestNode {
  uint32_t Sym;
  uint32_t Start;
  uint32_t End;
  uint32_t IsToken;
  uint32_t FirstAlt;
};

struct ParsAlternative {
  uint32_t Rule;
  uint32_t FirstChild;
  uint32_t NumChildren;
};

struct ParsGssNode {
  uint32_t State; ///< Stable item-set id.
  uint32_t Layer;
  uint32_t FirstEdge;
};

struct ParsEdge {
  uint32_t Back;  ///< GSS index.
  uint32_t Deriv; ///< Forest index.
};

/// The arrays are read in place (FlatView::arrayAt), so their in-memory
/// layout is the on-disk one.
static_assert(std::endian::native == std::endian::little,
              "PARS is little-endian and read in place");
static_assert(sizeof(ParsHeader) == 176 && sizeof(ParsForestNode) == 20 &&
                  sizeof(ParsAlternative) == 12 && sizeof(ParsGssNode) == 12 &&
                  sizeof(ParsEdge) == 8 && sizeof(SymbolId) == 4,
              "PARS record layout drifted");

/// True when the ranges [First(I), First(I + 1)) of a run-length array
/// of \p Count elements, the last one ending at \p Total, tile
/// [0, Total) in order.
template <typename FirstT>
bool tiles(FirstT &&First, uint32_t Count, uint32_t Total) {
  if (Count == 0)
    return Total == 0;
  if (First(0) != 0)
    return false;
  for (size_t I = 1; I < Count; ++I)
    if (First(I) < First(I - 1))
      return false;
  return First(Count - 1) <= Total;
}

/// The arrays of one PARS body, seated in place.
struct ParsArrays {
  const ParsHeader *H = nullptr;
  const SymbolId *Tokens = nullptr;
  const ParsForestNode *Nodes = nullptr;
  const ParsAlternative *Alts = nullptr;
  const uint32_t *Children = nullptr;
  const ParsGssNode *Stack = nullptr;
  const ParsEdge *Edges = nullptr;
  const uint32_t *LayerFirst = nullptr;
  const uint32_t *RecordNodes = nullptr;
  const uint32_t *Frontier = nullptr;

  /// Ends of forest node \p I's alternatives, GSS node \p I's edges and
  /// layer \p I's record nodes.
  uint32_t altEnd(size_t I) const {
    return I + 1 < H->NumForestNodes ? Nodes[I + 1].FirstAlt
                                     : H->NumAlternatives;
  }
  uint32_t edgeEnd(size_t I) const {
    return I + 1 < H->NumGssNodes ? Stack[I + 1].FirstEdge : H->NumEdges;
  }
  uint32_t layerEnd(size_t I) const {
    return I + 1 < H->NumLayers ? LayerFirst[I + 1] : H->NumRecordNodes;
  }
};

template <typename T>
bool seat(const FlatView &View, uint64_t Offset, uint32_t Count,
          const T *&Out) {
  Expected<const T *> Array =
      View.arrayAt<T>(static_cast<size_t>(Offset), Count);
  Out = Array ? *Array : nullptr;
  return static_cast<bool>(Array);
}

/// Seats every array of \p H's body in \p View: one bounds and alignment
/// check per array.
const char *seatArrays(const FlatView &View, const ParsHeader &H,
                       ParsArrays &A) {
  A.H = &H;
  const uint64_t *Off = H.Offsets;
  if (!seat(View, Off[0], H.NumTokens, A.Tokens) ||
      !seat(View, Off[1], H.NumForestNodes, A.Nodes) ||
      !seat(View, Off[2], H.NumAlternatives, A.Alts) ||
      !seat(View, Off[3], H.NumChildren, A.Children) ||
      !seat(View, Off[4], H.NumGssNodes, A.Stack) ||
      !seat(View, Off[5], H.NumEdges, A.Edges) ||
      !seat(View, Off[6], H.NumLayers, A.LayerFirst) ||
      !seat(View, Off[7], H.NumRecordNodes, A.RecordNodes) ||
      !seat(View, Off[8], H.NumFrontier, A.Frontier))
    return "truncated suspended-parse section";
  return nullptr;
}

/// The validation sweep: every index in range and every structural
/// invariant of the engine and forest, checked before anything is built.
const char *validate(const ParsArrays &A, const Grammar &G,
                     ItemSetGraph &Graph) {
  const ParsHeader &H = *A.H;
  if ((H.State != ParsSuspended && H.State != ParsFinished) || H.Resumed > 1)
    return "malformed suspended-parse state";
  const bool Finished = H.State == ParsFinished;
  if (H.Position > H.NumTokens)
    return "malformed suspended-parse position";
  for (size_t I = 0; I < H.NumTokens; ++I)
    if (A.Tokens[I] >= G.symbols().size() ||
        !G.symbols().isTerminal(A.Tokens[I]))
      return "suspended-parse token is not a terminal";

  if (!tiles([&](size_t I) { return A.Nodes[I].FirstAlt; }, H.NumForestNodes,
             H.NumAlternatives))
    return "malformed suspended-parse forest";
  for (size_t I = 0; I < H.NumForestNodes; ++I) {
    const ParsForestNode &N = A.Nodes[I];
    if (N.Sym >= G.symbols().size() || N.IsToken > 1 || N.Start > N.End ||
        N.End > H.NumTokens)
      return "malformed suspended-parse forest node";
    if (N.IsToken && (N.End != N.Start + 1 || A.Tokens[N.Start] != N.Sym))
      return "suspended-parse token node disagrees with the buffer";
    if (N.IsToken && A.altEnd(I) != N.FirstAlt)
      return "suspended-parse token node carries derivations";
    // Each derivation has one child per right-hand-side symbol of its
    // rule, and the children tile the node's span.
    for (size_t J = N.FirstAlt; J < A.altEnd(I); ++J) {
      const ParsAlternative &Alt = A.Alts[J];
      if (Alt.Rule >= G.numInternedRules() ||
          Alt.FirstChild > H.NumChildren ||
          Alt.NumChildren > H.NumChildren - Alt.FirstChild)
        return "malformed suspended-parse derivation";
      const Rule &R = G.rule(Alt.Rule);
      if (R.Lhs != N.Sym || R.Rhs.size() != Alt.NumChildren)
        return "suspended-parse derivation disagrees with its rule";
      uint32_t At = N.Start;
      for (size_t C = 0; C < Alt.NumChildren; ++C) {
        const uint32_t Child = A.Children[Alt.FirstChild + C];
        if (Child >= H.NumForestNodes)
          return "suspended-parse forest child out of range";
        if (A.Nodes[Child].Sym != R.Rhs[C] || A.Nodes[Child].Start != At)
          return "suspended-parse derivation does not tile its span";
        At = A.Nodes[Child].End;
      }
      if (At != N.End)
        return "suspended-parse derivation does not tile its span";
    }
  }

  if (!tiles([&](size_t I) { return A.Stack[I].FirstEdge; }, H.NumGssNodes,
             H.NumEdges))
    return "malformed suspended-parse stack";
  for (size_t I = 0; I < H.NumGssNodes; ++I) {
    const ParsGssNode &N = A.Stack[I];
    if (N.State >= Graph.numSetIds() || N.Layer > H.Position)
      return "malformed suspended-parse stack node";
    if (!Graph.setById(N.State))
      return "suspended-parse stack references a dead item set";
  }
  // An edge carries the derivation of the input between its two nodes,
  // and its node's state is GOTO of the back node's state on that
  // derivation's symbol: the invariant every reduction relies on.
  for (size_t I = 0; I < H.NumGssNodes; ++I) {
    const ParsGssNode &N = A.Stack[I];
    for (size_t E = N.FirstEdge; E < A.edgeEnd(I); ++E) {
      const ParsEdge &Edge = A.Edges[E];
      if (Edge.Back >= H.NumGssNodes || Edge.Deriv >= H.NumForestNodes)
        return "malformed suspended-parse stack edge";
      const ParsGssNode &Back = A.Stack[Edge.Back];
      const ParsForestNode &Deriv = A.Nodes[Edge.Deriv];
      if (Deriv.Start != Back.Layer || Deriv.End != N.Layer)
        return "suspended-parse stack edge disagrees with its derivation";
      const ItemSet *From = Graph.setById(Back.State);
      if (!From->isComplete() ||
          Graph.transitionTarget(From, Deriv.Sym) != Graph.setById(N.State))
        return "suspended-parse stack edge is not a transition";
    }
  }

  // Checkpoint records. Counts must agree with the state flags (the
  // engine's invariants), frontiers must be sorted by state id (the
  // convergence precheck's contract) and every node must live in the
  // layer its record covers.
  const uint64_t WantLayers =
      (Finished || H.Resumed) ? uint64_t{H.Position} + 1 : H.Position;
  if (H.NumLayers != WantLayers)
    return "suspended-parse records disagree with its position";
  if (!tiles([&](size_t L) { return A.LayerFirst[L]; }, H.NumLayers,
             H.NumRecordNodes))
    return "malformed suspended-parse record";
  for (size_t L = 0; L < H.NumLayers; ++L) {
    if (A.layerEnd(L) == A.LayerFirst[L])
      return "malformed suspended-parse record";
    for (size_t I = A.LayerFirst[L]; I < A.layerEnd(L); ++I) {
      const uint32_t Idx = A.RecordNodes[I];
      if (Idx >= H.NumGssNodes)
        return "suspended-parse record node out of range";
      if (A.Stack[Idx].Layer != L)
        return "suspended-parse record node in the wrong layer";
      if (I > A.LayerFirst[L] &&
          A.Stack[Idx].State <= A.Stack[A.RecordNodes[I - 1]].State)
        return "suspended-parse record frontier not sorted";
    }
  }

  if (H.NumFrontier == 0)
    return "malformed suspended-parse frontier";
  for (size_t I = 0; I < H.NumFrontier; ++I)
    if (A.Frontier[I] >= H.NumGssNodes ||
        A.Stack[A.Frontier[I]].Layer != H.Position)
      return "suspended-parse frontier node out of range";
  if (H.Root >= H.NumGssNodes || A.Stack[H.Root].Layer != 0)
    return "suspended-parse root out of range";
  if (A.Stack[H.Root].State != Graph.startSet()->id())
    return "suspended-parse root is not the start state";

  if (H.Accepted > 1 || H.ResultRoot > H.NumForestNodes ||
      H.ErrorIndex > H.NumTokens ||
      (H.Accepted && (!Finished || H.ResultRoot == 0)))
    return "malformed suspended-parse result";
  return nullptr;
}

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
  const GlrResult &Res = Eng.result();

  // The live GSS: back-edge closure of records ∪ frontier ∪ root, in
  // deterministic discovery order, numbered through the dense node ids.
  // The arena also holds abandoned branches and pre-restore generations;
  // those are not part of the parse and are not written.
  std::vector<const GssNode *> Stack;
  std::vector<uint32_t> StackIdx(Eng.numArenaNodes(), Unnumbered);
  auto AddStack = [&](const GssNode *Node) {
    if (Node && StackIdx[Node->Id] == Unnumbered) {
      StackIdx[Node->Id] = static_cast<uint32_t>(Stack.size());
      Stack.push_back(Node);
    }
  };
  for (size_t K = 0; K < Eng.records().size(); ++K)
    for (const GssNode *Node : Eng.records()[K])
      AddStack(Node);
  for (const GssNode *Node : Eng.frontier())
    AddStack(Node);
  AddStack(Eng.root());
  for (size_t I = 0; I < Stack.size(); ++I)
    for (const GssNode::Edge &E : Stack[I]->Edges) {
      if (!E.Deriv)
        return Error("suspended parse has a GSS edge with no derivation");
      AddStack(E.Back);
    }

  // The live forest: child closure of the derivations on those edges
  // (plus the acceptance root), numbered in creation order so indices
  // are stable. FIdx marks reached ids first, then holds their indices.
  std::vector<uint32_t> FIdx(Doc.F.numNodes(), Unnumbered);
  std::vector<const ForestNode *> Reached;
  auto AddReached = [&](const ForestNode *Node) {
    if (Node && FIdx[Node->Id] == Unnumbered) {
      FIdx[Node->Id] = 0;
      Reached.push_back(Node);
    }
  };
  for (const GssNode *Node : Stack)
    for (const GssNode::Edge &E : Node->Edges)
      AddReached(E.Deriv);
  AddReached(Res.Root);
  for (size_t I = 0; I < Reached.size(); ++I)
    for (const ForestNode::Alternative &Alt : Reached[I]->Alts)
      for (const ForestNode *Child : Alt.Children)
        AddReached(Child);
  uint32_t Next = 0;
  for (uint32_t &Idx : FIdx)
    if (Idx != Unnumbered)
      Idx = Next++;
  std::vector<const ForestNode *> FNodes(Reached.size());
  for (const ForestNode *Node : Reached)
    FNodes[FIdx[Node->Id]] = Node;

  std::vector<ParsForestNode> NodeRecs;
  std::vector<ParsAlternative> AltRecs;
  std::vector<uint32_t> Children;
  NodeRecs.reserve(FNodes.size());
  for (const ForestNode *Node : FNodes) {
    NodeRecs.push_back({Node->Sym, Node->Start, Node->End,
                        Node->IsToken ? 1u : 0u,
                        static_cast<uint32_t>(AltRecs.size())});
    for (const ForestNode::Alternative &Alt : Node->Alts) {
      AltRecs.push_back({Alt.Rule, static_cast<uint32_t>(Children.size()),
                         static_cast<uint32_t>(Alt.Children.size())});
      for (const ForestNode *Child : Alt.Children)
        Children.push_back(FIdx[Child->Id]);
    }
  }

  std::vector<ParsGssNode> StackRecs;
  std::vector<ParsEdge> EdgeRecs;
  StackRecs.reserve(Stack.size());
  for (const GssNode *Node : Stack) {
    StackRecs.push_back({Node->State->id(), Node->Layer,
                         static_cast<uint32_t>(EdgeRecs.size())});
    for (const GssNode::Edge &E : Node->Edges)
      EdgeRecs.push_back({StackIdx[E.Back->Id], FIdx[E.Deriv->Id]});
  }

  std::vector<uint32_t> LayerFirst, RecordNodes, Frontier;
  for (size_t K = 0; K < Eng.records().size(); ++K) {
    LayerFirst.push_back(static_cast<uint32_t>(RecordNodes.size()));
    for (const GssNode *Node : Eng.records()[K])
      RecordNodes.push_back(StackIdx[Node->Id]);
  }
  for (const GssNode *Node : Eng.frontier())
    Frontier.push_back(StackIdx[Node->Id]);

  // The header mirrors ParsHeader field by field; the offset table is
  // patched once the arrays are placed.
  FlatWriter Body;
  Body.writeU8(ParsVersion);
  Body.writeU8(Doc.State == ParseDocument::ParseState::Finished ? ParsFinished
                                                                : ParsSuspended);
  Body.writeU8(Eng.resumed() ? 1 : 0);
  Body.writeU8(Res.Accepted ? 1 : 0);
  const uint32_t Counts[] = {
      static_cast<uint32_t>(Eng.position()),
      static_cast<uint32_t>(Doc.Tokens.size()),
      static_cast<uint32_t>(NodeRecs.size()),
      static_cast<uint32_t>(AltRecs.size()),
      static_cast<uint32_t>(Children.size()),
      static_cast<uint32_t>(StackRecs.size()),
      static_cast<uint32_t>(EdgeRecs.size()),
      static_cast<uint32_t>(LayerFirst.size()),
      static_cast<uint32_t>(RecordNodes.size()),
      static_cast<uint32_t>(Frontier.size()),
      StackIdx[Eng.root()->Id],
      Res.Root ? FIdx[Res.Root->Id] + 1 : 0,
      0};
  Body.writeU32Array(Counts, sizeof(Counts) / sizeof(Counts[0]));
  for (uint64_t Stat : {uint64_t{Res.ErrorIndex}, Res.GssNodes, Res.GssEdges,
                        Res.Shifts, Res.Reductions, Res.ReductionPaths})
    Body.writeU64(Stat);
  const size_t OffTable = Body.reserve(sizeof(ParsHeader::Offsets));
  assert(Body.size() == sizeof(ParsHeader) && "PARS header drifted");

  size_t Slot = 0;
  auto Emit = [&](const auto &Array) {
    Body.alignTo(8);
    Body.patchU64(OffTable + 8 * Slot++, Body.size());
    Body.writeBytes(Array.data(), Array.size() * sizeof(Array[0]));
  };
  Emit(Doc.Tokens);
  Emit(NodeRecs);
  Emit(AltRecs);
  Emit(Children);
  Emit(StackRecs);
  Emit(EdgeRecs);
  Emit(LayerFirst);
  Emit(RecordNodes);
  Emit(Frontier);

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

  if (Body.empty())
    return Error("truncated suspended-parse section");
  if (Body[0] != ParsVersion)
    return Error("unsupported suspended-parse version");
  const FlatView View(Body.data(), Body.size());
  Expected<const ParsHeader *> Header = View.arrayAt<ParsHeader>(0, 1);
  if (!Header)
    return Error("truncated suspended-parse section");
  const ParsHeader &H = **Header;
  ItemSetGraph &Graph = Gen.graph();
  ParsArrays A;
  if (const char *Bad = seatArrays(View, H, A))
    return Error(Bad);
  if (const char *Bad = validate(A, Gen.grammar(), Graph))
    return Error(Bad);

  const bool Finished = H.State == ParsFinished;
  const bool WasResumed = H.Resumed != 0;
  auto Doc = std::make_unique<ParseDocument>(Graph);
  Doc->Tokens.assign(A.Tokens, A.Tokens + H.NumTokens);

  // Forest nodes, then alternatives (cyclic forests need every target to
  // exist first). Each node enters the packing index as it is made, so
  // future derivations of a resumed parse pack onto it.
  Forest &F = Doc->F;
  std::vector<ForestNode *> FNodes(H.NumForestNodes);
  for (size_t I = 0; I < H.NumForestNodes; ++I) {
    const ParsForestNode &N = A.Nodes[I];
    FNodes[I] = F.restoreNode(N.Sym, N.Start, N.End, N.IsToken != 0);
  }
  std::vector<ForestNode *> Children;
  for (size_t I = 0; I < H.NumForestNodes; ++I)
    for (size_t J = A.Nodes[I].FirstAlt; J < A.altEnd(I); ++J) {
      const ParsAlternative &Alt = A.Alts[J];
      Children.clear();
      for (size_t C = 0; C < Alt.NumChildren; ++C)
        Children.push_back(FNodes[A.Children[Alt.FirstChild + C]]);
      F.addAlternative(FNodes[I], Alt.Rule, Children);
    }

  // GSS nodes, then edges. States re-bind by id — the fingerprint gate
  // above is what makes those ids meaningful.
  GssEngine &Eng = Doc->Engine;
  Eng.beginRestore(F);
  std::vector<GssNode *> Stack(H.NumGssNodes);
  for (size_t I = 0; I < H.NumGssNodes; ++I) {
    const ParsGssNode &N = A.Stack[I];
    // Only a pre-fixpoint frontier still has its ACTION query pending;
    // such a frontier is exactly the saved nodes of layer Pos (a resumed
    // or finished frontier is post-fixpoint).
    const bool Processed = Finished || WasResumed || N.Layer < H.Position;
    Stack[I] = Eng.restoreNode(Graph.setById(N.State), N.Layer, Processed);
  }
  for (size_t I = 0; I < H.NumGssNodes; ++I)
    for (size_t E = A.Stack[I].FirstEdge; E < A.edgeEnd(I); ++E)
      Eng.addEdge(Stack[I], Stack[A.Edges[E].Back], FNodes[A.Edges[E].Deriv]);

  GssRecords Records;
  std::vector<GssNode *> Layer;
  for (size_t L = 0; L < H.NumLayers; ++L) {
    Layer.clear();
    for (size_t I = A.LayerFirst[L]; I < A.layerEnd(L); ++I)
      Layer.push_back(Stack[A.RecordNodes[I]]);
    Records.push(Layer);
  }
  std::vector<GssNode *> Frontier(H.NumFrontier);
  for (size_t I = 0; I < H.NumFrontier; ++I)
    Frontier[I] = Stack[A.Frontier[I]];

  GlrResult Res;
  Res.Accepted = H.Accepted != 0;
  Res.Root = H.ResultRoot ? FNodes[H.ResultRoot - 1] : nullptr;
  Res.ErrorIndex = static_cast<size_t>(H.ErrorIndex);
  Res.GssNodes = H.GssNodes;
  Res.GssEdges = H.GssEdges;
  Res.Shifts = H.Shifts;
  Res.Reductions = H.Reductions;
  Res.ReductionPaths = H.ReductionPaths;

  Eng.seatRestored(std::move(Records), std::move(Frontier), Stack[H.Root],
                   H.Position, WasResumed, Res);
  Doc->State = Finished ? ParseDocument::ParseState::Finished
                        : ParseDocument::ParseState::Suspended;
  if (Finished)
    Doc->LastResult = Res;
  return Doc;
}
