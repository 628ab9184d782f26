//===- glr/GssEngine.cpp - Resumable graph-structured-stack stepper -------===//

#include "glr/GssEngine.h"

#include "support/Metrics.h"

#include <algorithm>
#include <cassert>

using namespace ipg;

namespace {

MetricCounter &gssNodeCounter() {
  static MetricCounter &C =
      MetricsRegistry::process().counter("glr.gss.nodes_constructed");
  return C;
}

} // namespace

GssNode *GssEngine::newNode(ItemSet *State, uint32_t Layer) {
  ++Result.GssNodes;
  gssNodeCounter().bump();
  return NodePool.make(State, Layer, nextNodeId(), /*Processed=*/false);
}

GssNode *GssEngine::restoreNode(ItemSet *State, uint32_t Layer,
                                bool Processed) {
  // Deserialization rebuild: not a construction the incremental-evidence
  // metric should see.
  return NodePool.make(State, Layer, nextNodeId(), Processed);
}

void GssEngine::addEdge(GssNode *Node, GssNode *Back, ForestNode *Deriv) {
  GssNode::EdgeList &L = Node->Edges;
  if (L.Count == 0) {
    L.Head = GssNode::EdgeList::Link{{Back, Deriv}, nullptr};
    L.Tail = &L.Head;
  } else {
    GssNode::EdgeList::Link *Link =
        EdgePool.make(GssNode::EdgeList::Link{{Back, Deriv}, nullptr});
    L.Tail->Next = Link;
    L.Tail = Link;
  }
  ++L.Count;
}

void GssEngine::putInLayer(GssNode *Node, uint64_t Stamp) {
  size_t Id = Node->State->id();
  if (Id >= ByState.size())
    ByState.resize(std::max(Id + 1, ByState.size() * 2), {0, nullptr});
  ByState[Id] = {Stamp, Node};
}

void GssEngine::resetStorage() {
  // Pointers from previous parses die here; the chunks stay for reuse.
  NodePool.reset();
  EdgePool.reset();
  Records.clear();
  Frontier.clear();
  PendingShifts.clear();
  // ByState keeps its capacity; the monotone stamps make stale entries
  // unmatchable.
  Result = GlrResult();
  Pos = 0;
  Resumed = false;
  CurStamp = ++StampCounter;
}

void GssEngine::beginRestore(Forest &Forst) {
  F = &Forst;
  resetStorage();
  Root = nullptr;
}

void GssEngine::seatRestored(GssRecords &&Recs, std::vector<GssNode *> Front,
                             GssNode *NewRoot, size_t Position,
                             bool WasResumed, GlrResult Stats) {
  Records = std::move(Recs);
  Frontier = std::move(Front);
  Root = NewRoot;
  Pos = Position;
  Resumed = WasResumed;
  Result = Stats;
  CurStamp = ++StampCounter;
  // A pre-fixpoint frontier: the next step()'s reduction round asks the
  // layer index "which node holds state S", so register it.
  if (!Resumed)
    for (GssNode *Node : Frontier)
      putInLayer(Node, CurStamp);
}

void GssEngine::begin(Forest &Forst) {
  F = &Forst;
  resetStorage();
  Root = newNode(Graph->startSet(), 0);
  Frontier.push_back(Root);
  putInLayer(Root, CurStamp);
}

void GssEngine::recordLayer() {
  assert(Records.size() == Pos && "layer recorded out of order");
  const size_t Begin = Records.Nodes.size();
  Records.push(Frontier);
  std::sort(Records.Nodes.begin() + static_cast<std::ptrdiff_t>(Begin),
            Records.Nodes.end(), [](const GssNode *A, const GssNode *B) {
              return A->State->id() < B->State->id();
            });
}

void GssEngine::restore(size_t Layer) {
  assert(Layer < Records.size() && "no record for restore layer");
  Records.truncate(Layer + 1);
  ArrayView<GssNode *> Rec = Records[Layer];
  Frontier.assign(Rec.begin(), Rec.end());
  Pos = Layer;
  Resumed = true;
  CurStamp = ++StampCounter;
  Result.Accepted = false;
  Result.Root = nullptr;
  Result.ErrorIndex = 0;
}

void GssEngine::adoptTail(const GssRecords &Tail, size_t From, size_t EndPos) {
  Records.append(Tail, From);
  assert(!Records.empty());
  ArrayView<GssNode *> Last = Records.back();
  Frontier.assign(Last.begin(), Last.end());
  Pos = EndPos;
  Resumed = true;
  CurStamp = ++StampCounter;
}

bool GssEngine::rebindGraph(ItemSetGraph &New) {
  // Verify-then-commit, so a failed migration leaves every pointer on the
  // old graph. ByState needs no fixup: it is keyed by stable id and holds
  // node pointers, both graph-independent.
  bool Live = true;
  NodePool.forEach([&](const GssNode &Node) {
    Live = Live && New.setById(Node.State->id()) != nullptr;
  });
  if (!Live)
    return false;
  NodePool.forEach(
      [&](GssNode &Node) { Node.State = New.setById(Node.State->id()); });
  Graph = &New;
  return true;
}

void GssEngine::runFixpoint(SymbolId Token) {
  std::vector<GssNode *> &Front = Frontier;
  Reductions.clear();
  Queue.assign(Front.begin(), Front.end());
  size_t QueueIdx = 0;

  // Farshi's safety net: a new edge below an already-processed node can
  // complete reduction paths that were enumerated too early. Instead of
  // re-enqueueing every processed node's reductions at each such edge
  // (which grows the queue quadratically in edge insertions), the event
  // only raises this flag; the fixpoint loop runs one broadcast sweep
  // per quiescence, so each storm of new edges costs one re-run round.
  // Edge/alternative dedup makes the re-runs idempotent.
  bool NeedsBroadcast = false;

  auto FindInLayer = [&](const ItemSet *State) -> GssNode * {
    size_t Id = State->id();
    if (Id >= ByState.size() || ByState[Id].first != CurStamp)
      return nullptr;
    return ByState[Id].second;
  };

  // Performs one queued reduction: enumerate stack paths of the rule's
  // length, build/pack the forest node per path, and extend the GSS.
  auto DoReduce = [&](const PendingReduce &PR) {
    const Rule &R = Graph->grammar().rule(PR.Rule);
    const size_t M = R.Rhs.size();
    ++Result.Reductions;

    Deriv.resize(M);
    auto FinishPath = [&](GssNode *Bottom) {
      ++Result.ReductionPaths;
      // Nodes below the frontier were completed in their own layer, but
      // with lazy generation a goto target created this layer may still
      // be initial; complete it before GOTO (see header).
      Graph->ensureComplete(Bottom->State);
      ItemSet *Target = Graph->gotoState(Bottom->State, R.Lhs);
      ForestNode *FN = F->derivation(R.Lhs, Bottom->Layer,
                                     static_cast<uint32_t>(Pos), PR.Rule,
                                     Deriv);

      GssNode *U = FindInLayer(Target);
      if (U == nullptr) {
        U = newNode(Target, static_cast<uint32_t>(Pos));
        addEdge(U, Bottom, FN);
        ++Result.GssEdges;
        Front.push_back(U);
        putInLayer(U, CurStamp);
        Queue.push_back(U);
        return;
      }
      if (U->hasEdge(Bottom, FN))
        return;
      addEdge(U, Bottom, FN);
      ++Result.GssEdges;
      if (U->Processed)
        NeedsBroadcast = true;
    };

    // DFS over stack paths; Remaining counts edges still to follow and
    // doubles as the child slot (topmost edge = rightmost child).
    auto Walk = [&](auto &&Self, GssNode *Cur, size_t Remaining) -> void {
      if (Remaining == 0) {
        FinishPath(Cur);
        return;
      }
      // Snapshot: edges added during FinishPath recursion must not be
      // traversed mid-enumeration (the broadcast sweep covers them).
      // Links never move, so the cursor survives those appends.
      const size_t NumEdges = Cur->Edges.size();
      auto It = Cur->Edges.begin();
      for (size_t I = 0; I < NumEdges; ++I, ++It) {
        Deriv[Remaining - 1] = It->Deriv;
        Self(Self, It->Back, Remaining - 1);
      }
    };

    if (M == 0)
      FinishPath(PR.From);
    else
      Walk(Walk, PR.From, M);
  };

  // Fixpoint over node processing, reductions, and (at quiescence) the
  // Farshi broadcast sweeps.
  while (QueueIdx < Queue.size() || !Reductions.empty() || NeedsBroadcast) {
    if (!Reductions.empty()) {
      PendingReduce PR = Reductions.back();
      Reductions.pop_back();
      DoReduce(PR);
      continue;
    }
    if (QueueIdx >= Queue.size()) {
      // Quiescent except for a pending broadcast: re-run every processed
      // node's reductions once over the grown stack. The states are
      // complete (they were queried when processed), so the reduction
      // list is read straight off the item set — no repeat of the
      // (node, token) ACTION query.
      NeedsBroadcast = false;
      for (GssNode *Node : Front)
        if (Node->Processed)
          for (RuleId Rule : Graph->reductions(Node->State))
            Reductions.push_back(PendingReduce{Node, Rule});
      continue;
    }
    GssNode *Node = Queue[QueueIdx++];
    if (Node->Processed)
      continue;
    Node->Processed = true;
    // The one ACTION query for this (node, token): an allocation-free
    // view over the item set's action index.
    Graph->forEachAction(Node->State, Token, [&](const LrAction &A) {
      switch (A.Kind) {
      case LrAction::Shift:
        PendingShifts.push_back({Node, A.Target});
        break;
      case LrAction::Reduce:
        Reductions.push_back(PendingReduce{Node, A.Rule});
        break;
      case LrAction::Accept:
        // Resolved in finish(), when the GSS is final.
        break;
      }
    });
  }
}

bool GssEngine::step(SymbolId Token) {
  PendingShifts.clear();
  if (!Resumed) {
    runFixpoint(Token);
    recordLayer();
  } else {
    // The restored frontier is already post-fixpoint (reductions are
    // token-independent under LR(0)); only the shift decision depends on
    // the new token, so re-query ACTION for shifts alone.
    Resumed = false;
    for (GssNode *Node : Frontier)
      Graph->forEachAction(Node->State, Token, [&](const LrAction &A) {
        if (A.Kind == LrAction::Shift)
          PendingShifts.push_back({Node, A.Target});
      });
  }

  // Shifter: advance every surviving parser over Token in lock-step —
  // the paper's synchronization of the this-sweep/next-sweep pools. The
  // next layer's stamp keys its target lookups in the same dense index.
  NextFrontier.clear();
  const uint64_t NextStamp = ++StampCounter;
  ForestNode *TokenNode = nullptr;
  for (const auto &S : PendingShifts) {
    if (TokenNode == nullptr)
      TokenNode = F->token(Token, static_cast<uint32_t>(Pos));
    size_t Id = S.Target->id();
    GssNode *U = nullptr;
    if (Id < ByState.size() && ByState[Id].first == NextStamp)
      U = ByState[Id].second;
    if (U == nullptr) {
      U = newNode(S.Target, static_cast<uint32_t>(Pos + 1));
      NextFrontier.push_back(U);
      putInLayer(U, NextStamp);
    }
    addEdge(U, S.From, TokenNode);
    ++Result.GssEdges;
    ++Result.Shifts;
  }
  PendingShifts.clear();
  if (NextFrontier.empty()) {
    Result.ErrorIndex = Pos;
    return false;
  }
  Frontier.swap(NextFrontier);
  CurStamp = NextStamp;
  ++Pos;
  return true;
}

GlrResult GssEngine::finish() {
  Grammar &G = Graph->grammar();
  PendingShifts.clear();
  if (!Resumed) {
    runFixpoint(G.endMarker());
    recordLayer();
    PendingShifts.clear();
  }

  // Acceptance: enumerate START ::= β• paths back to the root node and
  // pack them into one START forest node spanning the whole input.
  const size_t N = Pos;
  for (GssNode *Node : Frontier) {
    if (!Node->State->isAccepting())
      continue;
    for (RuleId RId : Graph->acceptRules(Node->State)) {
      const Rule &R = G.rule(RId);
      const size_t M = R.Rhs.size();
      Deriv.resize(M);
      auto Walk = [&](auto &&Self, GssNode *Cur, size_t Remaining) -> void {
        if (Remaining == 0) {
          if (Cur != Root)
            return;
          ForestNode *StartNode = F->derivation(
              G.startSymbol(), 0, static_cast<uint32_t>(N), RId, Deriv);
          if (Result.Root == nullptr)
            Result.Root = StartNode;
          Result.Accepted = true;
          return;
        }
        for (const GssNode::Edge &E : Cur->Edges) {
          Deriv[Remaining - 1] = E.Deriv;
          Self(Self, E.Back, Remaining - 1);
        }
      };
      Walk(Walk, Node, M);
    }
  }
  if (!Result.Accepted)
    Result.ErrorIndex = N;
  return Result;
}
