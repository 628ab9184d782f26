//===- incremental/ParseDocument.cpp - Resumable, editable parses ---------===//

#include "incremental/ParseDocument.h"

#include <algorithm>
#include <cassert>

using namespace ipg;

//===----------------------------------------------------------------------===//
// Token buffer edits. Damage merges into one window in new-buffer
// coordinates; over-approximating the window is always sound (it only
// widens the region the re-parse refuses to reuse).
//===----------------------------------------------------------------------===//

void ParseDocument::noteEdit(size_t Begin, size_t End, size_t NewLen) {
  const std::ptrdiff_t D2 =
      static_cast<std::ptrdiff_t>(NewLen) - static_cast<std::ptrdiff_t>(End - Begin);
  if (!Dmg.Pending) {
    Dmg.Pending = true;
    Dmg.Start = Begin;
    Dmg.EndNew = Begin + NewLen;
    Dmg.Delta = D2;
    return;
  }
  Dmg.Start = std::min(Dmg.Start, Begin);
  // Positions past the new edit shift by D2; the merged window's end is
  // whichever of (previous end, this edit's end) lies further right in
  // the post-edit buffer.
  if (End <= Dmg.EndNew)
    Dmg.EndNew = static_cast<size_t>(
        static_cast<std::ptrdiff_t>(Dmg.EndNew) + D2);
  else
    Dmg.EndNew = Begin + NewLen;
  Dmg.Delta += D2;
  Dmg.EndNew = std::max(Dmg.EndNew, Dmg.Start);
}

void ParseDocument::invalidateFrom(size_t Layer) {
  if (State == ParseState::Idle)
    return;
  if (Layer == 0) {
    // No checkpoint survives; the next reparse starts over.
    State = ParseState::Idle;
    return;
  }
  // Layers the parse never reached hold nothing to invalidate. A
  // suspended parse has live state exactly up to position(); a finished
  // one has records through the end-marker layer (== size() here, since
  // the buffer is unchanged).
  const size_t Computed =
      State == ParseState::Suspended ? Engine.position() : Tokens.size();
  if (Layer > Computed)
    return;
  Dmg.Start = Dmg.Pending ? std::min(Dmg.Start, Layer - 1) : Layer - 1;
  Dmg.Pending = true;
  Dmg.EndNew = Tokens.size();
  Dmg.Automaton = true;
}

void ParseDocument::setTokens(std::vector<SymbolId> NewTokens) {
  Tokens = std::move(NewTokens);
  State = ParseState::Idle;
  Dmg = Damage();
}

void ParseDocument::replace(size_t Begin, size_t End,
                            ArrayView<SymbolId> Replacement) {
  Begin = std::min(Begin, Tokens.size());
  End = std::min(std::max(End, Begin), Tokens.size());
  Tokens.erase(Tokens.begin() + static_cast<std::ptrdiff_t>(Begin),
               Tokens.begin() + static_cast<std::ptrdiff_t>(End));
  Tokens.insert(Tokens.begin() + static_cast<std::ptrdiff_t>(Begin),
                Replacement.begin(), Replacement.end());
  noteEdit(Begin, End, Replacement.size());
}

//===----------------------------------------------------------------------===//
// The driver.
//===----------------------------------------------------------------------===//

const GlrResult &ParseDocument::reparse() {
  if (State == ParseState::Finished && !Dmg.Pending) {
    Stats = ReparseStats();
    Stats.Path = ReparseStats::Unchanged;
    Stats.ResumedAt = Tokens.size();
    Stats.ConvergedAt = Tokens.size();
    return LastResult;
  }
  run(Tokens.size(), /*Finish=*/true);
  return LastResult;
}

bool ParseDocument::advanceTo(size_t Layer) {
  Layer = std::min(Layer, Tokens.size());
  if (State == ParseState::Finished && !Dmg.Pending)
    return true; // Already past it, verdict and all.
  run(Layer, /*Finish=*/false);
  return State != ParseState::Finished; // Finished here means "died".
}

void ParseDocument::run(size_t UpTo, bool Finish) {
  Stats = ReparseStats();
  const size_t N = Tokens.size();
  const Damage D = Dmg;
  const size_t OldN =
      static_cast<size_t>(static_cast<std::ptrdiff_t>(N) - D.Delta);

  OldTail.clear();
  size_t Resume = 0;
  bool TryGraft = false;
  uint64_t Nodes0 = 0;

  if (State == ParseState::Idle ||
      (D.Pending && Engine.records().empty())) {
    // From scratch: content may share nothing with what was parsed.
    F.clear();
    Engine.begin(F);
    Stats.Path = ReparseStats::Scratch;
  } else if (!D.Pending ||
             (State == ParseState::Suspended &&
              D.Start >= Engine.position())) {
    // Continue a suspended parse; an edit wholly beyond the parse point
    // never touched anything already parsed.
    Nodes0 = Engine.result().GssNodes;
    Stats.Path = ReparseStats::Resumed;
    Stats.ResumedAt = Engine.position();
  } else {
    // Restore the last checkpoint at or before the damage and re-step.
    Resume = std::min(D.Start, Engine.records().size() - 1);
    // Graft only against a completely recorded previous parse (records
    // for every layer 0..OldN), and only when finishing the whole
    // buffer — a partial advance has nowhere to splice a full suffix.
    TryGraft = !D.Automaton && Finish && UpTo == N &&
               State == ParseState::Finished &&
               Engine.records().size() == OldN + 1 && Resume == D.Start;
    if (TryGraft)
      OldTail.append(Engine.records(), Resume + 1);
    Nodes0 = Engine.result().GssNodes;
    Engine.restore(Resume);
    F.beginEpoch(static_cast<uint32_t>(D.Start));
    Stats.Path = ReparseStats::Resumed;
    Stats.ResumedAt = Resume;
  }
  Dmg = Damage();

  bool Grafted = false;
  bool Dead = false;
  while (Engine.position() < UpTo) {
    const size_t Q = Engine.position();
    if (!Engine.step(Tokens[Q])) {
      Dead = true;
      break;
    }
    // The step just recorded layer Q. Once past the damage, the old
    // parse's layer Q - Delta saw the same suffix tokens; probe for
    // re-convergence there.
    if (TryGraft && Q >= D.EndNew) {
      const std::ptrdiff_t P =
          static_cast<std::ptrdiff_t>(Q) - D.Delta;
      if (P > static_cast<std::ptrdiff_t>(Resume) &&
          P < static_cast<std::ptrdiff_t>(OldN) &&
          tryConverge(Q, static_cast<size_t>(P), Resume, D)) {
        Grafted = true;
        Stats.Path = ReparseStats::Grafted;
        Stats.ConvergedAt = Q;
        break;
      }
    }
  }

  if (Dead) {
    // Every stack died: the verdict for this buffer is rejection.
    LastResult = Engine.result();
    LastResult.Accepted = false;
    LastResult.Root = nullptr;
    State = ParseState::Finished;
  } else if (Finish || Grafted) {
    LastResult = Engine.finish();
    State = ParseState::Finished;
    if (!Grafted)
      Stats.ConvergedAt = UpTo;
  } else {
    State = ParseState::Suspended;
    Stats.ConvergedAt = Engine.position();
  }
  Stats.GssNodesConstructed = Engine.result().GssNodes - Nodes0;
}

//===----------------------------------------------------------------------===//
// Convergence: precheck, isomorphism walk, forest rebuild, graft.
//===----------------------------------------------------------------------===//

bool ParseDocument::tryConverge(size_t Q, size_t P, size_t ResumeLayer,
                                const Damage &D) {
  ArrayView<GssNode *> OldRec = OldTail[P - ResumeLayer - 1];
  ArrayView<GssNode *> NewRec = Engine.records()[Q];

  // Cheap precheck: identical sorted state-id sequences.
  if (OldRec.size() != NewRec.size())
    return false;
  for (size_t I = 0; I < OldRec.size(); ++I)
    if (OldRec[I]->State != NewRec[I]->State)
      return false;

  SeamMaps Maps;
  if (!isoWalk(OldRec, NewRec, ResumeLayer, Maps)) {
    ++Stats.IsoWalkFailures;
    return false;
  }

  // The suffix is old layers P+1..OldN. A forest mapping that finds a
  // violated assumption leaves it untouched, so a later layer can still
  // try.
  const size_t First = P - ResumeLayer;
  std::unordered_map<ForestNode *, ForestNode *> ForestMemo;
  if (!rebuildSuffixForest(First, P, D, Maps, ForestMemo))
    return false;

  graft(First, D, Maps, ForestMemo);
  return true;
}

bool ParseDocument::isoWalk(ArrayView<GssNode *> OldRec,
                            ArrayView<GssNode *> NewRec, size_t ResumeLayer,
                            SeamMaps &Maps) const {
  std::vector<std::pair<GssNode *, GssNode *>> Work;

  // Pairs O with N; false on any structural disagreement. Nodes at or
  // below the resume layer are shared between the parses, so there the
  // isomorphism must be the identity.
  auto Pair = [&](GssNode *O, GssNode *N) -> bool {
    if (O == N)
      return true;
    if (O->Layer <= ResumeLayer || N->Layer <= ResumeLayer)
      return false;
    auto It = Maps.Phi.find(O);
    if (It != Maps.Phi.end())
      return It->second == N;
    if (O->State != N->State || O->Edges.size() != N->Edges.size())
      return false;
    Maps.Phi.emplace(O, N);
    Work.push_back({O, N});
    return true;
  };

  for (size_t I = 0; I < OldRec.size(); ++I)
    if (!Pair(OldRec[I], NewRec[I]))
      return false;

  // Edge lists are compared in order: the fixpoint that builds a layer
  // is deterministic in the reachable stack, so truly converged parses
  // produce edges in the same order, and any order mismatch is a real
  // structural difference (or close enough — failing is always sound).
  while (!Work.empty()) {
    auto [O, N] = Work.back();
    Work.pop_back();
    auto ItN = N->Edges.begin();
    for (const GssNode::Edge &EO : O->Edges) {
      const GssNode::Edge &EN = *ItN;
      ++ItN;
      if (!Pair(EO.Back, EN.Back))
        return false;
      if (EO.Deriv != EN.Deriv) {
        auto [It, Inserted] = Maps.Psi.try_emplace(EO.Deriv, EN.Deriv);
        if (!Inserted && It->second != EN.Deriv)
          return false;
      }
    }
  }
  return true;
}

bool ParseDocument::rebuildSuffixForest(
    size_t First, size_t OldLayer, const Damage &D, SeamMaps &Maps,
    std::unordered_map<ForestNode *, ForestNode *> &ForestMemo) {
  const auto DamageStart = static_cast<uint32_t>(D.Start);
  const auto OldDamageEnd = static_cast<uint32_t>(
      static_cast<std::ptrdiff_t>(D.EndNew) - D.Delta);
  constexpr uint32_t NoHint = ~0u;
  std::vector<ForestNode *> Created;

  // Maps one old forest node into the new coordinate system. StartHint
  // resolves the one underdetermined case: a span that *starts* inside
  // the damage gets its new start from context (the re-pointed stack
  // node below its edge, or the preceding sibling's end).
  auto MapNode = [&](auto &&Self, ForestNode *Old,
                     uint32_t StartHint) -> ForestNode * {
    if (auto It = ForestMemo.find(Old); It != ForestMemo.end())
      return It->second;
    if (auto It = Maps.Psi.find(Old); It != Maps.Psi.end()) {
      ForestMemo.emplace(Old, It->second);
      return It->second;
    }
    if (Old->End <= DamageStart) {
      // Entirely inside the unchanged prefix: still true of the new
      // buffer, reuse outright.
      ForestMemo.emplace(Old, Old);
      return Old;
    }
    if (Old->IsToken) {
      if (Old->Start < OldDamageEnd)
        return nullptr; // A damaged token outside the seam map.
      ForestNode *T = F.token(
          Old->Sym, static_cast<uint32_t>(
                        static_cast<std::ptrdiff_t>(Old->Start) + D.Delta));
      ForestMemo.emplace(Old, T);
      return T;
    }
    if (Old->End < OldDamageEnd)
      return nullptr; // Overlaps the damage but was not seam-mapped.
    uint32_t NS;
    if (Old->Start <= DamageStart)
      NS = Old->Start;
    else if (Old->Start >= OldDamageEnd)
      NS = static_cast<uint32_t>(static_cast<std::ptrdiff_t>(Old->Start) +
                                 D.Delta);
    else if (StartHint != NoHint)
      NS = StartHint;
    else
      return nullptr;
    const auto NE = static_cast<uint32_t>(
        static_cast<std::ptrdiff_t>(Old->End) + D.Delta);
    ForestNode *NN = F.restoreNode(Old->Sym, NS, NE, /*IsToken=*/false);
    Created.push_back(NN);
    // Memoize before the children: cyclic forests terminate against the
    // shell, whose span is already final.
    ForestMemo.emplace(Old, NN);
    for (const ForestNode::Alternative &Alt : Old->Alts) {
      std::vector<ForestNode *> Kids;
      Kids.reserve(Alt.Children.size());
      uint32_t Cur = NS; // Children tile the parent span left to right.
      for (ForestNode *C : Alt.Children) {
        ForestNode *MC = Self(Self, C, Cur);
        if (MC == nullptr)
          return nullptr;
        Kids.push_back(MC);
        Cur = MC->End;
      }
      F.addAlternative(NN, Alt.Rule, Kids);
    }
    return NN;
  };

  for (size_t K = First; K < OldTail.size(); ++K)
    for (GssNode *Nd : OldTail[K])
      for (const GssNode::Edge &E : Nd->Edges) {
        uint32_t Hint;
        if (auto It = Maps.Phi.find(E.Back); It != Maps.Phi.end())
          Hint = It->second->Layer;
        else if (E.Back->Layer > OldLayer)
          Hint = static_cast<uint32_t>(
              static_cast<std::ptrdiff_t>(E.Back->Layer) + D.Delta);
        else
          Hint = E.Back->Layer; // Shared prefix node keeps its layer.
        if (MapNode(MapNode, E.Deriv, Hint) == nullptr)
          return false;
      }

  // Publish only now, when no assumption can fail anymore: half-built
  // nodes must never become packing targets.
  for (ForestNode *NN : Created)
    F.indexRestored(NN);
  return true;
}

void ParseDocument::graft(
    size_t First, const Damage &D, SeamMaps &Maps,
    std::unordered_map<ForestNode *, ForestNode *> &ForestMemo) {
  for (size_t K = First; K < OldTail.size(); ++K)
    for (GssNode *Nd : OldTail[K]) {
      Nd->Layer = static_cast<uint32_t>(
          static_cast<std::ptrdiff_t>(Nd->Layer) + D.Delta);
      for (GssNode::Edge &E : Nd->Edges) {
        if (auto It = Maps.Phi.find(E.Back); It != Maps.Phi.end())
          E.Back = It->second;
        E.Deriv = ForestMemo.at(E.Deriv);
      }
    }
  Engine.adoptTail(OldTail, First, Tokens.size());
}
