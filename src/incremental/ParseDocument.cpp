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
  const size_t Forest0 = F.numNodes();

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
  Stats.ForestNodesCreated = F.numNodes() - Forest0;
}

//===----------------------------------------------------------------------===//
// Convergence: precheck, isomorphism walk, suffix forest plan, graft.
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

  if (!isoWalk(OldRec, NewRec, ResumeLayer)) {
    ++Stats.IsoWalkFailures;
    return false;
  }

  // The suffix is old layers P+1..OldN. A plan that finds a violated
  // assumption has changed nothing, so a later layer can still try.
  const size_t First = P - ResumeLayer;
  if (!planSuffixForest(First, P, D))
    return false;

  graft(First, D);
  return true;
}

bool ParseDocument::isoWalk(ArrayView<GssNode *> OldRec,
                            ArrayView<GssNode *> NewRec, size_t ResumeLayer) {
  Seam.Phi.clear(Engine.numArenaNodes());
  Seam.Psi.clear(F.numNodes());
  IsoWork.clear();

  // Pairs O with N; false on any structural disagreement. Nodes at or
  // below the resume layer are shared between the parses, so there the
  // isomorphism must be the identity.
  auto Pair = [&](GssNode *O, GssNode *N) -> bool {
    if (O == N)
      return true;
    if (O->Layer <= ResumeLayer || N->Layer <= ResumeLayer)
      return false;
    if (GssNode *const *Mapped = Seam.Phi.find(O->Id))
      return *Mapped == N;
    if (O->State != N->State || O->Edges.size() != N->Edges.size())
      return false;
    Seam.Phi.insert(O->Id) = N;
    IsoWork.push_back({O, N});
    return true;
  };

  for (size_t I = 0; I < OldRec.size(); ++I)
    if (!Pair(OldRec[I], NewRec[I]))
      return false;

  // Edge lists are compared in order: the fixpoint that builds a layer
  // is deterministic in the reachable stack, so truly converged parses
  // produce edges in the same order, and any order mismatch is a real
  // structural difference (or close enough — failing is always sound).
  while (!IsoWork.empty()) {
    auto [O, N] = IsoWork.back();
    IsoWork.pop_back();
    auto ItN = N->Edges.begin();
    for (const GssNode::Edge &EO : O->Edges) {
      const GssNode::Edge &EN = *ItN;
      ++ItN;
      if (!Pair(EO.Back, EN.Back))
        return false;
      if (EO.Deriv != EN.Deriv) {
        if (ForestNode *const *Mapped = Seam.Psi.find(EO.Deriv->Id)) {
          if (*Mapped != EN.Deriv)
            return false;
        } else {
          Seam.Psi.insert(EO.Deriv->Id) = EN.Deriv;
        }
      }
    }
  }
  return true;
}

bool ParseDocument::planSuffixForest(size_t First, size_t OldLayer,
                                     const Damage &D) {
  const auto DamageStart = static_cast<uint32_t>(D.Start);
  const auto OldDamageEnd = static_cast<uint32_t>(
      static_cast<std::ptrdiff_t>(D.EndNew) - D.Delta);
  auto Shift = [&](uint32_t X) {
    return static_cast<uint32_t>(static_cast<std::ptrdiff_t>(X) + D.Delta);
  };
  Plan.clear(F.numNodes());
  TokenAt.clear(Tokens.size() + 1);
  Moved.clear();
  PlanStack.clear();

  // Places one old node (null when an assumption fails). A node the graft
  // moves gets its final span here, before its children are placed, so
  // a cyclic forest meets a finished placement when it comes back round.
  // StartHint resolves the one underdetermined case: a span that *starts*
  // inside the damage takes its new start from context (the re-pointed
  // stack node below its edge, or the preceding sibling's end).
  auto Place = [&](ForestNode *Old, uint32_t StartHint) -> const Placement * {
    if (const Placement *Done = Plan.find(Old->Id))
      return Done;
    Placement &P = Plan.insert(Old->Id);
    if (ForestNode *const *SeamNode = Seam.Psi.find(Old->Id)) {
      P = {*SeamNode, (*SeamNode)->Start, (*SeamNode)->End};
    } else if (Old->End <= DamageStart) {
      // Entirely inside the unchanged prefix: still true of the new
      // buffer, kept as it is.
      P = {Old, Old->Start, Old->End};
    } else if (Old->IsToken) {
      if (Old->Start < OldDamageEnd)
        return nullptr; // A damaged token outside the seam map.
      // One token node per position: the re-stepped one, or the first
      // old token moved there.
      const uint32_t At = Shift(Old->Start);
      ForestNode *T;
      if (ForestNode *const *Claimed = TokenAt.find(At)) {
        T = *Claimed;
      } else if ((T = F.findToken(Old->Sym, At)) == nullptr) {
        T = Old;
        Moved.push_back(Old);
      }
      TokenAt.insert(At) = T;
      P = {T, At, At + 1};
    } else {
      if (Old->End < OldDamageEnd)
        return nullptr; // Overlaps the damage but was not seam-mapped.
      uint32_t NS;
      if (Old->Start <= DamageStart)
        NS = Old->Start;
      else if (Old->Start >= OldDamageEnd)
        NS = Shift(Old->Start);
      else
        NS = StartHint;
      P = {Old, NS, Shift(Old->End)};
      Moved.push_back(Old);
      PlanStack.push_back(PlanFrame{Old->Alts.first(), 0, NS, NS});
    }
    return &P;
  };

  for (size_t K = First; K < OldTail.size(); ++K)
    for (GssNode *Nd : OldTail[K])
      for (const GssNode::Edge &E : Nd->Edges) {
        uint32_t Hint;
        if (GssNode *const *Mapped = Seam.Phi.find(E.Back->Id))
          Hint = (*Mapped)->Layer;
        else if (E.Back->Layer > OldLayer)
          Hint = Shift(E.Back->Layer);
        else
          Hint = E.Back->Layer; // Shared prefix node keeps its layer.
        if (Place(E.Deriv, Hint) == nullptr)
          return false;
        // Depth-first over the moved nodes' children, on an explicit
        // stack: forest depth is bounded by memory, not the thread's
        // stack.
        while (!PlanStack.empty()) {
          PlanFrame &Fr = PlanStack.back();
          if (Fr.Alt == nullptr) {
            PlanStack.pop_back();
          } else if (Fr.Child == Fr.Alt->Children.size()) {
            Fr.Alt = Fr.Alt->Next;
            Fr.Child = 0;
            Fr.Cur = Fr.Start; // Children tile the parent span.
          } else {
            const size_t Depth = PlanStack.size();
            const Placement *C =
                Place(Fr.Alt->Children[Fr.Child++], Fr.Cur);
            if (C == nullptr)
              return false;
            PlanStack[Depth - 1].Cur = C->End; // Place() may have pushed.
          }
        }
      }
  return true;
}

void ParseDocument::graft(size_t First, const Damage &D) {
  auto Target = [&](ForestNode *Old) { return Plan.find(Old->Id)->Target; };
  for (ForestNode *Node : Moved) {
    const Placement &P = *Plan.find(Node->Id);
    F.moveNode(Node, P.Start, P.End, Target);
  }
  for (size_t K = First; K < OldTail.size(); ++K)
    for (GssNode *Nd : OldTail[K]) {
      Nd->Layer = static_cast<uint32_t>(
          static_cast<std::ptrdiff_t>(Nd->Layer) + D.Delta);
      for (GssNode::Edge &E : Nd->Edges) {
        if (GssNode *const *Mapped = Seam.Phi.find(E.Back->Id))
          E.Back = *Mapped;
        E.Deriv = Target(E.Deriv);
      }
    }
  Engine.adoptTail(OldTail, First, Tokens.size());
}
