//===- incremental/ParseDocument.h - Resumable, editable parses -*- C++ -*-===//
///
/// \file
/// An incremental parse *session*: one editable token buffer plus one
/// suspended-or-finished Tomita parse of it, kept consistent across span
/// edits by bounded re-parse. This is the input-side dual of the paper's
/// grammar-side incrementality — §6 repairs the *table* after a grammar
/// edit; ParseDocument repairs the *parse* after a document edit, using
/// the same "only the affected region is recomputed" discipline.
///
/// The machinery rests on two properties of glr/GssEngine.h:
///
///  * Every layer's post-fixpoint frontier is recorded, and under LR(0)
///    it is a deterministic function of the tokens before it — an exact
///    checkpoint. An edit at token E therefore resumes by restoring the
///    layer-E record and re-stepping; everything before E is reused
///    outright.
///
///  * Re-stepping past the damage converges: once the new parse has
///    consumed the replacement tokens, its frontiers are built from the
///    same suffix tokens as the old parse's, so at some layer q the new
///    frontier becomes isomorphic to the old frontier at q - Delta
///    (Delta = net length change). The session detects this with a cheap
///    per-layer state-id precheck followed by a full structural
///    isomorphism walk over the damage region, then *grafts*: the old
///    parse's suffix layers are adopted wholesale (layers shifted by
///    Delta, seam edges re-pointed through the isomorphism, forest
///    derivations rebuilt 1:1 into the new coordinate system) and the
///    parse finishes without ever stepping the suffix. Work is bounded
///    by the damage, not the document.
///
/// Anything that violates a graft assumption falls back — first to
/// continuing the re-step to the end of input (still reusing the prefix),
/// ultimately to a from-scratch parse. Both fallbacks are always sound;
/// the graft is an optimization gated on a proof of convergence.
///
/// A session can also *suspend*: advanceTo() parses a prefix and stops,
/// leaving the engine's live stack intact. incremental/ParseSnapshot.h
/// serializes that state as the PARS section of an `ipg-snap-v2` file so
/// the parse can resume in another process.
///
//===----------------------------------------------------------------------===//

#ifndef IPG_INCREMENTAL_PARSEDOCUMENT_H
#define IPG_INCREMENTAL_PARSEDOCUMENT_H

#include "glr/GssEngine.h"
#include "support/TokenView.h"

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace ipg {

/// How the last reparse() satisfied its request — observability for tests,
/// the editor-session bench, and the ≥5x reuse evidence.
struct ReparseStats {
  /// Which path produced the current result.
  enum PathKind {
    Scratch,   ///< begin() + full step loop (first parse or fallback).
    Resumed,   ///< restored a checkpoint, re-stepped to end of input.
    Grafted,   ///< restored, re-stepped the damage, grafted the old suffix.
    Unchanged, ///< no pending edit; cached result returned.
  };
  PathKind Path = Scratch;

  /// Layer the parse resumed from (0 for scratch).
  size_t ResumedAt = 0;
  /// Layer at which the frontier re-converged with the old parse
  /// (Grafted only; otherwise the input size).
  size_t ConvergedAt = 0;
  /// GSS nodes constructed by this reparse (layers actually stepped plus
  /// acceptance bookkeeping) — the bounded-work evidence. Grafted suffix
  /// nodes are adopted, not constructed, and do not count.
  uint64_t GssNodesConstructed = 0;
  /// Convergence prechecks that matched state-id sequences but failed the
  /// structural isomorphism walk (diagnosis counter).
  uint64_t IsoWalkFailures = 0;
};

/// An editable token buffer married to a resumable GLR parse of it.
/// Single-threaded, like ParseSession; the graph it parses against may be
/// shared and concurrently expanding.
class ParseDocument {
public:
  explicit ParseDocument(ItemSetGraph &Graph) : Engine(Graph) {}

  ParseDocument(const ParseDocument &) = delete;
  ParseDocument &operator=(const ParseDocument &) = delete;

  //===--------------------------------------------------------------------===//
  // The token buffer. Edits are by token span; they invalidate nothing
  // eagerly — damage accumulates and the next reparse()/advanceTo() pays
  // for exactly the merged damage.
  //===--------------------------------------------------------------------===//

  const std::vector<SymbolId> &tokens() const { return Tokens; }
  size_t size() const { return Tokens.size(); }
  TokenView view() const { return TokenView(Tokens); }

  /// Replaces the whole buffer (damage = everything).
  void setTokens(std::vector<SymbolId> NewTokens);

  /// Replaces tokens [Begin, End) with \p Replacement.
  void replace(size_t Begin, size_t End, ArrayView<SymbolId> Replacement);

  void insert(size_t At, ArrayView<SymbolId> NewTokens) {
    replace(At, At, NewTokens);
  }
  void insert(size_t At, SymbolId Tok) {
    replace(At, At, ArrayView<SymbolId>(&Tok, 1));
  }
  void erase(size_t Begin, size_t End) {
    replace(Begin, End, ArrayView<SymbolId>());
  }

  //===--------------------------------------------------------------------===//
  // Parsing.
  //===--------------------------------------------------------------------===//

  /// Brings the parse up to date with the buffer — from scratch, by
  /// resume, or by graft, whichever the pending damage admits — and
  /// returns the result. Idempotent when nothing changed.
  const GlrResult &reparse();

  /// Declares every layer >= \p Layer invalid *without* touching the
  /// token buffer: the graph's ACTION/GOTO behavior changed there — an
  /// epoch migration (server/DocumentSession.h) or an in-place grammar
  /// MODIFY on the graph this document parses against. The next reparse()
  /// restores the last checkpoint before \p Layer and re-steps to the end
  /// of input; convergence grafting is disabled for that re-parse because
  /// the old suffix was computed under the old automaton, so frontier
  /// equality at one layer no longer proves suffix determinism. Layer 0
  /// discards the parse entirely (the next reparse is from scratch).
  /// Layers beyond what was parsed are a no-op.
  void invalidateFrom(size_t Layer);

  /// Parses forward to layer \p Layer (consuming tokens [pos, Layer))
  /// and *suspends* — no end-of-input round, no verdict. Applies any
  /// pending damage first. Returns false when every stack died (the
  /// session then holds a rejected result). Suspended state is exactly
  /// what ParseSnapshot serializes.
  bool advanceTo(size_t Layer);

  /// True when a parse is mid-input (advanceTo short of the end and no
  /// finishing reparse() yet).
  bool suspended() const { return State == ParseState::Suspended; }

  /// Layers parsed so far; == size() + sentinel once finished.
  size_t position() const { return Engine.position(); }

  /// The last finished result. Valid only after a reparse() that was not
  /// pre-empted by new edits.
  const GlrResult &result() const { return LastResult; }

  /// Statistics of the most recent reparse()/advanceTo().
  const ReparseStats &lastReparse() const { return Stats; }

  Forest &forest() { return F; }
  const Forest &forest() const { return F; }
  GssEngine &engine() { return Engine; }
  const GssEngine &engine() const { return Engine; }
  ItemSetGraph &graph() const { return Engine.graph(); }

private:
  friend class ParseSnapshot;

  enum class ParseState {
    Idle,      ///< Nothing parsed yet (or buffer wholly replaced).
    Suspended, ///< Engine mid-input; records cover layers [0, position).
    Finished,  ///< finish() ran; LastResult is the buffer's verdict.
  };

  /// One pending merged damage region, in *new*-buffer coordinates.
  struct Damage {
    bool Pending = false;
    size_t Start = 0;  ///< First changed token (old == new coordinate).
    size_t EndNew = 0; ///< One past the last changed token, new buffer.
    /// New length minus old length; old damage end = EndNew - Delta.
    std::ptrdiff_t Delta = 0;
    /// The automaton itself changed at/after Start (invalidateFrom):
    /// re-step to the end of input, never graft the old suffix.
    bool Automaton = false;
  };

  /// The isomorphism the convergence walk proves: old damage-region GSS
  /// nodes to their new counterparts, old seam forest derivations to the
  /// re-stepped ones.
  struct SeamMaps {
    std::unordered_map<GssNode *, GssNode *> Phi;
    std::unordered_map<ForestNode *, ForestNode *> Psi;
  };

  void noteEdit(size_t Begin, size_t End, size_t NewLen);

  /// The shared driver behind reparse() and advanceTo(): applies pending
  /// damage (scratch / restore / continue), steps to \p UpTo attempting
  /// convergence when eligible, and finishes or suspends.
  void run(size_t UpTo, bool Finish);

  /// One convergence attempt at new layer \p Q against old layer \p P
  /// (OldTail[P - ResumeLayer - 1]): state-id precheck, isomorphism walk,
  /// forest rebuild, graft. True when the graft committed (the engine
  /// then holds the full stack).
  bool tryConverge(size_t Q, size_t P, size_t ResumeLayer, const Damage &D);

  /// Structural isomorphism between the old frontier record \p OldRec
  /// and the new frontier record \p NewRec, walking the damage region
  /// down to pointer-shared prefix nodes (layer <= ResumeLayer). Fills
  /// \p Maps; false on any mismatch.
  bool isoWalk(ArrayView<GssNode *> OldRec, ArrayView<GssNode *> NewRec,
               size_t ResumeLayer, SeamMaps &Maps) const;

  /// Rebuilds the old suffix forest into new coordinates: every
  /// derivation on the edges of the suffix layers OldTail[First..] is
  /// mapped — identity inside the unchanged prefix, psi across the seam,
  /// a 1:1 restoreNode rebuild (spans shifted by Delta) elsewhere.
  /// \p OldLayer is the old-side convergence layer (the suffix covers
  /// OldLayer+1 onward). On success the rebuilt nodes are published to
  /// the packing index; on failure nothing reachable was created and the
  /// graft is abandoned.
  bool rebuildSuffixForest(size_t First, size_t OldLayer, const Damage &D,
                           SeamMaps &Maps,
                           std::unordered_map<ForestNode *, ForestNode *>
                               &ForestMemo);

  /// Commits the graft: fixes the suffix layers OldTail[First..] up in
  /// place (layers shifted, edges re-pointed through phi/the forest memo)
  /// and hands them to the engine.
  void graft(size_t First, const Damage &D, SeamMaps &Maps,
             std::unordered_map<ForestNode *, ForestNode *> &ForestMemo);

  std::vector<SymbolId> Tokens;
  GssEngine Engine;
  Forest F;
  /// The previous parse's records past the resume layer while a bounded
  /// re-parse probes for convergence (storage reused across re-parses).
  GssRecords OldTail;
  ParseState State = ParseState::Idle;
  Damage Dmg;
  GlrResult LastResult;
  ReparseStats Stats;
};

} // namespace ipg

#endif // IPG_INCREMENTAL_PARSEDOCUMENT_H
