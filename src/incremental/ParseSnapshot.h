//===- incremental/ParseSnapshot.h - Suspended parses on disk ---*- C++ -*-===//
///
/// \file
/// Serialization of a suspended (or finished) ParseDocument as a PARS
/// extra section riding in an `ipg-snap-v2` container (core/Snapshot.h).
/// One file carries both halves of the state a resumed parse needs: the
/// item-set graph the GSS points into (the standard GRAM+GRPH payload)
/// and the parse itself (token buffer, forest, stack, per-layer
/// checkpoint records, position) as the PARS rider. A parse can therefore
/// suspend mid-input in one process and resume — with full bounded
/// re-parse capability — in another:
///
/// \code
///   ParseDocument Doc(Gen.graph());
///   Doc.setTokens(Tokens);
///   Doc.advanceTo(Tokens.size() / 2);              // suspend mid-input
///   ParseSnapshot::save(Gen, Doc, "parse.snap");
///
///   // ... elsewhere, over the same grammar:
///   auto Doc2 = ParseSnapshot::resume(Gen2, "parse.snap");
///   (*Doc2)->reparse();                            // finish the parse
/// \endcode
///
/// Soundness rests on the flat-arena id stability of the v2 graph
/// snapshot: a fingerprint-matched load rebuilds every item set at the id
/// it was saved under, so GSS nodes serialized as state *ids* re-bind to
/// the same states. resume() therefore refuses snapshots whose load was
/// not FingerprintMatched — a remapped/repaired graph has no such
/// guarantee, and a suspended stack over a *different* grammar is not a
/// parse worth continuing anyway.
///
/// The PARS body is a FlatSection record (support/FlatSection.h): a
/// header of counts, result fields and array offsets, then fixed-width
/// arrays of tokens, forest nodes, alternatives, child ids, GSS nodes,
/// edges and checkpoint records. Resume seats each array with one bounds
/// check and validates every index and structural invariant (spans and
/// rule shapes, edges along graph transitions, record/position
/// agreement, sorted record frontiers) before building anything, so a
/// corrupted rider is rejected rather than seated.
///
//===----------------------------------------------------------------------===//

#ifndef IPG_INCREMENTAL_PARSESNAPSHOT_H
#define IPG_INCREMENTAL_PARSESNAPSHOT_H

#include "incremental/ParseDocument.h"
#include "support/Expected.h"

#include <memory>
#include <string>

namespace ipg {

class Ipg;

/// Saves and resumes suspended parse sessions. Stateless — both
/// operations are static.
class ParseSnapshot {
public:
  /// Writes \p Gen's graph snapshot plus \p Doc's parse state to \p Path.
  /// \p Doc must belong to \p Gen's graph, must have parsed at least one
  /// layer (not Idle), and must have no pending un-reparsed edit — the
  /// damage window is transient coordination state, not checkpoint state;
  /// call reparse()/advanceTo() first. Returns the bytes written.
  static Expected<size_t> save(const Ipg &Gen, const ParseDocument &Doc,
                               const std::string &Path);

  /// Rebuilds a ParseDocument from \p Path over \p Gen. Warm-starts
  /// \p Gen from the file first (loadSnapshot) and errors unless that
  /// load was FingerprintMatched — state ids in the stack only re-bind
  /// correctly over the exact saved graph. The returned document is in
  /// exactly the suspended/finished state the saved one was in: position,
  /// checkpoints, forest sharing and the resumed flag all survive.
  static Expected<std::unique_ptr<ParseDocument>>
  resume(Ipg &Gen, const std::string &Path);
};

} // namespace ipg

#endif // IPG_INCREMENTAL_PARSESNAPSHOT_H
