//===- grammar/GrammarIO.h - Grammar snapshot section & fingerprint -*- C++ -*-===//
///
/// \file
/// Binary persistence of a Grammar for the snapshot subsystem: the GRAM
/// section serializes the symbol table and every interned rule (active or
/// not — item-set kernels may still reference retired rules), and the
/// content fingerprint condenses the *active* rule set into one 64-bit
/// value. The fingerprint hashes symbol names, not ids, and folds the
/// per-rule hashes commutatively, so two grammars fingerprint equal
/// exactly when they define the same language fragment — regardless of
/// interning order or deleted-rule history. The snapshot header stores it
/// so tooling can key shared snapshot caches on grammar content without
/// decoding bodies; the loader itself establishes content equality from
/// the layout fingerprint (fast path) or the computed rule delta
/// (core/Snapshot.h).
///
//===----------------------------------------------------------------------===//

#ifndef IPG_GRAMMAR_GRAMMARIO_H
#define IPG_GRAMMAR_GRAMMARIO_H

#include "grammar/Grammar.h"
#include "support/Expected.h"
#include "support/FlatSection.h"

#include <string_view>
#include <vector>

namespace ipg {

/// Content fingerprint over the interned symbols and active rules of \p G,
/// by name: stable across processes, interning order and rule-id history.
uint64_t grammarFingerprint(const Grammar &G);

/// Layout fingerprint: an order-*sensitive* hash over the symbol table
/// (names and flags, in id order) and every interned rule (ids, active
/// flag, in id order). Two grammars with equal layout fingerprints assign
/// identical ids to identical content, so a snapshot saved from one can be
/// adopted by the other with identity id maps — the warm-start fast path
/// that skips the whole by-name remapping.
uint64_t grammarLayoutFingerprint(const Grammar &G);

/// The decoded GRAM section: a grammar snapshot detached from any Grammar
/// instance. Symbol and rule ids are snapshot-local dense indices. Names
/// are zero-copy views into the section's backing buffer — keep it alive.
struct GrammarSnapshot {
  struct Symbol {
    std::string_view Name;
    bool IsNonterminal = false;
  };
  struct SnapRule {
    uint32_t Lhs = 0;                ///< Snapshot-local symbol index.
    std::vector<uint32_t> Rhs;       ///< Snapshot-local symbol indices.
    bool IsActive = false;
  };

  std::vector<Symbol> Symbols;
  std::vector<SnapRule> Rules;
};

/// Serializes \p G (symbol table + all interned rules with their active
/// flags) as an `ipg-snap-v2` GRAM section body into \p Section (which
/// must be empty; offsets are relative to its start, the caller places it
/// 8-aligned in the file). Emits ids in interning order, so equal
/// construction histories serialize byte-identically. Laid out as
/// offset-indexed fixed-width pools (symbol records, rule records, RHS
/// ids, name bytes) so the reader never scans variable-length records to
/// find a field.
void writeGrammarSnapshotV2(const Grammar &G, FlatWriter &Section);

/// Decodes a v2 GRAM section body (endian-safe field reads — the GRAM
/// section is only decoded on the remapping slow path, never adopted).
/// Names are zero-copy views into \p Section's backing buffer — keep it
/// alive. Validates every symbol reference; a malformed section yields an
/// Error, never a partial snapshot.
Expected<GrammarSnapshot> readGrammarSnapshotV2(FlatView Section);

} // namespace ipg

#endif // IPG_GRAMMAR_GRAMMARIO_H
