//===- core/Ipg.h - The lazy & incremental parser generator -----*- C++ -*-===//
///
/// \file
/// IPG, the paper's contribution: a parser whose LR(0) table is generated
/// by need while parsing (§5) and repaired incrementally when the grammar
/// changes (§6). This facade owns the graph of item sets and a Tomita
/// parser over it:
///
/// \code
///   ipg::Grammar G;
///   ipg::GrammarBuilder B(G);
///   B.rule("START", {"B"});
///   B.rule("B", {"true"});
///   ipg::Ipg Gen(G);                   // no generation happens here
///   Gen.recognize(Tokens);            // table grows on demand
///   Gen.addRule("B", {"unknown"});    // incremental repair, not regen
///   Gen.recognize(Tokens2);           // affected states re-expand lazily
/// \endcode
///
/// LazyParserGenerator (an alias) is the §5-only subset: use it and simply
/// never call the modification operations.
///
//===----------------------------------------------------------------------===//

#ifndef IPG_CORE_IPG_H
#define IPG_CORE_IPG_H

#include "core/Snapshot.h"
#include "glr/GlrParser.h"
#include "lr/ItemSetGraph.h"
#include "support/Expected.h"
#include "support/Json.h"

#include <string>
#include <string_view>
#include <vector>

namespace ipg {

/// The lazy & incremental parser generator plus its parser.
class Ipg {
public:
  /// GENERATE-PARSER (§5): records the start set only; no table is built.
  explicit Ipg(Grammar &G) : Graph(G), Parser(Graph) {}

  Grammar &grammar() { return Graph.grammar(); }
  ItemSetGraph &graph() { return Graph; }
  const ItemSetGraph &graph() const { return Graph; }

  /// ADD-RULE (§6). Returns false when the rule was already present.
  bool addRule(SymbolId Lhs, std::vector<SymbolId> Rhs) {
    return Graph.addRule(Lhs, std::move(Rhs));
  }

  /// ADD-RULE by symbol names (names are interned on the fly).
  bool addRule(std::string_view Lhs,
               std::initializer_list<std::string_view> Rhs);

  /// DELETE-RULE (§6). Returns false when no such rule was active.
  bool deleteRule(SymbolId Lhs, const std::vector<SymbolId> &Rhs) {
    return Graph.removeRule(Lhs, Rhs);
  }

  /// DELETE-RULE by symbol names.
  bool deleteRule(std::string_view Lhs,
                  std::initializer_list<std::string_view> Rhs);

  /// Parses \p Input with the Tomita parser, growing the table on demand.
  GlrResult parse(TokenView Input, Forest &F) {
    return Parser.parse(Input, F);
  }

  /// Recognition only (the forest is still built, as in §7's measurements).
  bool recognize(TokenView Input) { return Parser.recognize(Input); }

  /// Forces full generation (the conventional PG behaviour of §4);
  /// used by equivalence tests and the lazy-overhead ablation.
  size_t generateAll() { return Graph.generateAll(); }

  /// Mark-and-sweep fallback for cyclic garbage (§6.2 future work).
  size_t collectGarbage() { return Graph.collectGarbage(); }

  /// Persists the current graph of item sets — including its lazy/dirty
  /// frontier and stats — to \p Path (core/Snapshot.h) as an
  /// `ipg-snap-v2` file: the flat, mmap-adoptable layout whose
  /// fingerprint-matched load is zero-copy. Returns the bytes written.
  /// Serialization is byte-deterministic: the same graph saves to
  /// identical bytes in every build type.
  Expected<size_t> saveSnapshot(const std::string &Path) const;

  /// As above, appending \p Extras as opaque tagged sections behind the
  /// GRPH payload (core/Snapshot.h: the carrier of suspended parses and
  /// future riders). Extras are covered by the payload checksum but absent
  /// from the header's section table, so pre-extra v2 readers load the
  /// file unchanged.
  Expected<size_t>
  saveSnapshot(const std::string &Path,
               const std::vector<SnapshotExtraSection> &Extras) const;

  /// Warm-starts from a snapshot: replaces the current (typically one-node)
  /// graph with the persisted one, adopted zero-copy from a private
  /// mapping when the layout fingerprint matches. Files in the retired
  /// `ipg-snap-v1` format, or whose graph section predates the flat-arena
  /// layout, are rejected with an Error naming the cause. When the
  /// snapshot's grammar fingerprint does not match this generator's
  /// grammar, the snapshot's rule set is diffed against the live grammar
  /// and the delta is replayed through ADD-RULE/DELETE-RULE, so the §6
  /// machinery repairs the stale states instead of discarding the snapshot.
  /// On error the generator is left as freshly constructed (grammar
  /// unchanged up to version counts and interned-but-inactive rules).
  Expected<SnapshotLoadResult> loadSnapshot(const std::string &Path);

  /// As above, also copying the file's first extra section tagged
  /// \p ExtraTag into \p Extra, out of the same mapping. Such a load
  /// verifies the payload checksum once, before the graph is touched, and
  /// fails when the file has no such section.
  Expected<SnapshotLoadResult> loadSnapshot(const std::string &Path,
                                            uint32_t ExtraTag,
                                            std::vector<uint8_t> &Extra);

  /// Fraction of the full table that has been generated so far: live
  /// complete sets over the size of a freshly generated full table for the
  /// current grammar (computed against a cloned grammar, so the receiver's
  /// laziness is unaffected). The §5.2 measurement.
  double coverage() const;

  ItemSetGraphStats stats() const { return Graph.stats(); }

  /// A point-in-time observability document: this graph's counters plus
  /// derived set counts (live/complete/dirty — exclusive-mode walks) and
  /// the process-wide metrics registry (docs/OBSERVABILITY.md). For the
  /// shared-graph equivalent see GrammarServer::metricsJson().
  JsonValue metricsJson() const;

private:
  ItemSetGraph Graph;
  GlrParser Parser;
};

/// The §5-only lazy generator: identical machinery, no modification calls.
using LazyParserGenerator = Ipg;

} // namespace ipg

#endif // IPG_CORE_IPG_H
