//===- earley/EarleyParser.h - Earley's algorithm (1970) --------*- C++ -*-===//
///
/// \file
/// Earley's general context-free parsing algorithm — the comparison the
/// paper's §7 wanted but skipped ("as we did not have access to a good
/// implementation"). It recognizes the same class of grammars as IPG with
/// no generation phase at all, which is why §2 rates it maximally flexible
/// and minimally fast: every parse step recomputes what a table look-up
/// would have cached.
///
/// Implementation notes: the classic row-per-position chart with
/// prediction/scanning/completion; ε-rules are handled with the Aycock &
/// Horspool refinement (predicting a nullable nonterminal also advances
/// the dot over it). Parse trees are rebuilt top-down from the chart's
/// completed spans, memoized per (symbol, start, end).
///
//===----------------------------------------------------------------------===//

#ifndef IPG_EARLEY_EARLEYPARSER_H
#define IPG_EARLEY_EARLEYPARSER_H

#include "grammar/Analyses.h"
#include "grammar/Tree.h"
#include "support/TokenView.h"

#include <vector>

namespace ipg {

/// Outcome of an Earley parse.
struct EarleyResult {
  bool Accepted = false;
  /// START-rooted tree; null on rejection or in recognize-only mode.
  TreeNode *Tree = nullptr;
  /// Token index of the first set that came up empty (input size when the
  /// end was rejected).
  size_t ErrorIndex = 0;
  uint64_t ChartItems = 0; ///< Total items over all sets.
};

/// Grammar-driven Earley parser (no generation phase; reflects grammar
/// mutations immediately).
class EarleyParser {
public:
  explicit EarleyParser(const Grammar &G) : G(G) {}

  /// Parses \p Input (cursor to end) and builds a tree in \p Arena (any
  /// one derivation).
  EarleyResult parse(TokenView Input, TreeArena &Arena);

  /// Recognition only.
  bool recognize(TokenView Input);

  /// Counts the distinct derivation trees of \p Input, saturating at
  /// \p Cap. Cyclic derivations (a nonterminal deriving itself over the
  /// same span) have infinitely many trees and also count as \p Cap, the
  /// same convention as Forest::countTrees so the two engines can be
  /// differentially compared. Returns 0 when the input is rejected.
  uint64_t countDerivations(TokenView Input, uint64_t Cap = ~0ull >> 1);


private:
  struct ChartItem {
    RuleId Rule;
    uint32_t Dot;
    uint32_t Origin;

    bool operator==(const ChartItem &O) const {
      return Rule == O.Rule && Dot == O.Dot && Origin == O.Origin;
    }
  };

  EarleyResult run(ArrayView<SymbolId> Input, TreeArena *Arena,
                   uint64_t *TreeCount = nullptr, uint64_t Cap = 0);

  const Grammar &G;
};

} // namespace ipg

#endif // IPG_EARLEY_EARLEYPARSER_H
