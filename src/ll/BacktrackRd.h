//===- ll/BacktrackRd.h - Backtracking recursive descent --------*- C++ -*-===//
///
/// \file
/// OBJ-style recursive descent with backtracking (§2): a top-down parser
/// that tries rule alternatives in order and backtracks on failure. It
/// detects all parses of finitely ambiguous inputs, but "parsing can be
/// expensive for complex expressions" — the step counter makes that cost
/// measurable, and the step limit turns divergence on left-recursive
/// grammars into a reported failure instead of a stack overflow.
///
//===----------------------------------------------------------------------===//

#ifndef IPG_LL_BACKTRACKRD_H
#define IPG_LL_BACKTRACKRD_H

#include "grammar/Tree.h"
#include "support/TokenView.h"

#include <functional>
#include <vector>

namespace ipg {

/// Outcome of a backtracking recursive-descent parse.
struct RdResult {
  bool Accepted = false;
  /// True when the step limit cut the search short (e.g. left recursion).
  bool LimitHit = false;
  TreeNode *Tree = nullptr;
  uint64_t Steps = 0;
  /// Number of complete parses found (parse() stops at 1; countParses()
  /// keeps going).
  uint64_t Parses = 0;
};

/// Grammar-driven backtracking parser. No generation phase: it reflects
/// grammar modifications immediately, like Earley.
class BacktrackRdParser {
public:
  explicit BacktrackRdParser(const Grammar &G, uint64_t StepLimit = 2'000'000)
      : G(G), StepLimit(StepLimit) {}

  /// Finds the first parse (leftmost rule order) and its tree.
  RdResult parse(TokenView Input, TreeArena &Arena);

  /// Counts complete parses, stopping at \p Limit.
  RdResult countParses(TokenView Input, uint64_t Limit);


private:
  RdResult run(ArrayView<SymbolId> Input, TreeArena *Arena,
               uint64_t ParseLimit);

  const Grammar &G;
  uint64_t StepLimit;
};

} // namespace ipg

#endif // IPG_LL_BACKTRACKRD_H
