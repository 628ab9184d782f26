//===- lr/LrParser.h - Deterministic LR driver (§3.1) -----------*- C++ -*-===//
///
/// \file
/// LR-PARSE of §3.1, extended to build a parse tree: a stack of states (plus
/// a parallel stack of tree nodes), driven by a deterministic ParseTable.
/// This is the driver behind the "Yacc" baseline of §7 when fed an LALR(1)
/// table, and behind plain LR(0) parsing in tests.
///
//===----------------------------------------------------------------------===//

#ifndef IPG_LR_LRPARSER_H
#define IPG_LR_LRPARSER_H

#include "grammar/Tree.h"
#include "lr/ParseTable.h"
#include "support/TokenView.h"

#include <vector>

namespace ipg {

/// Outcome of a deterministic LR parse.
struct LrParseResult {
  bool Accepted = false;
  /// START-rooted tree (valid while the arena lives); null on rejection.
  TreeNode *Tree = nullptr;
  /// Token index at which the error action was hit (== input size when the
  /// end marker was rejected).
  size_t ErrorIndex = 0;
  uint64_t NumShifts = 0;
  uint64_t NumReduces = 0;
};

/// Deterministic table-driven LR parser.
class LrParser {
public:
  /// \p Table must be deterministic (assert-checked per parse action).
  LrParser(const ParseTable &Table, const Grammar &G) : Table(Table), G(G) {}

  /// Parses \p Input (terminal symbols, no end marker) into a tree.
  LrParseResult parse(TokenView Input, TreeArena &Arena) const;

  /// Recognition only — no tree construction (for benchmarks).
  bool recognize(TokenView Input) const;


private:
  const ParseTable &Table;
  const Grammar &G;
};

} // namespace ipg

#endif // IPG_LR_LRPARSER_H
