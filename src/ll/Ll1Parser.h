//===- ll/Ll1Parser.h - LL(1) table generation and parsing ------*- C++ -*-===//
///
/// \file
/// The LL(1) baseline of §2: a top-down table (nonterminal × terminal →
/// rule) built from FIRST/FOLLOW and a stack-driven parser. The accepted
/// class is limited to non-left-recursive, non-ambiguous grammars — the
/// limitation Fig 2.1 charges against recursive descent and LL(k).
///
//===----------------------------------------------------------------------===//

#ifndef IPG_LL_LL1PARSER_H
#define IPG_LL_LL1PARSER_H

#include "grammar/Analyses.h"
#include "grammar/Tree.h"
#include "support/TokenView.h"

#include <string>
#include <vector>

namespace ipg {

/// An LL(1) table conflict: two rules claim the same (nonterminal,
/// lookahead) cell.
struct Ll1Conflict {
  SymbolId Nonterminal;
  SymbolId Lookahead;
  RuleId First;
  RuleId Second;
};

/// The LL(1) parse table for one grammar version.
class Ll1Table {
public:
  /// Builds the table; conflicts (left recursion, common prefixes,
  /// ambiguity) are recorded rather than fatal — isLl1() reports them.
  explicit Ll1Table(const Grammar &G);

  bool isLl1() const { return Conflicts.empty(); }
  const std::vector<Ll1Conflict> &conflicts() const { return Conflicts; }

  /// The rule to expand for (\p Nonterminal, \p Lookahead); InvalidRule
  /// means error.
  RuleId rule(SymbolId Nonterminal, SymbolId Lookahead) const {
    return Cells[Nonterminal * NumSymbols + Lookahead];
  }

private:
  void addCell(SymbolId Nonterminal, SymbolId Lookahead, RuleId Rule);

  size_t NumSymbols;
  std::vector<RuleId> Cells;
  std::vector<Ll1Conflict> Conflicts;
};

/// Outcome of an LL(1) parse.
struct Ll1Result {
  bool Accepted = false;
  TreeNode *Tree = nullptr;
  size_t ErrorIndex = 0;
};

/// Stack-driven LL(1) parser.
class Ll1Parser {
public:
  Ll1Parser(const Ll1Table &Table, const Grammar &G) : Table(Table), G(G) {}

  Ll1Result parse(TokenView Input, TreeArena &Arena) const;
  bool recognize(TokenView Input) const;


private:
  const Ll1Table &Table;
  const Grammar &G;
};

} // namespace ipg

#endif // IPG_LL_LL1PARSER_H
