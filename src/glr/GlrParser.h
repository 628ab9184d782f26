//===- glr/GlrParser.h - Tomita parsing on a graph-structured stack -*- C++ -*-===//
///
/// \file
/// The (pseudo-)parallel LR parser of §3.2, in the efficient formulation:
/// instead of copying whole LR parsers (PAR-PARSE), the parsers' stacks are
/// merged into a graph-structured stack, and derivations are packed into a
/// shared forest. This is the "more efficient style of programming than
/// Tomita did in his book" the §7 footnote alludes to; the literal
/// PAR-PARSE lives in glr/ParParse.h for fidelity tests and ablation.
///
/// The stepping machinery itself lives in glr/GssEngine.h — a resumable
/// stepper the incremental layer drives token by token. This class is the
/// one-shot convenience over it: feed a whole TokenView, return the
/// verdict and forest.
///
//===----------------------------------------------------------------------===//

#ifndef IPG_GLR_GLRPARSER_H
#define IPG_GLR_GLRPARSER_H

#include "glr/Forest.h"
#include "glr/GssEngine.h"
#include "lr/ItemSetGraph.h"
#include "support/TokenView.h"

#include <vector>

namespace ipg {

/// Tomita parser over a (possibly still growing) graph of item sets.
class GlrParser {
public:
  explicit GlrParser(ItemSetGraph &Graph) : Engine(Graph) {}

  /// Parses the tokens of \p Input from its cursor to the end (terminals,
  /// no end marker), building derivations in \p F. Expands the item-set
  /// graph on demand via ACTION.
  GlrResult parse(TokenView Input, Forest &F);

  /// Convenience: parse and report acceptance only (still builds the
  /// forest, as the paper's measurements do — "the parsers constructed a
  /// parse tree but did not print it").
  bool recognize(TokenView Input);


private:
  GssEngine Engine;
};

} // namespace ipg

#endif // IPG_GLR_GLRPARSER_H
