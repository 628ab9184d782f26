//===- glr/ParParse.h - The paper's literal PAR-PARSE (§3.2) ----*- C++ -*-===//
///
/// \file
/// A faithful transcription of the paper's PAR-PARSE: a pool of simple LR
/// parsers, copied per action, synchronized on shifts via the this-sweep /
/// next-sweep pools. Stacks are persistent lists so that "the parse stacks
/// become different objects which share the states on them" (§3.2) — the
/// copy is O(1).
///
/// This version exists for fidelity: it recognizes only (no trees), it
/// deliberately calls GOTO without forcing expansion (exercising the
/// Appendix A invariant under lazy generation), it can blow up
/// exponentially on ambiguity, and it diverges on ε/cyclic reduction
/// chains exactly as Tomita's original would — the step limit turns that
/// divergence into a reported failure. The production parser is
/// glr/GlrParser.h.
///
//===----------------------------------------------------------------------===//

#ifndef IPG_GLR_PARPARSE_H
#define IPG_GLR_PARPARSE_H

#include "lr/ItemSetGraph.h"
#include "support/TokenView.h"

#include <vector>

namespace ipg {

/// Outcome of a PAR-PARSE run.
struct ParParseResult {
  bool Accepted = false;
  /// True when the step limit was hit (ε/cyclic reduction chains).
  bool Diverged = false;
  uint64_t Steps = 0;
  uint64_t Copies = 0;
  uint64_t MaxLiveParsers = 0;
};

/// The paper's pseudo-parallel LR parser.
class ParParser {
public:
  explicit ParParser(ItemSetGraph &Graph, uint64_t StepLimit = 10'000'000)
      : Graph(Graph), StepLimit(StepLimit) {}

  /// Runs PAR-PARSE on \p Input (terminals, no end marker).
  ParParseResult parse(TokenView Input);


private:
  ItemSetGraph &Graph;
  uint64_t StepLimit;
};

} // namespace ipg

#endif // IPG_GLR_PARPARSE_H
