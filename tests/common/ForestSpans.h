//===- tests/common/ForestSpans.h - Forest span invariants ------*- C++ -*-===//
///
/// \file
/// The span invariants every forest reachable from a parse root must keep,
/// whatever path built it: each alternative's children tile the parent's
/// span left to right, and each token node at position i carries token i
/// of the buffer. Tree counts alone cannot see a wrongly shifted span, so
/// the incremental sweeps check these after every re-parse. The walk runs
/// on an explicit stack and visits each node once, so deep and cyclic
/// forests are fine.
///
//===----------------------------------------------------------------------===//

#ifndef IPG_TESTS_COMMON_FORESTSPANS_H
#define IPG_TESTS_COMMON_FORESTSPANS_H

#include "glr/Forest.h"

#include <string>
#include <unordered_set>
#include <vector>

namespace ipg::testing {

/// Describes the first node under \p Root that breaks a span invariant
/// against the token buffer \p Tokens; empty when all hold (or \p Root is
/// null).
inline std::string forestSpanViolation(const ForestNode *Root,
                                       const std::vector<SymbolId> &Tokens) {
  // Messages are built with += only: `"literal" + std::string` trips a
  // GCC 12 -Wrestrict false positive at -O3.
  auto Describe = [](std::string &Out, const ForestNode *Node) {
    Out += "(sym ";
    Out += std::to_string(Node->Sym);
    Out += " [";
    Out += std::to_string(Node->Start);
    Out += ", ";
    Out += std::to_string(Node->End);
    Out += Node->IsToken ? ") tok)" : "))";
  };
  std::string Why;
  std::unordered_set<const ForestNode *> Seen;
  std::vector<const ForestNode *> Work;
  if (Root != nullptr) {
    Seen.insert(Root);
    Work.push_back(Root);
  }
  while (!Work.empty()) {
    const ForestNode *Node = Work.back();
    Work.pop_back();
    if (Node->IsToken) {
      if (Node->End != Node->Start + 1 || Node->Start >= Tokens.size() ||
          Tokens[Node->Start] != Node->Sym) {
        Why = "token node ";
        Describe(Why, Node);
        Why += " disagrees with the buffer";
        return Why;
      }
      continue;
    }
    for (const ForestNode::Alternative &Alt : Node->Alts) {
      uint32_t Cur = Node->Start;
      for (const ForestNode *Child : Alt.Children) {
        if (Child->Start != Cur) {
          Why = "child ";
          Describe(Why, Child);
          Why += " of ";
          Describe(Why, Node);
          Why += " does not start where the previous child ends";
          return Why;
        }
        Cur = Child->End;
        if (Seen.insert(Child).second)
          Work.push_back(Child);
      }
      if (Cur != Node->End) {
        Why = "children of ";
        Describe(Why, Node);
        Why += " end at ";
        Why += std::to_string(Cur);
        return Why;
      }
    }
  }
  return Why;
}

} // namespace ipg::testing

#endif // IPG_TESTS_COMMON_FORESTSPANS_H
