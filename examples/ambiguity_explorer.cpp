//===- examples/ambiguity_explorer.cpp - Parse forests, unpacked -----------===//
///
/// \file
/// IPG handles arbitrary context-free grammars (§1), so ambiguous
/// sentences yield parse *forests*. This example parses increasingly
/// ambiguous inputs, counts their derivations (Catalan numbers for the
/// a+a+...+a ladder), and prints the packed forest next to the first few
/// concrete trees — the sharing the §7 footnote is about, made visible.
///
/// Run: ./ambiguity_explorer
///
//===----------------------------------------------------------------------===//

#include "core/Ipg.h"
#include "grammar/GrammarBuilder.h"

#include <cstdio>
#include <functional>
#include <string>

using namespace ipg;

namespace {

void printForest(const ForestNode *Node, const Grammar &G, int Depth,
                 std::vector<const ForestNode *> &Stack) {
  auto Indent = [&] {
    for (int I = 0; I < Depth; ++I)
      std::printf("  ");
  };
  Indent();
  if (Node->IsToken) {
    std::printf("%s [%u,%u)\n", G.symbols().name(Node->Sym).c_str(),
                Node->Start, Node->End);
    return;
  }
  for (const ForestNode *Seen : Stack)
    if (Seen == Node) {
      std::printf("%s [%u,%u) <cycle>\n",
                  G.symbols().name(Node->Sym).c_str(), Node->Start,
                  Node->End);
      return;
    }
  std::printf("%s [%u,%u)%s\n", G.symbols().name(Node->Sym).c_str(),
              Node->Start, Node->End,
              Node->isAmbiguous()
                  ? (" — " + std::to_string(Node->Alts.size()) +
                     " packed alternatives")
                        .c_str()
                  : "");
  Stack.push_back(Node);
  size_t A = 0;
  for (const ForestNode::Alternative &Alt : Node->Alts) {
    if (Node->isAmbiguous()) {
      Indent();
      std::printf("  alt %zu (%s):\n", ++A, G.ruleToString(Alt.Rule).c_str());
    }
    for (const ForestNode *Child : Alt.Children)
      printForest(Child, G, Depth + 1 + (Node->isAmbiguous() ? 1 : 0), Stack);
  }
  Stack.pop_back();
}

} // namespace

int main() {
  Grammar G;
  GrammarBuilder B(G);
  B.rule("E", {"E", "+", "E"});
  B.rule("E", {"a"});
  B.rule("START", {"E"});
  Ipg Gen(G);

  std::printf("grammar: E ::= E + E | a   (classically ambiguous)\n\n");
  std::printf("%-22s %10s %14s %12s\n", "input", "parses", "forest nodes",
              "GSS nodes");
  for (unsigned N : {2u, 3u, 4u, 5u, 6u, 8u, 10u, 12u}) {
    std::vector<SymbolId> Input;
    for (unsigned I = 0; I < N; ++I) {
      if (I != 0)
        Input.push_back(G.symbols().lookup("+"));
      Input.push_back(G.symbols().lookup("a"));
    }
    Forest F;
    GlrResult R = Gen.parse(Input, F);
    std::string Name = "a";
    for (unsigned I = 1; I < N; ++I)
      Name += "+a";
    std::printf("%-22s %10llu %14zu %12llu\n", Name.c_str(),
                (unsigned long long)F.countTrees(R.Root),
                F.numNodes(), (unsigned long long)R.GssNodes);
  }

  std::printf("\nthe packed forest for a+a+a (2 parses in one structure):\n");
  {
    Forest F;
    std::vector<SymbolId> Input{
        G.symbols().lookup("a"), G.symbols().lookup("+"),
        G.symbols().lookup("a"), G.symbols().lookup("+"),
        G.symbols().lookup("a")};
    GlrResult R = Gen.parse(Input, F);
    std::vector<const ForestNode *> Stack;
    printForest(R.Root, G, 0, Stack);

    std::printf("\nits distinct trees, enumerated:\n");
    TreeArena Arena;
    std::vector<TreeNode *> Trees;
    F.enumerateTrees(R.Root, 10, Arena, Trees);
    for (TreeNode *Tree : Trees)
      std::printf("  %s\n", treeToString(Tree, G).c_str());
  }

  std::printf("\na cyclic grammar (A ::= A | a) has infinitely many "
              "derivations:\n");
  {
    Grammar G2;
    GrammarBuilder B2(G2);
    B2.rule("A", {"A"});
    B2.rule("A", {"a"});
    B2.rule("START", {"A"});
    Ipg Gen2(G2);
    Forest F;
    std::vector<SymbolId> Input2 = {G2.symbols().lookup("a")};
    GlrResult R = Gen2.parse(Input2, F);
    std::printf("  countTrees saturates at cap: %llu (cap 1000)\n",
                (unsigned long long)F.countTrees(R.Root, 1000));
    TreeArena Arena;
    std::printf("  extraction still yields a finite tree: %s\n",
                treeToString(F.firstTree(R.Root, Arena), G2).c_str());
  }
  return 0;
}
