//===- glr/Forest.cpp - Shared packed parse forests -----------------------===//

#include "glr/Forest.h"

#include <bit>
#include <cassert>

using namespace ipg;

namespace {

/// 64-bit finalizer (murmur3's fmix64): a bijection that spreads every
/// input bit over the output, so the table can use the low bits as slot.
uint64_t mix64(uint64_t X) {
  X ^= X >> 33;
  X *= 0xff51afd7ed558ccdULL;
  X ^= X >> 33;
  X *= 0xc4ceb9fe1a85ec53ULL;
  X ^= X >> 33;
  return X;
}

/// Index key of (Sym, Start, End, IsToken). Computed from values only, so
/// probe sequences — and thus every count — are address-independent.
uint64_t spanHash(SymbolId Sym, uint32_t Start, uint32_t End, bool IsToken) {
  uint64_t Hi = (uint64_t(Sym) << 32) | Start;
  uint64_t Lo = (uint64_t(End) << 1) | (IsToken ? 1 : 0);
  return mix64(Hi ^ mix64(Lo + 0x9e3779b97f4a7c15ULL));
}

bool sameChildren(ArrayView<ForestNode *> A, ArrayView<ForestNode *> B) {
  return A.size() == B.size() && std::equal(A.begin(), A.end(), B.begin());
}

} // namespace

void Forest::clear() {
  Nodes.reset();
  AltPool.reset();
  ChildPool.reset();
  std::fill(Index.begin(), Index.end(), Slot{0, nullptr});
  IndexCount = 0;
  TotalAlternatives = 0;
  PackedAmbiguities = 0;
  CurEpoch = 0;
  Watermark = ~0u;
}

ForestNode *Forest::make(SymbolId Sym, uint32_t Start, uint32_t End,
                         bool IsToken) {
  ForestNode *Node = Nodes.make();
  Node->Sym = Sym;
  Node->Start = Start;
  Node->End = End;
  Node->IsToken = IsToken;
  Node->Epoch = CurEpoch;
  Node->Id = static_cast<uint32_t>(Nodes.size() - 1);
  return Node;
}

//===----------------------------------------------------------------------===//
// The packing index.
//===----------------------------------------------------------------------===//

template <typename MatchT>
ForestNode *Forest::lookup(uint64_t Hash, MatchT &&Match) {
  if (Index.empty())
    return nullptr;
  const size_t Mask = Index.size() - 1;
  size_t I = Hash & Mask;
  while (ForestNode *Node = Index[I].Node) {
    if (Index[I].Hash == Hash) {
      if (!validHit(Node)) {
        // Dead for good; the backward shift refills slot I, so look at
        // it again.
        eraseSlot(I);
        continue;
      }
      if (Match(Node))
        return Node;
    }
    I = (I + 1) & Mask;
  }
  return nullptr;
}

void Forest::insert(uint64_t Hash, ForestNode *Node) {
  if ((IndexCount + 1) * 2 > Index.size())
    growIndex();
  const size_t Mask = Index.size() - 1;
  size_t I = Hash & Mask;
  while (Index[I].Node != nullptr)
    I = (I + 1) & Mask;
  Index[I] = Slot{Hash, Node};
  ++IndexCount;
}

void Forest::eraseSlot(size_t I) {
  const size_t Mask = Index.size() - 1;
  size_t J = I;
  while (true) {
    J = (J + 1) & Mask;
    if (Index[J].Node == nullptr)
      break;
    // The entry at J may fill the hole at I only if its home slot does
    // not lie cyclically in (I, J]; moving it then keeps it after its
    // home and after every same-hash entry before it.
    const size_t Home = Index[J].Hash & Mask;
    const bool HomeInRange = I <= J ? (I < Home && Home <= J)
                                    : (I < Home || Home <= J);
    if (HomeInRange)
      continue;
    Index[I] = Index[J];
    I = J;
  }
  Index[I] = Slot{0, nullptr};
  --IndexCount;
}

void Forest::growIndex() {
  std::vector<Slot> Old;
  Old.swap(Index);
  // The first table (32 KB) holds a forest of ~1000 nodes, the size of
  // a few hundred tokens' parse, without rehashing.
  constexpr size_t FirstIndexSlots = 2048;
  Index.assign(Old.empty() ? FirstIndexSlots : Old.size() * 2,
               Slot{0, nullptr});
  IndexCount = 0;
  if (Old.empty())
    return;
  // Re-insert cluster by cluster, starting just after an empty slot, so
  // a cluster that wraps past the table's end keeps its probe order (and
  // same-hash entries their insertion order).
  const size_t Mask = Old.size() - 1;
  size_t Start = 0;
  while (Old[Start].Node != nullptr)
    ++Start;
  for (size_t K = 1; K <= Old.size(); ++K) {
    const Slot &S = Old[(Start + K) & Mask];
    if (S.Node != nullptr)
      insert(S.Hash, S.Node);
  }
}

ForestNode *Forest::restoreNode(SymbolId Sym, uint32_t Start, uint32_t End,
                                bool IsToken) {
  ForestNode *Node = make(Sym, Start, End, IsToken);
  insert(spanHash(Sym, Start, End, IsToken), Node);
  return Node;
}

void Forest::eraseEntry(uint64_t Hash, const ForestNode *Node) {
  if (Index.empty())
    return;
  const size_t Mask = Index.size() - 1;
  for (size_t I = Hash & Mask; Index[I].Node != nullptr; I = (I + 1) & Mask)
    if (Index[I].Node == Node) {
      eraseSlot(I);
      return;
    }
}

void Forest::rekey(ForestNode *Node, uint32_t Start, uint32_t End) {
  assert((PackNodes || Node->IsToken) && "unpacked nodes are keyed by content");
  // A lookup may already have erased the old entry as invalid.
  eraseEntry(spanHash(Node->Sym, Node->Start, Node->End, Node->IsToken),
             Node);
  Node->Start = Start;
  Node->End = End;
  Node->Epoch = CurEpoch;
  insert(spanHash(Node->Sym, Start, End, Node->IsToken), Node);
}

void Forest::dropDuplicateAlternatives(ForestNode *Node) {
  ForestNode::AltList &L = Node->Alts;
  if (L.Count < 2)
    return;
  ForestNode::Alternative *Prev = L.Head;
  while (ForestNode::Alternative *Alt = Prev->Next) {
    bool Duplicate = false;
    for (const ForestNode::Alternative *A = L.Head; A != Alt && !Duplicate;
         A = A->Next)
      Duplicate = A->Rule == Alt->Rule && sameChildren(A->Children,
                                                       Alt->Children);
    if (!Duplicate) {
      Prev = Alt;
      continue;
    }
    Prev->Next = Alt->Next;
    if (L.Tail == Alt)
      L.Tail = Prev;
    --L.Count;
    --TotalAlternatives;
    --PackedAmbiguities;
  }
}

ForestNode *Forest::findToken(SymbolId Sym, uint32_t Index) {
  return lookup(spanHash(Sym, Index, Index + 1, /*IsToken=*/true),
                [&](const ForestNode *N) {
                  return N->Sym == Sym && N->Start == Index && N->IsToken;
                });
}

ForestNode *Forest::token(SymbolId Sym, uint32_t Index) {
  ForestNode *Node = findToken(Sym, Index);
  if (Node != nullptr) {
    Node->Epoch = CurEpoch;
    return Node;
  }
  Node = make(Sym, Index, Index + 1, /*IsToken=*/true);
  insert(spanHash(Sym, Index, Index + 1, /*IsToken=*/true), Node);
  return Node;
}

ForestNode *Forest::nonterminal(SymbolId Sym, uint32_t Start, uint32_t End) {
  if (!PackNodes)
    return make(Sym, Start, End, /*IsToken=*/false);
  const uint64_t Hash = spanHash(Sym, Start, End, /*IsToken=*/false);
  ForestNode *Node = lookup(Hash, [&](const ForestNode *N) {
    return N->Sym == Sym && N->Start == Start && N->End == End &&
           !N->IsToken;
  });
  if (Node != nullptr) {
    Node->Epoch = CurEpoch;
    return Node;
  }
  Node = make(Sym, Start, End, /*IsToken=*/false);
  insert(Hash, Node);
  return Node;
}

void Forest::appendAlternative(ForestNode *Node, RuleId Rule,
                               ArrayView<ForestNode *> Children) {
  ForestNode **Kids = nullptr;
  if (!Children.empty()) {
    Kids = ChildPool.allocate(Children.size());
    std::copy(Children.begin(), Children.end(), Kids);
  }
  ForestNode::Alternative *Alt = AltPool.make(ForestNode::Alternative{
      Rule, ArrayView<ForestNode *>(Kids, Children.size()), nullptr});
  ForestNode::AltList &L = Node->Alts;
  if (L.Tail != nullptr)
    L.Tail->Next = Alt;
  else
    L.Head = Alt;
  L.Tail = Alt;
  ++L.Count;
  ++TotalAlternatives;
}

bool Forest::addAlternative(ForestNode *Node, RuleId Rule,
                            const std::vector<ForestNode *> &Children) {
  assert(!Node->IsToken && "tokens have no derivations");
  for (const ForestNode::Alternative &Alt : Node->Alts)
    if (Alt.Rule == Rule && sameChildren(Alt.Children, Children))
      return false;
  if (!Node->Alts.empty())
    ++PackedAmbiguities;
  appendAlternative(Node, Rule, Children);
  return true;
}

ForestNode *Forest::derivation(SymbolId Sym, uint32_t Start, uint32_t End,
                               RuleId Rule,
                               const std::vector<ForestNode *> &Children) {
  if (PackNodes) {
    ForestNode *Node = nonterminal(Sym, Start, End);
    addAlternative(Node, Rule, Children);
    return Node;
  }
  // Content-addressed lookup: identical derivations share one node. The
  // key hashes the children's dense ids, never their addresses.
  uint64_t Hash = mix64(spanHash(Sym, Start, End, /*IsToken=*/false) ^ Rule);
  for (const ForestNode *Child : Children)
    Hash = mix64(Hash + Child->Id + 1);
  ForestNode *Node = lookup(Hash, [&](const ForestNode *N) {
    return N->Sym == Sym && N->Start == Start && N->End == End &&
           !N->IsToken && N->Alts.size() == 1 &&
           N->Alts.first()->Rule == Rule &&
           sameChildren(N->Alts.first()->Children, Children);
  });
  if (Node != nullptr) {
    Node->Epoch = CurEpoch;
    return Node;
  }
  Node = make(Sym, Start, End, /*IsToken=*/false);
  appendAlternative(Node, Rule, Children);
  insert(Hash, Node);
  return Node;
}

//===----------------------------------------------------------------------===//
// Walks. All three run on explicit stacks and share one memo shape: an
// open-addressed table keyed by the dense node id, sized by the nodes a
// walk reaches (never by numNodes(), which counts an edited document's
// whole history).
//===----------------------------------------------------------------------===//

namespace {

/// Per-walk memo: node id -> V, default-constructed on first touch.
/// References returned by get() die at the next get() (growth rehashes).
template <typename V> class WalkMemo {
public:
  /// \p Hint is an upper bound on the nodes the walk may reach; the first
  /// table is sized for it, capped so a walk over a small part of a large
  /// forest does not pay for the rest.
  explicit WalkMemo(size_t Hint) {
    size_t Cap = std::bit_ceil(std::max<size_t>(2 * Hint, 64));
    Slots.assign(std::min<size_t>(Cap, 8192), Entry());
  }

  V &get(uint32_t Id) {
    const uint32_t Key = Id + 1;
    size_t Mask = Slots.size() - 1;
    size_t I = mix64(Key) & Mask;
    while (Slots[I].Key != 0) {
      if (Slots[I].Key == Key)
        return Slots[I].Value;
      I = (I + 1) & Mask;
    }
    if ((Count + 1) * 2 > Slots.size()) {
      grow();
      return get(Id);
    }
    ++Count;
    Slots[I].Key = Key;
    return Slots[I].Value;
  }

private:
  struct Entry {
    uint32_t Key = 0; ///< Node id + 1; 0 marks an empty slot.
    V Value{};
  };

  void grow() {
    std::vector<Entry> Old(Slots.size() * 2);
    Old.swap(Slots);
    const size_t Mask = Slots.size() - 1;
    for (const Entry &E : Old)
      if (E.Key != 0) {
        size_t I = mix64(E.Key) & Mask;
        while (Slots[I].Key != 0)
          I = (I + 1) & Mask;
        Slots[I] = E;
      }
  }

  std::vector<Entry> Slots;
  size_t Count = 0;
};

/// Saturating helpers for tree counting.
uint64_t satAdd(uint64_t A, uint64_t B, uint64_t Cap) {
  return (A > Cap - B) ? Cap : A + B;
}
uint64_t satMul(uint64_t A, uint64_t B, uint64_t Cap) {
  if (A == 0 || B == 0)
    return 0;
  return (A > Cap / B) ? Cap : A * B;
}

} // namespace

uint64_t Forest::countTrees(const ForestNode *Root, uint64_t Cap) const {
  if (Root == nullptr)
    return 0;
  enum State : uint8_t { Unvisited, InProgress, Done };
  struct Count {
    State St = Unvisited;
    uint64_t Trees = 0;
  };
  struct Frame {
    const ForestNode *Node;
    const ForestNode::Alternative *Alt;
    size_t Child;
    uint64_t Total, Product;
  };
  WalkMemo<Count> Memo(numNodes());
  std::vector<Frame> Stack;

  // Enters Node: answers tokens, memo hits and cycles at once (in Ret),
  // or pushes a frame and returns true.
  uint64_t Ret = 0;
  auto Enter = [&](const ForestNode *Node) {
    if (Node->IsToken) {
      Ret = 1;
      return false;
    }
    Count &C = Memo.get(Node->Id);
    if (C.St != Unvisited) {
      // In progress: a cyclic derivation, infinitely many trees.
      Ret = C.St == InProgress ? Cap : C.Trees;
      return false;
    }
    C.St = InProgress;
    Stack.push_back(Frame{Node, Node->Alts.first(), 0, 0, 1});
    return true;
  };

  if (!Enter(Root))
    return Ret;
  while (true) {
    Frame &F = Stack.back();
    if (F.Alt == nullptr) {
      Ret = F.Total;
      Memo.get(F.Node->Id) = Count{Done, Ret};
      Stack.pop_back();
      if (Stack.empty())
        return Ret;
    } else if (F.Child < F.Alt->Children.size()) {
      if (Enter(F.Alt->Children[F.Child]))
        continue;
    } else {
      F.Total = satAdd(F.Total, F.Product, Cap);
      F.Alt = F.Alt->Next;
      F.Child = 0;
      F.Product = 1;
      continue;
    }
    // A child (or a finished frame) produced Ret: fold it into its parent.
    Frame &P = Stack.back();
    P.Product = satMul(P.Product, Ret, Cap);
    ++P.Child;
  }
}

TreeNode *Forest::firstTree(const ForestNode *Root, TreeArena &Arena) const {
  if (Root == nullptr)
    return nullptr;
  struct Extract {
    bool OnStack = false;
    TreeNode *Tree = nullptr; ///< Memoized on success only.
  };
  struct Frame {
    const ForestNode *Node;
    const ForestNode::Alternative *Alt;
    size_t Child;
    size_t KidsBase; ///< This frame's children start here in Kids.
  };
  WalkMemo<Extract> Memo(numNodes());
  std::vector<Frame> Stack;
  std::vector<TreeNode *> Kids;

  TreeNode *Ret = nullptr;
  auto Enter = [&](const ForestNode *Node) {
    if (Node->IsToken) {
      Ret = Arena.makeLeaf(Node->Sym, Node->Start);
      return false;
    }
    Extract &E = Memo.get(Node->Id);
    if (E.Tree != nullptr || E.OnStack) {
      // An OnStack hit would close a cycle; the caller tries another
      // alternative.
      Ret = E.Tree;
      return false;
    }
    E.OnStack = true;
    Stack.push_back(Frame{Node, Node->Alts.first(), 0, Kids.size()});
    return true;
  };

  if (!Enter(Root))
    return Ret;
  while (true) {
    Frame &F = Stack.back();
    if (F.Alt != nullptr && F.Child < F.Alt->Children.size()) {
      if (Enter(F.Alt->Children[F.Child]))
        continue;
    } else {
      // Every alternative failed (Alt null) or this one is complete.
      Ret = nullptr;
      if (F.Alt != nullptr) {
        Ret = Arena.makeNode(F.Node->Sym, F.Alt->Rule,
                             std::vector<TreeNode *>(
                                 Kids.begin() + F.KidsBase, Kids.end()));
        Kids.resize(F.KidsBase);
      }
      Extract &E = Memo.get(F.Node->Id);
      E.OnStack = false;
      E.Tree = Ret;
      Stack.pop_back();
      if (Stack.empty())
        return Ret;
    }
    Frame &P = Stack.back();
    if (Ret == nullptr) {
      // The child failed: abandon this alternative for the next one.
      Kids.resize(P.KidsBase);
      P.Alt = P.Alt->Next;
      P.Child = 0;
    } else {
      Kids.push_back(Ret);
      ++P.Child;
    }
  }
}

void Forest::enumerateTrees(const ForestNode *Root, size_t Limit,
                            TreeArena &Arena,
                            std::vector<TreeNode *> &Out) const {
  if (Root == nullptr || Limit == 0)
    return;
  // Each frame enumerates its node's trees into *Out: the caller's vector
  // for the root, otherwise one of the parent's per-child vectors (whose
  // buffers stay put when the frame stack reallocates, since moving a
  // vector keeps its buffer).
  struct Frame {
    const ForestNode *Node;
    const ForestNode::Alternative *Alt;
    size_t Child;
    std::vector<std::vector<TreeNode *>> PerChild;
    std::vector<TreeNode *> *Out;
  };
  WalkMemo<bool> OnStack(numNodes());
  std::vector<Frame> Stack;

  auto Enter = [&](const ForestNode *Node, std::vector<TreeNode *> &Into) {
    if (Node->IsToken) {
      Into.push_back(Arena.makeLeaf(Node->Sym, Node->Start));
      return;
    }
    bool &Seen = OnStack.get(Node->Id);
    if (Seen)
      return; // Skip cyclic continuations.
    Seen = true;
    Stack.push_back(Frame{Node, Node->Alts.first(), 0, {}, &Into});
    if (const ForestNode::Alternative *Alt = Stack.back().Alt)
      Stack.back().PerChild.resize(Alt->Children.size());
  };
  auto NextAlt = [](Frame &F) {
    F.Alt = F.Alt->Next;
    F.Child = 0;
    F.PerChild.clear();
    if (F.Alt != nullptr)
      F.PerChild.resize(F.Alt->Children.size());
  };

  Enter(Root, Out);
  while (!Stack.empty()) {
    Frame &F = Stack.back();
    if (F.Alt == nullptr) {
      OnStack.get(F.Node->Id) = false;
      Stack.pop_back();
      continue;
    }
    const size_t N = F.Alt->Children.size();
    // A child with no (acyclic) trees empties the product.
    if (F.Child > 0 && F.PerChild[F.Child - 1].empty()) {
      NextAlt(F);
      continue;
    }
    if (F.Child < N) {
      size_t I = F.Child++;
      Enter(F.Alt->Children[I], F.PerChild[I]);
      continue;
    }
    // Cartesian product over the children's tree sets, capped by Limit.
    std::vector<size_t> Pick(N, 0);
    while (F.Out->size() < Limit) {
      std::vector<TreeNode *> Children;
      Children.reserve(N);
      for (size_t I = 0; I < N; ++I)
        Children.push_back(F.PerChild[I][Pick[I]]);
      F.Out->push_back(
          Arena.makeNode(F.Node->Sym, F.Alt->Rule, std::move(Children)));
      // Odometer increment.
      size_t I = N;
      while (I > 0) {
        --I;
        if (++Pick[I] < F.PerChild[I].size())
          break;
        Pick[I] = 0;
        if (I == 0) {
          I = ~size_t(0);
          break;
        }
      }
      if (I == ~size_t(0) || N == 0)
        break;
    }
    if (F.Out->size() >= Limit) {
      OnStack.get(F.Node->Id) = false;
      Stack.pop_back();
      continue;
    }
    NextAlt(F);
  }
  if (Out.size() > Limit)
    Out.resize(Limit);
}
