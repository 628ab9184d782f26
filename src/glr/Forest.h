//===- glr/Forest.h - Shared packed parse forests ---------------*- C++ -*-===//
///
/// \file
/// The parse-forest representation behind the Tomita parser. Nodes are
/// keyed by (symbol, start, end) and hold one *alternative* per distinct
/// derivation — "local ambiguity packing". The §7 footnote credits B. Lang
/// with the suggestion to improve the sharing of parse trees; packing on
/// spans is exactly that improvement, and the ablation bench can disable it
/// to reproduce the unshared behaviour.
///
/// Storage follows the parse side's pool discipline (support/ChunkPool.h):
/// nodes, alternatives and child lists live in forest-owned chunks that
/// never move, so a parse allocates O(log n) times, not per node. Each
/// node carries a dense creation index (ForestNode::Id), which keys the
/// walks' memo tables. A node's alternatives form a list in insertion
/// order; an alternative's children are one contiguous span.
///
/// The packing index is one open-addressed table keyed by (symbol, start,
/// end, is-token). Entries with the same key stay in insertion order, and
/// a lookup returns the *first valid* hit (see beginEpoch): the graft
/// (moveNode) and the suspended-parse decoder rely on that order to find
/// the node they published first. A lookup erases every invalid entry it
/// meets with a matching key hash. Invalidity is permanent — the epoch
/// only grows, the watermark only shrinks, and moveNode() erases a node's
/// old entry before it revives the node under a new key — so such an
/// entry could never be returned again, and erasing it keeps an edited
/// document's lookups from walking its edit history.
///
/// Cyclic grammars (A ⇒+ A) produce cyclic forests; the counting and
/// extraction helpers saturate/skip cycles instead of diverging. They run
/// on explicit stacks, so forest depth is bounded by memory, not by the
/// thread's stack, and each call costs time and memory in the nodes it
/// reaches, not in the nodes the forest ever made.
///
//===----------------------------------------------------------------------===//

#ifndef IPG_GLR_FOREST_H
#define IPG_GLR_FOREST_H

#include "grammar/Tree.h"
#include "support/ArrayView.h"
#include "support/ChunkPool.h"

#include <algorithm>
#include <cstdint>
#include <vector>

namespace ipg {

/// A forest node: a token occurrence or a packed set of derivations of one
/// nonterminal over one input span.
struct ForestNode {
  SymbolId Sym = InvalidSymbol;
  uint32_t Start = 0; ///< First token index covered.
  uint32_t End = 0;   ///< One past the last token index covered.
  bool IsToken = false;

  /// Packing-epoch stamp (see Forest::beginEpoch): the edit generation
  /// this node was created or last revalidated in. 0 for every node of a
  /// never-edited forest.
  uint32_t Epoch = 0;

  /// Dense creation index within the owning forest: 0, 1, 2, ... in
  /// creation order.
  uint32_t Id = 0;

  /// One derivation: a rule and one child per right-hand-side symbol.
  struct Alternative {
    RuleId Rule;
    ArrayView<ForestNode *> Children;
    Alternative *Next = nullptr;
  };

  /// The node's alternatives in insertion order (a forward list threaded
  /// through the forest's alternative pool).
  class AltList {
  public:
    class iterator {
    public:
      explicit iterator(const Alternative *A) : A(A) {}
      const Alternative &operator*() const { return *A; }
      iterator &operator++() {
        A = A->Next;
        return *this;
      }
      bool operator!=(const iterator &O) const { return A != O.A; }

    private:
      const Alternative *A;
    };
    iterator begin() const { return iterator(Head); }
    iterator end() const { return iterator(nullptr); }
    size_t size() const { return Count; }
    bool empty() const { return Count == 0; }
    const Alternative *first() const { return Head; }

  private:
    friend class Forest;
    Alternative *Head = nullptr;
    Alternative *Tail = nullptr;
    uint32_t Count = 0;
  };
  AltList Alts;

  bool isAmbiguous() const { return Alts.size() > 1; }
};

/// Owns and packs forest nodes for one parse.
class Forest {
public:
  /// When false, nonterminal() always creates a fresh node — the unshared
  /// mode for the sharing ablation.
  explicit Forest(bool PackNodes = true) : PackNodes(PackNodes) {}

  /// Forgets every node (pointers into the forest die) and keeps the
  /// pools' storage for the next parse. The packing mode is kept.
  void clear();

  /// The (unique) token node for input position \p Index.
  ForestNode *token(SymbolId Sym, uint32_t Index);

  /// Finds or creates the packed node for \p Sym over [Start, End).
  ForestNode *nonterminal(SymbolId Sym, uint32_t Start, uint32_t End);

  /// Adds a derivation unless an identical one is already packed.
  /// Returns true if the alternative was new.
  bool addAlternative(ForestNode *Node, RuleId Rule,
                      const std::vector<ForestNode *> &Children);

  /// Records one derivation and returns its node. With packing this is
  /// nonterminal() + addAlternative() — one node per span holding every
  /// alternative. Without packing, nodes are content-addressed by their
  /// single derivation, so identical re-derivations return the same node
  /// (the GLR parser's edge dedup — and hence its termination — depends on
  /// this); distinct derivations of the same span stay separate nodes.
  /// Unpacked forests of cyclic grammars would be infinite; the unshared
  /// mode is for the sharing ablation on acyclic grammars only.
  ForestNode *derivation(SymbolId Sym, uint32_t Start, uint32_t End,
                         RuleId Rule,
                         const std::vector<ForestNode *> &Children);

  size_t numNodes() const { return Nodes.size(); }
  size_t numAlternatives() const { return TotalAlternatives; }
  size_t numPackedAmbiguities() const { return PackedAmbiguities; }

  /// Number of distinct trees under \p Root, saturating at \p Cap.
  /// Cyclic derivations count as Cap (infinitely many trees).
  uint64_t countTrees(const ForestNode *Root, uint64_t Cap = ~0ull >> 1) const;

  /// Extracts one (acyclic) tree; subtrees may be shared. Returns null
  /// only if every derivation of \p Root is cyclic.
  TreeNode *firstTree(const ForestNode *Root, TreeArena &Arena) const;

  /// Appends up to \p Limit distinct trees under \p Root to \p Out.
  void enumerateTrees(const ForestNode *Root, size_t Limit, TreeArena &Arena,
                      std::vector<TreeNode *> &Out) const;

  //===--------------------------------------------------------------------===//
  // Edit epochs (incremental/ParseDocument.h).
  //
  // After a document edit at token position EditStart, nodes whose span
  // reaches past EditStart describe the *old* content: the packing lookups
  // must not find them, or a re-parse would merge fresh derivations into
  // stale nodes as spurious ambiguity. beginEpoch() advances a generation
  // stamp and lowers the valid-prefix watermark; a lookup then accepts a
  // node iff it was made this epoch or lies entirely inside the watermark
  // prefix (End <= watermark — untouched by every edit since the node's
  // epoch, because the watermark is the running minimum of edit starts).
  // The watermark only ever decreases, which can over-invalidate long-ago
  // prefixes — that costs sharing (a duplicate structurally-identical
  // node), never correctness.
  //===--------------------------------------------------------------------===//

  /// Starts a new edit epoch whose damage begins at token \p EditStart.
  void beginEpoch(uint32_t EditStart) {
    ++CurEpoch;
    Watermark = std::min(Watermark, EditStart);
  }
  uint32_t epoch() const { return CurEpoch; }

  /// Creates a node bypassing the packing lookup — the suspended-parse
  /// decoder rebuilds nodes 1:1 and must keep intentionally-distinct
  /// duplicates distinct. The node is NOT put in the packing index; call
  /// indexRestored() to publish it. Alternatives are attached with
  /// addAlternative().
  ForestNode *restoreNode(SymbolId Sym, uint32_t Start, uint32_t End,
                          bool IsToken);

  /// Publishes a restoreNode()d node to the packing index (stamped with
  /// the current epoch) so subsequent derivations pack onto it.
  void indexRestored(ForestNode *Node);

  /// The valid token node for input position \p Index, or null. Never
  /// creates one.
  ForestNode *findToken(SymbolId Sym, uint32_t Index);

  /// Moves \p Node to [\p Start, \p End) in place — the bounded
  /// re-parse's graft, which shifts the old suffix forest into the new
  /// coordinates instead of copying it. Each child C of each alternative
  /// becomes \p Retarget(C); an alternative that thereby equals an
  /// earlier one of the node is dropped, as addAlternative() would. The
  /// node then leaves the packing index under its old key and re-enters
  /// it under the new one, stamped with the current epoch, so later
  /// derivations pack onto it (after any node already published under
  /// that key). Packing forests only: an unpacked node's key is its
  /// content.
  template <typename RetargetT>
  void moveNode(ForestNode *Node, uint32_t Start, uint32_t End,
                RetargetT &&Retarget) {
    for (ForestNode::Alternative *Alt = Node->Alts.Head; Alt != nullptr;
         Alt = Alt->Next) {
      // The child span lives in ChildPool, which the forest owns.
      ForestNode **Kids = const_cast<ForestNode **>(Alt->Children.data());
      for (size_t I = 0; I < Alt->Children.size(); ++I)
        Kids[I] = Retarget(Kids[I]);
    }
    dropDuplicateAlternatives(Node);
    rekey(Node, Start, End);
  }

  /// Visits all nodes ever made, in creation order (serialization walk).
  template <typename FnT> void forEachNode(FnT &&Fn) const {
    Nodes.forEach(Fn);
  }

private:
  ForestNode *make(SymbolId Sym, uint32_t Start, uint32_t End, bool IsToken);
  /// Unlinks every alternative of \p Node equal to an earlier one.
  void dropDuplicateAlternatives(ForestNode *Node);
  /// Re-files \p Node in the packing index under [Start, End).
  void rekey(ForestNode *Node, uint32_t Start, uint32_t End);
  /// Appends an alternative without the duplicate check.
  void appendAlternative(ForestNode *Node, RuleId Rule,
                         ArrayView<ForestNode *> Children);
  /// Epoch validity of a packing-lookup hit (see beginEpoch).
  bool validHit(const ForestNode *Node) const {
    return Node->Epoch == CurEpoch || Node->End <= Watermark;
  }

  /// The packing index: open addressing with linear probing over a
  /// power-of-two table at most half full. Deletion shifts the following
  /// entries back instead of leaving tombstones, which keeps every entry
  /// between its home slot and the next empty slot — so same-hash
  /// entries stay in insertion order.
  struct Slot {
    uint64_t Hash;
    ForestNode *Node; ///< Null marks an empty slot.
  };
  /// First valid node with hash \p Hash that satisfies \p Match, erasing
  /// the invalid same-hash entries met on the way; null when none.
  template <typename MatchT> ForestNode *lookup(uint64_t Hash, MatchT &&Match);
  void insert(uint64_t Hash, ForestNode *Node);
  /// Erases \p Node's entry under \p Hash, if it is still there.
  void eraseEntry(uint64_t Hash, const ForestNode *Node);
  void eraseSlot(size_t I);
  void growIndex();

  bool PackNodes;
  ChunkPool<ForestNode> Nodes{256};
  ChunkPool<ForestNode::Alternative> AltPool{256};
  ChunkPool<ForestNode *> ChildPool{1024};
  std::vector<Slot> Index;
  size_t IndexCount = 0;
  size_t TotalAlternatives = 0;
  size_t PackedAmbiguities = 0;
  uint32_t CurEpoch = 0;
  uint32_t Watermark = ~0u;
};

} // namespace ipg

#endif // IPG_GLR_FOREST_H
