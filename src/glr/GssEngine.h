//===- glr/GssEngine.h - Resumable graph-structured-stack stepper -*- C++ -*-===//
///
/// \file
/// The Tomita machinery of glr/GlrParser.h, refactored from a one-shot
/// `parse(Input)` loop into a persistent stepper: `begin()` seeds the
/// stack, `step(Token)` advances every live parser by one token, and
/// `finish()` runs the end-marker round and the acceptance walk. The
/// engine owns its node arena and the per-layer frontier records across
/// calls, which is what makes a parse *suspendable* (serialize the live
/// stack mid-input) and *restorable* (rewind the frontier to an earlier
/// layer and re-step from there) — the substrate of
/// incremental/ParseDocument.h.
///
/// Why rewinding is sound: the graph is LR(0), so an item set's reduction
/// span is token-independent — only the shift target (and acceptance)
/// consult the lookahead. Hence the *post-fixpoint* frontier of layer k
/// (all reductions drained, shifts not yet taken) is a deterministic
/// function of tokens 0..k-1 alone. Each step records exactly that
/// frontier as the layer's record (GssRecords): an exact checkpoint.
/// Restoring one re-seats the frontier on nodes that will never mutate
/// again (a completed layer's nodes gain no edges once its shifts are
/// taken), and the resumed step only needs a shift-only ACTION re-query
/// with the new token — the reductions are already in the stack.
///
/// Frontier lookups are stamped with a monotonically increasing counter
/// rather than the input position, so a rewound parse can never collide
/// with stale ByState entries from an abandoned branch of a previous
/// generation.
///
/// Storage (support/ChunkPool.h): nodes and their overflow edges live in
/// engine-owned chunks that never move and survive begin(), so a warm
/// engine's parse allocates nothing per token. A node's first edge is
/// inline; further edges are appended to a list in the edge pool, in
/// insertion order. The checkpoint records are one flat node array plus
/// per-layer offsets (GssRecords), also kept across begin(), and the
/// fixpoint's queues are engine members that keep their capacity.
///
//===----------------------------------------------------------------------===//

#ifndef IPG_GLR_GSSENGINE_H
#define IPG_GLR_GSSENGINE_H

#include "glr/Forest.h"
#include "lr/ItemSetGraph.h"
#include "support/ArrayView.h"
#include "support/ChunkPool.h"

#include <cstdint>
#include <vector>

namespace ipg {

/// Outcome of a GLR parse.
struct GlrResult {
  bool Accepted = false;
  /// Packed START node spanning the whole input; null on rejection.
  ForestNode *Root = nullptr;
  /// Token index at which all stacks died; == input size when the end
  /// marker was rejected.
  size_t ErrorIndex = 0;

  // Statistics for the measurements and ablations.
  uint64_t GssNodes = 0;
  uint64_t GssEdges = 0;
  uint64_t Shifts = 0;
  uint64_t Reductions = 0;
  uint64_t ReductionPaths = 0;
};

/// One node of the graph-structured stack: an item set plus the input
/// layer it was created in. Edges point towards the bottom of the stack
/// and carry the forest node derived over the spanned input.
struct GssNode {
  struct Edge {
    GssNode *Back;
    ForestNode *Deriv;
  };

  /// The node's edges in insertion order: the first inline, the rest
  /// linked through the owning engine's edge pool (GssEngine::addEdge).
  /// Links never move, so an iterator stays valid across appends.
  class EdgeList {
  public:
    struct Link {
      Edge E;
      Link *Next;
    };
    template <typename LinkT, typename EdgeT> class Iter {
    public:
      explicit Iter(LinkT *L) : L(L) {}
      EdgeT &operator*() const { return L->E; }
      EdgeT *operator->() const { return &L->E; }
      Iter &operator++() {
        L = L->Next;
        return *this;
      }
      bool operator!=(const Iter &O) const { return L != O.L; }

    private:
      LinkT *L;
    };
    using iterator = Iter<Link, Edge>;
    using const_iterator = Iter<const Link, const Edge>;

    iterator begin() { return iterator(Count ? &Head : nullptr); }
    iterator end() { return iterator(nullptr); }
    const_iterator begin() const {
      return const_iterator(Count ? &Head : nullptr);
    }
    const_iterator end() const { return const_iterator(nullptr); }
    size_t size() const { return Count; }

  private:
    friend class GssEngine;
    Link Head{{nullptr, nullptr}, nullptr};
    Link *Tail = nullptr;
    uint32_t Count = 0;
  };

  GssNode(ItemSet *State, uint32_t Layer, bool Processed)
      : State(State), Layer(Layer), Processed(Processed) {}
  GssNode(const GssNode &) = delete; // Edges.Tail may point into the node.
  GssNode &operator=(const GssNode &) = delete;

  ItemSet *State;
  uint32_t Layer;
  bool Processed = false;
  EdgeList Edges;

  bool hasEdge(const GssNode *Back, const ForestNode *Deriv) const {
    for (const Edge &E : Edges)
      if (E.Back == Back && E.Deriv == Deriv)
        return true;
    return false;
  }
};

/// Post-fixpoint frontiers, one per input layer — the engine's exact
/// checkpoints — stored as one flat node array plus per-layer end
/// offsets. Each layer's nodes are sorted by item-set id so two layers
/// can be compared by a linear id sweep (the re-convergence precheck).
class GssRecords {
public:
  /// Number of layers recorded.
  size_t size() const { return Ends.size(); }
  bool empty() const { return Ends.empty(); }

  /// The nodes of layer \p K.
  ArrayView<GssNode *> operator[](size_t K) const {
    const size_t Begin = K == 0 ? 0 : Ends[K - 1];
    return ArrayView<GssNode *>(Nodes.data() + Begin, Ends[K] - Begin);
  }
  ArrayView<GssNode *> back() const { return (*this)[size() - 1]; }

  /// Appends one layer.
  void push(ArrayView<GssNode *> Layer) {
    Nodes.insert(Nodes.end(), Layer.begin(), Layer.end());
    Ends.push_back(Nodes.size());
  }
  /// Appends layers [\p From, Other.size()) of \p Other.
  void append(const GssRecords &Other, size_t From) {
    for (size_t K = From; K < Other.size(); ++K)
      push(Other[K]);
  }
  /// Keeps the first \p N layers.
  void truncate(size_t N) {
    if (N >= Ends.size())
      return;
    Nodes.resize(N == 0 ? 0 : Ends[N - 1]);
    Ends.resize(N);
  }
  /// Drops every layer, keeping capacity.
  void clear() {
    Nodes.clear();
    Ends.clear();
  }

private:
  friend class GssEngine;
  std::vector<GssNode *> Nodes;
  std::vector<size_t> Ends;
};

/// Resumable Tomita stepper over a (possibly still growing) item-set
/// graph. One instance drives one logical parse at a time; `begin()`
/// resets it for the next.
class GssEngine {
public:
  explicit GssEngine(ItemSetGraph &Graph) : Graph(&Graph) {}

  /// Starts a fresh parse at layer 0 building derivations in \p F. The
  /// node arena is recycled; pointers from previous parses die here.
  void begin(Forest &F);

  /// Advances every live parser over \p Token: runs the layer's
  /// reduction fixpoint (unless this layer was just restored — it is
  /// already complete), records the layer, and shifts. Returns false
  /// when every stack died; the engine then reports the position via
  /// result().ErrorIndex.
  bool step(SymbolId Token);

  /// End-marker round plus the acceptance walk; returns the final
  /// result. The engine's stack stays intact (restorable) afterwards.
  GlrResult finish();

  /// Token index the next step() consumes.
  size_t position() const { return Pos; }

  /// Cumulative statistics (and, after finish(), the verdict).
  const GlrResult &result() const { return Result; }
  GlrResult &result() { return Result; }

  /// Per-layer checkpoints recorded so far: records()[k] is the
  /// post-fixpoint frontier over tokens 0..k-1. Layer k has a record
  /// once step(token k) or finish() has run.
  const GssRecords &records() const { return Records; }

  /// Rewinds the parse to layer \p Layer: the frontier becomes that
  /// layer's recorded (post-fixpoint) frontier and records after it are
  /// dropped — copy them out beforehand if they are still wanted (the
  /// bounded re-parse grafts them back). The next step() skips the
  /// fixpoint and performs only the shift-only ACTION re-query.
  void restore(size_t Layer);

  /// Adopts a grafted stack tail after a converged bounded re-parse:
  /// appends layers [\p From, Tail.size()) of \p Tail to the records,
  /// seats the frontier on the last one, and fast-forwards the position
  /// to \p EndPos. The caller has already fixed the tail's nodes up
  /// (layers shifted, seam edges re-pointed).
  void adoptTail(const GssRecords &Tail, size_t From, size_t EndPos);

  /// The layer-0 root node acceptance paths must reach.
  GssNode *root() const { return Root; }

  Forest *forest() const { return F; }
  ItemSetGraph &graph() const { return *Graph; }

  /// Re-seats the engine — and every live node's State pointer — onto
  /// \p New, matching sets by their stable id. Sound across epoch forks
  /// (server/GrammarServer.h) because cloneExact plus the v2 adopt/load
  /// path preserve the id space exactly; whether the *behavior* behind an
  /// id changed (a set the MODIFY marked dirty) is the caller's problem —
  /// see DocumentSession::migrate(). Returns false and leaves the engine
  /// entirely on the old graph when some id has no live counterpart (the
  /// set was tombstoned), in which case the parse cannot migrate.
  bool rebindGraph(ItemSetGraph &New);

  /// Arena node count (live + abandoned branches) — observability only.
  size_t numArenaNodes() const { return NodePool.size(); }

  /// The live frontier — post-shift (pre-fixpoint) nodes of layer
  /// position(), or a restored record when resumed() is true.
  const std::vector<GssNode *> &frontier() const { return Frontier; }

  /// True when the frontier came out of restore()/adoptTail()/a resumed
  /// deserialization: it is already post-fixpoint, and the next
  /// step()/finish() skips the reduction round.
  bool resumed() const { return Resumed; }

  //===--------------------------------------------------------------------===//
  // Deserializer protocol (incremental/ParseSnapshot.h): beginRestore()
  // empties the engine without seeding a fresh stack, restoreNode() and
  // addEdge() repopulate the arena 1:1, seatRestored() installs the
  // records, the frontier and the position in one move.
  //===--------------------------------------------------------------------===//

  /// Clears the engine for a 1:1 rebuild; no root is created.
  void beginRestore(Forest &Forst);

  /// Creates a node in the engine arena without stepping. \p Processed is
  /// the flag the node had in the suspended engine: false exactly for a
  /// pre-fixpoint frontier node, whose ACTION query is still pending.
  /// Does not touch the construction metric: a rebuild is not new parse
  /// work.
  GssNode *restoreNode(ItemSet *State, uint32_t Layer, bool Processed);

  /// Appends an edge to \p Node (after any it already has).
  void addEdge(GssNode *Node, GssNode *Back, ForestNode *Deriv);

  /// Installs the rebuilt stack. \p WasResumed restores the post-fixpoint
  /// flag the suspended engine carried; when false the frontier is
  /// registered in the layer index so the next fixpoint can find it.
  void seatRestored(GssRecords &&Recs, std::vector<GssNode *> Front,
                    GssNode *NewRoot, size_t Position, bool WasResumed,
                    GlrResult Stats);

private:
  struct PendingShift {
    GssNode *From;
    ItemSet *Target;
  };
  struct PendingReduce {
    GssNode *From;
    RuleId Rule;
  };

  GssNode *newNode(ItemSet *State, uint32_t Layer);
  /// Makes \p Node the current layer's holder of its state.
  void putInLayer(GssNode *Node, uint64_t Stamp);
  void runFixpoint(SymbolId Token);
  void recordLayer();
  void resetStorage();

  ItemSetGraph *Graph;
  Forest *F = nullptr;

  ChunkPool<GssNode> NodePool{256};
  ChunkPool<GssNode::EdgeList::Link> EdgePool{64};
  GssRecords Records;

  // Dense frontier index keyed by item-set id, stamped per layer
  // *generation*: "which node of this layer holds state S" is asked on
  // every reduction path and every shift, answered in O(1) with no
  // hashing. Stamps come from a monotone counter (never reused), so
  // entries from abandoned branches of a rewound parse can never alias a
  // live layer. Sizing is driven purely by the ids this parse meets —
  // never by the graph's set count, which another session expanding the
  // shared graph can grow at any instant; growth is amortized (doubling).
  std::vector<std::pair<uint64_t, GssNode *>> ByState;
  uint64_t StampCounter = 0;
  /// Stamp of the current (pre-fixpoint) frontier layer.
  uint64_t CurStamp = 0;

  std::vector<GssNode *> Frontier;
  /// Shifts collected by the current layer's ACTION queries, consumed by
  /// the shifter at the end of step().
  std::vector<PendingShift> PendingShifts;

  // Fixpoint and shifter scratch, kept at capacity across layers and
  // parses.
  std::vector<GssNode *> Queue;
  std::vector<PendingReduce> Reductions;
  std::vector<GssNode *> NextFrontier;
  /// The reduction path's derivation children, one per right-hand-side
  /// symbol (reductions never nest, so one buffer serves them all).
  std::vector<ForestNode *> Deriv;

  GssNode *Root = nullptr;
  size_t Pos = 0;
  /// True when the current frontier came out of restore(): it is already
  /// post-fixpoint, so the next step()/finish() skips the reduction round.
  bool Resumed = false;

  GlrResult Result;
};

} // namespace ipg

#endif // IPG_GLR_GSSENGINE_H
