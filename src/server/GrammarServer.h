//===- server/GrammarServer.h - Concurrent grammar server -------*- C++ -*-===//
///
/// \file
/// A concurrent front end for the lazy/incremental machinery: many parse
/// sessions share ONE graph of item sets, so a set any session EXPANDs is
/// available to every other session — the §5 memoization argument carried
/// across threads — while grammar modification (§6) proceeds without ever
/// blocking readers.
///
/// The design is whole-version RCU over *epochs*:
///
///   GrammarServer ──publishes──► GraphEpoch #n  (grammar + shared graph)
///        │                           ▲ pinned by shared_ptr
///        │ MODIFY                ParseSession(s)
///        ▼
///   GraphEpoch #n+1 = COW fork of #n, repaired via ADD/DELETE-RULE
///
/// * openSession() pins the current epoch (one shared_ptr copy under the
///   publisher's lock — off every parse hot path). Within the epoch the
///   session parses lock-free against Complete sets and takes the striped
///   expansion path of lr/ItemSetGraph.h for sets it completes first.
/// * addRule()/removeRule() never touch the published graph. The writer
///   (serialized by a mutex) freezes the current epoch's expansion just
///   long enough to serialize its graph (GraphSnapshot::saveV2 — queries
///   against Complete sets keep running), clones the grammar id-exactly,
///   adopts the serialized graph zero-copy into a private successor,
///   replays the one edit through the §6 repair machinery, and publishes
///   the successor. In-flight parses finish against the epoch they
///   pinned; new sessions see the new grammar.
/// * Epoch reclamation is the shared_ptr: when the last session pinning a
///   displaced epoch ends, the epoch (graph, grammar, mapped backing)
///   destructs. liveEpochs() observes this for tests and introspection.
///
/// Id stability contract: cloneExact preserves SymbolIds and RuleIds
/// across epochs, so token streams produced against any epoch remain
/// valid against every later epoch — clients tokenize once, not per
/// MODIFY.
///
//===----------------------------------------------------------------------===//

#ifndef IPG_SERVER_GRAMMARSERVER_H
#define IPG_SERVER_GRAMMARSERVER_H

#include "glr/GlrParser.h"
#include "lr/ItemSetGraph.h"
#include "support/Concurrency.h"
#include "support/Json.h"

#include <atomic>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

namespace ipg {

/// One published generation of the grammar together with its shared graph
/// of item sets. Immutable after publication except for monotone lazy
/// expansion (Initial/Dirty sets completing), which is exactly the
/// mutation the shared-mode ItemSetGraph synchronizes.
class GraphEpoch {
public:
  GraphEpoch(const GraphEpoch &) = delete;
  GraphEpoch &operator=(const GraphEpoch &) = delete;

  /// Monotone publication counter; epoch #0 is the server's initial state.
  uint64_t generation() const { return Generation; }

  /// The epoch's grammar. Const to everyone but the forking writer: ids
  /// match every other epoch of the same server (cloneExact).
  const Grammar &grammar() const { return G; }

  /// The shared graph. Sessions of this epoch may expand it concurrently.
  ItemSetGraph &graph() { return Graph; }
  const ItemSetGraph &graph() const { return Graph; }

  /// True when this epoch's graph was adopted zero-copy from its
  /// predecessor's serialization (vs the cold-start fallback).
  bool adopted() const { return Adopted; }

  /// Parses served against this epoch (all sessions; relaxed counter).
  /// The per-epoch utilization observable of metricsJson().
  uint64_t parses() const { return Parses.load(std::memory_order_relaxed); }

private:
  friend class GrammarServer;
  friend class ParseSession;

  explicit GraphEpoch(uint64_t Generation) : Generation(Generation), Graph(G) {}

  uint64_t Generation;
  Grammar G;
  ItemSetGraph Graph;
  bool Adopted = false;
  std::atomic<uint64_t> Parses{0};
};

/// A parse session: a Tomita parser pinned to one epoch. Sessions are
/// cheap (one shared_ptr + one reference) and single-threaded; run many
/// sessions on many threads to parse concurrently. All per-parse state
/// (GSS, frontier index, forest) is local to each parse() call, so two
/// sessions over the same epoch share nothing but the graph.
class ParseSession {
public:
  explicit ParseSession(std::shared_ptr<GraphEpoch> Pinned)
      : Epoch(std::move(Pinned)), Parser(Epoch->graph()) {}

  /// The epoch this session parses against, for the session's lifetime.
  GraphEpoch &epoch() { return *Epoch; }
  uint64_t generation() const { return Epoch->generation(); }

  /// Parses \p Input (terminals, no end marker) into \p F.
  GlrResult parse(TokenView Input, Forest &F) {
    Epoch->Parses.fetch_add(1, std::memory_order_relaxed);
    return Parser.parse(Input, F);
  }

  /// Recognition only (the forest is still built; §7 measurement style).
  bool recognize(TokenView Input) {
    Epoch->Parses.fetch_add(1, std::memory_order_relaxed);
    return Parser.recognize(Input);
  }


private:
  std::shared_ptr<GraphEpoch> Epoch;
  GlrParser Parser;
};

/// The server: owns the epoch chain, hands out sessions, applies edits.
/// All members are safe to call from any thread.
class GrammarServer {
public:
  /// Starts serving a replica of \p Initial (cloned id-exactly; the
  /// argument is not retained).
  explicit GrammarServer(const Grammar &Initial);

  GrammarServer(const GrammarServer &) = delete;
  GrammarServer &operator=(const GrammarServer &) = delete;

  /// Pins the current epoch into a new session. Out of line for the
  /// session-count metric (keeps support/Metrics.h out of this header).
  ParseSession openSession() const;

  /// The current epoch (pinned). Successive calls may return different
  /// epochs; one session's view is stable because the *session* pins.
  std::shared_ptr<GraphEpoch> epoch() const { return Published.acquire(); }

  /// Generation of the current epoch.
  uint64_t generation() const { return epoch()->generation(); }

  /// ADD-RULE (§6) as an epoch fork. Returns false (and publishes
  /// nothing) when the rule is already active. Symbol ids are those of
  /// any epoch of this server.
  bool addRule(SymbolId Lhs, std::vector<SymbolId> Rhs);

  /// ADD-RULE by symbol names (interned into the successor epoch).
  bool addRule(std::string_view Lhs,
               std::initializer_list<std::string_view> Rhs);

  /// DELETE-RULE (§6) as an epoch fork. Returns false when no such rule
  /// is active.
  bool removeRule(SymbolId Lhs, const std::vector<SymbolId> &Rhs);

  /// DELETE-RULE by symbol names (never interns; unknown names mean the
  /// rule cannot be active).
  bool removeRule(std::string_view Lhs,
                  std::initializer_list<std::string_view> Rhs);

  /// Collects into \p Out the union of item-set ids whose ACTION/GOTO
  /// behavior was invalidated by every fork published after generation
  /// \p SinceGen — the damage a parse pinned at \p SinceGen must respect
  /// to migrate to the current epoch (server/DocumentSession.h). Ids are
  /// predecessor-era (comparable against any GSS built at \p SinceGen or
  /// later); the union is sorted and deduplicated, and its last element is
  /// an id bound: every id at or above Out.back() is affected too (sets an
  /// epoch expanded after a fork froze it, which the fork never saw).
  /// Returns false when the fork log no longer covers the whole gap (the
  /// server keeps a bounded window of fork damage) — the caller must then
  /// assume everything changed and re-parse from scratch.
  bool affectedSince(uint64_t SinceGen, std::vector<uint32_t> &Out) const;

  /// Number of epochs still alive — published or kept alive by sessions.
  /// The reclamation observable: after dropping every session of a
  /// displaced epoch this shrinks back toward 1.
  size_t liveEpochs() const;

  /// True when the most recent fork adopted its predecessor's graph
  /// zero-copy (introspection for tests; false before the first fork and
  /// on the cold-start fallback).
  bool lastForkAdopted() const;

  /// A point-in-time observability document: current generation, live
  /// epochs and reclamation lag, the current epoch's parse count and
  /// sharded graph statistics, plus the process-wide metrics registry.
  /// Safe to call from any thread while sessions parse and writers fork:
  /// it reads only sharded/atomic counters and WriterMutex-guarded state,
  /// never walking a concurrently-growing graph.
  JsonValue metricsJson() const;

private:
  /// Builds the successor epoch of \p Cur and opens its fork-log entry,
  /// whose id bound is read under the expansion freeze; caller holds
  /// WriterMutex, applies the edit to the returned epoch's graph, then
  /// calls recordForkDamage and publish. Implemented in GrammarServer.cpp.
  std::shared_ptr<GraphEpoch> forkOf(GraphEpoch &Cur);
  void publish(std::shared_ptr<GraphEpoch> Next);

  /// Captures, post-edit and pre-publish, which predecessor-era sets the
  /// fork's MODIFY invalidated (everything the §6.2 marking left
  /// non-Complete) into the fork-log entry forkOf opened for \p Next.
  /// Caller holds WriterMutex.
  void recordForkDamage(GraphEpoch &Next);

  /// Serializes writers (forks). Readers never take it.
  mutable std::mutex WriterMutex;
  EpochPublisher<GraphEpoch> Published;
  /// Every epoch ever published, weakly: the liveEpochs() probe. Pruned
  /// of expired entries on every fork and query. Guarded by WriterMutex.
  mutable std::vector<std::weak_ptr<GraphEpoch>> History;
  uint64_t NextGeneration = 0;
  bool LastForkAdopted = false;

  /// Per-fork invalidation sets for affectedSince(), oldest first,
  /// bounded to the last ForkLogCap forks (documents further behind fall
  /// back to a from-scratch parse). Guarded by WriterMutex; independent
  /// of epoch lifetimes so a migration can span reclaimed epochs.
  struct ForkDamage {
    uint64_t Generation = 0;
    /// The predecessor's set count when the fork serialized it.
    uint32_t IdBound = 0;
    /// Affected ids below IdBound, ascending.
    std::vector<uint32_t> Affected;
  };
  static constexpr size_t ForkLogCap = 64;
  mutable std::vector<ForkDamage> ForkLog;
};

} // namespace ipg

#endif // IPG_SERVER_GRAMMARSERVER_H
