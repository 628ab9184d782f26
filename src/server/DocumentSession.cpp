//===- server/DocumentSession.cpp - Epoch-pinned parse documents ----------===//

#include "server/DocumentSession.h"

#include "support/Metrics.h"

#include <algorithm>
#include <limits>

using namespace ipg;

namespace {

/// Migration observables (catalog in docs/OBSERVABILITY.md).
struct DocMetrics {
  MetricsRegistry &R = MetricsRegistry::process();
  MetricCounter &Documents = R.counter("ipg.server.documents");
  MetricCounter &Reused = R.counter("ipg.server.migrations_reused");
  MetricCounter &Bounded = R.counter("ipg.server.migrations_bounded");
  MetricCounter &Full = R.counter("ipg.server.migrations_full");

  static DocMetrics &get() {
    static DocMetrics M;
    return M;
  }
};

constexpr size_t NotAffected = std::numeric_limits<size_t>::max();

/// The first layer whose checkpoint (or the live frontier) contains a set
/// the MODIFY chain invalidated — everything from that layer on was
/// computed by querying at least one changed ACTION/GOTO table and must
/// be re-stepped. \p Affected is sorted and ends with the id bound at or
/// above which every id is affected (affectedSince contract).
size_t firstAffectedLayer(const GssEngine &Eng,
                          const std::vector<uint32_t> &Affected) {
  auto Hit = [&](const GssNode *Node) {
    const uint32_t Id = Node->State->id();
    return (!Affected.empty() && Id >= Affected.back()) ||
           std::binary_search(Affected.begin(), Affected.end(), Id);
  };
  const GssRecords &Recs = Eng.records();
  for (size_t Layer = 0; Layer < Recs.size(); ++Layer)
    for (const GssNode *Node : Recs[Layer])
      if (Hit(Node))
        return Layer;
  // A suspended parse's pre-fixpoint frontier lives at position() and is
  // in no record yet; its states' ACTIONs are exactly what the next step
  // queries.
  for (const GssNode *Node : Eng.frontier())
    if (Hit(Node))
      return std::min(Eng.position(), NotAffected - 1);
  return NotAffected;
}

} // namespace

DocumentSession::DocumentSession(GrammarServer &Server)
    : Server(&Server), Epoch(Server.epoch()),
      Doc(std::make_unique<ParseDocument>(Epoch->graph())) {
  DocMetrics::get().Documents.bump();
}

DocumentSession::Migration
DocumentSession::fullReparse(std::shared_ptr<GraphEpoch> Next) {
  std::vector<SymbolId> Toks = Doc->tokens();
  Doc = std::make_unique<ParseDocument>(Next->graph());
  Doc->setTokens(std::move(Toks));
  Epoch = std::move(Next);
  DocMetrics::get().Full.bump();
  return Migration::Full;
}

DocumentSession::Migration DocumentSession::migrate() {
  std::shared_ptr<GraphEpoch> Next = Server->epoch();
  if (Next->generation() == generation())
    return Migration::Current;

  std::vector<uint32_t> Affected;
  if (!Server->affectedSince(generation(), Affected))
    return fullReparse(std::move(Next));

  const size_t First = firstAffectedLayer(Doc->engine(), Affected);
  if (First == 0)
    // The start set itself changed behavior; nothing survives. (Skipping
    // the rebind keeps a doomed GSS from constraining the fallback.)
    return fullReparse(std::move(Next));
  if (!Doc->engine().rebindGraph(Next->graph()))
    return fullReparse(std::move(Next));
  Epoch = std::move(Next);

  if (First == NotAffected) {
    DocMetrics::get().Reused.bump();
    return Migration::Reused;
  }
  Doc->invalidateFrom(First);
  DocMetrics::get().Bounded.bump();
  return Migration::Bounded;
}
