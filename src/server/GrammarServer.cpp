//===- server/GrammarServer.cpp - Concurrent grammar server ---------------===//

#include "server/GrammarServer.h"

#include "lr/GraphSnapshot.h"
#include "support/FlatSection.h"
#include "support/MappedFile.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <utility>

using namespace ipg;

namespace {

/// Process-wide server observables (catalog in docs/OBSERVABILITY.md).
struct ServerMetrics {
  MetricsRegistry &R = MetricsRegistry::process();
  MetricCounter &Sessions = R.counter("ipg.server.sessions");
  MetricCounter &Forks = R.counter("ipg.server.forks");
  MetricCounter &ForksAdopted = R.counter("ipg.server.forks_adopted");
  MetricGauge &LiveEpochs = R.gauge("ipg.server.live_epochs");
  LatencyHistogram &ForkLatency = R.histogram("ipg.server.fork");

  static ServerMetrics &get() {
    static ServerMetrics M;
    return M;
  }
};

} // namespace

GrammarServer::GrammarServer(const Grammar &Initial) {
  auto First = std::shared_ptr<GraphEpoch>(new GraphEpoch(NextGeneration++));
  Grammar::cloneExact(Initial, First->G);
  // The epoch's graph was constructed against the then-empty grammar;
  // rebuild its start set now that the rules exist.
  GraphSnapshot::reset(First->Graph);
  First->Graph.beginConcurrent();
  History.push_back(First);
  Published.publish(std::move(First));
  ServerMetrics::get().LiveEpochs.set(1);
}

ParseSession GrammarServer::openSession() const {
  ServerMetrics::get().Sessions.bump();
  return ParseSession(epoch());
}

std::shared_ptr<GraphEpoch> GrammarServer::forkOf(GraphEpoch &Cur) {
  IPG_TRACE_SPAN(Sp, "server.fork");
  IPG_TRACE_SPAN_ARG(Sp, Cur.generation());
  ScopedLatency Lat(ServerMetrics::get().ForkLatency);
  ServerMetrics::get().Forks.bump();
  auto Next = std::shared_ptr<GraphEpoch>(new GraphEpoch(NextGeneration++));
  Grammar::cloneExact(Cur.grammar(), Next->G);

  // Serialize the predecessor's graph under an expansion freeze. saveV2
  // only reads, and queries against Complete sets keep running — a parse
  // thread stalls during the fork only if it needs a set *expanded*. The
  // id bound is read under the same freeze: sets that sessions expand in
  // the predecessor after it lifts never reach the fork.
  FlatWriter Section;
  ForkDamage Entry;
  Entry.Generation = Next->generation();
  {
    ItemSetGraph::FreezeGuard Freeze(Cur.graph());
    GraphSnapshot::saveV2(Cur.graph(), Section);
    Entry.IdBound = static_cast<uint32_t>(Cur.graph().numSetIds());
  }
  // recordForkDamage completes the entry once the edit has been applied.
  ForkLog.push_back(std::move(Entry));

  // Materialize the serialization as an anonymous private "mapping" and
  // adopt it zero-copy: the successor's sets borrow spans of this buffer
  // until a MODIFY or EXPAND of a given set copies it out (the same
  // copy-on-write seam warm starts use). Fall back to a cold one-node
  // graph if that fails — correctness never depends on the fast path.
  Next->Adopted = false;
  Expected<MappedFile> Buffer =
      MappedFile::copyOf(Section.buffer().data(), Section.size());
  if (Buffer) {
    auto Backing = std::make_shared<const MappedFile>(std::move(*Buffer));
    Next->Adopted = bool(GraphSnapshot::adoptV2(
        Backing->data(), Backing->size(), Next->Graph, Backing));
  }
  if (!Next->Adopted)
    GraphSnapshot::reset(Next->Graph);
  else
    ServerMetrics::get().ForksAdopted.bump();
  return Next;
}

void GrammarServer::recordForkDamage(GraphEpoch &Next) {
  // Only predecessor-era ids matter: sets the fork created are invisible
  // to any GSS built against an earlier epoch, and ids at or above the
  // bound forkOf froze are affected wholesale (affectedSince). Everything
  // the MODIFY marking left non-Complete is affected — Dirty is the §6.2
  // signal, null (tombstoned) is fatal for reuse, and inherited
  // still-Dirty sets from older forks make the union a conservative
  // superset, which is always sound (it only widens what a migration
  // refuses to reuse). Initial sets are *not* affected: their behavior was
  // never queried by any checkpointed layer, and their eventual expansion
  // reads whichever grammar is current — exactly what a migrated parse
  // wants.
  ForkDamage &Entry = ForkLog.back();
  assert(Entry.Generation == Next.generation() &&
         "forkOf opens the fork's damage entry");
  for (uint32_t Id = 0; Id < Entry.IdBound; ++Id) {
    const ItemSet *S = Next.graph().setById(Id);
    if (S == nullptr || S->state() == ItemSetState::Dirty)
      Entry.Affected.push_back(Id);
  }
  if (ForkLog.size() > ForkLogCap)
    ForkLog.erase(ForkLog.begin(),
                  ForkLog.begin() +
                      static_cast<std::ptrdiff_t>(ForkLog.size() - ForkLogCap));
}

bool GrammarServer::affectedSince(uint64_t SinceGen,
                                  std::vector<uint32_t> &Out) const {
  std::lock_guard<std::mutex> Writer(WriterMutex);
  const uint64_t CurGen = NextGeneration - 1;
  if (SinceGen > CurGen)
    return false;
  if (SinceGen == CurGen)
    return true; // Already current: empty damage.
  // The log is append-ordered by generation; every fork in
  // (SinceGen, CurGen] must still be present or the gap is unknowable.
  // A GSS built at SinceGen may hold sets its epoch expanded after the
  // first fork of the gap froze it, so every id at or above the lowest
  // bound in the gap is affected.
  size_t Found = 0, Total = 0;
  uint32_t Bound = std::numeric_limits<uint32_t>::max();
  for (const ForkDamage &E : ForkLog)
    if (E.Generation > SinceGen) {
      Total += E.Affected.size();
      Bound = std::min(Bound, E.IdBound);
      ++Found;
    }
  if (Found != CurGen - SinceGen)
    return false;
  Out.reserve(Out.size() + Total + 1);
  for (const ForkDamage &E : ForkLog)
    if (E.Generation > SinceGen)
      for (uint32_t Id : E.Affected)
        if (Id < Bound)
          Out.push_back(Id);
  std::sort(Out.begin(), Out.end());
  Out.erase(std::unique(Out.begin(), Out.end()), Out.end());
  Out.push_back(Bound);
  return true;
}

void GrammarServer::publish(std::shared_ptr<GraphEpoch> Next) {
  Next->Graph.beginConcurrent();
  History.push_back(Next);
  Published.publish(std::move(Next));
  // Prune reclaimed epochs so History stays proportional to *live* epochs,
  // not to the server's total edit count.
  std::erase_if(History,
                [](const std::weak_ptr<GraphEpoch> &E) { return E.expired(); });
  // Everything left is live (pruned moments ago); reclamation-lag gauge
  // and trace track of the epoch population over time.
  ServerMetrics::get().LiveEpochs.set(int64_t(History.size()));
  IPG_TRACE_COUNTER("server.live_epochs", History.size());
}

bool GrammarServer::addRule(SymbolId Lhs, std::vector<SymbolId> Rhs) {
  std::lock_guard<std::mutex> Writer(WriterMutex);
  std::shared_ptr<GraphEpoch> Cur = Published.acquire();
  // No-op pre-check against the current grammar: an already-active rule
  // must not cost a fork (ADD-RULE's "no change" contract, §6.1).
  RuleId Existing = Cur->grammar().findRule(Lhs, Rhs);
  if (Existing != InvalidRule && Cur->grammar().isActive(Existing))
    return false;
  std::shared_ptr<GraphEpoch> Next = forkOf(*Cur);
  bool Changed = Next->Graph.addRule(Lhs, std::move(Rhs));
  assert(Changed && "pre-checked edit did not change the fork");
  recordForkDamage(*Next);
  LastForkAdopted = Next->Adopted;
  publish(std::move(Next));
  return Changed;
}

bool GrammarServer::removeRule(SymbolId Lhs, const std::vector<SymbolId> &Rhs) {
  std::lock_guard<std::mutex> Writer(WriterMutex);
  std::shared_ptr<GraphEpoch> Cur = Published.acquire();
  RuleId Existing = Cur->grammar().findRule(Lhs, Rhs);
  if (Existing == InvalidRule || !Cur->grammar().isActive(Existing))
    return false;
  std::shared_ptr<GraphEpoch> Next = forkOf(*Cur);
  bool Changed = Next->Graph.removeRule(Lhs, Rhs);
  assert(Changed && "pre-checked edit did not change the fork");
  recordForkDamage(*Next);
  LastForkAdopted = Next->Adopted;
  publish(std::move(Next));
  return Changed;
}

bool GrammarServer::addRule(std::string_view Lhs,
                            std::initializer_list<std::string_view> Rhs) {
  std::lock_guard<std::mutex> Writer(WriterMutex);
  std::shared_ptr<GraphEpoch> Cur = Published.acquire();
  // Resolve names against the current epoch without interning (ids are
  // stable across epochs, so a hit means the same ids in the fork). Any
  // unknown name means the rule cannot be active yet.
  const SymbolTable &Syms = Cur->grammar().symbols();
  SymbolId LhsId = Syms.lookup(Lhs);
  std::vector<SymbolId> RhsIds;
  RhsIds.reserve(Rhs.size());
  bool AllKnown = LhsId != InvalidSymbol;
  for (std::string_view Name : Rhs) {
    SymbolId Id = AllKnown ? Syms.lookup(Name) : InvalidSymbol;
    AllKnown = AllKnown && Id != InvalidSymbol;
    RhsIds.push_back(Id);
  }
  if (AllKnown) {
    RuleId Existing = Cur->grammar().findRule(LhsId, RhsIds);
    if (Existing != InvalidRule && Cur->grammar().isActive(Existing))
      return false;
  }
  // New symbols are interned into the *fork's* grammar; the published
  // epoch is never touched. Interning grows the id space monotonically,
  // preserving every existing id.
  std::shared_ptr<GraphEpoch> Next = forkOf(*Cur);
  SymbolTable &NextSyms = Next->G.symbols();
  LhsId = NextSyms.intern(Lhs);
  RhsIds.clear();
  for (std::string_view Name : Rhs)
    RhsIds.push_back(NextSyms.intern(Name));
  bool Changed = Next->Graph.addRule(LhsId, std::move(RhsIds));
  assert(Changed && "pre-checked edit did not change the fork");
  recordForkDamage(*Next);
  LastForkAdopted = Next->Adopted;
  publish(std::move(Next));
  return Changed;
}

bool GrammarServer::removeRule(std::string_view Lhs,
                               std::initializer_list<std::string_view> Rhs) {
  // Deletion never interns: resolve eagerly and bail on unknown names.
  std::shared_ptr<GraphEpoch> Cur = Published.acquire();
  const SymbolTable &Syms = Cur->grammar().symbols();
  SymbolId LhsId = Syms.lookup(Lhs);
  if (LhsId == InvalidSymbol)
    return false;
  std::vector<SymbolId> RhsIds;
  RhsIds.reserve(Rhs.size());
  for (std::string_view Name : Rhs) {
    SymbolId Id = Syms.lookup(Name);
    if (Id == InvalidSymbol)
      return false;
    RhsIds.push_back(Id);
  }
  return removeRule(LhsId, RhsIds);
}

size_t GrammarServer::liveEpochs() const {
  std::lock_guard<std::mutex> Writer(WriterMutex);
  size_t Live = 0;
  for (const std::weak_ptr<GraphEpoch> &E : History)
    Live += !E.expired();
  return Live;
}

bool GrammarServer::lastForkAdopted() const {
  std::lock_guard<std::mutex> Writer(WriterMutex);
  return LastForkAdopted;
}

JsonValue GrammarServer::metricsJson() const {
  // Concurrency discipline: this reads (a) the pinned current epoch's
  // atomic/sharded counters, (b) WriterMutex-guarded server state, and
  // (c) the process metrics registry. It never walks Pool/Adopted of a
  // graph that sessions may be growing — set counts are exclusive-mode
  // observables (Ipg::metricsJson() has them; a server graph does not).
  std::shared_ptr<GraphEpoch> Cur = Published.acquire();
  JsonValue Doc = JsonValue::object();
  Doc.set("generation", Cur->generation());
  Doc.set("epoch_parses", Cur->parses());
  Doc.set("epoch_adopted", Cur->adopted());
  {
    std::lock_guard<std::mutex> Writer(WriterMutex);
    uint64_t Live = 0, LiveParses = 0;
    uint64_t Oldest = Cur->generation();
    for (const std::weak_ptr<GraphEpoch> &W : History)
      if (std::shared_ptr<GraphEpoch> E = W.lock()) {
        ++Live;
        LiveParses += E->parses();
        Oldest = std::min(Oldest, E->generation());
      }
    Doc.set("live_epochs", Live);
    Doc.set("oldest_live_generation", Oldest);
    // How far reclamation trails publication: 0 when every displaced
    // epoch has drained, N when a session still pins generation Cur-N.
    Doc.set("reclamation_lag", Cur->generation() - Oldest);
    Doc.set("live_epoch_parses", LiveParses);
    Doc.set("last_fork_adopted", LastForkAdopted);
  }
  ItemSetGraphStats S = Cur->graph().stats();
  JsonValue &GraphDoc = Doc.set("graph", JsonValue::object());
  GraphDoc.set("expansions", S.Expansions);
  GraphDoc.set("re_expansions", S.ReExpansions);
  GraphDoc.set("closure_items", S.ClosureItems);
  GraphDoc.set("dirty_marks", S.DirtyMarks);
  GraphDoc.set("collected", S.Collected);
  GraphDoc.set("goto_calls", S.GotoCalls);
  Doc.set("process", MetricsRegistry::process().toJson());
  return Doc;
}
