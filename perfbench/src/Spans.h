//===- perfbench/src/Spans.h - Benchmark-side spans and counts -*- C++ -*-===//
///
/// \file
/// The traced run's recorder. The benchmark opens one `op` span per
/// scripted operation and, inside it, one span around every call it makes
/// into a layer of the library. Spans are named after the per-layer
/// metrics they feed (`glr.parse_us`, ...) so they never collide with the
/// library's own trace names (`lr.expand`, `server.fork`, `snap.*`).
/// A span's layer is its name up to the first dot.
///
/// Every span records steady-clock start/end and the allocation count at
/// both ends (perfbench/src/Allocs.h); self time and self allocations are
/// the span's own minus its children's. Spans stay in memory and are
/// written out once, at exit, as a Chrome trace.
///
/// Beside spans, a workload reports per-op work counts (GSS nodes, forest
/// nodes, migrations, ...) through count(); counts must repeat exactly
/// across replays and across runs with the same seed.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// The benchmark-side span names.
enum class SpanKind : uint8_t {
  Op,
  LexerScan,
  GlrParse,
  GlrFirstTree,
  IncrementalReparse,
  ServerFork,
  ServerMigrate,
  ServerReparseAfterMigrate,
};
constexpr size_t NumSpanKinds =
    static_cast<size_t>(SpanKind::ServerReparseAfterMigrate) + 1;
const char *spanName(SpanKind K);

/// Per-op work counts a workload reports in traced replays.
enum class Count : uint8_t {
  LexerTokens,
  LexerBytes,
  GlrGssNodes, ///< Registry delta of glr.gss.nodes_constructed.
  GlrGssEdges,
  GlrReductions,
  GlrReductionPaths,
  GlrForestNodes,
  GlrForestAlternatives,
  LrExpansions,   ///< Registry delta of ipg.expand.total.
  LrReexpansions, ///< Registry delta of ipg.expand.reexpansions.
  LrClosureItems, ///< Registry delta of ipg.expand.closure_items.
  LrDirtyMarks,   ///< Registry delta of ipg.modify.dirty_marks.
  IncReparses,
  IncGrafted,
  IncGssNodesConstructed,
  IncIsoWalkFailures,
  IncSuffixLayers,
  IncForestNodesLive,
  ServerMigrationsReused,
  ServerMigrationsBounded,
  ServerMigrationsFull,
  ServerEpochBytes, ///< Reported once per replay, after the last op.
};
constexpr size_t NumCounts = static_cast<size_t>(Count::ServerEpochBytes) + 1;

using Counts = std::array<uint64_t, NumCounts>;

/// One recorded span.
struct SpanRecord {
  SpanKind Kind;
  uint32_t Op;
  uint32_t Replay;
  int32_t Parent; ///< Index of the enclosing span, -1 for an op span.
  uint64_t StartNs, EndNs;
  uint64_t AllocsAtStart, AllocsAtEnd;
};

/// Records spans and counts for the traced replays; a dormant recorder
/// (enabled() false) records nothing and costs one branch per span.
class SpanLog {
public:
  class Scope {
  public:
    Scope(SpanLog &Log, SpanKind Kind) : Log(Log) {
      Index = Log.Enabled ? Log.open(Kind) : -1;
    }
    ~Scope() {
      if (Index >= 0)
        Log.close(Index);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    SpanLog &Log;
    int32_t Index;
  };

  bool enabled() const { return Enabled; }

  /// Starts recording replay \p Replay (traced) or stops recording.
  void beginReplay(uint32_t Replay, bool Traced);
  /// Subsequent spans and counts belong to op \p Op.
  void beginOp(uint32_t Op) { CurOp = Op; }

  /// Adds \p Delta to the current op's count \p C (traced replays only).
  void count(Count C, uint64_t Delta) {
    if (Enabled)
      OpCounts[CurOp][static_cast<size_t>(C)] += Delta;
  }

  /// Sizes the per-op count table for a script of \p Ops ops and clears
  /// it; call at the start of each traced replay.
  void resetCounts(size_t Ops) { OpCounts.assign(Ops, Counts{}); }
  const std::vector<Counts> &opCounts() const { return OpCounts; }

  const std::vector<SpanRecord> &spans() const { return Spans; }

  /// Self nanoseconds and self allocations of span \p I.
  struct Self {
    uint64_t Ns = 0;
    uint64_t Allocs = 0;
  };
  std::vector<Self> selfCosts() const;

  /// Writes replay \p Replay's spans as a Chrome trace (JSON object form;
  /// loads in Perfetto and chrome://tracing). False on an I/O error.
  bool writeChromeTrace(const std::string &Path, uint32_t Replay) const;

private:
  int32_t open(SpanKind Kind);
  void close(int32_t Index);
  /// Allocation count minus the recorder's own growth allocations, so a
  /// span never charges the recorder's bookkeeping to a layer.
  uint64_t allocsNow() const;

  bool Enabled = false;
  uint32_t CurOp = 0;
  uint32_t CurReplay = 0;
  int32_t Open = -1;
  uint64_t OwnAllocs = 0;
  std::vector<SpanRecord> Spans;
  std::vector<Counts> OpCounts;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
