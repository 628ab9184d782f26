//===- perfbench/src/Workloads.h - The three scripted user loops -*- C++ -*-===//
///
/// \file
/// A workload is a fixed, seeded script of ops against the library's
/// public API, replayed from scratch several times in one run. The
/// script is generated once, from the seed, when the workload is made;
/// every replay rebuilds all library state in setUp(), so op K sees the
/// same history in every replay and its time can be taken as a minimum
/// over replays. Scripts are a fixed number of ops, never a time budget,
/// because per-op cost grows with edit history.
///
///   sdf_batch          bytes -> Scanner -> Ipg::parse (warm) -> firstTree
///   editor_keystrokes  ParseDocument edit + bounded reparse()
///   grammar_edits      GrammarServer fork + DocumentSession migrate() +
///                      reparse() of every open document
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Spans.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// A deterministic generator (SplitMix64), so a seed names the same
/// script on every platform and standard library.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    uint64_t Z = (State += 0x9E3779B97F4A7C15ull);
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [0, N); N > 0.
  uint64_t below(uint64_t N) { return next() % N; }
  template <typename T> void shuffle(std::vector<T> &V) {
    for (size_t I = V.size(); I > 1; --I)
      std::swap(V[I - 1], V[below(I)]);
  }

private:
  uint64_t State;
};

/// One scripted user loop.
class Workload {
public:
  virtual ~Workload() = default;

  virtual size_t numOps() const = 0;

  /// A canonical text of the op script (hashed for the determinism
  /// check; equal text means the same inputs reach the library).
  virtual std::string scriptText() const = 0;

  /// Builds the grammars and scanner and opens and first-parses every
  /// document, generating the table by need. Timed as setup_s. Throws
  /// std::runtime_error when the inputs cannot be built.
  virtual void setUp() = 0;

  /// Runs op \p K (timed). Spans and counts go to \p Log when it is
  /// enabled.
  virtual void runOp(size_t K, SpanLog &Log) = 0;

  /// Untimed check of op \p K's outputs right after it ran. With
  /// \p Oracle the outputs are compared against a from-scratch oracle;
  /// otherwise against the oracle-checked outputs of an earlier replay.
  /// Returns false on a mismatch and names it in \p Why.
  virtual bool check(size_t K, bool Oracle, std::string &Why) = 0;

  /// Untimed, after the last op of a traced replay: per-replay counts.
  virtual void afterScript(SpanLog &) {}

  /// Drops every piece of library state setUp() built.
  virtual void tearDown() = 0;
};

/// The workload names, in the order they are documented.
const std::vector<std::string> &workloadNames();

/// Makes workload \p Name with its script drawn from \p Seed, reading
/// corpus grammars from \p CorpusDir; null for an unknown name.
std::unique_ptr<Workload> makeWorkload(const std::string &Name, uint64_t Seed,
                                       const std::string &CorpusDir);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
