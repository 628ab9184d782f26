//===- tests/common/Corpus.h - Real-grammar corpus loader -------*- C++ -*-===//
///
/// \file
/// Loads the checked-in grammar corpus under tests/data/corpus/ and
/// generates seeded random grammar families with controlled conflict
/// density. A corpus file is ordinary BNF (grammar/BnfReader.h) carrying
/// its test expectations in `//!` directive lines, which readBnf skips as
/// comments:
///
/// \code
///   //! name: json
///   //! class: real
///   //! accept: { string : number }
///   //! reject: { string : }
///   //! trees: 2 :: a + a + a        // expected distinct parse trees
///   //! trees: inf :: a              // cyclic: saturates at the cap
///   //! bench: 200 :: [ num :: , num :: ]   // repeat :: prefix :: unit :: suffix
/// \endcode
///
/// Deliberately gtest-free so bench drivers can compile it too.
///
//===----------------------------------------------------------------------===//

#ifndef IPG_TESTS_COMMON_CORPUS_H
#define IPG_TESTS_COMMON_CORPUS_H

#include "grammar/Grammar.h"
#include "support/Expected.h"

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace ipg::testing {

/// Expected number of distinct parse trees for one accepted input.
struct TreeExpectation {
  std::string Input;     ///< Space-separated token spellings.
  uint64_t Trees = 0;    ///< Expected count; ignored when Infinite.
  bool Infinite = false; ///< Cyclic derivation: both counters saturate.
};

/// Pump pattern for benchmark-sized inputs: Prefix + Unit*Repeat + Suffix.
struct BenchPump {
  std::string Prefix, Unit, Suffix;
  unsigned Repeat = 0; ///< 0 = the grammar has no bench directive.
};

/// One corpus grammar: either a checked-in BNF file (Bnf non-empty) or a
/// seeded random family (Seed/ConflictDensity regenerate it).
struct CorpusCase {
  std::string Name;
  std::string Class; ///< "real" | "ambiguous" | "pathological" | "random".
  std::string Bnf;   ///< BNF text; empty for generated families.
  uint64_t Seed = 0;
  double ConflictDensity = 0.0;
  std::vector<std::string> Accept; ///< Must be accepted by every engine.
  std::vector<std::string> Reject; ///< Must be rejected by every engine.
  std::vector<std::string> Probe;  ///< No expected verdict; engines agree.
  std::vector<TreeExpectation> TreeCounts;
  BenchPump Bench;

  /// Materializes the grammar into \p G (which should be empty).
  Expected<size_t> build(Grammar &G) const;
};

/// gtest prints a case as its name, so parameterized test ids stay stable
/// across builds instead of carrying the object's bytes.
inline void PrintTo(const CorpusCase &Case, std::ostream *OS) {
  *OS << Case.Name;
}

/// Parses one corpus file (BNF plus `//!` directives).
Expected<CorpusCase> readCorpusFile(const std::string &Path);

/// Loads every *.bnf under \p Dir, sorted by grammar name.
Expected<std::vector<CorpusCase>> loadCorpusDir(const std::string &Dir);

/// A seeded random grammar family. \p ConflictDensity in [0,1] is the
/// probability that each extra rule takes a conflict-inducing shape
/// (ambiguous self-concatenation, left+right recursion, nullability)
/// instead of an LR-friendly terminal-prefixed one. Accept holds derived
/// (guaranteed-in-language) sentences; Probe holds mutated copies with no
/// expected verdict.
CorpusCase makeRandomFamilyCase(uint64_t Seed, double ConflictDensity);

/// The file corpus plus the default random families (two seeds at each of
/// three conflict densities).
Expected<std::vector<CorpusCase>> loadFullCorpus(const std::string &Dir);

} // namespace ipg::testing

#endif // IPG_TESTS_COMMON_CORPUS_H
