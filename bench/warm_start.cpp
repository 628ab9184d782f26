//===- bench/warm_start.cpp - Snapshot warm start vs cold generation -------===//
///
/// \file
/// The snapshot subsystem's headline numbers, on the 12x-SDF grammar (the
/// "much larger than the grammar of SDF" regime of §7): cold full
/// generation vs. adopting a persisted graph (`Ipg::loadSnapshot`: mmap +
/// validate + pool adoption, the zero-copy fast path) and, the
/// cross-process extension of §6, repairing a *stale* snapshot whose
/// grammar differs by one rule (the in-place id remap path) vs. regenerating
/// the modified grammar from scratch. Also pins the byte-determinism
/// contract the CI job relies on: the same graph serializes to identical
/// bytes, and a fingerprint-matched save→load→save round trip reproduces
/// the file exactly.
///
/// The snapshot written here (`warm_start_v2.snapshot`, in the working
/// directory) doubles as the CI determinism artifact, alongside
/// `warm_start_v2_resaved.snapshot` — its save-after-load output, which
/// the CI job cmps against the original file (with the flat-arena layout,
/// save-after-load identity is a layout invariant, not just a
/// decode-encode symmetry).
///
/// A last phase times the suspended-parse (PARS) rider on the corpus
/// JSON list grammar: saving a finished 20k-token parse (2k under
/// `--reduced`), resuming it in a fresh generator, and a scratch parse
/// of the same tokens, plus the rider's bytes per token.
///
//===----------------------------------------------------------------------===//

#include "common/BenchHarness.h"
#include "common/BenchSupport.h"
#include "common/Corpus.h"
#include "common/ScaledSdf.h"

#include "core/Ipg.h"
#include "incremental/ParseSnapshot.h"
#include "sdf/Samples.h"
#include "sdf/SdfLanguage.h"
#include "sdf/SdfLexer.h"
#include "support/MappedFile.h"
#include "support/Trace.h"

#include <cstdio>
#include <string>

using namespace ipg;
using namespace ipg::bench;
using namespace ipg::testing;

namespace {

std::vector<SymbolId> tokenize(Grammar &G, std::string_view Text) {
  Scanner S;
  configureSdfScanner(S);
  Expected<std::vector<SymbolId>> Tokens = S.tokenizeToSymbols(Text, G);
  if (!Tokens) {
    std::fprintf(stderr, "sample must tokenize: %s\n",
                 Tokens.error().str().c_str());
    std::exit(2);
  }
  return Tokens.take();
}

bool filesEqual(const std::string &A, const std::string &B) {
  Expected<std::vector<uint8_t>> BytesA = readFileBytes(A);
  Expected<std::vector<uint8_t>> BytesB = readFileBytes(B);
  return BytesA && BytesB && *BytesA == *BytesB;
}

/// Builds the corpus JSON grammar into \p G and the list
/// `[ number , number , ... ]` of \p Tokens tokens (odd, >= 3).
bool buildJsonList(Grammar &G, size_t Tokens, std::vector<SymbolId> &Out) {
  Expected<std::vector<CorpusCase>> Corpus = loadCorpusDir(IPG_CORPUS_DIR);
  if (!Corpus)
    return false;
  for (const CorpusCase &Case : *Corpus) {
    if (Case.Name != "json" || !Case.build(G))
      continue;
    const SymbolId Open = G.symbols().lookup("["),
                   Close = G.symbols().lookup("]"),
                   Comma = G.symbols().lookup(","),
                   Number = G.symbols().lookup("number");
    Out = {Open, Number};
    while (Out.size() + 3 <= Tokens) {
      Out.push_back(Comma);
      Out.push_back(Number);
    }
    Out.push_back(Close);
    return true;
  }
  return false;
}

} // namespace

int main(int argc, char **argv) {
  BenchHarness H("warm_start", argc, argv);
  std::printf("snapshot warm start — 12x-SDF grammar, Exam.sdf input\n\n");

  const std::string Snap = "warm_start_v2.snapshot";
  const int Copies = 12;
  const std::string_view InputText = sdfSamples()[1].Text;

  // Produce the snapshot from a fully generated graph, and pin the
  // serialize-twice byte-determinism contract.
  size_t ColdStates = 0, SnapBytes = 0;
  bool SaveOk = false, SaveTwiceIdentical = false;
  {
    Grammar G;
    buildScaledSdf(G, Copies);
    Ipg Gen(G);
    ColdStates = Gen.generateAll();
    Expected<size_t> Saved = Gen.saveSnapshot(Snap);
    SaveOk = static_cast<bool>(Saved);
    SnapBytes = SaveOk ? *Saved : 0;
    if (Gen.saveSnapshot("warm_start_again.snapshot"))
      SaveTwiceIdentical = filesEqual(Snap, "warm_start_again.snapshot");
    std::remove("warm_start_again.snapshot");
  }

  // Save cost, on a separate fully generated graph: a header plus a
  // memcpy of the pools — the flat-arena layout's save-side win.
  double Save = 0;
  {
    Grammar G;
    buildScaledSdf(G, Copies);
    Ipg Gen(G);
    Gen.generateAll();
    Save = H.measure("warm_start/snapshot_save_v2", 9, [&] {
              (void)Gen.saveSnapshot("warm_start_save_probe.snapshot");
            }).Median;
    std::remove("warm_start_save_probe.snapshot");
  }

  // Cold baseline: build the grammar and generate the full table.
  double Cold = H.measure("warm_start/cold_generate", 9, [&] {
                   Grammar G;
                   buildScaledSdf(G, Copies);
                   ItemSetGraph Graph(G);
                   Graph.generateAll();
                 }).Median;

  // Warm start: same grammar, so the layout-match path runs — mmap +
  // validate + adopting the mapped arrays as the graph's pool bases.
  bool LoadOk = true, Matched = false;
  size_t LoadedStates = 0;
  double Load = H.measure("warm_start/snapshot_load_v2", 9, [&] {
                   Grammar G;
                   buildScaledSdf(G, Copies);
                   Ipg Gen(G);
                   Expected<SnapshotLoadResult> R = Gen.loadSnapshot(Snap);
                   LoadOk = LoadOk && static_cast<bool>(R);
                   if (R) {
                     Matched = R->FingerprintMatched;
                     LoadedStates = R->StatesLoaded;
                   }
                 }).Median;

  // Round-trip determinism and parse equivalence of the adopted graph.
  // The resaved file is left in place on purpose: the CI
  // snapshot-determinism job cmps it against the original.
  bool RoundTrip = false, WarmParseOk = false;
  {
    const std::string Resaved = "warm_start_v2_resaved.snapshot";
    Grammar G;
    buildScaledSdf(G, Copies);
    Ipg Gen(G);
    if (Gen.loadSnapshot(Snap)) {
      if (Gen.saveSnapshot(Resaved))
        RoundTrip = filesEqual(Snap, Resaved);
      WarmParseOk = Gen.recognize(tokenize(G, InputText));
    }
  }

  // Stale repair: the live grammar gained one rule since the snapshot was
  // taken. loadSnapshot checks the payload, adopts the old graph zero-copy
  // with its ids remapped in the private mapping (identity maps here, since
  // the rule was appended) and replays the delta through ADD-RULE; the
  // parse re-expands only what the §6 MODIFY invalidated.
  std::vector<SymbolId> ModifiedTokens;
  {
    Grammar G;
    buildScaledSdf(G, Copies);
    auto [MLhs, MRhs] = scaledSdfModification(G);
    G.addRule(MLhs, std::move(MRhs));
    ModifiedTokens = tokenize(G, InputText);
  }
  bool StaleLoadOk = true, StaleMatched = true, StaleParseOk = true;
  size_t RulesAdded = 0, RulesRemoved = 0;
  uint64_t RepairReExpansions = 0;
  auto RepairAndParse = [&] {
    Grammar G;
    buildScaledSdf(G, Copies);
    auto [MLhs, MRhs] = scaledSdfModification(G);
    G.addRule(MLhs, std::move(MRhs));
    Ipg Gen(G);
    Expected<SnapshotLoadResult> R = Gen.loadSnapshot(Snap);
    StaleLoadOk = StaleLoadOk && static_cast<bool>(R);
    if (R) {
      StaleMatched = R->FingerprintMatched;
      RulesAdded = R->RulesAdded;
      RulesRemoved = R->RulesRemoved;
    }
    StaleParseOk = StaleParseOk && Gen.recognize(ModifiedTokens);
    RepairReExpansions = Gen.stats().ReExpansions;
  };
  double Repair =
      H.measure("warm_start/stale_repair_parse", 9, RepairAndParse).Median;

  // Under --trace, every §6 re-expansion emits an "lr.reexpand" span, so
  // one more (untimed) repair must leave as many spans as the sharded
  // counter reports — the cross-check that keeps the trace trustworthy as
  // §6 evidence.
  uint64_t ReExpandSpans = 0;
  if (trace::enabled()) {
    uint64_t Before = trace::eventCount("lr.reexpand");
    RepairAndParse();
    ReExpandSpans = trace::eventCount("lr.reexpand") - Before;
  }

  // The non-incremental answer to the same situation: regenerate the
  // modified grammar from scratch, then parse.
  double Regen = H.measure("warm_start/cold_regen_modified_parse", 9, [&] {
                    Grammar G;
                    buildScaledSdf(G, Copies);
                    auto [MLhs, MRhs] = scaledSdfModification(G);
                    G.addRule(MLhs, std::move(MRhs));
                    Ipg Gen(G);
                    Gen.generateAll();
                    Gen.recognize(ModifiedTokens);
                  }).Median;

  // PARS: a finished parse saved with its graph, then resumed in a fresh
  // generator over a replica grammar — against parsing the same tokens
  // from scratch on a warm graph.
  const std::string ParsSnap = "warm_start_pars.snapshot";
  Grammar JG;
  std::vector<SymbolId> JsonTokens;
  bool ParsOk = buildJsonList(JG, H.reduced() ? 2001 : 20001, JsonTokens);
  Ipg JGen(JG);
  ParseDocument JDoc(JGen.graph());
  JDoc.setTokens(JsonTokens);
  ParsOk = ParsOk && JDoc.reparse().Accepted;
  size_t ParsFileBytes = 0, PlainBytes = 0;
  double ParsSave = H.measure("warm_start/pars_save", 9, [&] {
                      Expected<size_t> Saved =
                          ParseSnapshot::save(JGen, JDoc, ParsSnap);
                      ParsOk = ParsOk && static_cast<bool>(Saved);
                      ParsFileBytes = Saved ? *Saved : 0;
                    }).Median;
  if (Expected<size_t> Plain = JGen.saveSnapshot(ParsSnap + ".plain"))
    PlainBytes = *Plain;
  std::remove((ParsSnap + ".plain").c_str());
  double ParsResume = H.measure("warm_start/pars_resume", 9, [&] {
                        Grammar G2;
                        Grammar::cloneExact(JG, G2);
                        Ipg Gen2(G2);
                        Expected<std::unique_ptr<ParseDocument>> Doc =
                            ParseSnapshot::resume(Gen2, ParsSnap);
                        ParsOk = ParsOk && Doc &&
                                 (*Doc)->result().Accepted;
                      }).Median;
  double ParsScratch = H.measure("warm_start/pars_scratch_parse", 9, [&] {
                         ParseDocument Doc(JGen.graph());
                         Doc.setTokens(JsonTokens);
                         ParsOk = ParsOk && Doc.reparse().Accepted;
                       }).Median;
  std::remove(ParsSnap.c_str());
  const double ParsBytesPerToken =
      ParsOk && ParsFileBytes > PlainBytes
          ? static_cast<double>(ParsFileBytes - PlainBytes) /
                static_cast<double>(JsonTokens.size())
          : 0.0;

  TextTable Table({"scenario", "median", "vs cold"});
  Table.addRow({"cold generateAll", ms(Cold), "1.00x"});
  Table.addRow({"snapshot save (pool memcpy)", ms(Save), "-"});
  Table.addRow({"snapshot load (zero-copy)", ms(Load),
                formatSeconds(Cold / Load, 2) + "x faster"});
  Table.addRow({"stale repair + parse", ms(Repair), "-"});
  Table.addRow({"regenerate + parse", ms(Regen),
                formatSeconds(Regen / Repair, 2) + "x slower than repair"});
  Table.print();
  std::printf("\nsuspended parse (PARS), %zu-token JSON list: save %s, "
              "resume %s, scratch parse %s, %.1f rider bytes/token\n",
              JsonTokens.size(), ms(ParsSave).c_str(), ms(ParsResume).c_str(),
              ms(ParsScratch).c_str(), ParsBytesPerToken);
  std::printf("\nsnapshot: %zu bytes, %zu states; repair delta: +%zu/-%zu "
              "rules, %llu re-expansions\n",
              SnapBytes, ColdStates, RulesAdded, RulesRemoved,
              static_cast<unsigned long long>(RepairReExpansions));

  H.report().addCounter("warm_start/snapshot_bytes_v2", SnapBytes);
  H.report().addCounter("warm_start/full_table_states", ColdStates);
  H.report().addCounter("warm_start/repair_rules_added", RulesAdded);
  H.report().addCounter("warm_start/repair_rules_removed", RulesRemoved);
  H.report().addCounter("warm_start/repair_re_expansions",
                        RepairReExpansions);
  H.report().addCounter("warm_start/pars_tokens", JsonTokens.size());
  H.report().addScalar("warm_start/pars_bytes_per_token", ParsBytesPerToken,
                       "bytes");
  H.report().addScalar("warm_start/load_speedup_vs_cold_v2", Cold / Load,
                       "ratio");
  H.report().addScalar("warm_start/repair_speedup_vs_regen", Regen / Repair,
                       "ratio");

  std::printf("\nshape checks:\n");
  H.check(SaveOk && SnapBytes > 0, "snapshot written");
  H.check(SaveTwiceIdentical,
          "serializing the same graph twice is byte-identical");
  H.check(LoadOk && Matched, "identical grammar fingerprint-matches the "
                             "snapshot");
  H.check(LoadedStates == ColdStates,
          "snapshot load materializes the full generated table");
  H.check(RoundTrip,
          "fingerprint-matched save->load->save reproduces the file");
  H.check(WarmParseOk, "warm-started graph parses Exam.sdf");
  // Wall-clock comparisons tolerate noise in the reduced (CI smoke) pass:
  // three repetitions on a shared runner cannot support a strict
  // inequality; the trajectory numbers come from full runs. In full runs
  // the zero-copy load must hold a decisive margin over cold generation
  // (the §6 bounded-work evidence stays the re-expansion counter checked
  // below).
  double NoiseBand = H.reduced() ? 1.5 : 1.15;
  H.check(H.reduced() ? Load < Cold * NoiseBand : Cold / Load >= 1.3,
          "v2 zero-copy load beats cold full generation by >=1.3x "
          "(full runs)");
  H.check(StaleLoadOk && !StaleMatched && RulesAdded == 1 &&
              RulesRemoved == 0,
          "stale snapshot is repaired via the one-rule delta, not "
          "discarded");
  H.check(StaleParseOk, "repaired graph parses the modified language");
  H.check(RepairReExpansions < ColdStates / 4,
          "repair re-expands a small fraction of the table");
  H.check(Repair < Regen * NoiseBand,
          "stale-snapshot repair is at least on par with full regeneration");
  H.check(ParsOk, "PARS save and resume of the JSON list keep its verdict");
  if (trace::enabled())
    H.check(ReExpandSpans == RepairReExpansions,
            "trace lr.reexpand span count equals the stale repair's "
            "re-expansion counter");
  return H.finish();
}
