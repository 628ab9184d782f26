//===- tools/ipg_introspect.cpp - Metrics & trace introspection CLI -------===//
///
/// \file
/// Loads a grammar (and optionally a snapshot), replays an edit script
/// through the §6 machinery, and dumps the observability surfaces:
/// `Ipg::metricsJson()` (or Prometheus text) and, in tracing builds, a
/// Chrome trace of the whole replay. The operational companion to
/// docs/OBSERVABILITY.md — point it at a production snapshot to see what
/// the warm start did, or at an edit script to watch §6 repair volume.
///
///   ipg_introspect --bnf G.bnf --snapshot warm.snap --edits session.txt
///   ipg_introspect --bnf G.bnf --generate --prometheus
///   ipg_introspect --bnf G.bnf --edits e.txt --trace out.json --metrics -
///
/// Edit-script format (one command per line; '#' comments; a literal
/// "::=" token is skipped, so `add E E "+" T` and `add E ::= E "+" T`
/// both work; surrounding quotes are stripped, matching how BnfReader
/// interns quoted literals):
///
///   add LHS RHS...      ADD-RULE (§6); empty RHS... adds LHS ::= ε
///   delete LHS RHS...   DELETE-RULE (§6)
///   parse TOK...        recognize a terminal sequence
///   gc                  mark-sweep collection
///   generate            force full table generation
///
//===----------------------------------------------------------------------===//

#include "core/Ipg.h"
#include "grammar/BnfReader.h"
#include "support/MappedFile.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace ipg;

namespace {

int usage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s --bnf FILE [options]\n"
      "  --bnf FILE       grammar in BNF text format (required)\n"
      "  --snapshot FILE  warm-start from an ipg-snap-v2 snapshot\n"
      "  --edits FILE     replay an edit script (see header comment)\n"
      "  --generate       force full table generation after loading\n"
      "  --parse 'TOK..'  recognize a token sequence (repeatable)\n"
      "  --save FILE      save an ipg-snap-v2 snapshot at exit\n"
      "  --metrics PATH   write Ipg::metricsJson() to PATH ('-' = stdout,\n"
      "                   the default)\n"
      "  --prometheus     emit the registry as Prometheus text instead\n"
      "  --trace FILE     write a Chrome trace of the replay (needs a\n"
      "                   tracing-enabled build, -DIPG_TRACING=ON)\n",
      Argv0);
  return 2;
}

Expected<std::string> readTextFile(const std::string &Path) {
  Expected<std::vector<uint8_t>> Bytes = readFileBytes(Path);
  if (!Bytes)
    return Bytes.error();
  return std::string(Bytes->begin(), Bytes->end());
}

std::vector<std::string> words(std::string_view Line) {
  std::vector<std::string> Out;
  size_t I = 0;
  while (I < Line.size()) {
    while (I < Line.size() && (Line[I] == ' ' || Line[I] == '\t'))
      ++I;
    size_t Begin = I;
    while (I < Line.size() && Line[I] != ' ' && Line[I] != '\t')
      ++I;
    std::string_view W = Line.substr(Begin, I - Begin);
    // BnfReader interns quoted literals *without* the quotes, so strip
    // them here too — `parse "number"` and `parse number` both resolve.
    if (W.size() >= 2 && W.front() == '"' && W.back() == '"')
      W = W.substr(1, W.size() - 2);
    if (!W.empty() && W != "::=")
      Out.emplace_back(W);
  }
  return Out;
}

/// Resolves token names against the grammar (no interning: an unknown
/// token cannot be parsed anyway).
Expected<std::vector<SymbolId>>
resolveTokens(const Grammar &G, const std::vector<std::string> &Names) {
  std::vector<SymbolId> Out;
  Out.reserve(Names.size());
  for (const std::string &Name : Names) {
    SymbolId Id = G.symbols().lookup(Name);
    if (Id == InvalidSymbol)
      return Error("unknown token '" + Name + "'");
    Out.push_back(Id);
  }
  return Out;
}

struct ReplayTally {
  uint64_t Adds = 0, Deletes = 0, NoOps = 0, Gcs = 0, Generates = 0;
  JsonValue Parses = JsonValue::array();
};

/// Replays a whole edit script into \p Tally, one command per line
/// ('#' starts a comment). Returns the number of commands executed;
/// errors carry the offending line in the Error location slot, the same
/// convention as readBnf and Ipg::loadSnapshot.
Expected<uint64_t> replayScript(Ipg &Gen, std::string_view Script,
                                ReplayTally &Tally) {
  Grammar &G = Gen.grammar();
  uint64_t Commands = 0;
  size_t Pos = 0;
  for (unsigned LineNo = 1; Pos <= Script.size(); ++LineNo) {
    size_t End = Script.find('\n', Pos);
    if (End == std::string_view::npos)
      End = Script.size();
    std::string_view Line = Script.substr(Pos, End - Pos);
    Pos = End + 1;

    std::string_view Body = Line.substr(0, Line.find('#'));
    std::vector<std::string> W = words(Body);
    if (W.empty())
      continue;
    const std::string &Cmd = W[0];
    if (Cmd == "add" || Cmd == "delete") {
      if (W.size() < 2)
        return Error(Cmd + " needs a LHS", LineNo);
      SymbolId Lhs = G.symbols().intern(W[1]);
      std::vector<SymbolId> Rhs;
      for (size_t I = 2; I < W.size(); ++I)
        Rhs.push_back(G.symbols().intern(W[I]));
      bool Changed = Cmd == "add" ? Gen.addRule(Lhs, std::move(Rhs))
                                  : Gen.deleteRule(Lhs, Rhs);
      (Changed ? (Cmd == "add" ? Tally.Adds : Tally.Deletes) : Tally.NoOps)++;
    } else if (Cmd == "parse") {
      Expected<std::vector<SymbolId>> Tokens =
          resolveTokens(G, {W.begin() + 1, W.end()});
      if (!Tokens)
        return Error(Tokens.error().Message, LineNo);
      JsonValue Entry = JsonValue::object();
      Entry.set("line", uint64_t(LineNo));
      Entry.set("tokens", uint64_t(Tokens->size()));
      Entry.set("accepted", Gen.recognize(*Tokens));
      Tally.Parses.push(std::move(Entry));
    } else if (Cmd == "gc") {
      Gen.collectGarbage();
      ++Tally.Gcs;
    } else if (Cmd == "generate") {
      Gen.generateAll();
      ++Tally.Generates;
    } else {
      return Error("unknown command '" + Cmd + "'", LineNo);
    }
    ++Commands;
  }
  return Commands;
}

} // namespace

int main(int argc, char **argv) {
  std::string BnfPath, SnapshotPath, EditsPath, SavePath, TracePath;
  std::string MetricsPath = "-";
  std::vector<std::string> ParseArgs;
  bool Generate = false, Prometheus = false;

  for (int I = 1; I < argc; ++I) {
    std::string_view Arg = argv[I];
    auto Value = [&](std::string &Out) {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", argv[I]);
        return false;
      }
      Out = argv[++I];
      return true;
    };
    std::string Tmp;
    if (Arg == "--bnf" && Value(Tmp))
      BnfPath = Tmp;
    else if (Arg == "--snapshot" && Value(Tmp))
      SnapshotPath = Tmp;
    else if (Arg == "--edits" && Value(Tmp))
      EditsPath = Tmp;
    else if (Arg == "--save" && Value(Tmp))
      SavePath = Tmp;
    else if (Arg == "--trace" && Value(Tmp))
      TracePath = Tmp;
    else if (Arg == "--metrics" && Value(Tmp))
      MetricsPath = Tmp;
    else if (Arg == "--parse" && Value(Tmp))
      ParseArgs.push_back(Tmp);
    else if (Arg == "--generate")
      Generate = true;
    else if (Arg == "--prometheus")
      Prometheus = true;
    else
      return usage(argv[0]);
  }
  if (BnfPath.empty())
    return usage(argv[0]);

  Expected<std::string> BnfText = readTextFile(BnfPath);
  if (!BnfText) {
    std::fprintf(stderr, "error: %s: %s\n", BnfPath.c_str(),
                 BnfText.error().str().c_str());
    return 2;
  }
  Grammar G;
  Expected<size_t> Rules = readBnf(G, *BnfText);
  if (!Rules) {
    std::fprintf(stderr, "error: %s: %s\n", BnfPath.c_str(),
                 Rules.error().str().c_str());
    return 2;
  }

  if (!TracePath.empty()) {
    if (trace::compiledIn())
      trace::start();
    else
      std::fprintf(stderr, "warning: --trace requested but the tracer is "
                           "compiled out (rebuild with -DIPG_TRACING=ON)\n");
  }

  Ipg Gen(G);
  JsonValue Doc = JsonValue::object();
  Doc.set("tool", "ipg_introspect");
  Doc.set("bnf_rules", uint64_t(*Rules));

  if (!SnapshotPath.empty()) {
    Expected<SnapshotLoadResult> Load = Gen.loadSnapshot(SnapshotPath);
    if (!Load) {
      std::fprintf(stderr, "error: %s: %s\n", SnapshotPath.c_str(),
                   Load.error().str().c_str());
      return 2;
    }
    JsonValue &LoadDoc = Doc.set("snapshot_load", JsonValue::object());
    LoadDoc.set("fingerprint_matched", Load->FingerprintMatched);
    LoadDoc.set("states_loaded", uint64_t(Load->StatesLoaded));
    LoadDoc.set("rules_added", uint64_t(Load->RulesAdded));
    LoadDoc.set("rules_removed", uint64_t(Load->RulesRemoved));
  }

  ReplayTally Tally;
  if (!EditsPath.empty()) {
    Expected<std::string> Script = readTextFile(EditsPath);
    if (!Script) {
      std::fprintf(stderr, "error: %s: %s\n", EditsPath.c_str(),
                   Script.error().str().c_str());
      return 2;
    }
    Expected<uint64_t> Replayed = replayScript(Gen, *Script, Tally);
    if (!Replayed) {
      std::fprintf(stderr, "error: %s: %s\n", EditsPath.c_str(),
                   Replayed.error().str().c_str());
      return 2;
    }
  }
  for (const std::string &Input : ParseArgs) {
    Expected<std::vector<SymbolId>> Tokens = resolveTokens(G, words(Input));
    if (!Tokens) {
      std::fprintf(stderr, "error: --parse: %s\n",
                   Tokens.error().str().c_str());
      return 2;
    }
    JsonValue Entry = JsonValue::object();
    Entry.set("input", Input);
    Entry.set("accepted", Gen.recognize(*Tokens));
    Tally.Parses.push(std::move(Entry));
  }
  if (Generate)
    Gen.generateAll();

  JsonValue &Replay = Doc.set("replay", JsonValue::object());
  Replay.set("adds", Tally.Adds);
  Replay.set("deletes", Tally.Deletes);
  Replay.set("no_ops", Tally.NoOps);
  Replay.set("gcs", Tally.Gcs);
  Replay.set("generates", Tally.Generates);
  Replay.set("parses", std::move(Tally.Parses));
  Doc.set("coverage", Gen.coverage());

  if (!SavePath.empty()) {
    Expected<size_t> Saved = Gen.saveSnapshot(SavePath);
    if (!Saved) {
      std::fprintf(stderr, "error: %s: %s\n", SavePath.c_str(),
                   Saved.error().str().c_str());
      return 2;
    }
    std::fprintf(stderr, "saved %s (%zu bytes)\n", SavePath.c_str(), *Saved);
  }

  if (!TracePath.empty() && trace::compiledIn()) {
    trace::stop();
    Expected<size_t> Written = trace::writeChromeTrace(TracePath);
    if (!Written) {
      std::fprintf(stderr, "error: %s: %s\n", TracePath.c_str(),
                   Written.error().str().c_str());
      return 2;
    }
    std::fprintf(stderr, "wrote %s (%zu bytes, %llu events, %llu dropped)\n",
                 TracePath.c_str(), *Written,
                 (unsigned long long)trace::eventCount(),
                 (unsigned long long)trace::droppedCount());
  }

  Doc.set("metrics", Gen.metricsJson());
  if (Prometheus) {
    std::string Text = MetricsRegistry::process().prometheusText();
    if (MetricsPath == "-") {
      std::fwrite(Text.data(), 1, Text.size(), stdout);
    } else if (FILE *Out = std::fopen(MetricsPath.c_str(), "w")) {
      std::fwrite(Text.data(), 1, Text.size(), Out);
      std::fclose(Out);
    } else {
      std::fprintf(stderr, "error: cannot write %s\n", MetricsPath.c_str());
      return 2;
    }
    return 0;
  }
  if (MetricsPath == "-") {
    std::string Dump = Doc.dump();
    std::fwrite(Dump.data(), 1, Dump.size(), stdout);
    std::fputc('\n', stdout);
    return 0;
  }
  Expected<size_t> Written = writeJsonFile(Doc, MetricsPath);
  if (!Written) {
    std::fprintf(stderr, "error: %s\n", Written.error().str().c_str());
    return 2;
  }
  std::fprintf(stderr, "wrote %s (%zu bytes)\n", MetricsPath.c_str(),
               *Written);
  return 0;
}
