//===- tests/lexer/LexerTest.cpp - Regex/NFA/DFA/Scanner tests ------------===//

#include "common/TestGrammars.h"
#include "lexer/Scanner.h"

#include <gtest/gtest.h>

using namespace ipg;
using namespace ipg::testing;

namespace {

/// NFA simulation (the reference semantics for the DFA tests).
bool nfaMatches(const Nfa &N, std::string_view Text) {
  std::vector<uint32_t> Current{N.startState()};
  N.closeOverEpsilon(Current);
  for (char C : Text) {
    Current = N.move(Current, static_cast<unsigned char>(C));
    if (Current.empty())
      return false;
    N.closeOverEpsilon(Current);
  }
  return N.acceptOf(Current) != Nfa::NoRule;
}

bool dfaMatches(LazyDfa &D, std::string_view Text) {
  uint32_t State = D.startState();
  for (char C : Text) {
    State = D.step(State, static_cast<unsigned char>(C));
    if (State == LazyDfa::Dead)
      return false;
  }
  return D.acceptOf(State) != Nfa::NoRule;
}

/// Compiles one pattern into an NFA.
void compileOne(RegexArena &Arena, Nfa &N, std::string_view Pattern) {
  Expected<const RegexNode *> Regex = parseRegex(Arena, Pattern);
  ASSERT_TRUE(Regex) << Regex.error().str();
  N.addRule(*Regex, 0);
}

} // namespace

TEST(Regex, ParseErrors) {
  RegexArena Arena;
  EXPECT_FALSE(parseRegex(Arena, "a("));
  EXPECT_FALSE(parseRegex(Arena, "a)"));
  EXPECT_FALSE(parseRegex(Arena, "[a"));
  EXPECT_FALSE(parseRegex(Arena, "[z-a]"));
  EXPECT_FALSE(parseRegex(Arena, "*a"));
  EXPECT_FALSE(parseRegex(Arena, "a\\"));
  EXPECT_TRUE(parseRegex(Arena, "a|"));
  EXPECT_TRUE(parseRegex(Arena, "()"));
}

struct RegexCase {
  const char *Name; ///< The test id: readable and stable across builds.
  const char *Pattern;
  const char *Text;
  bool Matches;
};

void PrintTo(const RegexCase &Case, std::ostream *OS) { *OS << Case.Name; }

class RegexMatchTest : public ::testing::TestWithParam<RegexCase> {};

TEST_P(RegexMatchTest, NfaAndDfaAgreeWithExpectation) {
  const RegexCase &Case = GetParam();
  RegexArena Arena;
  Nfa N;
  compileOne(Arena, N, Case.Pattern);
  EXPECT_EQ(nfaMatches(N, Case.Text), Case.Matches)
      << Case.Pattern << " vs " << Case.Text;
  LazyDfa D(N);
  EXPECT_EQ(dfaMatches(D, Case.Text), Case.Matches)
      << Case.Pattern << " vs " << Case.Text << " (DFA)";
}

INSTANTIATE_TEST_SUITE_P(
    Cases, RegexMatchTest,
    ::testing::Values(
        RegexCase{"LiteralWhole", "abc", "abc", true},
        RegexCase{"LiteralPrefix", "abc", "ab", false},
        RegexCase{"StarEmpty", "a*", "", true},
        RegexCase{"StarMany", "a*", "aaaa", true},
        RegexCase{"PlusEmpty", "a+", "", false},
        RegexCase{"PlusMany", "a+", "aa", true},
        RegexCase{"OptionalAbsent", "a?b", "b", true},
        RegexCase{"OptionalTwice", "a?b", "aab", false},
        RegexCase{"AltRight", "a|bc", "bc", true},
        RegexCase{"AltMixed", "a|bc", "ac", false},
        RegexCase{"GroupPlusThrice", "(ab)+", "ababab", true},
        RegexCase{"GroupPlusPartial", "(ab)+", "aba", false},
        RegexCase{"RangePlusInside", "[a-c]+", "abcba", true},
        RegexCase{"RangePlusOutside", "[a-c]+", "abd", false},
        RegexCase{"NegatedClassOutside", "[^a-c]", "d", true},
        RegexCase{"NegatedClassInside", "[^a-c]", "b", false},
        RegexCase{"DotChar", ".", "x", true},
        RegexCase{"DotNewline", ".", "\n", false},
        RegexCase{"EscapedBrackets", "\\[\\]", "[]", true},
        RegexCase{"ClassEscapedDash", "[\\-a]", "-", true},
        RegexCase{"NestedStarMany", "a(b|c)*d", "abcbcd", true},
        RegexCase{"NestedStarNone", "a(b|c)*d", "ad", true},
        RegexCase{"NestedStarUnterminated", "a(b|c)*d", "abcb", false}));

// Property: random small regexes over {a,b} agree between NFA simulation
// and (lazy and eager) DFA on random strings.
class RegexPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RegexPropertyTest, NfaDfaEquivalence) {
  Prng Rng(GetParam() * 31337);
  // Generate a random pattern from safe pieces.
  static const char *Pieces[] = {"a",  "b",   "ab",    "a|b", "a*",
                                 "b+", "ab?", "(a|b)", "[ab]", "[^a]"};
  std::string Pattern;
  unsigned Len = 1 + static_cast<unsigned>(Rng.below(4));
  for (unsigned I = 0; I < Len; ++I)
    Pattern += Pieces[Rng.below(std::size(Pieces))];

  RegexArena Arena;
  Nfa N;
  Expected<const RegexNode *> Regex = parseRegex(Arena, Pattern);
  ASSERT_TRUE(Regex) << Pattern;
  N.addRule(*Regex, 0);
  LazyDfa Lazy(N);
  for (int Trial = 0; Trial < 30; ++Trial) {
    std::string Text;
    unsigned TextLen = static_cast<unsigned>(Rng.below(8));
    for (unsigned I = 0; I < TextLen; ++I)
      Text += Rng.below(2) == 0 ? 'a' : 'b';
    EXPECT_EQ(nfaMatches(N, Text), dfaMatches(Lazy, Text))
        << "pattern " << Pattern << " text " << Text;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RegexPropertyTest,
                         ::testing::Range<uint64_t>(1, 31));

TEST(LazyDfa, ExpandsOnlyWhatScanningNeeds) {
  RegexArena Arena;
  Nfa N;
  compileOne(Arena, N, "(a|b|c|d|e|f)(x|y)*z");
  LazyDfa D(N);
  EXPECT_EQ(D.cellsComputed(), 0u);
  dfaMatches(D, "axyz");
  uint64_t AfterOne = D.cellsComputed();
  EXPECT_GT(AfterOne, 0u);
  // The same input needs no new cells (table reuse, §5's point).
  dfaMatches(D, "axyz");
  EXPECT_EQ(D.cellsComputed(), AfterOne);
  // The eager automaton computes far more cells.
  LazyDfa Eager(N);
  Eager.buildEagerly();
  EXPECT_GT(Eager.cellsComputed(), AfterOne * 4);
}

TEST(LazyDfa, EagerAndLazyReachTheSameStates) {
  RegexArena Arena;
  Nfa N;
  compileOne(Arena, N, "(ab|ba)*(a|b)");
  LazyDfa Lazy(N);
  // Drive the lazy DFA over enough inputs to force everything.
  for (const char *Text : {"a", "b", "aba", "bab", "abba", "abab", "x"})
    dfaMatches(Lazy, Text);
  LazyDfa Eager(N);
  size_t EagerStates = Eager.buildEagerly();
  EXPECT_LE(Lazy.numStates(), EagerStates);
  size_t LazyForced = Lazy.buildEagerly();
  EXPECT_EQ(LazyForced, EagerStates);
}

TEST(Scanner, LongestMatchWins) {
  Scanner S;
  S.addLiteral("if");
  ASSERT_TRUE(S.addRule("[a-z]+", "ID"));
  S.addWhitespaceLayout();
  S.compile();
  Expected<std::vector<ScannedToken>> Tokens = S.scan("if iffy");
  ASSERT_TRUE(Tokens) << Tokens.error().str();
  ASSERT_EQ(Tokens->size(), 2u);
  EXPECT_EQ((*Tokens)[0].Kind, "if") << "keyword (earlier rule, same length)";
  EXPECT_EQ((*Tokens)[1].Kind, "ID") << "longest match beats the keyword";
  EXPECT_EQ((*Tokens)[1].Text, "iffy");
}

TEST(Scanner, PositionsAndLayout) {
  Scanner S;
  ASSERT_TRUE(S.addRule("[a-z]+", "ID"));
  S.addWhitespaceLayout();
  ASSERT_TRUE(S.addRule("#[^\n]*", "COMMENT", /*IsLayout=*/true));
  S.compile();
  Expected<std::vector<ScannedToken>> Tokens =
      S.scan("ab # comment\n  cd");
  ASSERT_TRUE(Tokens) << Tokens.error().str();
  ASSERT_EQ(Tokens->size(), 2u);
  EXPECT_EQ((*Tokens)[0].Line, 1u);
  EXPECT_EQ((*Tokens)[0].Column, 1u);
  EXPECT_EQ((*Tokens)[1].Line, 2u);
  EXPECT_EQ((*Tokens)[1].Column, 3u);
}

TEST(Scanner, ReportsUnmatchedInput) {
  Scanner S;
  ASSERT_TRUE(S.addRule("[a-z]+", "ID"));
  S.addWhitespaceLayout();
  S.compile();
  Expected<std::vector<ScannedToken>> Tokens = S.scan("abc\n!!");
  ASSERT_FALSE(Tokens);
  EXPECT_EQ(Tokens.error().Line, 2u);
  EXPECT_EQ(Tokens.error().Column, 1u);
}

TEST(Scanner, TokenizeToSymbolsInterns) {
  Scanner S;
  S.addLiteral("+");
  ASSERT_TRUE(S.addRule("[0-9]+", "NAT"));
  S.addWhitespaceLayout();
  S.compile();
  Grammar G;
  std::vector<ScannedToken> Raw;
  Expected<std::vector<SymbolId>> Symbols =
      S.tokenizeToSymbols("1 + 23", G, &Raw);
  ASSERT_TRUE(Symbols) << Symbols.error().str();
  ASSERT_EQ(Symbols->size(), 3u);
  EXPECT_EQ((*Symbols)[0], G.symbols().lookup("NAT"));
  EXPECT_EQ((*Symbols)[1], G.symbols().lookup("+"));
  EXPECT_EQ(Raw[2].Text, "23");
}

TEST(Scanner, EmptyInputScansToNothing) {
  Scanner S;
  ASSERT_TRUE(S.addRule("[a-z]+", "ID"));
  S.compile();
  Expected<std::vector<ScannedToken>> Tokens = S.scan("");
  ASSERT_TRUE(Tokens);
  EXPECT_TRUE(Tokens->empty());
}

TEST(Scanner, RulesCanBeAddedAfterScanning) {
  // ISG-style incrementality: the automaton is invalidated and lazily
  // rebuilt when the rule set changes.
  Scanner S;
  ASSERT_TRUE(S.addRule("[a-z]+", "ID"));
  S.addWhitespaceLayout();
  ASSERT_TRUE(S.scan("abc"));
  EXPECT_EQ(S.rebuilds(), 1u);
  EXPECT_FALSE(S.scan("123")) << "digits unknown so far";

  ASSERT_TRUE(S.addRule("[0-9]+", "NAT"));
  Expected<std::vector<ScannedToken>> Tokens = S.scan("abc 123");
  ASSERT_TRUE(Tokens) << Tokens.error().str();
  ASSERT_EQ(Tokens->size(), 2u);
  EXPECT_EQ((*Tokens)[1].Kind, "NAT");
  EXPECT_EQ(S.rebuilds(), 2u) << "one lazy rebuild per modification batch";
}

TEST(Scanner, DisableAndReenableRules) {
  Scanner S;
  S.addLiteral("if");
  ASSERT_TRUE(S.addRule("[a-z]+", "ID"));
  S.addWhitespaceLayout();
  Expected<std::vector<ScannedToken>> Tokens = S.scan("if x");
  ASSERT_TRUE(Tokens);
  EXPECT_EQ((*Tokens)[0].Kind, "if");

  EXPECT_EQ(S.setRuleEnabled("if", false), 1u);
  Tokens = S.scan("if x");
  ASSERT_TRUE(Tokens);
  EXPECT_EQ((*Tokens)[0].Kind, "ID") << "keyword disabled: scans as ID";

  EXPECT_EQ(S.setRuleEnabled("if", true), 1u);
  Tokens = S.scan("if x");
  ASSERT_TRUE(Tokens);
  EXPECT_EQ((*Tokens)[0].Kind, "if");
  EXPECT_EQ(S.setRuleEnabled("nope", false), 0u);
}

TEST(Scanner, ModificationBatchesShareOneRebuild) {
  Scanner S;
  ASSERT_TRUE(S.addRule("[a-z]+", "ID"));
  ASSERT_TRUE(S.addRule("[0-9]+", "NAT"));
  ASSERT_TRUE(S.addRule("[+*/=-]", "OP"));
  S.addWhitespaceLayout();
  EXPECT_EQ(S.rebuilds(), 0u) << "nothing compiled until first use";
  ASSERT_TRUE(S.scan("a + 1"));
  ASSERT_TRUE(S.scan("b = 2"));
  EXPECT_EQ(S.rebuilds(), 1u);
}
