#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "dtd/dtd_parser.h"
#include "similarity/matcher.h"
#include "similarity/triple.h"

namespace dtdevolve::similarity {
namespace {

/// Exact tag-equality credit.
double EqualityCredit(const std::vector<std::string>& symbols, size_t i,
                      const std::string& label) {
  return symbols[i] == label ? 1.0 : -1.0;
}

MatchResult Align(const char* model_text, std::vector<std::string> symbols,
                  MatchOptions options = {}) {
  auto model = dtd::ParseContentModel(model_text);
  EXPECT_TRUE(model.ok()) << model.status().ToString();
  dtd::Automaton automaton = dtd::Automaton::Build(**model);
  return AlignChildren(
      automaton, symbols,
      [&symbols](size_t i, const std::string& label) {
        return EqualityCredit(symbols, i, label);
      },
      options);
}

size_t CountPlus(const MatchResult& result) {
  size_t n = 0;
  for (const ChildAssignment& a : result.assignments) {
    if (a.kind == ChildAssignment::Kind::kPlus) ++n;
  }
  return n;
}

TEST(MatcherTest, ValidContentCostsZero) {
  MatchResult result = Align("(b,c)", {"b", "c"});
  EXPECT_EQ(result.cost, 0.0);
  EXPECT_EQ(CountPlus(result), 0u);
  EXPECT_TRUE(result.minus_labels.empty());
  for (const ChildAssignment& a : result.assignments) {
    EXPECT_EQ(a.kind, ChildAssignment::Kind::kMatched);
    EXPECT_EQ(a.credit, 1.0);
  }
}

TEST(MatcherTest, MissingElementIsMinus) {
  MatchResult result = Align("(b,c)", {"b"});
  EXPECT_EQ(CountPlus(result), 0u);
  ASSERT_EQ(result.minus_labels.size(), 1u);
  EXPECT_EQ(result.minus_labels[0], "c");
  EXPECT_EQ(result.cost, 1.0);
}

TEST(MatcherTest, ExtraElementIsPlus) {
  MatchResult result = Align("(b,c)", {"b", "x", "c"});
  EXPECT_EQ(CountPlus(result), 1u);
  EXPECT_TRUE(result.minus_labels.empty());
  EXPECT_EQ(result.assignments[1].kind, ChildAssignment::Kind::kPlus);
  EXPECT_EQ(result.cost, 1.0);
}

TEST(MatcherTest, EmptyInputAgainstRequiredContent) {
  MatchResult result = Align("(b,c,d)", {});
  EXPECT_EQ(result.minus_labels.size(), 3u);
  EXPECT_EQ(result.cost, 3.0);
}

TEST(MatcherTest, PrefersMatchingOverSkipping) {
  // `c b` against (b,c): the optimal alignment keeps one match.
  MatchResult result = Align("(b,c)", {"c", "b"});
  EXPECT_EQ(result.cost, 2.0);  // one plus + one minus beats 2+2
  EXPECT_EQ(CountPlus(result), 1u);
  EXPECT_EQ(result.minus_labels.size(), 1u);
}

TEST(MatcherTest, RepetitionViolations) {
  MatchResult result = Align("(b)", {"b", "b", "b"});
  EXPECT_EQ(CountPlus(result), 2u);
  EXPECT_EQ(result.cost, 2.0);
}

TEST(MatcherTest, ChoiceTakesTheCheaperBranch) {
  MatchResult result = Align("((a,b)|(c,d))", {"c", "d"});
  EXPECT_EQ(result.cost, 0.0);
}

TEST(MatcherTest, StarAbsorbsRepeats) {
  MatchResult result = Align("((b,c)*)", {"b", "c", "b", "c", "b", "c"});
  EXPECT_EQ(result.cost, 0.0);
}

TEST(MatcherTest, AnyMatchesEverything) {
  auto model = dtd::ParseContentModel("ANY");
  dtd::Automaton automaton = dtd::Automaton::Build(**model);
  std::vector<std::string> symbols = {"x", "y"};
  MatchResult result = AlignChildren(
      automaton, symbols,
      [](size_t, const std::string&) { return -1.0; });
  EXPECT_EQ(result.assignments.size(), 2u);
  EXPECT_EQ(CountPlus(result), 0u);
  EXPECT_EQ(result.assignments[0].credit, 1.0);
}

TEST(MatcherTest, PartialCreditLowersCost) {
  auto model = dtd::ParseContentModel("(b)");
  dtd::Automaton automaton = dtd::Automaton::Build(**model);
  std::vector<std::string> symbols = {"bb"};
  // A thesaurus-like credit: bb ~ b with similarity 0.8.
  MatchResult result = AlignChildren(
      automaton, symbols, [](size_t, const std::string& label) {
        return label == "b" ? 0.8 : -1.0;
      });
  ASSERT_EQ(result.assignments.size(), 1u);
  EXPECT_EQ(result.assignments[0].kind, ChildAssignment::Kind::kMatched);
  EXPECT_DOUBLE_EQ(result.assignments[0].credit, 0.8);
  EXPECT_NEAR(result.cost, 0.2, 1e-9);
}

TEST(MatcherTest, ZeroCreditMatchStillBeatsPlusMinus) {
  auto model = dtd::ParseContentModel("(b)");
  dtd::Automaton automaton = dtd::Automaton::Build(**model);
  std::vector<std::string> symbols = {"b"};
  // Tag matches but the subtree underneath is a total mismatch (credit 0):
  // cost 1 as a match vs cost 2 as plus+minus — match wins.
  MatchResult result = AlignChildren(
      automaton, symbols,
      [](size_t, const std::string&) { return 0.0; });
  EXPECT_EQ(result.assignments[0].kind, ChildAssignment::Kind::kMatched);
  EXPECT_EQ(result.cost, 1.0);
}

TEST(MatcherTest, AsymmetricCosts) {
  MatchOptions options;
  options.plus_cost = 0.25;  // tolerate extra elements
  MatchResult cheap_plus = Align("(b)", {"b", "x", "x"}, options);
  EXPECT_NEAR(cheap_plus.cost, 0.5, 1e-9);
}

TEST(MatcherTest, MinusLabelsInModelOrder) {
  MatchResult result = Align("(b,c,d)", {"c"});
  ASSERT_EQ(result.minus_labels.size(), 2u);
  EXPECT_EQ(result.minus_labels[0], "b");
  EXPECT_EQ(result.minus_labels[1], "d");
}

// --- The scoring reader of the shared search ---------------------------------

/// A random content model over labels a–d: nested sequences and choices
/// with random occurrence suffixes.
std::string RandomParticle(std::mt19937_64& rng, int depth) {
  static const char* const kSuffixes[] = {"", "", "?", "*", "+"};
  const char* suffix = kSuffixes[rng() % 5];
  if (depth == 0 || rng() % 3 == 0) {
    return std::string(1, static_cast<char>('a' + rng() % 4)) + suffix;
  }
  const char* separator = rng() % 2 == 0 ? "," : "|";
  const size_t arity = 1 + rng() % 3;
  std::string group = "(";
  for (size_t i = 0; i < arity; ++i) {
    if (i > 0) group += separator;
    group += RandomParticle(rng, depth - 1);
  }
  return group + ")" + suffix;
}

TEST(MatcherTest, ScoreReaderAgreesWithMatchResultOnRandomModels) {
  // Credits include forbidden (negative), zero, partial and above-one
  // (clamped) values, so every move kind and tie shape occurs.
  static const double kCredits[] = {-1.0, -0.5, 0.0, 0.25, 0.5, 0.75, 1.0, 1.5};
  static const double kCosts[] = {0.25, 1.0, 1.0, 2.0};
  std::mt19937_64 rng(20261019);
  // One scratch across every trial: a dirty scratch must not leak into
  // the next alignment.
  AlignScratch scratch;
  for (int trial = 0; trial < 600; ++trial) {
    const std::string text = "(" + RandomParticle(rng, 3) + ")";
    auto model = dtd::ParseContentModel(text);
    ASSERT_TRUE(model.ok()) << text << ": " << model.status().ToString();
    const dtd::Automaton automaton = dtd::Automaton::Build(**model);
    const size_t positions = automaton.num_states() - 1;
    const size_t n = rng() % 7;
    std::vector<std::vector<double>> table(n, std::vector<double>(positions));
    for (std::vector<double>& row : table) {
      for (double& credit : row) credit = kCredits[rng() % 8];
    }
    MatchOptions options;
    options.plus_cost = kCosts[rng() % 4];
    options.minus_cost = kCosts[rng() % 4];
    auto credit = [&table](size_t i, int pos) { return table[i][pos]; };

    const MatchResult full = AlignChildrenById(automaton, n, credit, options);
    const AlignmentScore score =
        AlignForScore(automaton, n, credit, options, scratch);
    SCOPED_TRACE(text + " over " + std::to_string(n) + " symbols");
    EXPECT_EQ(score.cost, full.cost);  // bitwise
    EXPECT_EQ(score.minus_count, full.minus_labels.size());
    ASSERT_EQ(full.assignments.size(), n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(scratch.assignments[i].kind, full.assignments[i].kind) << i;
      EXPECT_EQ(scratch.assignments[i].position, full.assignments[i].position)
          << i;
      EXPECT_EQ(scratch.assignments[i].credit, full.assignments[i].credit)
          << i;
    }
    // The reader against the path events: replaying them in path order
    // re-derives every placement, the minus count and — summed as the
    // search accumulates distances — the cost, bit for bit.
    double cost = 0.0;
    size_t minus = 0;
    for (const PathEvent& event : full.events) {
      if (event.kind == PathEvent::Kind::kMinus) {
        ++minus;
        cost = cost + options.minus_cost;
        continue;
      }
      const ChildAssignment& a = scratch.assignments[event.child_index];
      if (event.kind == PathEvent::Kind::kPlus) {
        EXPECT_EQ(a.kind, ChildAssignment::Kind::kPlus);
        cost = cost + options.plus_cost;
        continue;
      }
      const double credit_value =
          std::min(table[event.child_index][event.position], 1.0);
      EXPECT_EQ(a.kind, ChildAssignment::Kind::kMatched);
      EXPECT_EQ(a.position, event.position);
      EXPECT_EQ(a.credit, credit_value);
      cost = cost + (1.0 - credit_value);
    }
    EXPECT_EQ(minus, score.minus_count);
    EXPECT_EQ(cost, score.cost);
  }
}

// --- Evaluation function E ----------------------------------------------------

TEST(TripleTest, EvaluationFunction) {
  EXPECT_EQ(Evaluate(Triple(0, 0, 5)), 1.0);
  EXPECT_EQ(Evaluate(Triple(0, 0, 0)), 1.0);  // empty vs empty
  EXPECT_EQ(Evaluate(Triple(1, 1, 0)), 0.0);
  EXPECT_DOUBLE_EQ(Evaluate(Triple(1, 1, 2)), 0.5);
  EvalWeights weights;
  weights.minus_weight = 2.0;
  EXPECT_DOUBLE_EQ(Evaluate(Triple(0, 1, 2), weights), 0.5);
}

TEST(TripleTest, AccumulationAndFullness) {
  Triple t(1, 0, 2);
  t += Triple(0, 1, 3);
  EXPECT_EQ(t.plus, 1.0);
  EXPECT_EQ(t.minus, 1.0);
  EXPECT_EQ(t.common, 5.0);
  EXPECT_FALSE(IsFull(t));
  EXPECT_TRUE(IsFull(Triple(0, 0, 7)));
  EXPECT_EQ(Triple(1, 2, 3).ToString(), "(p=1.000, m=2.000, c=3.000)");
}

}  // namespace
}  // namespace dtdevolve::similarity
