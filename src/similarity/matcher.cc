#include "similarity/matcher.h"

#include <algorithm>
#include <utility>

namespace dtdevolve::similarity {

AlignmentScore ReadAlignmentScore(const dtd::Automaton& automaton,
                                  size_t num_symbols, int best_node,
                                  AlignScratch& scratch) {
  const size_t num_states = automaton.num_states();
  AlignmentScore score;
  score.cost = scratch.dist[best_node];
  scratch.assignments.resize(num_symbols);
  for (int node = best_node;
       scratch.back[node].kind != AlignStep::Kind::kNone;) {
    const AlignStep& step = scratch.back[node];
    const size_t i = static_cast<size_t>(node) / num_states;
    switch (step.kind) {
      case AlignStep::Kind::kMatch:
        scratch.assignments[i - 1] = {ChildAssignment::Kind::kMatched,
                                      step.position, step.credit};
        break;
      case AlignStep::Kind::kPlus:
        scratch.assignments[i - 1] = {ChildAssignment::Kind::kPlus, -1, 0.0};
        break;
      case AlignStep::Kind::kMinus:
        ++score.minus_count;
        break;
      case AlignStep::Kind::kNone:
        break;
    }
    node = step.prev_node;
  }
  return score;
}

MatchResult AlignChildren(const dtd::Automaton& automaton,
                          const std::vector<std::string>& symbols,
                          const CreditFn& credit,
                          const MatchOptions& options) {
  return AlignChildrenById(
      automaton, symbols.size(),
      [&](size_t i, int pos) {
        return credit(i, automaton.LabelOfPosition(pos));
      },
      options);
}

MatchResult AlignChildrenById(const dtd::Automaton& automaton,
                              size_t num_symbols,
                              const PositionCreditFn& credit,
                              const MatchOptions& options) {
  MatchResult result;
  if (automaton.is_any()) {
    // ANY accepts everything: every child is a full-credit match.
    result.assignments.assign(num_symbols,
                              {ChildAssignment::Kind::kMatched, -1, 1.0});
    return result;
  }

  // A call-local scratch: the credit may itself align (recursively), and
  // this entry point is off the scoring hot path.
  AlignScratch scratch;
  const int best_node =
      SearchAlignment(automaton, num_symbols, credit, options, scratch);
  result.cost =
      ReadAlignmentScore(automaton, num_symbols, best_node, scratch).cost;
  result.assignments = std::move(scratch.assignments);

  // The path itself, for callers that replay it.
  const size_t num_states = automaton.num_states();
  for (int node = best_node;
       scratch.back[node].kind != AlignStep::Kind::kNone;) {
    const AlignStep& step = scratch.back[node];
    const size_t i = static_cast<size_t>(node) / num_states;
    if (step.kind == AlignStep::Kind::kMinus) {
      result.minus_labels.push_back(automaton.LabelOfPosition(step.position));
      result.events.push_back({PathEvent::Kind::kMinus, i, step.position});
    } else {
      result.events.push_back({step.kind == AlignStep::Kind::kMatch
                                   ? PathEvent::Kind::kMatch
                                   : PathEvent::Kind::kPlus,
                               i - 1, step.position});
    }
    node = step.prev_node;
  }
  std::reverse(result.minus_labels.begin(), result.minus_labels.end());
  std::reverse(result.events.begin(), result.events.end());
  return result;
}

}  // namespace dtdevolve::similarity
