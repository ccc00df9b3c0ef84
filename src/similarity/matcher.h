#ifndef DTDEVOLVE_SIMILARITY_MATCHER_H_
#define DTDEVOLVE_SIMILARITY_MATCHER_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "dtd/glushkov.h"

namespace dtdevolve::similarity {

/// Costs of the two deviation kinds during alignment.
struct MatchOptions {
  /// Cost of leaving a document child unmatched (a *plus* component).
  double plus_cost = 1.0;
  /// Cost of traversing a required model transition without consuming a
  /// document child (a *minus* component).
  double minus_cost = 1.0;
};

/// How one document child was placed by the optimal alignment.
struct ChildAssignment {
  enum class Kind { kMatched, kPlus };

  Kind kind = Kind::kPlus;
  /// Glushkov position the child matched (kMatched only); -1 for the
  /// ANY shortcut, where no position exists.
  int position = -1;
  /// Match credit in [0, 1] as returned by the credit function.
  double credit = 0.0;
};

/// One step of the optimal alignment path, in path order. The sequence of
/// kMatch/kMinus events is exactly the model-conforming output order (the
/// document adapter replays it); kPlus events mark skipped children.
struct PathEvent {
  enum class Kind { kMatch, kPlus, kMinus };
  Kind kind = Kind::kMatch;
  /// Input symbol index (kMatch / kPlus).
  size_t child_index = 0;
  /// Model position taken (kMatch / kMinus).
  int position = -1;
};

/// Result of aligning a child-symbol sequence against a content model.
struct MatchResult {
  /// One entry per input symbol, in order.
  std::vector<ChildAssignment> assignments;
  /// Labels of model positions traversed without a matching child — the
  /// *minus* components at this level, with multiplicity, in path order.
  std::vector<std::string> minus_labels;
  /// The full optimal path (matches, skips and minus traversals
  /// interleaved in order). Empty for the ANY shortcut.
  std::vector<PathEvent> events;
  /// Total alignment cost (Σ plus_cost + Σ minus_cost + Σ (1 − credit)).
  double cost = 0.0;
};

/// Credit oracle: similarity in [0, 1] of document child `child_index`
/// matched against a model position labeled `label`; a negative return
/// forbids the match. The *local* evaluator returns tag similarity only;
/// the *global* evaluator recursively evaluates the child against the
/// label's declaration.
using CreditFn =
    std::function<double(size_t child_index, const std::string& label)>;

/// Position-based credit oracle for the interned-id fast path: the callee
/// receives the Glushkov position itself and looks up the label (or its
/// interned id) from the automaton, avoiding any string traffic.
using PositionCreditFn =
    std::function<double(size_t child_index, int position)>;

/// Back-pointer of one node of the alignment search.
struct AlignStep {
  enum class Kind : uint8_t { kNone, kMatch, kPlus, kMinus };
  Kind kind = Kind::kNone;
  int prev_node = -1;
  int position = -1;    // kMatch / kMinus
  double credit = 0.0;  // kMatch
};

/// Reusable buffers of one alignment search. A search overwrites them,
/// so a credit function that recurses into another search must give it
/// a different scratch (the similarity evaluator keeps one per
/// recursion depth, per thread). Buffers only grow; a warm scratch
/// aligns without touching the heap.
struct AlignScratch {
  std::vector<double> dist;
  std::vector<AlignStep> back;
  /// Binary min-heap of (distance, node), kept with std::push_heap /
  /// std::pop_heap exactly as `std::priority_queue` keeps its container,
  /// so equal-distance nodes pop in the same order.
  std::vector<std::pair<double, int>> heap;
  /// Written by `ReadAlignmentScore`: the placement of each input symbol.
  std::vector<ChildAssignment> assignments;
};

/// The Dijkstra search behind every alignment, over the (input position
/// × automaton state) graph. Moves:
///   match — consume a child along a transition whose credit ≥ 0,
///           cost 1 − credit;
///   plus  — consume a child without moving, cost plus_cost;
///   minus — take a transition without consuming, cost minus_cost.
/// The automaton is ε-free (Glushkov), so all cycles have positive cost
/// and the search terminates. `credit(i, pos)` is any callable returning
/// the credit of input symbol i at Glushkov position pos (negative
/// forbids the match); it is called in a fixed order, so its side
/// effects are deterministic. The search stops as soon as its answer is
/// final (see below), so credits that cannot change the answer are never
/// asked for. Leaves the distances and back-pointers in `scratch` and
/// returns the best accepting node of the last input column.
/// `automaton` must not be ANY.
template <typename Credit>
int SearchAlignment(const dtd::Automaton& automaton, size_t num_symbols,
                    Credit& credit, const MatchOptions& options,
                    AlignScratch& scratch) {
  constexpr double kInfinity = std::numeric_limits<double>::infinity();
  const size_t n = num_symbols;
  const size_t num_states = automaton.num_states();
  auto node_id = [num_states](size_t i, size_t state) {
    return static_cast<int>(i * num_states + state);
  };

  std::vector<double>& dist = scratch.dist;
  std::vector<AlignStep>& back = scratch.back;
  std::vector<std::pair<double, int>>& heap = scratch.heap;
  const size_t num_nodes = (n + 1) * num_states;
  dist.assign(num_nodes, kInfinity);
  // Only nodes the search reaches are read back, and each of those is
  // written when first relaxed; the start node is the path's end marker.
  if (back.size() < num_nodes) back.resize(num_nodes);
  back[node_id(0, 0)] = AlignStep{};
  heap.clear();
  const std::greater<> later;

  auto relax = [&](int to, double new_dist, AlignStep step) {
    if (new_dist < dist[to]) {
      dist[to] = new_dist;
      back[to] = step;
      heap.emplace_back(new_dist, to);
      std::push_heap(heap.begin(), heap.end(), later);
    }
  };

  // Nodes pop in nondecreasing distance. Once the nearest accepting end
  // node has popped, the search only drains the nodes at its distance
  // (one of them may reach an end node of lower state index at a tie)
  // and stops: a farther node can neither shorten nor tie the answer,
  // and every node on the answer's path is already final. The relax
  // and pop order up to that point is the full search's.
  double end_dist = kInfinity;
  dist[node_id(0, 0)] = 0.0;
  heap.emplace_back(0.0, node_id(0, 0));
  while (!heap.empty() && heap.front().first <= end_dist) {
    std::pop_heap(heap.begin(), heap.end(), later);
    const auto [d, node] = heap.back();
    heap.pop_back();
    if (d > dist[node]) continue;
    const size_t i = static_cast<size_t>(node) / num_states;
    const int state = node % static_cast<int>(num_states);
    if (i == n && end_dist == kInfinity && automaton.IsAccepting(state)) {
      end_dist = d;
    }

    // minus: traverse a transition without consuming input.
    for (int pos : automaton.SuccessorsOf(state)) {
      relax(node_id(i, pos + 1), d + options.minus_cost,
            {AlignStep::Kind::kMinus, node, pos, 0.0});
    }
    if (i < n) {
      // plus: consume the child without moving.
      relax(node_id(i + 1, state), d + options.plus_cost,
            {AlignStep::Kind::kPlus, node, -1, 0.0});
      // match: consume the child along a permitted transition.
      for (int pos : automaton.SuccessorsOf(state)) {
        double c = credit(i, pos);
        if (c < 0.0) continue;
        c = std::min(c, 1.0);
        relax(node_id(i + 1, pos + 1), d + (1.0 - c),
              {AlignStep::Kind::kMatch, node, pos, c});
      }
    }
  }

  // Best accepting end state.
  int best_node = -1;
  double best_dist = kInfinity;
  for (size_t state = 0; state < num_states; ++state) {
    if (!automaton.IsAccepting(static_cast<int>(state))) continue;
    const int node = node_id(n, state);
    if (dist[node] < best_dist) {
      best_dist = dist[node];
      best_node = node;
    }
  }
  assert(best_node >= 0 &&
         "alignment always exists: all-plus then all-minus to acceptance");
  return best_node;
}

/// What scoring needs from an optimal alignment, beyond the per-symbol
/// placements left in `AlignScratch::assignments`.
struct AlignmentScore {
  /// Total alignment cost, as `MatchResult::cost`.
  double cost = 0.0;
  /// Minus traversals on the path, as `MatchResult::minus_labels.size()`.
  size_t minus_count = 0;
};

/// Reads the placements and the minus count off the back-pointers a
/// `SearchAlignment` left in `scratch`, building no path events and no
/// label strings.
AlignmentScore ReadAlignmentScore(const dtd::Automaton& automaton,
                                  size_t num_symbols, int best_node,
                                  AlignScratch& scratch);

/// The scoring form of `AlignChildrenById`: the same search, with the
/// credit passed as a callable instead of a `std::function` and every
/// buffer taken from `scratch`. On return `scratch.assignments[0, n)`
/// equals `MatchResult::assignments`, and cost and minus count equal
/// `MatchResult::cost` and `minus_labels.size()`, bit for bit.
template <typename Credit>
AlignmentScore AlignForScore(const dtd::Automaton& automaton,
                             size_t num_symbols, Credit& credit,
                             const MatchOptions& options,
                             AlignScratch& scratch) {
  if (automaton.is_any()) {
    // ANY accepts everything: every child is a full-credit match.
    scratch.assignments.assign(
        num_symbols, {ChildAssignment::Kind::kMatched, -1, 1.0});
    return {};
  }
  const int best_node =
      SearchAlignment(automaton, num_symbols, credit, options, scratch);
  return ReadAlignmentScore(automaton, num_symbols, best_node, scratch);
}

/// Computes the minimum-cost alignment of `symbols` (child element tags
/// and #PCDATA items, in document order) against `automaton` with
/// `SearchAlignment` and reconstructs the full optimal path. Valid
/// content yields cost 0: every child matched with credit 1 and no minus
/// labels.
MatchResult AlignChildren(const dtd::Automaton& automaton,
                          const std::vector<std::string>& symbols,
                          const CreditFn& credit,
                          const MatchOptions& options = {});

/// Interned-id twin of `AlignChildren`: identical algorithm and result,
/// but the input sequence is given only by its length and credits are
/// resolved per position (`PositionCreditFn`), so no label strings are
/// materialized for the credit.
MatchResult AlignChildrenById(const dtd::Automaton& automaton,
                              size_t num_symbols,
                              const PositionCreditFn& credit,
                              const MatchOptions& options = {});

}  // namespace dtdevolve::similarity

#endif  // DTDEVOLVE_SIMILARITY_MATCHER_H_
