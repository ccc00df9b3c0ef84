#ifndef DTDEVOLVE_CORE_OPTIONS_H_
#define DTDEVOLVE_CORE_OPTIONS_H_

#include <cstddef>

#include "classify/classifier.h"
#include "evolve/evolver.h"
#include "induce/inducer.h"
#include "similarity/similarity.h"

namespace dtdevolve::core {

/// All thresholds and knobs of the evolution process (Fig. 1), gathered
/// in one place:
///   σ — classification threshold (initialization phase),
///   τ — evolution activation threshold (check phase),
///   ψ — window threshold and µ — minimum sequence support (evolution
///       phase, inside `evolution`).
struct SourceOptions {
  /// Similarity a document must reach against some DTD to be classified;
  /// below it the document goes to the repository.
  double sigma = 0.5;
  /// Mean per-document divergence that triggers evolution of a DTD.
  double tau = 0.2;
  /// Run the check phase after every classification and evolve
  /// automatically when it fires.
  bool auto_evolve = true;
  /// The check phase never fires before this many documents were
  /// classified into the DTD ("after a certain number of documents").
  size_t min_documents_before_check = 10;
  /// Keep a DOM copy of every classified document (`InstancesOf`). Off
  /// by default: the extended DTD records what evolution needs, so the
  /// documents are never re-read. Experiments that re-read instances
  /// (re-validation after an evolution, batch re-inference baselines)
  /// opt in. Serving never does: nothing in the server reads the
  /// copies, checkpoints do not persist them, and on a memo hit the copy
  /// would cost the DOM materialization the memo exists to skip.
  bool keep_documents = false;
  /// Append a `SourceEvent` to `XmlSource::events()` for every document,
  /// evolution, re-classification and induced DTD. Off by default: the
  /// log grows by one entry per document without end, and serving never
  /// reads it (`serve`, WAL replay and the follower keep nothing per
  /// document). Readers of the log (the oracle's digest, tests,
  /// examples) opt in; with it off `events()` stays empty and no
  /// evolution summary text is built.
  bool keep_events = false;

  evolve::EvolutionOptions evolution;
  /// Repository clustering → candidate-DTD induction knobs.
  induce::InduceOptions induce;
  similarity::SimilarityOptions similarity;
  /// Classification fast-path knobs (score-bound pruning, shared subtree
  /// score cache, classification memo). All three layers are
  /// score-equivalent; the knobs only trade memory for speed.
  classify::ClassifierOptions classifier;
};

}  // namespace dtdevolve::core

#endif  // DTDEVOLVE_CORE_OPTIONS_H_
