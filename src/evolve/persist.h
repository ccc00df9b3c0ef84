#ifndef DTDEVOLVE_EVOLVE_PERSIST_H_
#define DTDEVOLVE_EVOLVE_PERSIST_H_

#include <string>
#include <string_view>

#include "evolve/extended_dtd.h"
#include "util/status.h"

namespace dtdevolve::evolve {

/// Serialization of the extended DTD — the DTD itself plus every
/// recording structure (counters, label statistics with repetition
/// histograms, sequences, groups, nested plus structures) and the
/// document-level aggregates. A source persisted mid-stream resumes
/// recording exactly where it left off: the round-trip is lossless
/// (property-tested), so an evolution after save/load produces the same
/// DTD as one without.
///
/// The format is a line-oriented text format versioned by its header;
/// XML names never contain whitespace, so tokens are space-separated.
std::string SerializeExtendedDtd(const ExtendedDtd& ext);

/// Parses a serialization produced by `SerializeExtendedDtd`.
StatusOr<ExtendedDtd> DeserializeExtendedDtd(std::string_view data);

}  // namespace dtdevolve::evolve

#endif  // DTDEVOLVE_EVOLVE_PERSIST_H_
