#ifndef DTDEVOLVE_XML_STREAM_READER_H_
#define DTDEVOLVE_XML_STREAM_READER_H_

#include <string_view>

#include "util/status.h"
#include "xml/arena.h"

namespace dtdevolve::xml {

/// Parses `input` in one pass into an arena-allocated tree. A push
/// scanner reads the input once and builds the tree as it goes: tags
/// interned on sight, children as contiguous spans, subtree fingerprints
/// accumulated bottom-up (bit-identical to `similarity::SubtreeFingerprints`
/// over the DOM parse of the same input), text presence recorded per
/// element. Comments and processing instructions are validated and
/// skipped; blank text runs are dropped and adjacent non-blank runs
/// merged.
///
/// Accepts and rejects exactly the inputs `ParseDocument` does, with a
/// byte-identical error message: the scanner checks the document
/// discipline (element-depth bound, one root, matching end tags, no
/// character data outside the root, DOCTYPE only before content) after
/// each whole token, in the DOM parser's order, and derives an error's
/// line number from its byte offset only when it builds the message.
///
/// Working stacks live in per-thread scratch reused across documents, so
/// a warm parse allocates only arena chunks; a buffer that one huge
/// document grew past a fixed retention cap is released after the parse.
StatusOr<ArenaDocument> ParseArenaDocument(std::string_view input);

}  // namespace dtdevolve::xml

#endif  // DTDEVOLVE_XML_STREAM_READER_H_
