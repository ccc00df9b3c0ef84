#ifndef DTDEVOLVE_XML_WRITER_H_
#define DTDEVOLVE_XML_WRITER_H_

#include <string>

#include "xml/arena.h"
#include "xml/document.h"

namespace dtdevolve::xml {

/// Serialization options.
struct WriteOptions {
  /// Pretty-print with this indent per level; when false, emit compactly.
  bool indent = true;
  int indent_width = 2;
  /// Emit an `<?xml version="1.0"?>` declaration before the root.
  bool declaration = false;
};

/// Serializes an element subtree.
std::string WriteElement(const Element& element,
                         const WriteOptions& options = WriteOptions());

/// Serializes a whole document (declaration + DOCTYPE if present + root).
/// One body writes both trees: an arena tree writes the bytes its
/// `ToDocument()` would.
std::string WriteDocument(const Document& doc,
                          const WriteOptions& options = WriteOptions());
std::string WriteDocument(const ArenaDocument& doc,
                          const WriteOptions& options = WriteOptions());

/// `WriteDocument` appending to `*out`, so a caller serializing many
/// documents fills one buffer.
void AppendDocument(const Document& doc, const WriteOptions& options,
                    std::string* out);
void AppendDocument(const ArenaDocument& doc, const WriteOptions& options,
                    std::string* out);

}  // namespace dtdevolve::xml

#endif  // DTDEVOLVE_XML_WRITER_H_
