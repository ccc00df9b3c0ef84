#include "xml/writer.h"

#include "xml/text.h"

namespace dtdevolve::xml {

namespace {

// Shape adapters: one writer body reads a child slot of either tree
// through these.
bool IsText(const std::unique_ptr<Node>& child) { return child->is_text(); }
bool IsText(const ArenaChild& child) { return !child.is_element(); }

std::string_view TextOf(const std::unique_ptr<Node>& child) {
  return static_cast<const Text&>(*child).value();
}
std::string_view TextOf(const ArenaChild& child) { return child.text; }

const Element& ElementOf(const std::unique_ptr<Node>& child) {
  return child->AsElement();
}
const ArenaElement& ElementOf(const ArenaChild& child) {
  return *child.element;
}

const std::vector<std::unique_ptr<Node>>& ChildrenOf(const Element& element) {
  return element.children();
}
ArenaElement::ChildRange ChildrenOf(const ArenaElement& element) {
  return element.child_nodes();
}

void WriteIndent(std::string& out, const WriteOptions& options, int depth) {
  if (!options.indent) return;
  out += '\n';
  out.append(static_cast<size_t>(depth) * options.indent_width, ' ');
}

template <typename ElementT>
void WriteElementRec(const ElementT& element, const WriteOptions& options,
                     int depth, std::string& out) {
  out += '<';
  out += TagOf(element);
  for (const auto& attr : element.attributes()) {
    out += ' ';
    out += attr.name;
    out += "=\"";
    AppendEscaped(attr.value, &out);
    out += '"';
  }
  const auto& children = ChildrenOf(element);
  if (children.size() == 0) {
    out += "/>";
    return;
  }
  out += '>';
  // Elements whose children are all text are written inline; mixed or
  // element content is indented one level per depth.
  bool all_text = true;
  for (const auto& child : children) {
    if (!IsText(child)) {
      all_text = false;
      break;
    }
  }
  if (all_text) {
    for (const auto& child : children) AppendEscaped(TextOf(child), &out);
  } else {
    for (const auto& child : children) {
      WriteIndent(out, options, depth + 1);
      if (IsText(child)) {
        AppendEscaped(TextOf(child), &out);
      } else {
        WriteElementRec(ElementOf(child), options, depth + 1, out);
      }
    }
    WriteIndent(out, options, depth);
  }
  out += "</";
  out += TagOf(element);
  out += '>';
}

template <typename DocT>
void AppendDocumentImpl(const DocT& doc, const WriteOptions& options,
                        std::string& out) {
  if (options.declaration) {
    out += "<?xml version=\"1.0\"?>";
    if (options.indent) out += '\n';
  }
  if (!doc.doctype_name().empty()) {
    out += "<!DOCTYPE ";
    out += doc.doctype_name();
    if (!doc.internal_subset().empty()) {
      out += " [";
      out += doc.internal_subset();
      out += ']';
    }
    out += '>';
    if (options.indent) out += '\n';
  }
  if (doc.has_root()) WriteElementRec(doc.root(), options, 0, out);
}

}  // namespace

std::string WriteElement(const Element& element, const WriteOptions& options) {
  std::string out;
  WriteElementRec(element, options, 0, out);
  return out;
}

std::string WriteDocument(const Document& doc, const WriteOptions& options) {
  std::string out;
  AppendDocumentImpl(doc, options, out);
  return out;
}

std::string WriteDocument(const ArenaDocument& doc,
                          const WriteOptions& options) {
  std::string out;
  AppendDocumentImpl(doc, options, out);
  return out;
}

void AppendDocument(const Document& doc, const WriteOptions& options,
                    std::string* out) {
  AppendDocumentImpl(doc, options, *out);
}

void AppendDocument(const ArenaDocument& doc, const WriteOptions& options,
                    std::string* out) {
  AppendDocumentImpl(doc, options, *out);
}

}  // namespace dtdevolve::xml
