#include "validate/validator.h"

#include <optional>

#include "util/string_util.h"
#include "util/symbol_table.h"

namespace dtdevolve::validate {

using xml::TagOf;

std::vector<std::string> ContentSymbols(const xml::Element& element) {
  std::vector<std::string> symbols;
  bool last_was_text = false;
  for (const auto& child : element.children()) {
    if (child->is_element()) {
      symbols.push_back(child->AsElement().tag());
      last_was_text = false;
    } else {
      const auto& text = static_cast<const xml::Text&>(*child);
      if (IsBlank(text.value())) continue;
      if (!last_was_text) {
        symbols.emplace_back(dtd::kPcdataSymbol);
      }
      last_was_text = true;
    }
  }
  return symbols;
}

std::vector<int32_t> ContentSymbolIds(const xml::Element& element) {
  std::vector<int32_t> ids;
  const int32_t pcdata = dtd::PcdataSymbolId();
  bool last_was_text = false;
  for (const auto& child : element.children()) {
    if (child->is_element()) {
      ids.push_back(child->AsElement().tag_id());
      last_was_text = false;
    } else {
      const auto& text = static_cast<const xml::Text&>(*child);
      if (IsBlank(text.value())) continue;
      if (!last_was_text) ids.push_back(pcdata);
      last_was_text = true;
    }
  }
  return ids;
}

std::vector<std::string> ContentSymbols(const xml::ArenaElement& element) {
  std::vector<std::string> symbols;
  symbols.reserve(element.child_count);
  for (const xml::ArenaChild& child : element.child_nodes()) {
    if (child.is_element()) {
      symbols.emplace_back(child.element->tag);
    } else {
      symbols.emplace_back(dtd::kPcdataSymbol);
    }
  }
  return symbols;
}

std::vector<int32_t> ContentSymbolIds(const xml::ArenaElement& element) {
  std::vector<int32_t> ids;
  ids.reserve(element.child_count);
  const int32_t pcdata = dtd::PcdataSymbolId();
  for (const xml::ArenaChild& child : element.child_nodes()) {
    ids.push_back(child.is_element() ? child.element->tag_id : pcdata);
  }
  return ids;
}

Validator::Validator(const dtd::Dtd& dtd) : dtd_(&dtd) {
  for (const std::string& name : dtd.ElementNames()) {
    const dtd::ElementDecl* decl = dtd.FindElement(name);
    if (decl->content) {
      automata_.emplace(name, dtd::Automaton::Build(*decl->content));
    }
  }
}

const dtd::Automaton* Validator::FindAutomaton(std::string_view name) const {
  auto it = automata_.find(name);
  return it == automata_.end() ? nullptr : &it->second;
}

namespace {

/// Reused per-call scratch for the id-side content sequence: local
/// validity is probed once per element of every recorded document, so
/// the hot path must not allocate.
thread_local std::vector<int32_t> content_ids_scratch;

}  // namespace

bool Validator::ElementLocallyValid(const xml::Element& element) const {
  const dtd::Automaton* automaton = FindAutomaton(element.tag());
  if (automaton == nullptr) return false;
  return ElementLocallyValid(element, *automaton);
}

bool Validator::ElementLocallyValid(const xml::Element& element,
                                    const dtd::Automaton& automaton) const {
  std::vector<int32_t>& ids = content_ids_scratch;
  ids.clear();
  const int32_t pcdata = dtd::PcdataSymbolId();
  bool last_was_text = false;
  for (const auto& child : element.children()) {
    if (child->is_element()) {
      const int32_t id = child->AsElement().tag_id();
      if (id == util::SymbolTable::kNoSymbol) {
        // A child tag overflowed the bounded interning table: the
        // id-side simulation cannot see it, but the declared label
        // still has a real id, so only the string-side test decides
        // correctly.
        return automaton.Accepts(ContentSymbols(element));
      }
      ids.push_back(id);
      last_was_text = false;
    } else {
      const auto& text = static_cast<const xml::Text&>(*child);
      if (IsBlank(text.value())) continue;
      if (!last_was_text) ids.push_back(pcdata);
      last_was_text = true;
    }
  }
  return automaton.AcceptsIds(ids.data(), ids.size());
}

bool Validator::ElementLocallyValid(const xml::ArenaElement& element) const {
  const dtd::Automaton* automaton = FindAutomaton(element.tag);
  if (automaton == nullptr) return false;
  return ElementLocallyValid(element, *automaton);
}

bool Validator::ElementLocallyValid(const xml::ArenaElement& element,
                                    const dtd::Automaton& automaton) const {
  std::vector<int32_t>& ids = content_ids_scratch;
  ids.clear();
  const int32_t pcdata = dtd::PcdataSymbolId();
  for (const xml::ArenaChild& child : element.child_nodes()) {
    if (!child.is_element()) {
      ids.push_back(pcdata);
      continue;
    }
    if (child.element->tag_id == util::SymbolTable::kNoSymbol) {
      // Same overflow fallback as the DOM side.
      return automaton.Accepts(ContentSymbols(element));
    }
    ids.push_back(child.element->tag_id);
  }
  return automaton.AcceptsIds(ids.data(), ids.size());
}

namespace {

/// The value of attribute `name` on either tree, or nullopt when absent.
std::optional<std::string_view> AttributeOf(const xml::Element& element,
                                            std::string_view name) {
  const std::string* value = element.FindAttribute(name);
  if (value == nullptr) return std::nullopt;
  return *value;
}
std::optional<std::string_view> AttributeOf(const xml::ArenaElement& element,
                                            std::string_view name) {
  for (const xml::ArenaAttribute& attr : element.attributes()) {
    if (attr.name == name) return attr.value;
  }
  return std::nullopt;
}

}  // namespace

template <typename ElementT>
void Validator::CheckAttributes(const ElementT& element,
                                const std::string& path,
                                ValidationResult& result) const {
  const dtd::ElementDecl* decl = dtd_->FindElement(TagOf(element));
  if (decl == nullptr) return;
  for (const dtd::AttributeDecl& attr : decl->attributes) {
    const std::optional<std::string_view> value =
        AttributeOf(element, attr.name);
    if (attr.default_kind == dtd::AttributeDecl::DefaultKind::kRequired &&
        !value) {
      result.valid = false;
      result.errors.push_back(
          {path, "missing required attribute '" + attr.name + "'"});
    }
    if (attr.default_kind == dtd::AttributeDecl::DefaultKind::kFixed &&
        value && *value != attr.default_value) {
      result.valid = false;
      result.errors.push_back(
          {path, "attribute '" + attr.name + "' must be fixed to \"" +
                     attr.default_value + "\""});
    }
    if (!attr.type.empty() && attr.type.front() == '(' && value) {
      // Enumerated type `(a|b|c)`.
      std::vector<std::string> allowed =
          Split(attr.type.substr(1, attr.type.size() - 2), '|');
      bool found = false;
      for (const std::string& candidate : allowed) {
        if (candidate == *value) {
          found = true;
          break;
        }
      }
      if (!found) {
        result.valid = false;
        result.errors.push_back(
            {path, "attribute '" + attr.name + "' value \"" +
                       std::string(*value) + "\" not in enumeration " +
                       attr.type});
      }
    }
  }
}

template <typename ElementT>
void Validator::ValidateRec(const ElementT& element, const std::string& path,
                            ValidationResult& result) const {
  ++result.total_elements;
  const std::string_view tag = TagOf(element);
  const dtd::Automaton* automaton = FindAutomaton(tag);
  if (automaton == nullptr) {
    result.valid = false;
    ++result.invalid_elements;
    result.errors.push_back({path, "element '" + std::string(tag) +
                                       "' is not declared in the DTD"});
  } else if (!automaton->Accepts(ContentSymbols(element))) {
    result.valid = false;
    ++result.invalid_elements;
    const dtd::ElementDecl* decl = dtd_->FindElement(tag);
    result.errors.push_back(
        {path, "content does not match declaration " +
                   (decl->content ? decl->content->ToString() : "ANY")});
  }
  CheckAttributes(element, path, result);
  size_t child_index = 0;
  for (const ElementT& child : element.child_elements()) {
    ValidateRec(child,
                path + "/" + std::string(TagOf(child)) + "[" +
                    std::to_string(child_index++) + "]",
                result);
  }
}

ValidationResult Validator::ValidateSubtree(const xml::Element& root) const {
  ValidationResult result;
  ValidateRec(root, root.tag(), result);
  return result;
}

template <typename DocT>
ValidationResult Validator::ValidateDocument(const DocT& doc) const {
  ValidationResult result;
  if (!doc.has_root()) {
    result.valid = false;
    result.errors.push_back({"", "document has no root element"});
    return result;
  }
  const std::string root_tag(TagOf(doc.root()));
  if (root_tag != dtd_->root_name()) {
    result.valid = false;
    result.errors.push_back(
        {root_tag, "root element '" + root_tag +
                       "' does not match DTD root '" + dtd_->root_name() +
                       "'"});
  }
  ValidateRec(doc.root(), root_tag, result);
  return result;
}

ValidationResult Validator::Validate(const xml::Document& doc) const {
  return ValidateDocument(doc);
}

ValidationResult Validator::Validate(const xml::ArenaDocument& doc) const {
  return ValidateDocument(doc);
}

}  // namespace dtdevolve::validate
