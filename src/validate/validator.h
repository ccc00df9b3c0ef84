#ifndef DTDEVOLVE_VALIDATE_VALIDATOR_H_
#define DTDEVOLVE_VALIDATE_VALIDATOR_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "dtd/dtd.h"
#include "dtd/glushkov.h"
#include "xml/arena.h"
#include "xml/document.h"

namespace dtdevolve::validate {

/// One validity violation, located by a slash path from the root.
struct ValidationError {
  std::string path;
  std::string message;
};

/// Outcome of validating a document (or subtree) against a DTD.
struct ValidationResult {
  bool valid = true;
  std::vector<ValidationError> errors;
  /// Elements visited / elements whose own content violated their
  /// declaration. `invalid_elements / total_elements` is the per-document
  /// ratio the evolution trigger condition aggregates.
  size_t total_elements = 0;
  size_t invalid_elements = 0;

  double InvalidFraction() const {
    return total_elements == 0
               ? 0.0
               : static_cast<double>(invalid_elements) / total_elements;
  }
};

/// Boolean validator — the "rigid classifier" of the paper's introduction.
/// Caches one Glushkov automaton per element declaration, so repeated
/// validations against the same DTD are cheap.
class Validator {
 public:
  explicit Validator(const dtd::Dtd& dtd);

  Validator(const Validator&) = delete;
  Validator& operator=(const Validator&) = delete;

  /// Full-document validation: the root tag must equal the DTD root name
  /// and every element must locally satisfy its declaration. One walk
  /// serves both trees: an arena tree yields the result (validity,
  /// counts, every error's path and message) its `ToDocument()` would.
  ValidationResult Validate(const xml::Document& doc) const;
  ValidationResult Validate(const xml::ArenaDocument& doc) const;

  /// Validates an element subtree without the root-name requirement.
  ValidationResult ValidateSubtree(const xml::Element& root) const;

  /// Local check: does this one element's direct content satisfy its
  /// declaration? (Descendants are not inspected — the boolean analogue
  /// of the paper's *local* similarity.)
  bool ElementLocallyValid(const xml::Element& element) const;

  /// Arena twin of the local check, used by the streaming parse path.
  /// Runs the id-side subset simulation (`Automaton::AcceptsIds`) over
  /// the arena's interned child tags, falling back to the string-side
  /// test when any child tag failed bounded interning (an unresolved
  /// `util::kNoSymbol` id must not be mistaken for "label absent" —
  /// the declared label always carries a real id). Decision-equivalent
  /// to the DOM overload on structurally equal trees.
  bool ElementLocallyValid(const xml::ArenaElement& element) const;

  /// Pre-resolved twins: the caller already holds the element's content
  /// automaton (from `AutomatonFor`), so the per-element name lookup is
  /// skipped. Same decision as the name-resolving overloads.
  bool ElementLocallyValid(const xml::Element& element,
                           const dtd::Automaton& automaton) const;
  bool ElementLocallyValid(const xml::ArenaElement& element,
                           const dtd::Automaton& automaton) const;

  /// Content automaton of a declared element, or null when the element
  /// has no declaration (or no content model). Stable for the
  /// validator's lifetime — callers may cache the pointer.
  const dtd::Automaton* AutomatonFor(std::string_view name) const {
    return FindAutomaton(name);
  }

  const dtd::Dtd& dtd() const { return *dtd_; }

 private:
  template <typename DocT>
  ValidationResult ValidateDocument(const DocT& doc) const;
  template <typename ElementT>
  void ValidateRec(const ElementT& element, const std::string& path,
                   ValidationResult& result) const;
  const dtd::Automaton* FindAutomaton(std::string_view name) const;
  template <typename ElementT>
  void CheckAttributes(const ElementT& element, const std::string& path,
                       ValidationResult& result) const;

  const dtd::Dtd* dtd_;
  /// Transparent comparator so the arena path looks up by string_view
  /// without materializing a key.
  std::map<std::string, dtd::Automaton, std::less<>> automata_;
};

/// Convenience: symbol sequence of an element's direct content — child
/// element tags in order, with non-blank text runs as `kPcdataSymbol`.
std::vector<std::string> ContentSymbols(const xml::Element& element);

/// Interned-id twin of `ContentSymbols`: the same sequence as interned
/// symbol ids (`dtd::PcdataSymbolId()` for text runs). The similarity hot
/// path uses this form to avoid string copies entirely.
std::vector<int32_t> ContentSymbolIds(const xml::Element& element);

/// Arena overloads. Arena trees store only non-blank text with
/// consecutive runs pre-merged at parse time, so every text child emits
/// exactly one `kPcdataSymbol` — the same collapsed sequence the DOM
/// overloads produce on the equivalent tree.
std::vector<std::string> ContentSymbols(const xml::ArenaElement& element);
std::vector<int32_t> ContentSymbolIds(const xml::ArenaElement& element);

}  // namespace dtdevolve::validate

#endif  // DTDEVOLVE_VALIDATE_VALIDATOR_H_
