#include "dtd/dtd_parser.h"

#include "util/string_util.h"
#include "xml/text.h"

namespace dtdevolve::dtd {

namespace {

/// Nesting bound for parenthesized groups. Recursive descent (and every
/// later recursive walk over the parsed model — Glushkov, Simplify,
/// ToString, destruction) uses one stack frame per level, so unbounded
/// input like `((((…` would otherwise overflow the stack.
constexpr int kMaxGroupDepth = 200;

/// Recursive-descent parser over DTD declaration text.
class DtdParser {
 public:
  explicit DtdParser(std::string_view input) : input_(input) {}

  StatusOr<Dtd> ParseAll(std::string root_name);
  StatusOr<ContentModel::Ptr> ParseModelOnly();

 private:
  bool AtEnd() const { return pos_ >= input_.size(); }
  char Peek() const { return input_[pos_]; }
  char Advance() {
    char c = input_[pos_++];
    if (c == '\n') ++line_;
    return c;
  }
  bool Consume(char expected) {
    if (AtEnd() || Peek() != expected) return false;
    Advance();
    return true;
  }
  void SkipWhitespace() {
    while (!AtEnd() && xml::IsSpaceChar(Peek())) {
      Advance();
    }
  }
  Status ErrorHere(std::string message) const {
    return Status::ParseError("DTD line " + std::to_string(line_) + ": " +
                              std::move(message));
  }

  StatusOr<std::string> LexName();
  Status SkipComment();                  // after "<!--"
  Status SkipUntil(char terminator);     // respecting quotes
  Status ParseElementDecl(Dtd& dtd);     // after "<!ELEMENT"
  Status ParseAttlistDecl(Dtd& dtd);     // after "<!ATTLIST"
  StatusOr<ContentModel::Ptr> ParseContentSpec();
  StatusOr<ContentModel::Ptr> ParseGroup();  // after '('
  StatusOr<ContentModel::Ptr> ParseCp();     // one content particle
  ContentModel::Ptr ApplyOccurrence(ContentModel::Ptr node);

  std::string_view input_;
  size_t pos_ = 0;
  size_t line_ = 1;
  int group_depth_ = 0;
};

StatusOr<std::string> DtdParser::LexName() {
  if (AtEnd() || !xml::IsNameStartChar(Peek())) {
    return ErrorHere("expected a name");
  }
  std::string name;
  while (!AtEnd() && xml::IsNameChar(Peek())) name += Advance();
  return name;
}

Status DtdParser::SkipComment() {
  while (!AtEnd()) {
    if (input_.substr(pos_, 3) == "-->") {
      Advance();
      Advance();
      Advance();
      return Status::Ok();
    }
    Advance();
  }
  return ErrorHere("unterminated comment");
}

Status DtdParser::SkipUntil(char terminator) {
  while (!AtEnd()) {
    char c = Peek();
    if (c == terminator) {
      Advance();
      return Status::Ok();
    }
    if (c == '"' || c == '\'') {
      char quote = Advance();
      while (!AtEnd() && Peek() != quote) Advance();
      if (AtEnd()) return ErrorHere("unterminated literal");
      Advance();
      continue;
    }
    Advance();
  }
  return ErrorHere(std::string("expected '") + terminator + "'");
}

ContentModel::Ptr DtdParser::ApplyOccurrence(ContentModel::Ptr node) {
  if (AtEnd()) return node;
  switch (Peek()) {
    case '?':
      Advance();
      return ContentModel::Opt(std::move(node));
    case '*':
      Advance();
      return ContentModel::Star(std::move(node));
    case '+':
      Advance();
      return ContentModel::Plus(std::move(node));
    default:
      return node;
  }
}

StatusOr<ContentModel::Ptr> DtdParser::ParseCp() {
  SkipWhitespace();
  if (AtEnd()) return ErrorHere("unexpected end of content model");
  if (Peek() == '(') {
    Advance();
    StatusOr<ContentModel::Ptr> group = ParseGroup();
    if (!group.ok()) return group.status();
    return ApplyOccurrence(std::move(group).value());
  }
  if (Peek() == '#') {
    Advance();
    StatusOr<std::string> word = LexName();
    if (!word.ok()) return word.status();
    if (*word != "PCDATA") return ErrorHere("expected #PCDATA");
    return ContentModel::Pcdata();
  }
  StatusOr<std::string> name = LexName();
  if (!name.ok()) return name.status();
  return ApplyOccurrence(ContentModel::Name(std::move(name).value()));
}

StatusOr<ContentModel::Ptr> DtdParser::ParseGroup() {
  if (++group_depth_ > kMaxGroupDepth) {
    --group_depth_;
    return ErrorHere("content model groups nested deeper than " +
                     std::to_string(kMaxGroupDepth));
  }
  std::vector<ContentModel::Ptr> children;
  char connector = 0;  // ',' or '|' once determined
  while (true) {
    StatusOr<ContentModel::Ptr> cp = ParseCp();
    if (!cp.ok()) return cp.status();
    children.push_back(std::move(cp).value());
    SkipWhitespace();
    if (AtEnd()) return ErrorHere("unterminated group");
    char c = Peek();
    if (c == ')') {
      Advance();
      break;
    }
    if (c != ',' && c != '|') {
      return ErrorHere(std::string("expected ',', '|' or ')', got '") + c +
                       "'");
    }
    if (connector != 0 && c != connector) {
      return ErrorHere("mixed ',' and '|' in one group");
    }
    connector = c;
    Advance();
  }
  --group_depth_;
  if (children.size() == 1 && connector == 0) {
    // `(a)` — a single-particle group; keep the particle itself.
    return std::move(children.front());
  }
  if (connector == '|') return ContentModel::Choice(std::move(children));
  return ContentModel::Seq(std::move(children));
}

StatusOr<ContentModel::Ptr> DtdParser::ParseContentSpec() {
  SkipWhitespace();
  if (AtEnd()) return ErrorHere("missing content specification");
  if (Peek() != '(') {
    StatusOr<std::string> word = LexName();
    if (!word.ok()) return word.status();
    if (*word == "EMPTY") return ContentModel::Empty();
    if (*word == "ANY") return ContentModel::Any();
    return ErrorHere("expected EMPTY, ANY or '(' in content model");
  }
  Advance();  // '('
  StatusOr<ContentModel::Ptr> group = ParseGroup();
  if (!group.ok()) return group.status();
  return ApplyOccurrence(std::move(group).value());
}

Status DtdParser::ParseElementDecl(Dtd& dtd) {
  SkipWhitespace();
  StatusOr<std::string> name = LexName();
  if (!name.ok()) return name.status();
  StatusOr<ContentModel::Ptr> model = ParseContentSpec();
  if (!model.ok()) return model.status();
  SkipWhitespace();
  if (!Consume('>')) return ErrorHere("expected '>' closing ELEMENT");
  ElementDecl* existing = dtd.FindElement(*name);
  if (existing != nullptr) {
    if (existing->content != nullptr) {
      return ErrorHere("duplicate declaration of element '" + *name + "'");
    }
    // An earlier ATTLIST created a placeholder; fill its content in.
    existing->content = std::move(model).value();
    return Status::Ok();
  }
  dtd.DeclareElement(std::move(name).value(), std::move(model).value());
  return Status::Ok();
}

Status DtdParser::ParseAttlistDecl(Dtd& dtd) {
  SkipWhitespace();
  StatusOr<std::string> element_name = LexName();
  if (!element_name.ok()) return element_name.status();
  std::vector<AttributeDecl> attrs;
  while (true) {
    SkipWhitespace();
    if (AtEnd()) return ErrorHere("unterminated ATTLIST");
    if (Consume('>')) break;
    AttributeDecl attr;
    StatusOr<std::string> attr_name = LexName();
    if (!attr_name.ok()) return attr_name.status();
    attr.name = std::move(attr_name).value();
    SkipWhitespace();
    if (AtEnd()) return ErrorHere("unterminated ATTLIST");
    // Attribute type: a name (CDATA, ID, ...) or an enumeration group.
    if (Peek() == '(') {
      std::string enumeration = "(";
      Advance();
      while (!AtEnd() && Peek() != ')') {
        char c = Advance();
        if (!xml::IsSpaceChar(c)) enumeration += c;
      }
      if (!Consume(')')) return ErrorHere("unterminated enumeration");
      enumeration += ')';
      attr.type = std::move(enumeration);
    } else {
      StatusOr<std::string> type = LexName();
      if (!type.ok()) return type.status();
      attr.type = std::move(type).value();
      if (attr.type == "NOTATION") {
        SkipWhitespace();
        if (Consume('(')) {
          DTDEVOLVE_RETURN_IF_ERROR(SkipUntil(')'));
        }
      }
    }
    SkipWhitespace();
    if (AtEnd()) return ErrorHere("unterminated ATTLIST");
    if (Peek() == '#') {
      Advance();
      StatusOr<std::string> keyword = LexName();
      if (!keyword.ok()) return keyword.status();
      if (*keyword == "REQUIRED") {
        attr.default_kind = AttributeDecl::DefaultKind::kRequired;
      } else if (*keyword == "IMPLIED") {
        attr.default_kind = AttributeDecl::DefaultKind::kImplied;
      } else if (*keyword == "FIXED") {
        attr.default_kind = AttributeDecl::DefaultKind::kFixed;
      } else {
        return ErrorHere("unknown attribute default #" + *keyword);
      }
    } else {
      attr.default_kind = AttributeDecl::DefaultKind::kDefault;
    }
    if (attr.default_kind == AttributeDecl::DefaultKind::kFixed ||
        attr.default_kind == AttributeDecl::DefaultKind::kDefault) {
      SkipWhitespace();
      if (AtEnd() || (Peek() != '"' && Peek() != '\'')) {
        return ErrorHere("expected quoted default value");
      }
      char quote = Advance();
      while (!AtEnd() && Peek() != quote) attr.default_value += Advance();
      if (!Consume(quote)) return ErrorHere("unterminated default value");
    }
    attrs.push_back(std::move(attr));
  }
  ElementDecl* decl = dtd.FindElement(*element_name);
  if (decl == nullptr) {
    // ATTLIST before ELEMENT is legal; create a placeholder declaration
    // that a later <!ELEMENT> will fill in.
    decl = &dtd.DeclareElement(std::move(element_name).value(), nullptr);
  }
  for (AttributeDecl& attr : attrs) {
    decl->attributes.push_back(std::move(attr));
  }
  return Status::Ok();
}

StatusOr<Dtd> DtdParser::ParseAll(std::string root_name) {
  Dtd dtd;
  while (true) {
    SkipWhitespace();
    if (AtEnd()) break;
    if (Peek() != '<') return ErrorHere("expected '<' starting a declaration");
    Advance();
    if (Consume('?')) {  // processing instruction
      DTDEVOLVE_RETURN_IF_ERROR(SkipUntil('>'));
      continue;
    }
    if (!Consume('!')) return ErrorHere("expected '<!' declaration");
    if (input_.substr(pos_, 2) == "--") {
      Advance();
      Advance();
      DTDEVOLVE_RETURN_IF_ERROR(SkipComment());
      continue;
    }
    StatusOr<std::string> keyword = LexName();
    if (!keyword.ok()) return keyword.status();
    if (*keyword == "ELEMENT") {
      DTDEVOLVE_RETURN_IF_ERROR(ParseElementDecl(dtd));
    } else if (*keyword == "ATTLIST") {
      DTDEVOLVE_RETURN_IF_ERROR(ParseAttlistDecl(dtd));
    } else if (*keyword == "ENTITY" || *keyword == "NOTATION") {
      DTDEVOLVE_RETURN_IF_ERROR(SkipUntil('>'));
    } else {
      return ErrorHere("unsupported declaration <!" + *keyword + ">");
    }
  }
  // Fill placeholder declarations (ATTLIST without ELEMENT) with ANY.
  for (const std::string& name : dtd.ElementNames()) {
    ElementDecl* decl = dtd.FindElement(name);
    if (decl->content == nullptr) decl->content = ContentModel::Any();
  }
  if (!root_name.empty()) dtd.set_root_name(std::move(root_name));
  return dtd;
}

StatusOr<ContentModel::Ptr> DtdParser::ParseModelOnly() {
  StatusOr<ContentModel::Ptr> model = ParseContentSpec();
  if (!model.ok()) return model.status();
  SkipWhitespace();
  if (!AtEnd()) return ErrorHere("trailing characters after content model");
  return model;
}

}  // namespace

StatusOr<Dtd> ParseDtd(std::string_view input, std::string root_name) {
  DtdParser parser(input);
  return parser.ParseAll(std::move(root_name));
}

StatusOr<ContentModel::Ptr> ParseContentModel(std::string_view input) {
  DtdParser parser(input);
  return parser.ParseModelOnly();
}

}  // namespace dtdevolve::dtd
