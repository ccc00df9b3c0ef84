#include "xml/lexer.h"

#include "xml/text.h"

namespace dtdevolve::xml {

char Lexer::Advance() {
  char c = input_[pos_++];
  if (c == '\n') ++line_;
  return c;
}

bool Lexer::Consume(char expected) {
  if (AtEnd() || Peek() != expected) return false;
  Advance();
  return true;
}

bool Lexer::ConsumeWord(std::string_view word) {
  if (input_.substr(pos_, word.size()) != word) return false;
  for (size_t i = 0; i < word.size(); ++i) Advance();
  return true;
}

void Lexer::SkipWhitespace() {
  while (!AtEnd() && IsSpaceChar(Peek())) {
    Advance();
  }
}

Status Lexer::ErrorHere(std::string message) const {
  return Status::ParseError("line " + std::to_string(line_) + ": " +
                            std::move(message));
}

StatusOr<std::string> Lexer::LexName() {
  if (AtEnd() || !IsNameStartChar(Peek())) {
    return ErrorHere("expected a name");
  }
  std::string name;
  while (!AtEnd() && IsNameChar(Peek())) name += Advance();
  return name;
}

StatusOr<std::string> Lexer::LexQuotedValue() {
  if (AtEnd() || (Peek() != '"' && Peek() != '\'')) {
    return ErrorHere("expected a quoted attribute value");
  }
  char quote = Advance();
  std::string raw;
  while (!AtEnd() && Peek() != quote) raw += Advance();
  if (!Consume(quote)) return ErrorHere("unterminated attribute value");
  StatusOr<std::string> decoded = UnescapeText(raw);
  if (!decoded.ok()) return ErrorHere(decoded.status().message());
  return std::move(decoded).value();
}

StatusOr<Token> Lexer::Next() {
  if (AtEnd()) {
    Token token;
    token.kind = Token::Kind::kEof;
    token.line = line_;
    return token;
  }
  if (Peek() == '<') {
    Advance();
    return LexMarkup();
  }
  return LexText();
}

StatusOr<Token> Lexer::LexText() {
  Token token;
  token.kind = Token::Kind::kText;
  token.line = line_;
  std::string raw;
  while (!AtEnd() && Peek() != '<') raw += Advance();
  StatusOr<std::string> decoded = UnescapeText(raw);
  if (!decoded.ok()) return ErrorHere(decoded.status().message());
  token.text = std::move(decoded).value();
  return token;
}

StatusOr<Token> Lexer::LexMarkup() {
  if (AtEnd()) return ErrorHere("unexpected end of input after '<'");
  if (Peek() == '!') {
    Advance();
    return LexBang();
  }
  if (Peek() == '?') {
    Advance();
    Token token;
    token.kind = Token::Kind::kPi;
    token.line = line_;
    StatusOr<std::string> name = LexName();
    if (!name.ok()) return name.status();
    token.name = std::move(name).value();
    while (!AtEnd()) {
      if (Peek() == '?' && pos_ + 1 < input_.size() &&
          input_[pos_ + 1] == '>') {
        Advance();
        Advance();
        return token;
      }
      token.text += Advance();
    }
    return ErrorHere("unterminated processing instruction");
  }
  if (Peek() == '/') {
    Advance();
    Token token;
    token.kind = Token::Kind::kEndTag;
    token.line = line_;
    StatusOr<std::string> name = LexName();
    if (!name.ok()) return name.status();
    token.name = std::move(name).value();
    SkipWhitespace();
    if (!Consume('>')) return ErrorHere("expected '>' in end tag");
    return token;
  }
  return LexStartTag();
}

StatusOr<Token> Lexer::LexBang() {
  if (ConsumeWord("--")) {
    Token token;
    token.kind = Token::Kind::kComment;
    token.line = line_;
    while (!AtEnd()) {
      if (input_.substr(pos_, 3) == "-->") {
        Advance();
        Advance();
        Advance();
        return token;
      }
      token.text += Advance();
    }
    return ErrorHere("unterminated comment");
  }
  if (ConsumeWord("[CDATA[")) {
    Token token;
    token.kind = Token::Kind::kText;
    token.line = line_;
    while (!AtEnd()) {
      if (input_.substr(pos_, 3) == "]]>") {
        Advance();
        Advance();
        Advance();
        return token;
      }
      token.text += Advance();
    }
    return ErrorHere("unterminated CDATA section");
  }
  if (ConsumeWord("DOCTYPE")) {
    return LexDoctype();
  }
  return ErrorHere("unrecognized markup declaration");
}

StatusOr<Token> Lexer::LexDoctype() {
  Token token;
  token.kind = Token::Kind::kDoctype;
  token.line = line_;
  SkipWhitespace();
  StatusOr<std::string> name = LexName();
  if (!name.ok()) return name.status();
  token.name = std::move(name).value();
  // Skip external id (SYSTEM/PUBLIC with quoted literals) if present.
  SkipWhitespace();
  while (!AtEnd() && Peek() != '[' && Peek() != '>') {
    if (Peek() == '"' || Peek() == '\'') {
      char quote = Advance();
      while (!AtEnd() && Peek() != quote) Advance();
      if (!Consume(quote)) return ErrorHere("unterminated literal in DOCTYPE");
    } else {
      Advance();
    }
  }
  if (Consume('[')) {
    // Capture the internal subset verbatim; it is parsed by the DTD parser.
    int depth = 1;
    while (!AtEnd()) {
      char c = Peek();
      if (c == '[') {
        ++depth;
      } else if (c == ']') {
        --depth;
        if (depth == 0) {
          Advance();
          break;
        }
      }
      token.text += Advance();
    }
    if (depth != 0) return ErrorHere("unterminated DOCTYPE internal subset");
    SkipWhitespace();
  }
  if (!Consume('>')) return ErrorHere("expected '>' closing DOCTYPE");
  return token;
}

StatusOr<Token> Lexer::LexStartTag() {
  Token token;
  token.kind = Token::Kind::kStartTag;
  token.line = line_;
  StatusOr<std::string> name = LexName();
  if (!name.ok()) return name.status();
  token.name = std::move(name).value();
  while (true) {
    SkipWhitespace();
    if (AtEnd()) return ErrorHere("unterminated start tag");
    if (Consume('>')) return token;
    if (Peek() == '/') {
      Advance();
      if (!Consume('>')) return ErrorHere("expected '>' after '/'");
      token.self_closing = true;
      return token;
    }
    StatusOr<std::string> attr_name = LexName();
    if (!attr_name.ok()) return attr_name.status();
    SkipWhitespace();
    if (!Consume('=')) return ErrorHere("expected '=' after attribute name");
    SkipWhitespace();
    StatusOr<std::string> attr_value = LexQuotedValue();
    if (!attr_value.ok()) return attr_value.status();
    token.attributes.push_back(
        {std::move(attr_name).value(), std::move(attr_value).value()});
  }
}

}  // namespace dtdevolve::xml
