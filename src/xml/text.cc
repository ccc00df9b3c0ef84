#include "xml/text.h"

#include <algorithm>

namespace dtdevolve::xml {

bool IsValidName(std::string_view name) {
  if (name.empty() || !IsNameStartChar(name[0])) return false;
  for (char c : name.substr(1)) {
    if (!IsNameChar(c)) return false;
  }
  return true;
}

void AppendEscaped(std::string_view text, std::string* out) {
  size_t run = 0;  // start of the pending run of unescaped bytes
  for (size_t i = 0; i < text.size(); ++i) {
    std::string_view entity;
    switch (text[i]) {
      case '&':
        entity = "&amp;";
        break;
      case '<':
        entity = "&lt;";
        break;
      case '>':
        entity = "&gt;";
        break;
      case '"':
        entity = "&quot;";
        break;
      default:
        continue;
    }
    out->append(text.data() + run, i - run);
    out->append(entity);
    run = i + 1;
  }
  out->append(text.data() + run, text.size() - run);
}

std::string EscapeText(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  AppendEscaped(text, &out);
  return out;
}

StatusOr<std::string> UnescapeText(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  Status st = AppendUnescaped(text, &out);
  if (!st.ok()) return st;
  return out;
}

Status AppendUnescaped(std::string_view text, std::string* out_ptr) {
  std::string& out = *out_ptr;
  size_t i = 0;
  while (i < text.size()) {
    if (text[i] != '&') {
      size_t amp = std::min(text.find('&', i), text.size());
      out.append(text.substr(i, amp - i));
      i = amp;
      continue;
    }
    size_t end = text.find(';', i + 1);
    if (end == std::string_view::npos) {
      return Status::ParseError("unterminated entity reference");
    }
    std::string_view name = text.substr(i + 1, end - i - 1);
    if (name == "amp") {
      out += '&';
    } else if (name == "lt") {
      out += '<';
    } else if (name == "gt") {
      out += '>';
    } else if (name == "quot") {
      out += '"';
    } else if (name == "apos") {
      out += '\'';
    } else if (!name.empty() && name[0] == '#') {
      int base = 10;
      std::string_view digits = name.substr(1);
      if (!digits.empty() && (digits[0] == 'x' || digits[0] == 'X')) {
        base = 16;
        digits = digits.substr(1);
      }
      if (digits.empty()) {
        return Status::ParseError("empty character reference");
      }
      int value = 0;
      for (char d : digits) {
        int digit;
        if (d >= '0' && d <= '9') {
          digit = d - '0';
        } else if (base == 16 && d >= 'a' && d <= 'f') {
          digit = d - 'a' + 10;
        } else if (base == 16 && d >= 'A' && d <= 'F') {
          digit = d - 'A' + 10;
        } else {
          return Status::ParseError("malformed character reference: &" +
                                    std::string(name) + ";");
        }
        value = value * base + digit;
        if (value > 0x10FFFF) {
          return Status::ParseError("character reference out of range");
        }
      }
      if (value > 0x7F) {
        // Encode as UTF-8.
        if (value <= 0x7FF) {
          out += static_cast<char>(0xC0 | (value >> 6));
          out += static_cast<char>(0x80 | (value & 0x3F));
        } else if (value <= 0xFFFF) {
          out += static_cast<char>(0xE0 | (value >> 12));
          out += static_cast<char>(0x80 | ((value >> 6) & 0x3F));
          out += static_cast<char>(0x80 | (value & 0x3F));
        } else {
          out += static_cast<char>(0xF0 | (value >> 18));
          out += static_cast<char>(0x80 | ((value >> 12) & 0x3F));
          out += static_cast<char>(0x80 | ((value >> 6) & 0x3F));
          out += static_cast<char>(0x80 | (value & 0x3F));
        }
      } else {
        out += static_cast<char>(value);
      }
    } else {
      return Status::ParseError("unknown entity reference: &" +
                                std::string(name) + ";");
    }
    i = end + 1;
  }
  return Status::Ok();
}

}  // namespace dtdevolve::xml
