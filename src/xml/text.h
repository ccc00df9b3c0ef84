#ifndef DTDEVOLVE_XML_TEXT_H_
#define DTDEVOLVE_XML_TEXT_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace dtdevolve::xml {

/// One character-class table shared by every scanner in the tree (the
/// arena reader, the DOM lexer, the DTD parser): a byte's classes are one
/// indexed load, with no libc locale lookup. The answers are the C
/// locale's `isalpha`, `isdigit` and `isspace`, plus the punctuation below.
namespace char_class {
inline constexpr uint8_t kNameStart = 1;  // A-Z a-z _ :
inline constexpr uint8_t kName = 2;       // kNameStart plus 0-9 - .
inline constexpr uint8_t kSpace = 4;      // space \t \n \v \f \r
inline constexpr std::array<uint8_t, 256> kTable = [] {
  std::array<uint8_t, 256> table{};
  for (int c = 'A'; c <= 'Z'; ++c) table[c] = kNameStart | kName;
  for (int c = 'a'; c <= 'z'; ++c) table[c] = kNameStart | kName;
  for (int c = '0'; c <= '9'; ++c) table[c] = kName;
  table['_'] = table[':'] = kNameStart | kName;
  table['-'] = table['.'] = kName;
  for (char c : {' ', '\t', '\n', '\v', '\f', '\r'}) {
    table[static_cast<unsigned char>(c)] = kSpace;
  }
  return table;
}();
}  // namespace char_class

/// True if `c` may start an XML name (ASCII subset: letter, '_' or ':').
inline bool IsNameStartChar(char c) {
  return char_class::kTable[static_cast<unsigned char>(c)] &
         char_class::kNameStart;
}

/// True if `c` may appear inside an XML name (adds digits, '-', '.').
inline bool IsNameChar(char c) {
  return char_class::kTable[static_cast<unsigned char>(c)] & char_class::kName;
}

/// True if `c` is C-locale whitespace (what `std::isspace` answers).
inline bool IsSpaceChar(char c) {
  return char_class::kTable[static_cast<unsigned char>(c)] &
         char_class::kSpace;
}

/// True if `name` is a well-formed XML name (non-empty, valid chars).
bool IsValidName(std::string_view name);

/// Escapes '&', '<', '>', '"' for inclusion in element content or
/// attribute values.
std::string EscapeText(std::string_view text);

/// `EscapeText` appending to `*out`, so a writer builds its output in one
/// buffer with no temporary per text run.
void AppendEscaped(std::string_view text, std::string* out);

/// Decodes the five predefined entities (&amp; &lt; &gt; &quot; &apos;)
/// and decimal/hex character references restricted to ASCII. Unknown
/// entities are a parse error.
StatusOr<std::string> UnescapeText(std::string_view text);

/// `UnescapeText` appending to `*out`, so a caller can decode into a
/// reused buffer. On error `*out` holds a partial decode.
Status AppendUnescaped(std::string_view text, std::string* out);

}  // namespace dtdevolve::xml

#endif  // DTDEVOLVE_XML_TEXT_H_
