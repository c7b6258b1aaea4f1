#include "support/json_verify.h"

#include <cctype>
#include <cstdint>

namespace pipemap {
namespace {

/// Cursor over the document plus the first error seen. All Parse*
/// helpers return false after recording an error; the position then
/// points at the offending byte.
struct Validator {
  std::string_view text;
  std::size_t pos = 0;
  std::string error;

  // Deep enough for any artifact this project emits, shallow enough that
  // a hostile "[[[[..." cannot exhaust the native stack.
  static constexpr int kMaxDepth = 256;

  bool Fail(const std::string& what) {
    if (error.empty()) {
      error = "offset " + std::to_string(pos) + ": " + what;
    }
    return false;
  }

  bool AtEnd() const { return pos >= text.size(); }
  char Peek() const { return text[pos]; }

  void SkipWhitespace() {
    while (!AtEnd()) {
      const char c = Peek();
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos;
      } else {
        break;
      }
    }
  }

  bool ParseValue(int depth) {
    if (depth > kMaxDepth) return Fail("nesting too deep");
    SkipWhitespace();
    if (AtEnd()) return Fail("unexpected end of input");
    switch (Peek()) {
      case '{': return ParseObject(depth);
      case '[': return ParseArray(depth);
      case '"': return ParseString();
      case 't': return ParseLiteral("true");
      case 'f': return ParseLiteral("false");
      case 'n': return ParseLiteral("null");
      default: return ParseNumber();
    }
  }

  bool ParseLiteral(std::string_view literal) {
    if (text.substr(pos, literal.size()) != literal) {
      return Fail("invalid literal");
    }
    pos += literal.size();
    return true;
  }

  bool ParseObject(int depth) {
    ++pos;  // '{'
    SkipWhitespace();
    if (!AtEnd() && Peek() == '}') {
      ++pos;
      return true;
    }
    for (;;) {
      SkipWhitespace();
      if (AtEnd() || Peek() != '"') return Fail("expected object key");
      if (!ParseString()) return false;
      SkipWhitespace();
      if (AtEnd() || Peek() != ':') return Fail("expected ':'");
      ++pos;
      if (!ParseValue(depth + 1)) return false;
      SkipWhitespace();
      if (AtEnd()) return Fail("unterminated object");
      if (Peek() == ',') {
        ++pos;
        continue;
      }
      if (Peek() == '}') {
        ++pos;
        return true;
      }
      return Fail("expected ',' or '}'");
    }
  }

  bool ParseArray(int depth) {
    ++pos;  // '['
    SkipWhitespace();
    if (!AtEnd() && Peek() == ']') {
      ++pos;
      return true;
    }
    for (;;) {
      if (!ParseValue(depth + 1)) return false;
      SkipWhitespace();
      if (AtEnd()) return Fail("unterminated array");
      if (Peek() == ',') {
        ++pos;
        continue;
      }
      if (Peek() == ']') {
        ++pos;
        return true;
      }
      return Fail("expected ',' or ']'");
    }
  }

  bool ParseHex4(std::uint32_t* out) {
    std::uint32_t value = 0;
    for (int k = 0; k < 4; ++k) {
      if (AtEnd()) return Fail("truncated \\u escape");
      const char c = Peek();
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<std::uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<std::uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<std::uint32_t>(c - 'A' + 10);
      } else {
        return Fail("invalid \\u escape digit");
      }
      ++pos;
    }
    *out = value;
    return true;
  }

  bool ParseString() {
    ++pos;  // opening quote
    for (;;) {
      if (AtEnd()) return Fail("unterminated string");
      const unsigned char b = static_cast<unsigned char>(Peek());
      if (b == '"') {
        ++pos;
        return true;
      }
      if (b == '\\') {
        ++pos;
        if (AtEnd()) return Fail("truncated escape");
        const char e = Peek();
        if (e == '"' || e == '\\' || e == '/' || e == 'b' || e == 'f' ||
            e == 'n' || e == 'r' || e == 't') {
          ++pos;
          continue;
        }
        if (e != 'u') return Fail("invalid escape character");
        ++pos;
        std::uint32_t cp = 0;
        if (!ParseHex4(&cp)) return false;
        if (cp >= 0xD800 && cp <= 0xDBFF) {
          // High surrogate: must pair with an escaped low surrogate.
          if (AtEnd() || Peek() != '\\') return Fail("unpaired surrogate");
          ++pos;
          if (AtEnd() || Peek() != 'u') return Fail("unpaired surrogate");
          ++pos;
          std::uint32_t low = 0;
          if (!ParseHex4(&low)) return false;
          if (low < 0xDC00 || low > 0xDFFF) {
            return Fail("invalid low surrogate");
          }
        } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
          return Fail("stray low surrogate");
        }
        continue;
      }
      if (b < 0x20) return Fail("unescaped control character");
      if (b < 0x80) {
        ++pos;
        continue;
      }
      // Multi-byte UTF-8: validate the sequence (length, continuation
      // bytes, no overlong forms, no surrogates, <= U+10FFFF).
      std::size_t len = 0;
      std::uint32_t cp = 0;
      if ((b & 0xE0) == 0xC0) {
        len = 2;
        cp = b & 0x1Fu;
      } else if ((b & 0xF0) == 0xE0) {
        len = 3;
        cp = b & 0x0Fu;
      } else if ((b & 0xF8) == 0xF0) {
        len = 4;
        cp = b & 0x07u;
      } else {
        return Fail("invalid UTF-8 lead byte");
      }
      if (pos + len > text.size()) return Fail("truncated UTF-8 sequence");
      for (std::size_t k = 1; k < len; ++k) {
        const unsigned char cont = static_cast<unsigned char>(text[pos + k]);
        if ((cont & 0xC0) != 0x80) return Fail("invalid UTF-8 continuation");
        cp = (cp << 6) | (cont & 0x3Fu);
      }
      static constexpr std::uint32_t kMinForLength[5] = {0, 0, 0x80, 0x800,
                                                         0x10000};
      if (cp < kMinForLength[len]) return Fail("overlong UTF-8 encoding");
      if (cp >= 0xD800 && cp <= 0xDFFF) return Fail("UTF-8 surrogate");
      if (cp > 0x10FFFF) return Fail("code point beyond U+10FFFF");
      pos += len;
    }
  }

  bool ParseNumber() {
    const std::size_t start = pos;
    if (!AtEnd() && Peek() == '-') ++pos;
    if (AtEnd() || !std::isdigit(static_cast<unsigned char>(Peek()))) {
      pos = start;
      return Fail("invalid value");
    }
    if (Peek() == '0') {
      ++pos;  // no leading zeros
    } else {
      while (!AtEnd() && std::isdigit(static_cast<unsigned char>(Peek()))) {
        ++pos;
      }
    }
    if (!AtEnd() && Peek() == '.') {
      ++pos;
      if (AtEnd() || !std::isdigit(static_cast<unsigned char>(Peek()))) {
        return Fail("digit required after '.'");
      }
      while (!AtEnd() && std::isdigit(static_cast<unsigned char>(Peek()))) {
        ++pos;
      }
    }
    if (!AtEnd() && (Peek() == 'e' || Peek() == 'E')) {
      ++pos;
      if (!AtEnd() && (Peek() == '+' || Peek() == '-')) ++pos;
      if (AtEnd() || !std::isdigit(static_cast<unsigned char>(Peek()))) {
        return Fail("digit required in exponent");
      }
      while (!AtEnd() && std::isdigit(static_cast<unsigned char>(Peek()))) {
        ++pos;
      }
    }
    return true;
  }
};

}  // namespace

bool IsValidJson(std::string_view text, std::string* error) {
  Validator v{text, 0, {}};
  if (!v.ParseValue(0)) {
    if (error != nullptr) *error = v.error;
    return false;
  }
  v.SkipWhitespace();
  if (!v.AtEnd()) {
    v.Fail("trailing bytes after document");
    if (error != nullptr) *error = v.error;
    return false;
  }
  return true;
}

}  // namespace pipemap
