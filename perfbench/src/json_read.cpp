#include "json_read.h"

namespace perfbench {
namespace {

/// Reads the top-level members of a JSON object that IsValidJson already
/// accepted. Returns nullopt when the document is not an object.
class TopLevelReader {
 public:
  explicit TopLevelReader(std::string_view json) : s_(json) {}

  std::optional<std::map<std::string, Member>> Read() {
    std::map<std::string, Member> members;
    SkipSpace();
    if (!Eat('{')) return std::nullopt;
    SkipSpace();
    if (Eat('}')) return members;
    for (;;) {
      SkipSpace();
      std::string key;
      if (!String(&key)) return std::nullopt;
      SkipSpace();
      if (!Eat(':')) return std::nullopt;
      SkipSpace();
      Member member;
      if (Peek() == '"') {
        member.is_string = true;
        if (!String(&member.text)) return std::nullopt;
      } else {
        const std::size_t begin = pos_;
        SkipValue();
        std::size_t end = pos_;
        while (end > begin && IsSpace(s_[end - 1])) --end;
        member.text = std::string(s_.substr(begin, end - begin));
      }
      members[key] = std::move(member);
      SkipSpace();
      if (Eat('}')) return members;
      if (!Eat(',')) return std::nullopt;
    }
  }

 private:
  char Peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  bool Eat(char c) {
    if (Peek() != c) return false;
    ++pos_;
    return true;
  }
  static bool IsSpace(char c) {
    return c == ' ' || c == '\n' || c == '\r' || c == '\t';
  }
  void SkipSpace() {
    while (pos_ < s_.size() && IsSpace(s_[pos_])) ++pos_;
  }

  static void AppendUtf8(std::string* out, unsigned cp) {
    if (cp < 0x80) {
      *out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      *out += static_cast<char>(0xC0 | (cp >> 6));
      *out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      *out += static_cast<char>(0xE0 | (cp >> 12));
      *out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      *out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      *out += static_cast<char>(0xF0 | (cp >> 18));
      *out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      *out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      *out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  bool Hex4(unsigned* out) {
    if (s_.size() - pos_ < 4) return false;
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = s_[pos_++];
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        return false;
      }
    }
    *out = v;
    return true;
  }

  bool String(std::string* out) {
    if (!Eat('"')) return false;
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        *out += c;
        continue;
      }
      if (pos_ >= s_.size()) return false;
      const char e = s_[pos_++];
      switch (e) {
        case '"':
        case '\\':
        case '/':
          *out += e;
          break;
        case 'b':
          *out += '\b';
          break;
        case 'f':
          *out += '\f';
          break;
        case 'n':
          *out += '\n';
          break;
        case 'r':
          *out += '\r';
          break;
        case 't':
          *out += '\t';
          break;
        case 'u': {
          unsigned cp = 0;
          if (!Hex4(&cp)) return false;
          if (cp >= 0xD800 && cp < 0xDC00) {
            unsigned low = 0;
            if (!Eat('\\') || !Eat('u') || !Hex4(&low)) return false;
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          }
          AppendUtf8(out, cp);
          break;
        }
        default:
          return false;
      }
    }
    return false;
  }

  /// Skips one non-string value, nesting included (strings inside nested
  /// values are skipped escape-aware).
  void SkipValue() {
    int depth = 0;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') {
        std::string ignored;
        if (!String(&ignored)) return;
        continue;
      }
      if (c == '{' || c == '[') {
        ++depth;
      } else if (c == '}' || c == ']') {
        if (depth == 0) return;
        --depth;
      } else if (c == ',' && depth == 0) {
        return;
      }
      ++pos_;
    }
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

}  // namespace

std::optional<std::map<std::string, Member>> ReadObject(std::string_view json) {
  return TopLevelReader(json).Read();
}

}  // namespace perfbench
