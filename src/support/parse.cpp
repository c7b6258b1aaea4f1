#include "support/parse.h"

#include <charconv>
#include <cmath>

namespace pipemap {

namespace {

/// std::from_chars over the whole token. It takes no '+', so one leading
/// '+' is stripped first ("+7"), but not before a '-' ("+-7"); leading
/// whitespace is refused like any other non-numeric byte.
template <typename T>
std::optional<T> WholeToken(std::string_view text) {
  if (!text.empty() && text.front() == '+') {
    text.remove_prefix(1);
    if (!text.empty() && text.front() == '-') return std::nullopt;
  }
  T v{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return v;
}

}  // namespace

std::optional<int> TryParseInt(std::string_view text) {
  return WholeToken<int>(text);
}

std::optional<double> TryParseDouble(std::string_view text) {
  const std::optional<double> v = WholeToken<double>(text);
  if (v && !std::isfinite(*v)) return std::nullopt;
  return v;
}

}  // namespace pipemap
