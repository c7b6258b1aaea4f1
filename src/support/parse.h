// Checked numeric parsing shared by every boundary that consumes
// untrusted text: CLI flag values, environment variables, server request
// fields, and the chain, machine and mapping text formats.
//
// std::atoi/std::stoi/std::stod alone are the wrong tool at a trust
// boundary: atoi silently turns garbage into 0, stoi accepts "3abc" and
// throws std::out_of_range as an unhandled crash on "1e999", and none of
// them reject trailing junk. These helpers parse the WHOLE token or
// refuse: they return nullopt on empty input, partial parses, overflow,
// and (for doubles) non-finite results, so callers fail loudly with
// their own error type instead of computing with silent garbage.
// Both are one std::from_chars call over the caller's bytes (no copy,
// exception or locale), correctly rounded for doubles.
#pragma once

#include <optional>
#include <string_view>

namespace pipemap {

/// Parses `text` as a base-10 int, sign optional ("+7"). The entire token
/// must be consumed and the value must fit; otherwise nullopt.
std::optional<int> TryParseInt(std::string_view text);

/// Parses `text` as a finite decimal double. The entire token must be
/// consumed; overflow ("1e999"), rounding to zero ("2e-324"), "inf",
/// "nan", hex floats and trailing garbage yield nullopt. Subnormals pass.
std::optional<double> TryParseDouble(std::string_view text);

}  // namespace pipemap
