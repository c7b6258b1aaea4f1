// A reader for the JSON documents the daemon returns.
//
// The repository deliberately has no JSON parser, only the strict
// validator in support/json_verify.h. The benchmark needs a few fields
// back out of documents that validator already accepted: the top-level
// members of a map response.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>

namespace perfbench {

/// A member value: strings decoded, every other value kept as its
/// literal text ("true", "1.5", "{...}").
struct Member {
  bool is_string = false;
  std::string text;
};

/// The members of the JSON object `json`; nullopt when it is not one.
std::optional<std::map<std::string, Member>> ReadObject(std::string_view json);

}  // namespace perfbench
