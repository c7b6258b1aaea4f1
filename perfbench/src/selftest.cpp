// The answer check's own tests: a correct response passes, and each way
// a response can be wrong is rejected for the right reason.
#include <cstdio>
#include <string>
#include <vector>

#include "answer.h"
#include "commands.h"
#include "server/protocol.h"

namespace perfbench {
namespace {

/// `text` with the first occurrence of `from` replaced by `to`.
std::string Replace(std::string text, const std::string& from,
                    const std::string& to) {
  const std::size_t at = text.find(from);
  if (at != std::string::npos) text.replace(at, from.size(), to);
  return text;
}

/// `json` with the first digit of its mapping changed.
std::string PerturbMapping(std::string json) {
  const std::string key = "\"mapping\": \"";
  for (std::size_t i = json.find(key) + key.size(); i < json.size(); ++i) {
    if (json[i] >= '0' && json[i] <= '9') {
      json[i] = json[i] == '9' ? '8' : static_cast<char>(json[i] + 1);
      break;
    }
  }
  return json;
}

}  // namespace

int Selftest() {
  const Plan plan(WorkloadKind::kTable2Hot, 1);
  const Problem& problem = plan.fill().front();
  const std::uint64_t trace_id = 0x5e1f7e57ull;
  std::string payload = problem.payload;
  StampTraceId(&payload, problem.trace_offset, trace_id);
  pipemap::MappingEngine engine;
  Served served;
  ServeMap(engine, pipemap::server::ParseServerRequest(payload),
           /*use_cache=*/true, &served);
  const std::string reference = ReferenceMapping(problem.payload);
  const std::string& good = served.json;

  struct Case {
    const char* name;
    std::string response;
    std::uint64_t trace_id;
    std::string expected;  // "" = must pass
  };
  const std::vector<Case> cases = {
      {"correct response", good, trace_id, ""},
      {"perturbed mapping", PerturbMapping(good), trace_id,
       "mapping differs from the reference solve"},
      {"wrong trace id", good, trace_id + 1, "trace id not echoed"},
      {"not JSON", good.substr(0, good.size() / 2), trace_id,
       "not strict JSON"},
      {"error response",
       Replace(good, "\"ok\": true", "\"ok\": false"), trace_id,
       "ok is not true"},
      {"inexact", Replace(good, "\"exact\": true", "\"exact\": false"),
       trace_id, "exact is not true"},
      {"timed out",
       Replace(good, "\"timed_out\": false", "\"timed_out\": true"), trace_id,
       "timed_out is not false"},
      {"degraded", Replace(good, "\"degraded\": false", "\"degraded\": true"),
       trace_id, "degraded is not false"},
  };
  int failures = 0;
  for (const Case& c : cases) {
    const std::string got = CheckAnswer(c.response, c.trace_id, &reference);
    const bool ok = c.expected.empty() ? got.empty()
                                       : got.rfind(c.expected, 0) == 0;
    std::fprintf(stderr, "selftest %-18s %s%s%s\n", c.name,
                 ok ? "ok" : "FAILED", got.empty() ? "" : ": ", got.c_str());
    if (!ok) ++failures;
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
