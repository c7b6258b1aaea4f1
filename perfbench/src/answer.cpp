#include "answer.h"

#include <map>
#include <optional>

#include "json_read.h"

#include "core/evaluator.h"
#include "io/serialize.h"
#include "machine/feasible.h"
#include "support/error.h"
#include "support/json_verify.h"
#include "support/json_writer.h"
#include "support/trace_context.h"

namespace perfbench {
namespace {

std::string Literal(const std::map<std::string, Member>& members,
                    const char* key) {
  const auto it = members.find(key);
  return it == members.end() || it->second.is_string ? std::string()
                                                     : it->second.text;
}

/// Strict JSON, ok: true, and the trace id echoed; fills `members`.
std::string CheckEnvelope(std::string_view response, std::uint64_t trace_id,
                          std::map<std::string, Member>* members) {
  std::string error;
  if (!pipemap::IsValidJson(response, &error)) {
    return "not strict JSON (" + error + ")";
  }
  std::optional<std::map<std::string, Member>> read = ReadObject(response);
  if (!read) return "not a JSON object";
  *members = std::move(*read);
  if (Literal(*members, "ok") != "true") return "ok is not true";
  const auto id = members->find("trace_id");
  if (id == members->end() || !id->second.is_string ||
      id->second.text != pipemap::FormatTraceId(trace_id)) {
    return "trace id not echoed";
  }
  return "";
}

}  // namespace

void ServeMap(pipemap::MappingEngine& engine,
              const pipemap::server::ServerRequest& request, bool use_cache,
              Served* out, SpanLog* log, int parent) {
  PIPEMAP_CHECK(request.op == "map" && request.algorithm == "auto" &&
                    request.objective == "throughput" && request.has_chain &&
                    request.has_machine,
                "perfbench: ServeMap models auto/throughput map requests");
  {
    ScopedSpan span(log, "io.parse_chain", parent);
    out->chain.emplace(pipemap::ParseChain(request.chain_text));
  }
  {
    ScopedSpan span(log, "io.parse_machine", parent);
    out->machine = pipemap::ParseMachine(request.machine_text);
  }
  pipemap::MapRequest& mr = out->request;
  mr.chain = &*out->chain;
  mr.machine = out->machine;
  mr.total_procs =
      request.procs > 0 ? request.procs : out->machine.total_procs();
  mr.options.num_threads = request.threads;
  mr.use_cache = use_cache && request.use_cache;
  mr.trace_id = request.trace_id;
  {
    ScopedSpan span(log, "engine.map", parent);
    out->response = engine.Map(mr);
    if (log != nullptr) {
      const pipemap::MapResponse& r = out->response;
      log->Tag(span.id(), r.cache_hit      ? r.cache_tier
                          : r.shared_solve ? "shared"
                                           : "miss");
    }
  }
  pipemap::Mapping mapping;
  {
    std::optional<pipemap::Evaluator> eval;
    {
      ScopedSpan span(log, "core.evaluator", parent);
      eval.emplace(*out->chain, mr.total_procs,
                   out->machine.node_memory_bytes, request.threads);
    }
    ScopedSpan span(log, "machine.make_feasible", parent);
    mapping = pipemap::FeasibilityChecker(out->machine)
                  .MakeFeasible(out->response.mapping, *eval);
  }
  ScopedSpan span(log, "server.encode", parent);
  const pipemap::MapResponse& response = out->response;
  const bool deadline_expired = response.timed_out || response.budget_exhausted;
  out->mapping = pipemap::SerializeMapping(mapping);
  pipemap::JsonWriter w;
  w.BeginObject();
  w.Key("ok").Bool(true);
  w.Key("op").String("map");
  w.Key("degraded").Bool(false);
  w.Key("trace_id").String(pipemap::FormatTraceId(request.trace_id));
  w.Key("mapping").String(out->mapping);
  w.Key("objective_value").Double(response.objective_value);
  w.Key("throughput").Double(response.throughput);
  w.Key("latency").Double(response.latency);
  w.Key("solver").String(response.solver);
  w.Key("exact").Bool(response.exact);
  w.Key("cache_hit").Bool(response.cache_hit);
  w.Key("cache_tier").String(response.cache_tier);
  w.Key("shared_solve").Bool(response.shared_solve);
  w.Key("timed_out").Bool(response.timed_out);
  w.Key("budget_exhausted").Bool(response.budget_exhausted);
  w.Key("deadline_expired").Bool(deadline_expired);
  w.Key("solve_seconds").Double(response.solve_seconds);
  w.EndObject();
  out->json = w.str();
}

std::string ReferenceMapping(const std::string& payload) {
  const pipemap::server::ServerRequest request =
      pipemap::server::ParseServerRequest(payload);
  pipemap::MappingEngine engine;
  Served served;
  ServeMap(engine, request, /*use_cache=*/false, &served);
  return served.mapping;
}

std::string CheckReply(std::string_view response, std::uint64_t trace_id) {
  std::map<std::string, Member> members;
  return CheckEnvelope(response, trace_id, &members);
}

std::string CheckAnswer(std::string_view response, std::uint64_t trace_id,
                        const std::string* reference_mapping) {
  std::map<std::string, Member> members;
  std::string failure = CheckEnvelope(response, trace_id, &members);
  if (!failure.empty()) return failure;
  if (Literal(members, "exact") != "true") return "exact is not true";
  if (Literal(members, "timed_out") != "false") return "timed_out is not false";
  if (Literal(members, "degraded") != "false") return "degraded is not false";
  const auto mapping = members.find("mapping");
  if (mapping == members.end() || !mapping->second.is_string) {
    return "no mapping";
  }
  if (reference_mapping != nullptr &&
      mapping->second.text != *reference_mapping) {
    return "mapping differs from the reference solve";
  }
  return "";
}

}  // namespace perfbench
