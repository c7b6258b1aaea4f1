// The daemon's map path, modelled in-process, and the answer check.
//
// ServeMap calls the layers PipemapServer::HandleMap calls, in the same
// order and with the same arguments. The traced replay runs it with a
// SpanLog to time each layer; the answer check runs it on a fresh engine
// with the cache off to get the reference mapping a response must equal.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "core/mapping.h"
#include "core/task.h"
#include "engine/mapping_engine.h"
#include "machine/machine.h"
#include "server/protocol.h"
#include "spans.h"

namespace perfbench {

/// One served map request. Holds the parsed chain the engine request
/// points at, so it is filled in place and never moved.
struct Served {
  std::optional<pipemap::TaskChain> chain;
  pipemap::MachineConfig machine;
  pipemap::MapRequest request;
  pipemap::MapResponse response;
  /// SerializeMapping of the feasible mapping, as the response carries it.
  std::string mapping;
  /// The response document.
  std::string json;

  Served() = default;
  Served(const Served&) = delete;
  Served& operator=(const Served&) = delete;
};

/// Runs `request` (op map, algorithm auto, objective throughput) through
/// chain and machine parse, MappingEngine::Map, HandleMap's second
/// Evaluator, MakeFeasible and the response encode. With `log` set, each
/// of those calls is a span under `parent`.
void ServeMap(pipemap::MappingEngine& engine,
              const pipemap::server::ServerRequest& request, bool use_cache,
              Served* out, SpanLog* log = nullptr, int parent = -1);

/// The mapping a fresh, uncached in-process solve of `payload` returns.
std::string ReferenceMapping(const std::string& payload);

/// The answer check. Returns "" when `response` is strict JSON with
/// ok: true, echoes `trace_id`, reports exact: true, is neither
/// timed_out nor degraded, and carries a mapping equal to
/// `*reference_mapping` (not compared when null); otherwise the first
/// check it fails.
std::string CheckAnswer(std::string_view response, std::uint64_t trace_id,
                        const std::string* reference_mapping);

/// The first part of CheckAnswer, for set-up traffic: strict JSON,
/// ok: true, and the trace id echoed.
std::string CheckReply(std::string_view response, std::uint64_t trace_id);

}  // namespace perfbench
