// Per-request trace identity, carried end to end through the server
// stack: frame decode → admission queue → solver worker → MappingEngine
// → response encode. The id is a 64-bit token rendered as exactly 16
// lowercase hex digits on every external surface (protocol field, JSON
// responses, access-log lines, Chrome-trace span args), so one grep — or
// tools/trace_join.py — follows a single request across all of them.
//
// Ids are either client-supplied (the `trace_id` protocol field) or
// generated at admission; 0 means "no trace id assigned", and generated
// and parsed ids are never zero. Generation must be cheap and collision-free
// within a process: a per-process random seed is mixed with a monotone
// counter through a splitmix64 finalizer, so concurrent admitters never
// hand out the same id and ids do not reveal the request count.
//
// This is identity plumbing, not instrumentation: responses echo trace
// ids whether or not spans, metrics and access-log lines are recorded
// about them.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace pipemap {

/// A fresh process-unique trace id (never 0). Thread-safe, lock-free.
std::uint64_t GenerateTraceId();

/// Canonical wire form: exactly 16 lowercase hex digits, zero-padded.
std::string FormatTraceId(std::uint64_t trace_id);

/// Parses a client-supplied id: 1–16 hex digits (either case), value
/// must be nonzero. Returns nullopt on anything else — the caller turns
/// that into a protocol error rather than guessing.
std::optional<std::uint64_t> ParseTraceId(std::string_view text);

}  // namespace pipemap
