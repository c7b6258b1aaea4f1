// Text serialization for chains, cost models, mappings, and machines.
//
// A mapping tool lives in a workflow: profiles are collected on the
// machine, models are fitted and stored, mappings are computed offline and
// shipped back. This module defines a line-oriented, human-diffable text
// format for those artifacts.
//
// Cost functions are persisted exactly when they are Section-5 polynomials
// or tabulated samples; arbitrary callback functions (e.g. workload ground
// truth) are sampled onto a grid at serialization time and round-trip as
// tabulated/interpolated models — which is also precisely what a real tool
// could know about a machine it only observes through measurements.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "core/mapping.h"
#include "core/task.h"
#include "machine/machine.h"

namespace pipemap {

/// Serializes `chain` (tasks, replicability, memory, cost model).
/// Polynomial and tabulated cost functions are written exactly (a
/// tabulated pair cost as its filled grid). Callback cost functions are
/// sampled at processor counts 1..max_procs (pair costs on a grid that is
/// dense to 16 and then takes eight strides up to max_procs).
std::string SerializeChain(const TaskChain& chain, int max_procs);

/// Parses a chain serialized by SerializeChain. Throws
/// pipemap::InvalidArgument on malformed input.
TaskChain ParseChain(std::string_view text);

/// Serializes a mapping.
std::string SerializeMapping(const Mapping& mapping);

/// Parses a mapping serialized by SerializeMapping.
Mapping ParseMapping(std::string_view text);

/// Serializes a machine configuration.
std::string SerializeMachine(const MachineConfig& machine);

/// Parses a machine configuration.
MachineConfig ParseMachine(std::string_view text);

/// File helpers; throw pipemap::InvalidArgument on I/O failure.
void WriteTextFile(const std::string& path, const std::string& content);
std::string ReadTextFile(const std::string& path);

}  // namespace pipemap
