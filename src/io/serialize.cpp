#include "io/serialize.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <limits>
#include <optional>
#include <sstream>
#include <vector>

#include "costmodel/piecewise.h"
#include "costmodel/poly.h"
#include "support/error.h"
#include "support/parse.h"

namespace pipemap {
namespace {

/// Formats a double with enough digits to round-trip exactly.
std::string Num(double v) {
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

/// Upper bound on any parsed sample/element count. Parsers allocate what the
/// count line promises, so an unvalidated count is an allocation bomb; no
/// legitimate workload comes close to this.
constexpr std::size_t kMaxParsedSamples = 1u << 20;

/// Grid of processor counts used when sampling a callback pair cost.
/// Dense for small counts, where the 1/p structure of communication costs
/// is steep and linear interpolation would otherwise be poor, then strided
/// up to max_procs.
std::vector<int> SampleAxis(int max_procs) {
  std::vector<int> axis;
  const int dense_until = std::min(16, max_procs);
  for (int p = 1; p <= dense_until; ++p) axis.push_back(p);
  const int stride = std::max(1, (max_procs - dense_until) / 8);
  for (int p = dense_until + stride; p <= max_procs; p += stride) {
    axis.push_back(p);
  }
  if (axis.back() != max_procs) axis.push_back(max_procs);
  return axis;
}

void WriteScalar(std::ostream& os, const std::string& prefix,
                 const ScalarCost& fn, int max_procs) {
  if (const auto* poly = dynamic_cast<const PolyScalarCost*>(&fn)) {
    os << prefix << " poly " << Num(poly->coeffs()[0]) << " "
       << Num(poly->coeffs()[1]) << " " << Num(poly->coeffs()[2]) << "\n";
    return;
  }
  if (const auto* tab = dynamic_cast<const TabulatedScalarCost*>(&fn)) {
    os << prefix << " tab " << tab->samples().size();
    for (const auto& [p, t] : tab->samples()) {
      os << " " << p << " " << Num(t);
    }
    os << "\n";
    return;
  }
  // Arbitrary function: sample every processor count.
  os << prefix << " tab " << max_procs;
  for (int p = 1; p <= max_procs; ++p) {
    os << " " << p << " " << Num(fn.Eval(p));
  }
  os << "\n";
}

void WritePair(std::ostream& os, const std::string& prefix,
               const PairCost& fn, int max_procs) {
  if (const auto* poly = dynamic_cast<const PolyPairCost*>(&fn)) {
    os << prefix << " poly";
    for (double c : poly->coeffs()) os << " " << Num(c);
    os << "\n";
    return;
  }
  // A tabulated cost is written as its grid, cell for cell, which parses
  // back to the same axes and grid; any other function is sampled on
  // SampleAxis.
  const auto* tab = dynamic_cast<const TabulatedPairCost*>(&fn);
  const bool exact = tab != nullptr && tab->grid().size() <= kMaxParsedSamples;
  const std::vector<int> axis =
      exact ? std::vector<int>() : SampleAxis(max_procs);
  const std::vector<int>& senders = exact ? tab->sender_axis() : axis;
  const std::vector<int>& receivers = exact ? tab->receiver_axis() : axis;
  os << prefix << " tab " << senders.size() * receivers.size();
  for (std::size_t si = 0; si < senders.size(); ++si) {
    for (std::size_t ri = 0; ri < receivers.size(); ++ri) {
      const double v = exact ? tab->grid()[si * receivers.size() + ri]
                             : fn.Eval(senders[si], receivers[ri]);
      os << " " << senders[si] << " " << receivers[ri] << " " << Num(v);
    }
  }
  os << "\n";
}

/// Whitespace as operator>> skips it in the C locale: ' ' and \t..\r.
bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

/// One pass over a document, copying nothing. NextLine() steps to the next
/// line that is neither empty nor a '#' comment; Token() and Read() take
/// its whitespace-separated tokens in order (the rest of a line is
/// ignored), numbers whole through support/parse.
class Cursor {
 public:
  explicit Cursor(std::string_view text) : rest_(text) {}

  bool NextLine() {
    while (!rest_.empty()) {
      const std::size_t end = std::min(rest_.find('\n'), rest_.size());
      line_ = unread_ = rest_.substr(0, end);
      rest_.remove_prefix(std::min(end + 1, rest_.size()));
      if (!line_.empty() && line_.front() != '#') return true;
    }
    return false;
  }

  std::string_view line() const { return line_; }

  /// The next token of the line; empty once the line is used up.
  std::string_view Token() {
    std::size_t begin = 0;
    while (begin < unread_.size() && IsSpace(unread_[begin])) ++begin;
    std::size_t end = begin;
    while (end < unread_.size() && !IsSpace(unread_[end])) ++end;
    const std::string_view token = unread_.substr(begin, end - begin);
    unread_.remove_prefix(end);
    return token;
  }

  bool Expect(std::string_view keyword) { return Token() == keyword; }

  /// Each reads the next token; false, with `out` untouched, when it is
  /// missing or does not parse whole.
  bool Read(std::string_view& out) { return !(out = Token()).empty(); }
  bool Read(int& out) { return Store(TryParseInt(Token()), out); }
  bool Read(double& out) { return Store(TryParseDouble(Token()), out); }

 private:
  template <typename T>
  static bool Store(const std::optional<T>& v, T& out) {
    if (v) out = *v;
    return v.has_value();
  }

  std::string_view rest_;    // the text after the current line
  std::string_view line_;    // the current line
  std::string_view unread_;  // its tokens not read yet
};

/// Reads a sample count in [1, kMaxParsedSamples].
bool ReadCount(Cursor& in, int& n) {
  return in.Read(n) && n >= 1 &&
         static_cast<std::size_t>(n) <= kMaxParsedSamples;
}

/// Reads a cost term: a poly coefficient or a sampled time. None may be
/// negative (NaN fails too), so every parsed cost is >= 0 at p >= 1; the
/// DP's pruning bounds rely on it.
bool ReadCost(Cursor& in, double& out) { return in.Read(out) && out >= 0.0; }

std::unique_ptr<ScalarCost> ReadScalar(Cursor& in,
                                       const std::string& context) {
  const std::string_view kind = in.Token();
  PIPEMAP_CHECK(!kind.empty(),
                "chain parse: missing scalar kind in " + context);
  if (kind == "poly") {
    double c1 = 0, c2 = 0, c3 = 0;
    PIPEMAP_CHECK(ReadCost(in, c1) && ReadCost(in, c2) && ReadCost(in, c3),
                  "chain parse: bad poly coefficients in " + context);
    return std::make_unique<PolyScalarCost>(c1, c2, c3);
  }
  if (kind == "tab") {
    int n = 0;
    PIPEMAP_CHECK(ReadCount(in, n),
                  "chain parse: bad sample count in " + context);
    std::vector<std::pair<int, double>> samples(n);
    for (auto& [p, t] : samples) {
      PIPEMAP_CHECK(in.Read(p) && ReadCost(in, t) && p >= 1,
                    "chain parse: bad sample in " + context);
    }
    return std::make_unique<TabulatedScalarCost>(std::move(samples));
  }
  throw InvalidArgument("chain parse: unknown scalar kind '" +
                        std::string(kind) + "' in " + context);
}

std::unique_ptr<PairCost> ReadPair(Cursor& in, const std::string& context) {
  const std::string_view kind = in.Token();
  PIPEMAP_CHECK(!kind.empty(), "chain parse: missing pair kind in " + context);
  if (kind == "poly") {
    std::array<double, 5> c{};
    for (double& v : c) {
      PIPEMAP_CHECK(ReadCost(in, v),
                    "chain parse: bad poly coefficients in " + context);
    }
    return std::make_unique<PolyPairCost>(c);
  }
  if (kind == "tab") {
    int n = 0;
    PIPEMAP_CHECK(ReadCount(in, n),
                  "chain parse: bad sample count in " + context);
    std::vector<TabulatedPairCost::Sample> samples(n);
    for (TabulatedPairCost::Sample& s : samples) {
      PIPEMAP_CHECK(in.Read(s.sender_procs) && in.Read(s.receiver_procs) &&
                        ReadCost(in, s.seconds) && s.sender_procs >= 1 &&
                        s.receiver_procs >= 1,
                    "chain parse: bad sample in " + context);
    }
    return std::make_unique<TabulatedPairCost>(std::move(samples));
  }
  throw InvalidArgument("chain parse: unknown pair kind '" +
                        std::string(kind) + "' in " + context);
}

}  // namespace

std::string SerializeChain(const TaskChain& chain, int max_procs) {
  PIPEMAP_CHECK(max_procs >= 1, "SerializeChain: max_procs must be >= 1");
  const ChainCostModel& costs = chain.costs();
  std::ostringstream os;
  os << "pipemap-chain v1\n";
  os << "tasks " << chain.size() << " max_procs " << max_procs << "\n";
  for (int t = 0; t < chain.size(); ++t) {
    const std::string& name = chain.task(t).name;
    PIPEMAP_CHECK(name.find_first_of(" \t\n") == std::string::npos,
                  "SerializeChain: task names must not contain whitespace");
    os << "task " << t << " replicable " << (chain.task(t).replicable ? 1 : 0)
       << " mem_fixed " << Num(costs.Memory(t).fixed_bytes) << " mem_dist "
       << Num(costs.Memory(t).distributed_bytes) << " name " << name << "\n";
    WriteScalar(os, "exec " + std::to_string(t), costs.ExecFn(t), max_procs);
  }
  for (int e = 0; e < costs.num_edges(); ++e) {
    WriteScalar(os, "icom " + std::to_string(e), costs.IComFn(e), max_procs);
    WritePair(os, "ecom " + std::to_string(e), costs.EComFn(e), max_procs);
  }
  os << "end\n";
  return os.str();
}

TaskChain ParseChain(std::string_view text) {
  Cursor in(text);
  PIPEMAP_CHECK(in.NextLine() && in.line() == "pipemap-chain v1",
                "chain parse: bad header");
  PIPEMAP_CHECK(in.NextLine(), "chain parse: missing size line");
  int k = 0, max_procs = 0;
  PIPEMAP_CHECK(in.Expect("tasks") && in.Read(k) && in.Expect("max_procs") &&
                    in.Read(max_procs) && k >= 1 &&
                    static_cast<std::size_t>(k) <= kMaxParsedSamples &&
                    max_procs >= 1,
                "chain parse: bad size line: " + std::string(in.line()));

  std::vector<Task> tasks(k);
  std::vector<MemorySpec> memory(k);
  std::vector<std::unique_ptr<ScalarCost>> exec(k);
  std::vector<std::unique_ptr<ScalarCost>> icom(std::max(0, k - 1));
  std::vector<std::unique_ptr<PairCost>> ecom(std::max(0, k - 1));

  while (in.NextLine() && in.line() != "end") {
    const std::string_view kw = in.Token();
    if (kw == "task") {
      int t = 0, replicable = 0;
      double fixed = 0, dist = 0;
      std::string_view name;
      PIPEMAP_CHECK(in.Read(t) && in.Expect("replicable") &&
                        in.Read(replicable) && in.Expect("mem_fixed") &&
                        in.Read(fixed) && in.Expect("mem_dist") &&
                        in.Read(dist) && in.Expect("name") && in.Read(name) &&
                        t >= 0 && t < k && fixed >= 0 && dist >= 0,
                    "chain parse: bad task line: " + std::string(in.line()));
      tasks[t] = Task{std::string(name), replicable != 0};
      memory[t] = MemorySpec{fixed, dist};
    } else if (kw == "exec") {
      int t = 0;
      PIPEMAP_CHECK(in.Read(t) && t >= 0 && t < k,
                    "chain parse: bad exec index");
      exec[t] = ReadScalar(in, "exec " + std::to_string(t));
    } else if (kw == "icom") {
      int e = 0;
      PIPEMAP_CHECK(in.Read(e) && e >= 0 && e < k - 1,
                    "chain parse: bad icom index");
      icom[e] = ReadScalar(in, "icom " + std::to_string(e));
    } else if (kw == "ecom") {
      int e = 0;
      PIPEMAP_CHECK(in.Read(e) && e >= 0 && e < k - 1,
                    "chain parse: bad ecom index");
      ecom[e] = ReadPair(in, "ecom " + std::to_string(e));
    } else {
      throw InvalidArgument("chain parse: unknown line: " +
                            std::string(in.line()));
    }
  }

  ChainCostModel costs;
  for (int t = 0; t < k; ++t) {
    PIPEMAP_CHECK(exec[t] != nullptr,
                  "chain parse: missing exec for task " + std::to_string(t));
    costs.AddTask(std::move(exec[t]), memory[t]);
  }
  for (int e = 0; e < k - 1; ++e) {
    PIPEMAP_CHECK(icom[e] != nullptr && ecom[e] != nullptr,
                  "chain parse: missing edge " + std::to_string(e));
    costs.SetEdge(e, std::move(icom[e]), std::move(ecom[e]));
  }
  return TaskChain(std::move(tasks), std::move(costs));
}

std::string SerializeMapping(const Mapping& mapping) {
  std::ostringstream os;
  os << "pipemap-mapping v1\n";
  os << "modules " << mapping.num_modules() << "\n";
  for (const ModuleAssignment& m : mapping.modules) {
    os << "module " << m.first_task << " " << m.last_task << " "
       << m.replicas << " " << m.procs_per_instance << "\n";
  }
  os << "end\n";
  return os.str();
}

Mapping ParseMapping(std::string_view text) {
  Cursor in(text);
  PIPEMAP_CHECK(in.NextLine() && in.line() == "pipemap-mapping v1",
                "mapping parse: bad header");
  PIPEMAP_CHECK(in.NextLine(), "mapping parse: missing modules line");
  int count = 0;
  PIPEMAP_CHECK(in.Expect("modules") && in.Read(count) && count >= 0,
                "mapping parse: bad modules line");
  Mapping mapping;
  while (in.NextLine() && in.line() != "end") {
    ModuleAssignment m;
    PIPEMAP_CHECK(in.Expect("module") && in.Read(m.first_task) &&
                      in.Read(m.last_task) && in.Read(m.replicas) &&
                      in.Read(m.procs_per_instance) && m.first_task >= 0 &&
                      m.last_task >= m.first_task && m.replicas >= 1 &&
                      m.procs_per_instance >= 1,
                  "mapping parse: bad module line: " + std::string(in.line()));
    mapping.modules.push_back(m);
  }
  PIPEMAP_CHECK(mapping.num_modules() == count,
                "mapping parse: module count mismatch");
  return mapping;
}

std::string SerializeMachine(const MachineConfig& machine) {
  std::ostringstream os;
  os << "pipemap-machine v1\n";
  os << "name " << machine.name << "\n";
  os << "grid " << machine.grid_rows << " " << machine.grid_cols << "\n";
  os << "node_memory_bytes " << Num(machine.node_memory_bytes) << "\n";
  os << "comm_mode "
     << (machine.comm_mode == CommMode::kSystolic ? "systolic" : "message")
     << "\n";
  os << "node_flops " << Num(machine.node_flops) << "\n";
  os << "msg_overhead_s " << Num(machine.msg_overhead_s) << "\n";
  os << "transfer_startup_s " << Num(machine.transfer_startup_s) << "\n";
  os << "node_bandwidth " << Num(machine.node_bandwidth) << "\n";
  os << "sync_per_proc_s " << Num(machine.sync_per_proc_s) << "\n";
  os << "pathways_per_link " << machine.pathways_per_link << "\n";
  os << "end\n";
  return os.str();
}

MachineConfig ParseMachine(std::string_view text) {
  Cursor in(text);
  PIPEMAP_CHECK(in.NextLine() && in.line() == "pipemap-machine v1",
                "machine parse: bad header");
  MachineConfig machine;
  while (in.NextLine() && in.line() != "end") {
    const std::string_view kw = in.Token();
    bool ok = true;
    if (kw == "name") {
      std::string_view name;
      ok = in.Read(name);
      machine.name = name;
    } else if (kw == "grid") {
      ok = in.Read(machine.grid_rows) && in.Read(machine.grid_cols);
    } else if (kw == "node_memory_bytes") {
      ok = in.Read(machine.node_memory_bytes);
    } else if (kw == "comm_mode") {
      const std::string_view mode = in.Token();
      ok = mode == "systolic" || mode == "message";
      machine.comm_mode =
          mode == "systolic" ? CommMode::kSystolic : CommMode::kMessage;
    } else if (kw == "node_flops") {
      ok = in.Read(machine.node_flops);
    } else if (kw == "msg_overhead_s") {
      ok = in.Read(machine.msg_overhead_s);
    } else if (kw == "transfer_startup_s") {
      ok = in.Read(machine.transfer_startup_s);
    } else if (kw == "node_bandwidth") {
      ok = in.Read(machine.node_bandwidth);
    } else if (kw == "sync_per_proc_s") {
      ok = in.Read(machine.sync_per_proc_s);
    } else if (kw == "pathways_per_link") {
      ok = in.Read(machine.pathways_per_link);
    } else {
      throw InvalidArgument("machine parse: unknown key '" + std::string(kw) +
                            "'");
    }
    PIPEMAP_CHECK(ok, "machine parse: bad value in line: " +
                          std::string(in.line()));
  }
  // Reject configurations the solvers would turn into NaN throughputs or
  // division-by-zero: every rate must be finite and positive, every
  // overhead finite and non-negative, and the grid non-empty, with an
  // area that fits total_procs()'s int.
  PIPEMAP_CHECK(machine.grid_rows >= 1 && machine.grid_cols >= 1,
                "machine parse: grid must be at least 1x1");
  PIPEMAP_CHECK(std::int64_t{machine.grid_rows} * machine.grid_cols <=
                    std::numeric_limits<int>::max(),
                "machine parse: grid area must fit an int");
  PIPEMAP_CHECK(std::isfinite(machine.node_memory_bytes) &&
                    machine.node_memory_bytes > 0,
                "machine parse: node_memory_bytes must be finite and > 0");
  PIPEMAP_CHECK(std::isfinite(machine.node_flops) && machine.node_flops > 0,
                "machine parse: node_flops must be finite and > 0");
  PIPEMAP_CHECK(std::isfinite(machine.node_bandwidth) &&
                    machine.node_bandwidth > 0,
                "machine parse: node_bandwidth must be finite and > 0");
  PIPEMAP_CHECK(std::isfinite(machine.msg_overhead_s) &&
                    machine.msg_overhead_s >= 0,
                "machine parse: msg_overhead_s must be finite and >= 0");
  PIPEMAP_CHECK(std::isfinite(machine.transfer_startup_s) &&
                    machine.transfer_startup_s >= 0,
                "machine parse: transfer_startup_s must be finite and >= 0");
  PIPEMAP_CHECK(std::isfinite(machine.sync_per_proc_s) &&
                    machine.sync_per_proc_s >= 0,
                "machine parse: sync_per_proc_s must be finite and >= 0");
  PIPEMAP_CHECK(machine.pathways_per_link >= 1,
                "machine parse: pathways_per_link must be >= 1");
  return machine;
}

void WriteTextFile(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  PIPEMAP_CHECK(out.good(), "cannot open for writing: " + path);
  out << content;
  PIPEMAP_CHECK(out.good(), "write failed: " + path);
}

std::string ReadTextFile(const std::string& path) {
  std::ifstream in(path);
  PIPEMAP_CHECK(in.good(), "cannot open for reading: " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

}  // namespace pipemap
