#include "problems.h"

#include <utility>

#include "bench/bench_util.h"
#include "io/serialize.h"
#include "server/protocol.h"
#include "support/error.h"
#include "support/trace_context.h"
#include "workloads/synthetic.h"

namespace perfbench {
namespace {

// Seed domains, so that no two kinds of draw ever share a stream.
enum Domain : std::uint64_t {
  kFresh = 2,
  kTrace = 4,
  kOrder = 5,
};

constexpr int kTable2Procs = 64;
constexpr int kColdTasks = 10;
constexpr int kColdProcs = 128;
/// cold_dp checks every kColdCheckStride-th request of each caller
/// against a reference, up to kColdCheckMax of them.
constexpr std::int64_t kColdCheckStride = 8;
constexpr std::int64_t kColdCheckMax = 24;

std::uint64_t SplitMix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t Key(std::uint64_t seed, Domain domain, std::uint64_t a,
                  std::uint64_t b) {
  return SplitMix(SplitMix(SplitMix(SplitMix(seed) ^ domain) ^ a) ^ b);
}

std::uint64_t Lane(Phase phase, int caller) {
  return static_cast<std::uint64_t>(phase) * kCallers +
         static_cast<std::uint64_t>(caller);
}

Problem MakeProblem(const pipemap::Workload& workload, int procs) {
  pipemap::server::ServerRequest request;
  request.op = "map";
  request.trace_id = ~std::uint64_t{0};  // placeholder, stamped per send
  request.procs = procs;
  request.threads = 1;
  request.chain_text = pipemap::SerializeChain(workload.chain, procs);
  request.has_chain = true;
  request.machine_text = pipemap::SerializeMachine(workload.machine);
  request.has_machine = true;
  Problem problem;
  problem.payload = pipemap::server::SerializeServerRequest(request);
  const std::string marker = "\ntrace_id ";
  problem.trace_offset = problem.payload.find(marker) + marker.size();
  return problem;
}


}  // namespace

std::optional<WorkloadKind> ParseWorkloadKind(std::string_view name) {
  if (name == "table2_hot") return WorkloadKind::kTable2Hot;
  if (name == "cold_dp") return WorkloadKind::kColdDp;
  return std::nullopt;
}

const char* WorkloadName(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kTable2Hot:
      return "table2_hot";
    case WorkloadKind::kColdDp:
      return "cold_dp";
  }
  return "unknown";
}

void StampTraceId(std::string* payload, std::size_t offset,
                  std::uint64_t trace_id) {
  const std::string hex = pipemap::FormatTraceId(trace_id);
  payload->replace(offset, hex.size(), hex);
}

Plan::Plan(WorkloadKind kind, std::uint64_t seed) : kind_(kind), seed_(seed) {
  if (kind_ != WorkloadKind::kTable2Hot) return;
  for (const pipemap::bench::NamedWorkload& config :
       pipemap::bench::Table2Configs()) {
    PIPEMAP_CHECK(config.workload.machine.total_procs() == kTable2Procs,
                  "perfbench: Table-2 machines are 64 cells");
    fill_.push_back(MakeProblem(config.workload, kTable2Procs));
  }
  // A seeded round-robin order per caller and phase (Fisher-Yates).
  for (const Phase phase : {Phase::kWarmup, Phase::kWindow}) {
    for (int c = 0; c < kCallers; ++c) {
      std::vector<int>& order = order_[static_cast<int>(phase)][c];
      for (int i = 0; i < static_cast<int>(fill_.size()); ++i) {
        order.push_back(i);
      }
      for (int i = static_cast<int>(order.size()) - 1; i > 0; --i) {
        const std::uint64_t r = Key(seed_, kOrder, Lane(phase, c),
                                    static_cast<std::uint64_t>(i));
        std::swap(order[static_cast<std::size_t>(i)],
                  order[r % static_cast<std::uint64_t>(i + 1)]);
      }
    }
  }
}

int Plan::warmup_requests() const {
  // cold_dp's first solves in a fresh daemon fault in its per-worker heaps
  // (about 2.4 GB), at a cost that varies twofold from run to run; steady
  // solves after them keep that from dominating setup_s.
  return kind_ == WorkloadKind::kTable2Hot ? 48 : 24;
}

int Plan::Draw(Phase phase, int caller, std::int64_t i) const {
  if (kind_ == WorkloadKind::kColdDp) return -1;
  const std::vector<int>& order = order_[static_cast<int>(phase)][caller];
  return order[static_cast<std::size_t>(i) % order.size()];
}

Problem Plan::Fresh(Phase phase, int caller, std::int64_t i) const {
  PIPEMAP_CHECK(kind_ == WorkloadKind::kColdDp,
                "perfbench: table2_hot has no never-seen problems");
  pipemap::workloads::SyntheticSpec spec;
  spec.num_tasks = kColdTasks;
  spec.machine_procs = kColdProcs;
  const std::uint64_t seed =
      Key(seed_, kFresh, Lane(phase, caller), static_cast<std::uint64_t>(i));
  return MakeProblem(pipemap::workloads::MakeSynthetic(spec, seed), kColdProcs);
}

std::uint64_t Plan::TraceId(Phase phase, int caller, std::int64_t i) const {
  const std::uint64_t id =
      Key(seed_, kTrace, Lane(phase, caller), static_cast<std::uint64_t>(i));
  return id == 0 ? 1 : id;
}

bool Plan::ChecksFresh(std::int64_t i) const {
  return i % kColdCheckStride == 0 && i / kColdCheckStride < kColdCheckMax;
}

void Stream::Reserve(std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    if (plan_->Draw(phase_, caller_, i) < 0 && !fresh_.count(i)) {
      fresh_.emplace(i, plan_->Fresh(phase_, caller_, i));
    }
  }
}

const Problem& Stream::Get(std::int64_t i) {
  const int draw = plan_->Draw(phase_, caller_, i);
  if (draw >= 0) return plan_->fill()[static_cast<std::size_t>(draw)];
  auto it = fresh_.find(i);
  if (it == fresh_.end()) {
    it = fresh_.emplace(i, plan_->Fresh(phase_, caller_, i)).first;
  }
  return it->second;
}

}  // namespace perfbench
