// Extension benchmark: the latency/throughput/processors trade-offs of the
// paper's companion work (Vondran [14], "Optimization of latency,
// throughput and processors for pipelines of data parallel tasks").
//
// For each application: the minimum-latency mapping, the
// maximum-throughput mapping, the Pareto frontier between them (verified in
// the simulator), and the machine size needed to hit fractions of peak
// throughput.
#include <cstdio>

#include "engine/mapping_engine.h"
#include "sim/pipeline_sim.h"
#include "support/table.h"
#include "bench_util.h"

namespace pipemap::bench {
namespace {

int Run() {
  std::printf("Extension: latency/throughput/processors optimization\n\n");

  for (const char* which : {"fft", "radar"}) {
    const Workload w = which[0] == 'f'
                           ? workloads::MakeFftHist(256, CommMode::kMessage)
                           : workloads::MakeRadar(CommMode::kSystolic);
    PipelineSimulator sim(w.chain);
    SimOptions soptions;
    soptions.num_datasets = 400;
    soptions.warmup = 150;

    MappingEngine& engine = MappingEngine::Shared();
    MapRequest request;
    request.chain = &w.chain;
    request.machine = w.machine;
    request.machine_feasibility = false;

    std::printf("-- %s --\n", w.name.c_str());
    TextTable table({"Design point", "Mapping", "Thr pred", "Lat pred (ms)",
                     "Thr sim", "Lat sim (ms)"});
    const auto frontier = engine.Frontier(request, 6);
    for (std::size_t i = 0; i < frontier.size(); ++i) {
      const FrontierPoint& p = frontier[i];
      const SimResult r = sim.Run(p.mapping, soptions);
      std::string label = "frontier " + std::to_string(i + 1);
      if (i == 0) label += " (min latency)";
      if (i + 1 == frontier.size()) label += " (max throughput)";
      table.AddRow({label, p.mapping.ToString(w.chain),
                    TextTable::Num(p.throughput, 1),
                    TextTable::Num(1000 * p.latency, 2),
                    TextTable::Num(r.throughput, 1),
                    TextTable::Num(1000 * r.mean_latency, 2)});
    }
    std::fputs(table.Render().c_str(), stdout);

    TextTable sizing({"Target (ds/s)", "Min processors", "Achieved"});
    request.solver = SolverPolicy::kDp;
    const MapResponse peak = engine.Map(request);
    for (double fraction : {0.25, 0.5, 0.75, 1.0}) {
      const double target = fraction * peak.throughput;
      const ProcCountResult r = engine.MinProcs(request, target);
      sizing.AddRow({TextTable::Num(target, 1), TextTable::Num(r.procs),
                     TextTable::Num(r.throughput, 1)});
    }
    std::fputs(sizing.Render().c_str(), stdout);
    std::printf("\n");
  }
  std::printf(
      "Shape check: latency and throughput trade off monotonically along\n"
      "the frontier; hitting the last fraction of peak throughput costs a\n"
      "disproportionate share of the machine.\n");
  return 0;
}

}  // namespace
}  // namespace pipemap::bench

int main() { return pipemap::bench::Run(); }
