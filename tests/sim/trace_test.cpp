#include "sim/trace.h"

#include <gtest/gtest.h>

#include "sim/pipeline_sim.h"
#include "support/error.h"
#include "../test_util.h"

namespace pipemap {
namespace {

using testing::BuildChain;
using testing::EdgeSpec;
using testing::TaskSpec;

SimResult TracedRun(const TaskChain& chain, const Mapping& mapping, int n) {
  PipelineSimulator sim(chain);
  SimOptions options;
  options.num_datasets = n;
  options.warmup = 0;
  options.collect_trace = true;
  return sim.Run(mapping, options);
}

TaskChain TwoTaskChain() {
  return BuildChain(
      {TaskSpec{1.0, 0.0, 0.0, 1}, TaskSpec{2.0, 0.0, 0.0, 1}},
      {EdgeSpec{0, 0, 0, /*e_fixed=*/0.5, 0, 0, 0, 0}});
}

Mapping TwoSingletons() {
  Mapping m;
  m.modules.push_back(ModuleAssignment{0, 0, 1, 1});
  m.modules.push_back(ModuleAssignment{1, 1, 1, 1});
  return m;
}

TEST(TraceTest, EventCountsMatchActivities) {
  const TaskChain chain = TwoTaskChain();
  const SimResult result = TracedRun(chain, TwoSingletons(), 5);
  ASSERT_TRUE(result.trace.has_value());
  // Per data set: compute at m0, send+receive pair for the edge, compute
  // at m1 -> 4 events.
  EXPECT_EQ(result.trace->events.size(), 5u * 4u);
}

TEST(TraceTest, InstanceTimelineIsOrderedAndNonOverlapping) {
  const TaskChain chain = TwoTaskChain();
  const SimResult result = TracedRun(chain, TwoSingletons(), 8);
  for (int m = 0; m < 2; ++m) {
    const auto timeline = result.trace->InstanceTimeline(m, 0);
    ASSERT_FALSE(timeline.empty());
    for (std::size_t i = 0; i < timeline.size(); ++i) {
      EXPECT_LE(timeline[i].start, timeline[i].end);
      EXPECT_GE(timeline[i].start, 0.0);
      EXPECT_LE(timeline[i].end, result.trace->makespan + 1e-9);
      if (i > 0) {
        EXPECT_GE(timeline[i].start, timeline[i - 1].end - 1e-9)
            << "overlapping events on instance " << m;
      }
    }
  }
}

TEST(TraceTest, SendAndReceiveShareTheInterval) {
  // Rendezvous semantics: the sender's kSend and the receiver's kReceive
  // for the same data set cover the identical time window.
  const TaskChain chain = TwoTaskChain();
  const SimResult result = TracedRun(chain, TwoSingletons(), 4);
  std::vector<const TraceEvent*> sends, receives;
  for (const TraceEvent& e : result.trace->events) {
    if (e.phase == TraceEvent::Phase::kSend) sends.push_back(&e);
    if (e.phase == TraceEvent::Phase::kReceive) receives.push_back(&e);
  }
  ASSERT_EQ(sends.size(), receives.size());
  for (std::size_t i = 0; i < sends.size(); ++i) {
    EXPECT_DOUBLE_EQ(sends[i]->start, receives[i]->start);
    EXPECT_DOUBLE_EQ(sends[i]->end, receives[i]->end);
    EXPECT_EQ(sends[i]->dataset, receives[i]->dataset);
  }
}

TEST(TraceTest, HandComputedFirstDatasetTimeline) {
  const TaskChain chain = TwoTaskChain();
  const SimResult result = TracedRun(chain, TwoSingletons(), 1);
  const auto m0 = result.trace->InstanceTimeline(0, 0);
  ASSERT_EQ(m0.size(), 2u);  // compute then send
  EXPECT_EQ(m0[0].phase, TraceEvent::Phase::kCompute);
  EXPECT_DOUBLE_EQ(m0[0].start, 0.0);
  EXPECT_DOUBLE_EQ(m0[0].end, 1.0);
  EXPECT_EQ(m0[1].phase, TraceEvent::Phase::kSend);
  EXPECT_DOUBLE_EQ(m0[1].end, 1.5);
  const auto m1 = result.trace->InstanceTimeline(1, 0);
  ASSERT_EQ(m1.size(), 2u);  // receive then compute
  EXPECT_EQ(m1[0].phase, TraceEvent::Phase::kReceive);
  EXPECT_EQ(m1[1].phase, TraceEvent::Phase::kCompute);
  EXPECT_DOUBLE_EQ(m1[1].end, 3.5);
}

TEST(TraceTest, ReplicatedInstancesGetDistinctRows) {
  const TaskChain chain = BuildChain({TaskSpec{1.0, 0.0, 0.0, 1}}, {});
  Mapping m;
  m.modules.push_back(ModuleAssignment{0, 0, 3, 1});
  const SimResult result = TracedRun(chain, m, 6);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(result.trace->InstanceTimeline(0, i).size(), 2u)
        << "instance " << i;
  }
}

TEST(GanttTest, RendersOneRowPerInstance) {
  const TaskChain chain = TwoTaskChain();
  const SimResult result = TracedRun(chain, TwoSingletons(), 4);
  const std::string gantt = result.trace->RenderGantt(40);
  EXPECT_NE(gantt.find("m0/i0"), std::string::npos);
  EXPECT_NE(gantt.find("m1/i0"), std::string::npos);
  EXPECT_NE(gantt.find("#"), std::string::npos);
  EXPECT_NE(gantt.find(">"), std::string::npos);
  EXPECT_NE(gantt.find("<"), std::string::npos);
}

TEST(GanttTest, RowsHaveRequestedWidth) {
  const TaskChain chain = TwoTaskChain();
  const SimResult result = TracedRun(chain, TwoSingletons(), 3);
  const std::string gantt = result.trace->RenderGantt(32);
  std::istringstream in(gantt);
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    const auto open = line.find('|');
    const auto close = line.rfind('|');
    ASSERT_NE(open, std::string::npos);
    EXPECT_EQ(close - open - 1, 32u) << line;
  }
}

TEST(GanttTest, WindowSelectsSubRange) {
  const TaskChain chain = TwoTaskChain();
  const SimResult result = TracedRun(chain, TwoSingletons(), 4);
  // A window before any sends on m0 shows compute only.
  const std::string gantt = result.trace->RenderGantt(20, 0.0, 0.9);
  std::istringstream in(gantt);
  std::string header, m0_row;
  std::getline(in, header);
  std::getline(in, m0_row);
  EXPECT_NE(m0_row.find('#'), std::string::npos);
  EXPECT_EQ(m0_row.find('>'), std::string::npos);
}

TEST(GanttTest, InvalidArgumentsThrow) {
  ExecutionTrace trace;
  trace.makespan = 1.0;
  EXPECT_THROW(trace.RenderGantt(2), InvalidArgument);
  EXPECT_THROW(trace.RenderGantt(40, 1.0, 1.0), InvalidArgument);
}

TEST(TraceTest, NotCollectedByDefault) {
  const TaskChain chain = TwoTaskChain();
  PipelineSimulator sim(chain);
  SimOptions options;
  options.num_datasets = 3;
  EXPECT_FALSE(sim.Run(TwoSingletons(), options).trace.has_value());
}

}  // namespace
}  // namespace pipemap
