#include "support/prometheus.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "support/metrics.h"

namespace pipemap {
namespace {

/// All lines of `text`, without their trailing newline.
std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

TEST(PrometheusNameTest, ManglesToValidMetricNames) {
  EXPECT_EQ(PrometheusName("server.request_us"),
            "pipemap_server_request_us");
  EXPECT_EQ(PrometheusName("slo.p99_burn_ratio"),
            "pipemap_slo_p99_burn_ratio");
  EXPECT_EQ(PrometheusName("weird-name with spaces"),
            "pipemap_weird_name_with_spaces");
  EXPECT_EQ(PrometheusName("colons:ok"), "pipemap_colons:ok");
}

TEST(PrometheusExpositionTest, EmptySnapshotIsEmptyDocument) {
  // A server that runs with collection off at run time interns no metric,
  // so its `metrics` op serves this: a valid, zero-series exposition.
  EXPECT_EQ(PrometheusExposition(MetricsSnapshot{}), "");
}

TEST(PrometheusExpositionTest, CountersAndGaugesRender) {
  MetricsSnapshot snap;
  snap.counters["server.accepted"] = 41;
  snap.gauges["slo.burning"] = 1.0;
  const std::string text = PrometheusExposition(snap);
  EXPECT_NE(text.find("# HELP pipemap_server_accepted"), std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE pipemap_server_accepted counter"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("pipemap_server_accepted 41"), std::string::npos);
  EXPECT_NE(text.find("# TYPE pipemap_slo_burning gauge"), std::string::npos);
  EXPECT_NE(text.find("pipemap_slo_burning 1"), std::string::npos);
  // v0.0.4: the document ends with a newline.
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');
}

TEST(PrometheusExpositionTest, TypeLinePrecedesSamples) {
  MetricsSnapshot snap;
  snap.counters["a.count"] = 1;
  snap.gauges["b.value"] = 2.0;
  const std::vector<std::string> lines = Lines(PrometheusExposition(snap));
  // For every family: HELP, then TYPE, then samples — never a sample
  // before its TYPE line.
  std::string typed_family;
  for (const std::string& line : lines) {
    if (line.rfind("# TYPE ", 0) == 0) {
      typed_family = line.substr(7, line.find(' ', 7) - 7);
      continue;
    }
    if (line.empty() || line[0] == '#') continue;
    const std::string name = line.substr(0, line.find_first_of(" {"));
    EXPECT_EQ(name.rfind(typed_family, 0), 0u)
        << "sample '" << line << "' not under its TYPE line";
  }
}

TEST(PrometheusExpositionTest, HistogramExportsCumulativeBuckets) {
  MetricsRegistry::Global().Reset();
  const ScopedMetricsEnable on(true);
  auto* hist = MetricsRegistry::Global().GetHistogram("test.promhist");
  for (int i = 1; i <= 100; ++i) hist->Record(i + 0.5);
  const std::string text =
      PrometheusExposition(MetricsRegistry::Global().Snapshot());
  MetricsRegistry::Global().Reset();

  EXPECT_NE(text.find("# TYPE pipemap_test_promhist histogram"),
            std::string::npos)
      << text;
  // Cumulative bucket series with le labels, then +Inf, _sum, _count.
  EXPECT_NE(text.find("pipemap_test_promhist_bucket{le=\""),
            std::string::npos);
  EXPECT_NE(text.find("pipemap_test_promhist_bucket{le=\"+Inf\"} 100"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("pipemap_test_promhist_count 100"), std::string::npos);
  EXPECT_NE(text.find("pipemap_test_promhist_sum"), std::string::npos);

  // Bucket counts are monotone and end at the total count.
  std::uint64_t prev = 0;
  for (const std::string& line : Lines(text)) {
    const std::string prefix = "pipemap_test_promhist_bucket{le=\"";
    if (line.rfind(prefix, 0) != 0) continue;
    const std::size_t value_pos = line.rfind(' ');
    ASSERT_NE(value_pos, std::string::npos);
    const std::uint64_t value = std::stoull(line.substr(value_pos + 1));
    EXPECT_GE(value, prev) << line;
    prev = value;
  }
  EXPECT_EQ(prev, 100u);
}

}  // namespace
}  // namespace pipemap
