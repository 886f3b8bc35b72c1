// The run-artifacts writer and the end-to-end acceptance path: an observed
// experiment must leave a run directory whose report.json, metrics.jsonl and
// trace.json all parse and agree with the in-memory results -- and observing
// a run must not change its report at all.

#include "obs/artifacts.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "core/experiment.h"
#include "json_reader.h"
#include "obs/report_io.h"
#include "trace/workload_gen.h"

namespace afraid {
namespace {

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

ArrayConfig SmallConfig() {
  ArrayConfig cfg;
  cfg.disk_spec = DiskSpec::TinyTestDisk();
  cfg.num_disks = 5;
  cfg.stripe_unit_bytes = 8192;
  return cfg;
}

WorkloadParams FastWorkload() {
  WorkloadParams p;
  p.name = "fast";
  p.seed = 21;
  p.mean_burst_requests = 15;
  p.mean_idle_ms = 300;
  p.idle_pareto_alpha = 1.5;
  p.intra_burst_gap_ms = 8;
  p.write_fraction = 0.6;
  p.size_dist = {{4096, 0.5}, {8192, 0.5}};
  return p;
}

TEST(RunArtifacts, CreatesDirectoryAndWritesText) {
  const std::string dir = ::testing::TempDir() + "afraid_artifacts_text/nested";
  RunArtifacts artifacts(dir);
  ASSERT_TRUE(artifacts.ok()) << artifacts.error();
  EXPECT_EQ(artifacts.dir(), dir);
  ASSERT_TRUE(artifacts.WriteText("notes.txt", "hello\n"));
  EXPECT_EQ(Slurp(dir + "/notes.txt"), "hello\n");
}

TEST(RunArtifacts, ReportsUncreatableDirectory) {
  // A path through a regular file cannot be created as a directory.
  const std::string file = ::testing::TempDir() + "afraid_artifacts_blocker";
  std::ofstream(file) << "x";
  RunArtifacts artifacts(file + "/sub");
  EXPECT_FALSE(artifacts.ok());
  EXPECT_FALSE(artifacts.error().empty());
}

TEST(ObservedRun, ProducesValidRunDirectory) {
  const std::string dir = ::testing::TempDir() + "afraid_run_dir";
  ObserveOptions opts;
  opts.artifacts_dir = dir;
  const SimReport rep = Experiment(SmallConfig())
                            .Policy(PolicySpec::AfraidBaseline())
                            .Workload(FastWorkload(), 600, Minutes(30))
                            .Observe(opts)
                            .Run();

  // report.json is the one SimReport serializer's output and matches the
  // returned report exactly.
  const std::string report_text = Slurp(dir + "/report.json");
  EXPECT_EQ(report_text, SimReportToJson(rep) + "\n");
  JsonValue report;
  std::string err;
  ASSERT_TRUE(ParseJson(report_text, &report, &err)) << err;
  EXPECT_EQ(report.GetString("workload"), "fast");
  EXPECT_EQ(report.GetString("policy"), "AFRAID");
  EXPECT_DOUBLE_EQ(report.GetNumber("requests"), 600.0);
  EXPECT_DOUBLE_EQ(report.GetNumber("mean_io_ms"), rep.mean_io_ms);

  // metrics.jsonl: schema first, then snapshots whose rows match the schema
  // width, then the latency histogram covering every request.
  std::istringstream lines(Slurp(dir + "/metrics.jsonl"));
  std::string line;
  size_t schema_width = 0;
  size_t snapshots = 0;
  bool saw_latency_histogram = false;
  double last_t = -1.0;
  size_t line_no = 0;
  while (std::getline(lines, line)) {
    JsonValue v;
    ASSERT_TRUE(ParseJson(line, &v, &err)) << err << " at line " << line_no;
    const std::string type = v.GetString("type");
    if (line_no == 0) {
      ASSERT_EQ(type, "schema");
      schema_width = v.Get("metrics")->Items().size();
      EXPECT_GT(schema_width, 0u);
    } else if (type == "snapshot") {
      ++snapshots;
      EXPECT_EQ(v.Get("values")->Items().size(), schema_width);
      EXPECT_GE(v.GetNumber("t_s"), last_t);
      last_t = v.GetNumber("t_s");
    } else if (type == "histogram" && v.GetString("name") == "io_latency_ms") {
      saw_latency_histogram = true;
      EXPECT_DOUBLE_EQ(v.GetNumber("total"), 600.0);
    }
    ++line_no;
  }
  EXPECT_GT(snapshots, 10u);
  EXPECT_TRUE(saw_latency_histogram);

  // trace.json parses and holds a non-trivial timeline.
  JsonValue trace;
  ASSERT_TRUE(ParseJson(Slurp(dir + "/trace.json"), &trace, &err)) << err;
  ASSERT_NE(trace.Get("traceEvents"), nullptr);
  EXPECT_GT(trace.Get("traceEvents")->Items().size(), 100u);
}

TEST(ObservedRun, ReportIdenticalWithAndWithoutObservability) {
  // Observability must never perturb the simulation: the full serialized
  // report of an observed run equals the unobserved one field for field.
  const SimReport plain = Experiment(SmallConfig())
                              .Policy(PolicySpec::AfraidBaseline())
                              .Workload(FastWorkload(), 600, Minutes(30))
                              .Run();
  ObserveOptions opts;
  opts.artifacts_dir = ::testing::TempDir() + "afraid_run_identical";
  opts.metrics_interval = Milliseconds(10);  // Sample aggressively on purpose.
  const SimReport observed = Experiment(SmallConfig())
                                 .Policy(PolicySpec::AfraidBaseline())
                                 .Workload(FastWorkload(), 600, Minutes(30))
                                 .Observe(opts)
                                 .Run();
  EXPECT_EQ(SimReportToJson(plain), SimReportToJson(observed));
  EXPECT_EQ(SimReportCsvRow(plain), SimReportCsvRow(observed));
}

TEST(ObservedRun, MetricsOnlyAndTraceOnlyModes) {
  ObserveOptions opts;
  opts.artifacts_dir = ::testing::TempDir() + "afraid_run_metrics_only";
  opts.trace = false;
  Experiment(SmallConfig())
      .Policy(PolicySpec::Raid5())
      .Workload(FastWorkload(), 200, Minutes(30))
      .Observe(opts)
      .Run();
  EXPECT_TRUE(std::ifstream(opts.artifacts_dir + "/metrics.jsonl").good());
  EXPECT_FALSE(std::ifstream(opts.artifacts_dir + "/trace.json").good());

  ObserveOptions trace_only;
  trace_only.artifacts_dir = ::testing::TempDir() + "afraid_run_trace_only";
  trace_only.metrics = false;
  Experiment(SmallConfig())
      .Policy(PolicySpec::Raid5())
      .Workload(FastWorkload(), 200, Minutes(30))
      .Observe(trace_only)
      .Run();
  EXPECT_TRUE(std::ifstream(trace_only.artifacts_dir + "/trace.json").good());
  EXPECT_FALSE(std::ifstream(trace_only.artifacts_dir + "/metrics.jsonl").good());
  EXPECT_TRUE(std::ifstream(trace_only.artifacts_dir + "/report.json").good());
}

}  // namespace
}  // namespace afraid
