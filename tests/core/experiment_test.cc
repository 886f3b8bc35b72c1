// The experiment harness itself: determinism, report plausibility, and the
// qualitative orderings every table in the paper relies on.

#include "core/experiment.h"

#include <gtest/gtest.h>

#include "trace/workload_gen.h"

namespace afraid {
namespace {

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

TEST(Experiment, Deterministic) {
  const SimReport a = Experiment(SmallConfig())
                          .Policy(PolicySpec::AfraidBaseline())
                          .Workload(FastWorkload(), 800, Minutes(30))
                          .Run();
  const SimReport b = Experiment(SmallConfig())
                          .Policy(PolicySpec::AfraidBaseline())
                          .Workload(FastWorkload(), 800, Minutes(30))
                          .Run();
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_DOUBLE_EQ(a.mean_io_ms, b.mean_io_ms);
  EXPECT_DOUBLE_EQ(a.mean_parity_lag_bytes, b.mean_parity_lag_bytes);
  EXPECT_EQ(a.stripes_rebuilt, b.stripes_rebuilt);
}

TEST(Experiment, ReportFieldsPlausible) {
  const SimReport rep = Experiment(SmallConfig())
                            .Policy(PolicySpec::AfraidBaseline())
                            .Workload(FastWorkload(), 800, Minutes(30))
                            .Run();
  EXPECT_EQ(rep.requests, 800u);
  EXPECT_EQ(rep.reads + rep.writes, rep.requests);
  EXPECT_GT(rep.mean_io_ms, 0.0);
  EXPECT_LE(rep.median_io_ms, rep.p95_io_ms);
  EXPECT_LE(rep.p95_io_ms, rep.max_io_ms);
  EXPECT_GT(rep.duration_s, 0.0);
  EXPECT_GT(rep.idle_fraction, 0.0);
  EXPECT_LT(rep.idle_fraction, 1.0);
  EXPECT_GT(rep.disk_ops_total, rep.requests);
  EXPECT_GT(rep.disk_utilization, 0.0);
  EXPECT_LT(rep.disk_utilization, 1.0);
  EXPECT_EQ(rep.policy, "AFRAID");
  EXPECT_EQ(rep.workload, "fast");
}

TEST(Experiment, SchemeOrderingsHold) {
  // The paper's core orderings on a bursty write-heavy load:
  //   latency: RAID 0 <= AFRAID < RAID 5
  //   availability (overall MTTDL): RAID 0 < AFRAID <= RAID 5.
  const SimReport r0 = Experiment(SmallConfig())
                           .Policy(PolicySpec::Raid0())
                           .Workload(FastWorkload(), 1200, Minutes(60))
                           .Run();
  const SimReport af = Experiment(SmallConfig())
                           .Policy(PolicySpec::AfraidBaseline())
                           .Workload(FastWorkload(), 1200, Minutes(60))
                           .Run();
  const SimReport r5 = Experiment(SmallConfig())
                           .Policy(PolicySpec::Raid5())
                           .Workload(FastWorkload(), 1200, Minutes(60))
                           .Run();
  EXPECT_LE(r0.mean_io_ms, af.mean_io_ms * 1.05);
  EXPECT_LT(af.mean_io_ms, r5.mean_io_ms);
  EXPECT_LT(r0.avail.mttdl_overall_hours, af.avail.mttdl_overall_hours);
  EXPECT_LE(af.avail.mttdl_overall_hours, r5.avail.mttdl_overall_hours);
  // RAID 5 never defers: no parity lag, no rebuilds.
  EXPECT_DOUBLE_EQ(r5.mean_parity_lag_bytes, 0.0);
  EXPECT_EQ(r5.stripes_rebuilt, 0u);
  EXPECT_EQ(r5.afraid_mode_writes, 0u);
  // RAID 0 never rebuilds and is always exposed once written to.
  EXPECT_EQ(r0.stripes_rebuilt, 0u);
  EXPECT_GT(r0.t_unprot_fraction, 0.9);
}

TEST(Experiment, MttdlTargetInterpolates) {
  // A mid target lands between RAID 5 and pure AFRAID on both axes.
  const SimReport af = Experiment(SmallConfig())
                           .Policy(PolicySpec::AfraidBaseline())
                           .Workload(FastWorkload(), 1200, Minutes(60))
                           .Run();
  const SimReport mid = Experiment(SmallConfig())
                             .Policy(PolicySpec::MttdlTarget(2e6))
                             .Workload(FastWorkload(), 1200, Minutes(60))
                             .Run();
  EXPECT_GE(mid.avail.mttdl_disk_hours, af.avail.mttdl_disk_hours * 0.99);
  EXPECT_GT(mid.raid5_mode_writes + mid.afraid_mode_writes, 0u);
}

TEST(Experiment, DeterministicOnIdleHeavyWorkload) {
  // Two runs of the same config must agree exactly (the seed-stability
  // property the rest of the suite assumes), here on hplajw, whose long
  // idle periods make idle-triggered rebuilds part of the trajectory.
  ArrayConfig cfg;
  cfg.disk_spec = DiskSpec::TinyTestDisk();
  cfg.num_disks = 4;
  cfg.stripe_unit_bytes = 8192;

  WorkloadParams params;
  ASSERT_TRUE(FindWorkload("hplajw", &params));
  const SimReport a =
      Experiment(cfg).Policy(PolicySpec::AfraidBaseline()).Workload(params, 300, Hours(1)).Run();
  const SimReport b =
      Experiment(cfg).Policy(PolicySpec::AfraidBaseline()).Workload(params, 300, Hours(1)).Run();
  EXPECT_EQ(a.mean_io_ms, b.mean_io_ms);
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.disk_ops_total, b.disk_ops_total);
  EXPECT_EQ(a.duration_s, b.duration_s);
}

TEST(Experiment, AvailabilityParamsFollowConfig) {
  ArrayConfig cfg = SmallConfig();
  cfg.num_disks = 8;
  const AvailabilityParams ap = AvailabilityParamsFor(cfg);
  EXPECT_EQ(ap.num_data_disks, 7);
  EXPECT_DOUBLE_EQ(ap.stripe_unit_bytes, 8192.0);
  EXPECT_DOUBLE_EQ(ap.disk_bytes, 2.0 * 1024 * 1024);
}

TEST(Experiment, BuilderOnExplicitTrace) {
  Trace trace;
  trace.name = "explicit";
  for (int i = 0; i < 50; ++i) {
    trace.records.push_back(
        {Milliseconds(i * 20), i * 8192, 8192, i % 2 == 0});
  }
  const SimReport rep =
      Experiment(SmallConfig()).Policy(PolicySpec::Raid5()).Trace(trace).Run();
  EXPECT_EQ(rep.requests, 50u);
  EXPECT_EQ(rep.workload, "explicit");
}

}  // namespace
}  // namespace afraid
