// Replay must be invisible: a trace replayed through TraceReplayer -- the
// one arrival path of every experiment, stream, fleet shard and campaign --
// has to walk the bit-identical event trajectory of the reference replay,
// which schedules every record up front and submits it with
// HostDriver::Submit, whatever span sizes the replayer is fed in. These
// tests replay the same trace both ways and require equal latency samples,
// counters, and end times -- the property all golden example/bench outputs
// rest on.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "array/host_driver.h"
#include "array/replayer.h"
#include "core/afraid_controller.h"
#include "core/experiment.h"
#include "disk/geometry.h"
#include "sim/simulator.h"
#include "trace/workload_gen.h"

namespace afraid {
namespace {

struct ReplayResult {
  std::vector<double> all_ms;
  std::vector<double> read_ms;
  std::vector<double> write_ms;
  uint64_t disk_ops = 0;
  SimTime end_time = 0;
};

// Replays `trace` on a fresh AFRAID array. span == 0 schedules every record
// up front and submits it directly; otherwise the records go through a
// TraceReplayer fed `span` records at a time, each span handed over before
// the next simulator step, as Experiment's streaming loop does.
ReplayResult RunOnce(const ArrayConfig& cfg, const Trace& trace, size_t span) {
  Simulator sim;
  AfraidController ctl(&sim, cfg, MakePolicy(PolicySpec::AfraidBaseline()),
                       AvailabilityParamsFor(cfg));
  HostDriver driver(&sim, &ctl, cfg.MaxActive());
  TraceReplayer replayer(&sim, &driver);
  // The driver keeps running summaries of the read/write split; collect the
  // samples themselves, in completion order, through the listener.
  ReplayResult res;
  driver.SetCompletionListener([&res](uint64_t /*id*/, double ms, bool is_write) {
    (is_write ? res.write_ms : res.read_ms).push_back(ms);
  });

  const std::vector<TraceRecord>& recs = trace.records;
  if (span == 0) {
    for (const TraceRecord& r : recs) {
      sim.At(r.time, [&driver, r] { driver.Submit(r.offset, r.size, r.is_write); });
    }
  } else {
    for (size_t at = 0; at < recs.size(); at += span) {
      replayer.Feed(recs.data() + at, std::min(span, recs.size() - at));
      while (!sim.Idle() && !replayer.starved()) {
        sim.Step();
      }
    }
  }
  sim.RunToEnd();
  EXPECT_TRUE(driver.Drained());
  EXPECT_EQ(replayer.submitted(), span == 0 ? 0u : recs.size());

  res.all_ms = driver.AllLatencies().Samples();
  res.disk_ops = ctl.TotalDiskOps();
  res.end_time = sim.Now();
  return res;
}

TEST(PlanReplay, ReplayerMatchesUpfrontSubmitAtEverySpanSize) {
  ArrayConfig cfg;
  cfg.disk_spec = DiskSpec::TinyTestDisk();
  cfg.num_disks = 5;
  cfg.stripe_unit_bytes = 8192;

  WorkloadParams params;
  ASSERT_TRUE(FindWorkload("cello-usr", &params));
  const DiskGeometry geom(cfg.disk_spec.zones, cfg.disk_spec.heads,
                          cfg.disk_spec.sector_bytes);
  const StripeLayout layout(cfg.num_disks, cfg.stripe_unit_bytes,
                            geom.CapacityBytes(), cfg.parity_blocks);
  params.address_space_bytes = layout.data_capacity_bytes();
  const Trace trace = GenerateWorkload(params, 800, Hours(2));

  const ReplayResult reference = RunOnce(cfg, trace, /*span=*/0);
  ASSERT_EQ(reference.all_ms.size(), trace.Size());
  for (const size_t span : {trace.Size(), size_t{1}, size_t{7}, size_t{128}}) {
    SCOPED_TRACE(span);
    const ReplayResult replayed = RunOnce(cfg, trace, span);
    // Exact equality, not tolerance: the same doubles in the same order.
    EXPECT_EQ(replayed.all_ms, reference.all_ms);
    EXPECT_EQ(replayed.read_ms, reference.read_ms);
    EXPECT_EQ(replayed.write_ms, reference.write_ms);
    EXPECT_EQ(replayed.disk_ops, reference.disk_ops);
    EXPECT_EQ(replayed.end_time, reference.end_time);
  }
}

}  // namespace
}  // namespace afraid
