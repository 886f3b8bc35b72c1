// Declustering payoff: reconstruction window, client tail latency during the
// rebuild, and MTTDL -- left-symmetric vs declustered parity placement at
// equal user capacity.
//
// For each array width the harness runs the SAME client workload (sized to
// the smaller of the two layouts' user capacities, so both serve identical
// byte spans) against a live RAID 5 array, fails a disk mid-workload, hot-
// swaps it immediately, and runs the reconstruction sweep to completion with
// client requests still arriving. Measured per run:
//
//   * rebuild window -- FailDisk to reconstruction-complete, in array time;
//   * client p99 during the window -- the tail clients see while survivor
//     disks carry both their reads and the rebuild's;
//   * MTTDL -- the Monte-Carlo fault campaign (faultsim/) on the same
//     geometry, with the hot-spare repair window scaled by the measured
//     reconstruction ratio (spare pools make repair reconstruction-bound,
//     not logistics-bound; the left-symmetric window keeps the stock
//     48-hour MTTR so its row matches the availability model's baseline).
//
// A declustered width-k stripe rebuilds one unit from k-1 survivor reads
// instead of C-1 and spreads them evenly over all C-1 survivors (2-design
// balance), so the window shrinks toward the declustering ratio
// alpha = (k-1)/(C-1) and the per-survivor interference drops with it.
//
// Output: a table per width plus BENCH_rebuild.json (override the path with
// AFRAID_REBUILD_JSON=path, suppress with AFRAID_REBUILD_JSON=""). Sizing
// overrides: AFRAID_REBUILD_REQUESTS, AFRAID_REBUILD_LIFETIMES.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "array/decluster.h"
#include "array/host_driver.h"
#include "array/replayer.h"
#include "array/scheme.h"
#include "bench/bench_common.h"
#include "core/scheme_registry.h"
#include "faultsim/report.h"
#include "faultsim/runner.h"
#include "obs/json.h"
#include "sim/simulator.h"
#include "stats/sample_set.h"

namespace afraid {
namespace {

constexpr int32_t kDeclusterWidth = 4;
constexpr const char* kScheme = "afraid";  // Raid5 policy: immediate parity.

int64_t EnvInt(const char* name, int64_t fallback) {
  if (const char* env = std::getenv(name)) {
    return std::strtoll(env, nullptr, 10);
  }
  return fallback;
}

ArrayConfig RebuildArrayConfig(int32_t num_disks, LayoutKind layout) {
  ArrayConfig cfg;
  cfg.disk_spec = DiskSpec::TinyTestDisk();  // Sweeps finish in array-seconds.
  cfg.num_disks = num_disks;
  cfg.stripe_unit_bytes = 8192;
  cfg.layout = layout;
  cfg.decluster_width = kDeclusterWidth;
  return SchemeRegistry::Normalize(kScheme, cfg);
}

// Steady open load: short bursts, short idles, no long quiet periods -- the
// rebuild window must contain enough client completions for a stable p99.
WorkloadParams RebuildWorkload(int64_t address_space_bytes) {
  WorkloadParams wl;
  wl.name = "rebuild-load";
  wl.seed = 1996;
  wl.address_space_bytes = address_space_bytes;
  wl.mean_burst_requests = 8.0;
  wl.mean_idle_ms = 60.0;
  wl.idle_pareto_alpha = 1.5;
  wl.max_idle_ms = 500.0;
  wl.intra_burst_gap_ms = 15.0;
  wl.write_fraction = 0.5;
  wl.size_dist = {{8192, 3.0}, {24576, 1.0}};
  wl.align_bytes = 8192;
  return wl;
}

struct RebuildResult {
  int64_t user_capacity_bytes = 0;
  double window_s = 0.0;           // FailDisk -> reconstruction complete.
  double p99_during_ms = 0.0;      // Client tail inside the window.
  double mean_during_ms = 0.0;
  uint64_t completed_during = 0;   // Client requests finished in the window.
  uint64_t stripes_rebuilt = 0;
};

// One live run: replay `trace` open-loop, fail disk 0 at `fail_at`, replace
// it immediately (hot spare) and reconstruct with the load still running.
RebuildResult RunRebuild(const ArrayConfig& cfg, const Trace& trace,
                         SimTime fail_at) {
  Simulator sim;
  SchemeContext ctx{&sim, cfg, PolicySpec::Raid5(), AvailabilityParamsFor(cfg),
                    {}};
  std::unique_ptr<ArrayScheme> ctl = SchemeRegistry::Create(kScheme, ctx);
  HostDriver driver(&sim, ctl.get(), /*max_active=*/8);
  driver.ReserveLatencySamples(trace.Size());
  TraceReplayer replayer(&sim, &driver);
  replayer.Feed(trace.records.data(), trace.Size());

  bool in_rebuild = false;
  SampleSet during_ms;
  driver.SetCompletionListener([&](uint64_t, double ms, bool) {
    if (in_rebuild) {
      during_ms.Add(ms);
    }
  });

  RebuildResult res;
  res.user_capacity_bytes = ctl->layout().data_capacity_bytes();
  sim.RunUntil(fail_at);
  const SimTime started = sim.Now();
  SimTime finished = started;
  if (!ctl->FailDisk(0) || !ctl->ReplaceDisk(0)) {
    std::fprintf(stderr, "fail/replace refused\n");
    std::exit(1);
  }
  in_rebuild = true;
  ctl->StartReconstruction([&] {
    finished = sim.Now();
    in_rebuild = false;
  });
  sim.RunToEnd();

  res.window_s = ToSeconds(finished - started);
  res.completed_during = during_ms.Count();
  res.p99_during_ms = during_ms.Percentile(0.99);
  res.mean_during_ms = during_ms.Mean();
  res.stripes_rebuilt = ctl->Stats().stripes_rebuilt;
  return res;
}

// Empirical MTTDL on the same geometry. `mttr_scale` shrinks the hot-spare
// repair window by the measured reconstruction ratio (1.0 = the stock MTTR).
ConfidenceInterval CampaignMttdl(const ArrayConfig& cfg, double mttr_scale,
                                 int32_t lifetimes) {
  CampaignConfig c;
  c.array = cfg;
  c.scheme = kScheme;
  c.policy = PolicySpec::Raid5();
  c.workload = PaperWorkloads().front();
  c.faults = FaultModelParams::From(AvailabilityParamsFor(cfg),
                                    SchemeFor(c.policy));
  c.faults.mttr_hours *= mttr_scale;
  c.lifetimes = lifetimes;
  c.base_seed = 1996;
  c.max_lifetime_hours = 1e8;
  return RunCampaign(c, /*num_threads=*/0).mttdl_hours;
}

struct Row {
  int32_t num_disks = 0;
  const char* layout = nullptr;
  int32_t width = 0;
  RebuildResult r;
  ConfidenceInterval mttdl;
};

void WriteJson(const std::string& path, const std::vector<Row>& rows) {
  JsonWriter w;
  w.BeginObject();
  w.Key("bench").Value("rebuild_decluster");
  w.Key("scheme").Value(kScheme);
  w.Key("rows").BeginArray();
  for (const Row& row : rows) {
    w.BeginObject();
    w.Key("num_disks").Value(row.num_disks);
    w.Key("layout").Value(row.layout);
    w.Key("stripe_width").Value(row.width);
    w.Key("user_capacity_bytes").Value(row.r.user_capacity_bytes);
    w.Key("rebuild_window_s").Value(row.r.window_s);
    w.Key("client_p99_during_ms").Value(row.r.p99_during_ms);
    w.Key("client_mean_during_ms").Value(row.r.mean_during_ms);
    w.Key("completed_during_rebuild").Value(row.r.completed_during);
    w.Key("stripes_rebuilt").Value(row.r.stripes_rebuilt);
    w.Key("mttdl_hours").Value(row.mttdl.point);
    w.Key("mttdl_hours_lo").Value(row.mttdl.lo);
    w.Key("mttdl_hours_hi").Value(row.mttdl.hi);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  if (!WriteTextFile(path, std::move(w).Take() + "\n")) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    std::exit(1);
  }
  std::printf("wrote %s\n", path.c_str());
}

int Run() {
  const auto max_requests =
      static_cast<uint64_t>(EnvInt("AFRAID_REBUILD_REQUESTS", 6000));
  const auto lifetimes =
      static_cast<int32_t>(EnvInt("AFRAID_REBUILD_LIFETIMES", 400));
  const std::vector<int32_t> widths = {9, 13};

  PrintHeader("Rebuild declustering: window, client tail and MTTDL vs layout");
  std::printf("scheme %s (immediate parity), decluster width %d, fail at 3 s "
              "mid-workload, %llu requests, %d MC lifetimes\n\n",
              kScheme, kDeclusterWidth,
              static_cast<unsigned long long>(max_requests), lifetimes);
  std::printf("%-6s %-15s %8s %10s %11s %11s %9s %14s\n", "disks", "layout",
              "cap(MB)", "window(s)", "p99dur(ms)", "meandur(ms)", "reqs/win",
              "MTTDL(h)");
  PrintRule();

  std::vector<Row> rows;
  bool all_better = true;
  for (const int32_t nd : widths) {
    const ArrayConfig stripe_cfg =
        RebuildArrayConfig(nd, LayoutKind::kLeftSymmetric);
    const ArrayConfig decl_cfg =
        RebuildArrayConfig(nd, LayoutKind::kDeclustered);
    // Equal user capacity: both runs serve the smaller of the two layouts'
    // spans (declustering pays parity overhead 1/k instead of 1/C), so the
    // client load and working set are identical byte-for-byte.
    const int64_t span = std::min(
        SchemeRegistry::DataCapacityBytes(kScheme, stripe_cfg),
        SchemeRegistry::DataCapacityBytes(kScheme, decl_cfg));
    const Trace trace =
        GenerateWorkload(RebuildWorkload(span), max_requests, Minutes(30));

    const SimTime fail_at = Seconds(3);
    Row stripe{nd, "left-symmetric", nd, RunRebuild(stripe_cfg, trace, fail_at),
               {}};
    Row decl{nd, "declustered", kDeclusterWidth,
             RunRebuild(decl_cfg, trace, fail_at), {}};
    stripe.mttdl = CampaignMttdl(stripe_cfg, 1.0, lifetimes);
    decl.mttdl = CampaignMttdl(
        decl_cfg, decl.r.window_s / stripe.r.window_s, lifetimes);

    for (const Row* row : {&stripe, &decl}) {
      std::printf("%-6d %-15s %8.1f %10.3f %11.2f %11.2f %9llu %14.3g\n",
                  row->num_disks, row->layout,
                  row->r.user_capacity_bytes / 1e6, row->r.window_s,
                  row->r.p99_during_ms, row->r.mean_during_ms,
                  static_cast<unsigned long long>(row->r.completed_during),
                  row->mttdl.point);
    }
    const double alpha =
        static_cast<double>(kDeclusterWidth - 1) / (nd - 1);
    std::printf("       -> window %.2fx (alpha %.2f), p99 %.2fx, "
                "MTTDL %.2fx\n",
                decl.r.window_s / stripe.r.window_s, alpha,
                decl.r.p99_during_ms / stripe.r.p99_during_ms,
                decl.mttdl.point / stripe.mttdl.point);
    all_better = all_better && decl.r.window_s < stripe.r.window_s &&
                 decl.r.p99_during_ms < stripe.r.p99_during_ms;
    rows.push_back(stripe);
    rows.push_back(decl);
  }
  PrintRule();

  std::string out = "BENCH_rebuild.json";
  if (const char* env = std::getenv("AFRAID_REBUILD_JSON")) {
    out = env;
  }
  if (!out.empty()) {
    WriteJson(out, rows);
  }
  if (!all_better) {
    std::fprintf(stderr,
                 "FAIL: declustering did not beat left-symmetric on both "
                 "window and p99 at every width\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace afraid

int main() { return afraid::Run(); }
