// Reproduces Table 4 of the AFRAID paper: the MTTDL_x policy holding the
// disk-related MTTDL at or above a configured target by reverting to RAID 5
// mode when the achieved value sags, and force-starting parity rebuilds when
// more than 20 stripes are unprotected.
//
// Paper headlines:
//   * "the disk-related MTTDL was never more than 5% below its target, and
//     usually far exceeded it";
//   * "The MDLR_unprotected drops to less than 0.1 bytes/hour if any of the
//     MTTDL_x policies are used."

#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "core/sweep.h"

namespace afraid {
namespace {

int Run() {
  const ArrayConfig cfg = PaperArrayConfig();
  const AvailabilityParams ap = AvailabilityParamsFor(cfg);
  const uint64_t max_requests = BenchRequests();
  const SimDuration max_duration = BenchDuration();
  const std::vector<double> targets_hours = {0.5e6, 1.0e6, 2.0e6, 3.0e6};

  // Every (workload, target) cell is an independent Experiment, so the grid
  // fans out over AFRAID_BENCH_THREADS workers; rows are printed (and sunk)
  // in cell order, bit-identical for any thread count.
  const std::vector<WorkloadParams> workloads = PaperWorkloads();
  const size_t per_row = targets_hours.size();
  const std::vector<SimReport> reports = ParallelSweep(
      static_cast<int64_t>(workloads.size() * per_row), [&](int64_t cell) {
        const auto i = static_cast<size_t>(cell);
        return Experiment(cfg)
            .Policy(PolicySpec::MttdlTarget(targets_hours[i % per_row]))
            .Workload(workloads[i / per_row], max_requests, max_duration)
            .Run();
      });

  PrintHeader("Table 4: MTTDL_x policy -- achieved disk MTTDL vs target");
  std::printf("%-12s", "workload");
  for (double t : targets_hours) {
    std::printf(" | %8.2gM: %9s %7s %8s", t / 1e6, "MTTDL/h", "short%", "MDLRunp");
  }
  std::printf("\n");
  PrintRule(140);

  bool ever_above_5pct_short = false;
  double worst_mdlr_unprot = 0.0;
  BenchReportSink sink("table4_mttdl_policy");
  for (size_t w = 0; w < workloads.size(); ++w) {
    const WorkloadParams& wl = workloads[w];
    std::printf("%-12s", wl.name.c_str());
    for (size_t k = 0; k < per_row; ++k) {
      const double t = targets_hours[k];
      const SimReport& rep = reports[w * per_row + k];
      sink.Add(wl.name + "/" + rep.policy, rep);
      const double achieved = rep.avail.mttdl_disk_hours;
      const double shortfall_pct =
          achieved >= t ? 0.0 : (1.0 - achieved / t) * 100.0;
      const double mdlr_unprot = MdlrUnprotectedBph(ap, rep.mean_parity_lag_bytes);
      ever_above_5pct_short |= shortfall_pct > 5.0;
      worst_mdlr_unprot = std::max(worst_mdlr_unprot, mdlr_unprot);
      std::printf(" | %8s: %9s %6.1f%% %8.3f", "", Hours(achieved).c_str(),
                  shortfall_pct, mdlr_unprot);
    }
    std::printf("\n");
  }
  PrintRule(140);
  std::printf("max shortfall >5%%? %s (paper: never more than 5%% below target)\n",
              ever_above_5pct_short ? "YES -- INVESTIGATE" : "no");
  std::printf("worst MDLR_unprotected = %.3f bytes/hour (paper: < 0.1 under any "
              "MTTDL_x policy)\n",
              worst_mdlr_unprot);
  return 0;
}

}  // namespace
}  // namespace afraid

int main() { return afraid::Run(); }
