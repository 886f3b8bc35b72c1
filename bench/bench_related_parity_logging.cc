// Section 2 comparison: AFRAID vs parity logging [Stodolsky93] vs RAID 5.
//
// Paper: "A parity-logging array defers the parity-update cost to a later
// time ... thereby preserving full redundancy all the time. By comparison,
// AFRAID avoids a pre-read of the old data in the critical path for writes
// ... The parity logging scheme applies a batch of parity updates at a time,
// which can interfere with foreground I/O requests ... There is no parity
// log to fill up in AFRAID -- all that happens is that the data becomes less
// well protected."

#include <cstdio>

#include "bench/bench_common.h"
#include "core/scheme_registry.h"

namespace afraid {
namespace {

int Run() {
  // The parity-log scheme runs its declared defaults: 256 KB NVRAM buffer,
  // 8 MB log.
  ArrayConfig cfg = PaperArrayConfig();
  const uint64_t max_requests = BenchRequests() / 2;
  const SimDuration max_duration = BenchDuration();

  PrintHeader("Section 2: AFRAID vs parity logging vs RAID 5 (mean I/O ms)");
  std::printf("%-12s %10s %12s %10s %10s | %8s %10s\n", "workload", "RAID5",
              "ParityLog", "AFRAID", "RAID0", "replays", "AFR Tunp");
  PrintRule();
  BenchReportSink sink("related_parity_logging");
  for (const char* name : {"cello-usr", "cello-news", "ATT"}) {
    WorkloadParams wl;
    FindWorkload(name, &wl);
    // Generate against the parity-log capacity (slightly smaller than the
    // others': the log region), so all schemes replay identical requests.
    wl.address_space_bytes = SchemeRegistry::DataCapacityBytes("parity-log", cfg);
    const Trace trace = GenerateWorkload(wl, max_requests, max_duration);

    const SimReport r5 = Experiment(cfg).Policy(PolicySpec::Raid5()).Trace(trace).Run();
    const SimReport af = Experiment(cfg).Policy(PolicySpec::AfraidBaseline()).Trace(trace)
        .Run();
    const SimReport r0 = Experiment(cfg).Policy(PolicySpec::Raid0()).Trace(trace).Run();
    sink.Add(std::string(name) + "/" + r5.policy, r5);
    sink.Add(std::string(name) + "/" + af.policy, af);
    sink.Add(std::string(name) + "/" + r0.policy, r0);
    // Parity-log's rebuild passes are its log replays.
    const SimReport pl = Experiment(cfg).Scheme("parity-log").Trace(trace).Run();
    std::printf("%-12s %10.2f %12.2f %10.2f %10.2f | %8llu %10.4f\n", name,
                r5.mean_io_ms, pl.mean_io_ms, af.mean_io_ms, r0.mean_io_ms,
                static_cast<unsigned long long>(pl.rebuild_passes),
                af.t_unprot_fraction);
  }
  PrintRule();
  std::printf("expected: parity logging keeps full redundancy (Tunprot = 0) and its\n"
              "halved write I/O count beats RAID 5 under sustained pressure (ATT),\n"
              "but it never approaches AFRAID: every write still pays the old-data\n"
              "pre-read, and log replays interfere with bursts (cello-news).\n");
  return 0;
}

}  // namespace
}  // namespace afraid

int main() { return afraid::Run(); }
