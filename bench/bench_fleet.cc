// Fleet grid: the volume manager across schemes, sharding policies and
// fleet widths, each run surviving a standard mid-run incident (one disk
// failure + online repair on one shard while the rest keep serving).
//
// Columns to watch: range sharding balances a tiled tenant population
// almost perfectly but concentrates any hot range; consistent hashing pays
// a few percent of imbalance (and some cross-shard splits) for placement
// that survives hot spots and reshards incrementally. p999 is the fleet
// number the single-array tables cannot show: it is dominated by the
// degraded shard, not the healthy median.
//
//   AFRAID_BENCH_REQUESTS=100000 AFRAID_BENCH_TENANTS=5000 ./bench_fleet

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench/bench_common.h"
#include "core/sweep.h"
#include "fleet/tenants.h"
#include "fleet/volume_manager.h"

namespace afraid {
namespace {

int32_t BenchTenants() {
  if (const char* env = std::getenv("AFRAID_BENCH_TENANTS")) {
    return static_cast<int32_t>(std::strtol(env, nullptr, 10));
  }
  return 1200;
}

int Run() {
  const uint64_t requests = BenchRequests();
  const int32_t tenants = BenchTenants();

  struct SchemeRow {
    const char* label;
    const char* scheme;  // Registry name (core/scheme_registry.h).
    PolicySpec policy;
  };
  const SchemeRow schemes[] = {
      {"afraid", "afraid", PolicySpec::AfraidBaseline()},
      {"raid5", "afraid", PolicySpec::Raid5()},
      {"raid6-dq", "raid6-deferQ", PolicySpec::AfraidBaseline()},
      {"plog", "parity-log", PolicySpec::AfraidBaseline()},
      {"mirror", "mirror", PolicySpec::AfraidBaseline()},
  };

  // Every cell is an independent fleet, so the grid fans out over
  // AFRAID_BENCH_THREADS workers, each fleet running its shards on one
  // thread, and rows print in cell order: bit-identical for any thread
  // count. Most of a cell's time is its degraded shard's reconstruction
  // sweep, which the fleet's own shard fan-out cannot split.
  struct Cell {
    const SchemeRow* row;
    ShardingKind kind;
    int32_t width;
  };
  std::vector<Cell> cells;
  for (const SchemeRow& row : schemes) {
    for (const ShardingKind kind :
         {ShardingKind::kRange, ShardingKind::kConsistentHash}) {
      for (const int32_t width : {4, 8, 16}) {
        cells.push_back({&row, kind, width});
      }
    }
  }
  const std::vector<FleetReport> reports = ParallelSweep(
      static_cast<int64_t>(cells.size()), [&](int64_t i) {
        const Cell& c = cells[static_cast<size_t>(i)];
        FleetConfig cfg;
        cfg.scheme = c.row->scheme;
        cfg.policy = c.row->policy;
        cfg.sharding = c.kind;
        cfg.num_shards = c.width;
        cfg.chunk_bytes = 4 << 20;
        cfg.seed = 1996;
        VolumeManager vm(cfg);
        // The standard incident: one disk of one mid-fleet shard dies a
        // third of the way in and is repaired online a minute later.
        const int32_t victim = c.width / 2;
        vm.DiskFail(Seconds(20), victim, /*disk=*/1);
        vm.DiskRepaired(Seconds(80), victim, /*disk=*/1);

        FleetWorkloadParams wp;
        wp.name = "fleet-mix";
        wp.seed = 7;
        wp.num_tenants = tenants;
        wp.max_requests = requests;
        wp.max_duration = Minutes(10);
        const FleetTrace trace = GenerateFleetWorkload(wp, vm.VolumeBytes());

        VolumeManager::RunOptions opts;
        opts.threads = 1;
        return vm.Run(trace, opts);
      });

  PrintHeader("Fleet grid: scheme x sharding x width, one failed+repaired "
              "disk per run");
  std::printf("%-9s %-6s %6s | %8s %8s %8s %8s | %7s %6s %6s | %8s %6s\n",
              "scheme", "shard", "width", "mean ms", "p50", "p99", "p999",
              "max/mean", "cv", "split", "degr s", "loss");
  PrintRule(110);
  for (size_t i = 0; i < cells.size(); ++i) {
    const FleetReport& rep = reports[i];
    std::printf(
        "%-9s %-6s %6d | %8.2f %8.2f %8.2f %8.2f | %7.3f %6.3f %6llu "
        "| %8.1f %6llu\n",
        cells[i].row->label, rep.sharding.c_str(), cells[i].width, rep.mean_ms,
        rep.p50_ms, rep.p99_ms, rep.p999_ms, rep.imbalance_max_mean,
        rep.imbalance_cv, static_cast<unsigned long long>(rep.split_requests),
        rep.degraded_shard_s, static_cast<unsigned long long>(rep.loss_events));
  }
  PrintRule(110);
  std::printf("tenants=%d requests=%llu; every cell is bit-identical for any "
              "AFRAID_BENCH_THREADS\n",
              tenants, static_cast<unsigned long long>(requests));
  return 0;
}

}  // namespace
}  // namespace afraid

int main() { return afraid::Run(); }
