#include "trace/workload_gen.h"

#include <algorithm>
#include <cassert>

namespace afraid {
namespace {

int64_t AlignDown(int64_t x, int64_t align) { return x - (x % align); }

}  // namespace

Trace GenerateWorkload(const WorkloadParams& p, uint64_t max_requests,
                       SimDuration max_duration) {
  assert(p.address_space_bytes > 0);
  assert(p.align_bytes > 0);
  assert(!p.size_dist.empty());
  assert(p.idle_pareto_alpha > 1.0);
  assert(p.mean_burst_requests >= 1.0);

  Trace trace;
  trace.name = p.name;
  Rng rng(p.seed);

  // Hot-region placement: evenly spread starting points with a per-workload
  // random offset, so different seeds exercise different parts of the array.
  const int64_t region_bytes = std::max<int64_t>(
      p.align_bytes,
      AlignDown(static_cast<int64_t>(p.hot_region_frac *
                                     static_cast<double>(p.address_space_bytes)),
                p.align_bytes));
  std::vector<int64_t> hot_starts;
  for (int32_t i = 0; i < p.hot_regions; ++i) {
    const int64_t base = p.address_space_bytes * i / std::max(p.hot_regions, 1);
    const int64_t jitter =
        rng.UniformInt(0, std::max<int64_t>(1, p.address_space_bytes / 16));
    hot_starts.push_back((base + jitter) % p.address_space_bytes);
  }

  // Pareto scales chosen so the (untruncated) means match the parameters.
  const double idle_xm =
      p.mean_idle_ms * (p.idle_pareto_alpha - 1.0) / p.idle_pareto_alpha;
  const double long_idle_xm =
      p.mean_long_idle_ms * (p.long_idle_alpha - 1.0) / p.long_idle_alpha;

  // Request sizes are drawn from the discrete (size, weight) distribution.
  std::vector<double> size_weights;
  size_weights.reserve(p.size_dist.size());
  for (const auto& [size, w] : p.size_dist) {
    size_weights.push_back(w);
  }

  SimTime now = 0;
  // Sequential-run state.
  int64_t run_next_offset = -1;
  bool run_is_write = false;

  while (trace.records.size() < max_requests && now <= max_duration) {
    const int64_t burst_len = rng.GeometricTrials(1.0 / p.mean_burst_requests);
    for (int64_t i = 0; i < burst_len; ++i) {
      if (trace.records.size() >= max_requests || now > max_duration) {
        break;
      }
      TraceRecord r;
      const int32_t size = p.size_dist[rng.WeightedIndex(size_weights)].first;
      const bool continue_run = run_next_offset >= 0 && rng.Bernoulli(p.seq_prob) &&
                                run_next_offset + size <= p.address_space_bytes;
      if (continue_run) {
        r.offset = run_next_offset;
        r.is_write = run_is_write;
      } else {
        // Start a new run, in a hot region or uniformly over the space.
        int64_t base = 0;
        int64_t span = p.address_space_bytes;
        if (p.hot_regions > 0 && rng.Bernoulli(p.hot_fraction)) {
          const auto region = static_cast<size_t>(rng.UniformInt(0, p.hot_regions - 1));
          base = hot_starts[region];
          span = region_bytes;
        }
        int64_t off = base + rng.UniformInt(0, std::max<int64_t>(span - 1, 0));
        off = AlignDown(off, p.align_bytes);
        if (off + size > p.address_space_bytes) {
          off = AlignDown(p.address_space_bytes - size, p.align_bytes);
        }
        r.offset = std::max<int64_t>(off, 0);
        r.is_write = rng.Bernoulli(p.write_fraction);
      }
      r.size = size;
      r.time = now;
      trace.records.push_back(r);

      run_next_offset = r.offset + r.size;
      run_is_write = r.is_write;

      now += MillisecondsF(rng.ExponentialMean(p.intra_burst_gap_ms));
    }
    // OFF period: heavy-tailed idle gap, occasionally a much longer quiet
    // spell (multi-timescale burstiness). A burst boundary also breaks any
    // sequential run (the client went away and came back elsewhere).
    run_next_offset = -1;
    if (p.long_idle_prob > 0.0 && rng.Bernoulli(p.long_idle_prob)) {
      now += MillisecondsF(
          rng.Pareto(p.long_idle_alpha, long_idle_xm, p.max_long_idle_ms));
    } else {
      now += MillisecondsF(rng.Pareto(p.idle_pareto_alpha, idle_xm, p.max_idle_ms));
    }
  }
  return trace;
}

std::vector<WorkloadParams> PaperWorkloads() {
  std::vector<WorkloadParams> all;

  {
    // hplajw: single-user HP-UX workstation (email, document editing).
    // Very light and very bursty; writes dominate (swap/metadata), small I/Os.
    WorkloadParams p;
    p.name = "hplajw";
    p.seed = 0xaf1001;
    p.mean_burst_requests = 8;
    p.mean_idle_ms = 2000;
    p.idle_pareto_alpha = 1.2;
    p.intra_burst_gap_ms = 40;
    p.write_fraction = 0.57;
    p.size_dist = {{4096, 0.5}, {8192, 0.4}, {16384, 0.1}};
    p.seq_prob = 0.30;
    p.hot_regions = 4;
    p.hot_fraction = 0.5;
    p.hot_region_frac = 0.005;
    p.long_idle_prob = 0.25;
    p.mean_long_idle_ms = 180000;
    all.push_back(p);
  }
  {
    // snake: HP-UX file server for a Berkeley workstation cluster.
    // Moderate load, bursty, read-leaning, some large sequential transfers.
    WorkloadParams p;
    p.name = "snake";
    p.seed = 0xaf1002;
    p.mean_burst_requests = 25;
    p.mean_idle_ms = 800;
    p.idle_pareto_alpha = 1.25;
    p.intra_burst_gap_ms = 12;
    p.write_fraction = 0.40;
    p.size_dist = {{4096, 0.3}, {8192, 0.45}, {16384, 0.15}, {32768, 0.10}};
    p.seq_prob = 0.45;
    p.hot_regions = 6;
    p.hot_fraction = 0.5;
    p.hot_region_frac = 0.01;
    p.long_idle_prob = 0.18;
    p.mean_long_idle_ms = 120000;
    all.push_back(p);
  }
  {
    // cello-usr: timesharing root//usr//users disks; ~20 developers.
    WorkloadParams p;
    p.name = "cello-usr";
    p.seed = 0xaf1003;
    p.mean_burst_requests = 20;
    p.mean_idle_ms = 600;
    p.idle_pareto_alpha = 1.25;
    p.intra_burst_gap_ms = 15;
    p.write_fraction = 0.54;
    p.size_dist = {{4096, 0.4}, {8192, 0.5}, {16384, 0.1}};
    p.seq_prob = 0.35;
    p.hot_regions = 5;
    p.hot_fraction = 0.55;
    p.hot_region_frac = 0.008;
    p.long_idle_prob = 0.15;
    p.mean_long_idle_ms = 90000;
    all.push_back(p);
  }
  {
    // cello-news: the Usenet news disk -- half of all I/Os on the system;
    // write-heavy with strong locality (news spool and its databases).
    WorkloadParams p;
    p.name = "cello-news";
    p.seed = 0xaf1004;
    p.mean_burst_requests = 60;
    p.mean_idle_ms = 300;
    p.idle_pareto_alpha = 1.3;
    p.intra_burst_gap_ms = 11;
    p.write_fraction = 0.70;
    p.size_dist = {{4096, 0.5}, {8192, 0.5}};
    p.seq_prob = 0.40;
    p.hot_regions = 3;
    p.hot_fraction = 0.7;
    p.hot_region_frac = 0.01;
    p.long_idle_prob = 0.08;
    p.mean_long_idle_ms = 45000;
    all.push_back(p);
  }
  {
    // netware: intensive database-loading benchmark on a Novell server.
    // Near saturation: long write bursts with short pauses.
    WorkloadParams p;
    p.name = "netware";
    p.seed = 0xaf1005;
    p.mean_burst_requests = 120;
    p.mean_idle_ms = 900;
    p.idle_pareto_alpha = 1.5;
    p.intra_burst_gap_ms = 10.0;
    p.write_fraction = 0.85;
    p.size_dist = {{2048, 0.3}, {4096, 0.4}, {8192, 0.2}, {16384, 0.1}};
    p.seq_prob = 0.50;
    p.hot_regions = 2;
    p.hot_fraction = 0.6;
    p.hot_region_frac = 0.02;
    p.long_idle_prob = 0.04;
    p.mean_long_idle_ms = 45000;
    all.push_back(p);
  }
  {
    // ATT: production telephone-company database (OLTP): high rate of small
    // random writes, little idle time.
    WorkloadParams p;
    p.name = "ATT";
    p.seed = 0xaf1006;
    p.mean_burst_requests = 120;
    p.mean_idle_ms = 120;
    p.idle_pareto_alpha = 1.5;
    p.intra_burst_gap_ms = 9.5;
    p.write_fraction = 0.75;
    p.size_dist = {{2048, 0.5}, {4096, 0.35}, {8192, 0.15}};
    p.seq_prob = 0.10;
    p.hot_regions = 8;
    p.hot_fraction = 0.8;
    p.hot_region_frac = 0.002;
    p.long_idle_prob = 0.0;  // The paper's MDLR exception: effectively no slack.
    all.push_back(p);
  }
  {
    // AS400-1..4: four production IBM AS/400 commercial systems, heaviest
    // to lightest.
    WorkloadParams p;
    p.name = "AS400-1";
    p.seed = 0xaf1007;
    p.mean_burst_requests = 100;
    p.mean_idle_ms = 180;
    p.idle_pareto_alpha = 1.4;
    p.intra_burst_gap_ms = 10;
    p.write_fraction = 0.60;
    p.size_dist = {{4096, 0.4}, {8192, 0.4}, {16384, 0.2}};
    p.seq_prob = 0.30;
    p.hot_regions = 6;
    p.hot_fraction = 0.6;
    p.hot_region_frac = 0.005;
    p.long_idle_prob = 0.04;
    p.mean_long_idle_ms = 45000;
    all.push_back(p);
  }
  {
    WorkloadParams p;
    p.name = "AS400-2";
    p.seed = 0xaf1008;
    p.mean_burst_requests = 60;
    p.mean_idle_ms = 350;
    p.idle_pareto_alpha = 1.3;
    p.intra_burst_gap_ms = 10;
    p.write_fraction = 0.50;
    p.size_dist = {{4096, 0.4}, {8192, 0.5}, {16384, 0.1}};
    p.seq_prob = 0.35;
    p.hot_regions = 6;
    p.hot_fraction = 0.6;
    p.hot_region_frac = 0.005;
    p.long_idle_prob = 0.10;
    p.mean_long_idle_ms = 60000;
    all.push_back(p);
  }
  {
    WorkloadParams p;
    p.name = "AS400-3";
    p.seed = 0xaf1009;
    p.mean_burst_requests = 35;
    p.mean_idle_ms = 500;
    p.idle_pareto_alpha = 1.3;
    p.intra_burst_gap_ms = 14;
    p.write_fraction = 0.45;
    p.size_dist = {{4096, 0.35}, {8192, 0.5}, {16384, 0.15}};
    p.seq_prob = 0.40;
    p.hot_regions = 5;
    p.hot_fraction = 0.55;
    p.hot_region_frac = 0.006;
    p.long_idle_prob = 0.15;
    p.mean_long_idle_ms = 90000;
    all.push_back(p);
  }
  {
    WorkloadParams p;
    p.name = "AS400-4";
    p.seed = 0xaf100a;
    p.mean_burst_requests = 90;
    p.mean_idle_ms = 250;
    p.idle_pareto_alpha = 1.35;
    p.intra_burst_gap_ms = 12;
    p.write_fraction = 0.65;
    p.size_dist = {{4096, 0.45}, {8192, 0.45}, {16384, 0.1}};
    p.seq_prob = 0.30;
    p.hot_regions = 6;
    p.hot_fraction = 0.6;
    p.hot_region_frac = 0.005;
    p.long_idle_prob = 0.08;
    p.mean_long_idle_ms = 45000;
    all.push_back(p);
  }
  return all;
}

bool FindWorkload(const std::string& name, WorkloadParams* out) {
  for (const WorkloadParams& p : PaperWorkloads()) {
    if (p.name == name) {
      *out = p;
      return true;
    }
  }
  return false;
}

}  // namespace afraid
