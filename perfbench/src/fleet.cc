// Workload `fleet`: the fixed-memory streaming path of the volume manager.
//
// Set-up builds a VolumeManager of 8 healthy AFRAID shards with
// consistent-hash sharding, generates a multi-tenant trace from the seed and
// records it with RecordFleetTrace. One iteration replays the recorded file
// with VolumeManager::RunStreamed on exactly 2 threads: routing, split-request
// joins and the parallel shard sweep. No shard fails, so no single shard's
// reconstruction hides the fleet layer.

#include <algorithm>
#include <cstdio>

#include "fleet/recorder.h"
#include "fleet/sharding.h"
#include "fleet/tenants.h"
#include "fleet/volume_manager.h"
#include "harness.h"

namespace perfbench {
namespace {

class Fleet : public Workload {
 public:
  explicit Fleet(const Options& opts)
      : opts_(opts),
        requests_(opts.tiny ? 3000 : 300000),
        tenants_(opts.tiny ? 40 : 3600),
        duration_(afraid::Minutes(opts.tiny ? 2 : 40)),
        path_(opts.work_dir + "/fleet-mix.trace") {
    cfg_.array = PaperArray();
    cfg_.scheme = "afraid";
    cfg_.policy = afraid::PolicySpec::AfraidBaseline();
    cfg_.sharding = afraid::ShardingKind::kConsistentHash;
    cfg_.num_shards = 8;
    cfg_.chunk_bytes = 4 << 20;
    cfg_.seed = opts.seed;
  }

  const char* item() const override { return "request"; }

  std::string Describe() const override {
    return "8 AFRAID shards, consistent hash, " + std::to_string(tenants_) +
           " tenants, up to " + std::to_string(requests_) + " requests, " +
           std::to_string(kThreads) + " threads";
  }

  Metrics Setup(SpanLog* spans) override {
    vm_ = std::make_unique<afraid::VolumeManager>(cfg_);
    afraid::FleetWorkloadParams wp;
    wp.name = "fleet-mix";
    wp.seed = opts_.seed;
    wp.num_tenants = tenants_;
    wp.max_requests = requests_;
    wp.max_duration = duration_;
    // Every tenant's request cap binds long before the duration does, so
    // spreading session starts over half the run keeps about 1200 sessions
    // active at once: busy shards, but not saturated ones.
    wp.start_jitter = duration_ / 2;
    const int32_t gen = InSpan(spans, "trace.fleet_generate", [&] {
      trace_ = afraid::GenerateFleetWorkload(wp, vm_->VolumeBytes());
    });
    afraid::TraceStatus st;
    const int32_t rec = InSpan(spans, "trace.fleet_record", [&] {
      st = afraid::RecordFleetTrace(trace_, path_);
    });
    if (!st.ok) {
      Fatal(st.Format(path_));
    }
    if (spans == nullptr) {
      return {};
    }
    return {{"trace.fleet_generate_ms", spans->TotalMs(gen), "ms"},
            {"trace.fleet_record_ms", spans->TotalMs(rec), "ms"}};
  }

  Iteration Run(SpanLog* spans, Checks* checks, int32_t /*fan_out*/) override {
    Iteration it;
    ScopedSpan root(spans, "fleet.iteration");
    afraid::VolumeManager::RunOptions ro;
    ro.threads = kThreads;
    afraid::TraceStatus st;
    const int32_t run = InSpan(spans, "fleet.run_streamed", [&] {
      report_ = vm_->RunStreamed(path_, afraid::StreamOptions(), ro, &st);
    });
    std::vector<std::string> problems;
    Expect(&problems, st.ok, "stream: " + st.Format(path_));
    Expect(&problems, report_.requests + report_.dropped == trace_.Size(),
           std::to_string(report_.requests) + " completed + " +
               std::to_string(report_.dropped) + " dropped != " +
               std::to_string(trace_.Size()) + " records");
    Expect(&problems, report_.dropped == 0, "healthy fleet dropped requests");
    uint64_t max_pieces = 0;
    for (const afraid::ShardReport& sh : report_.shards) {
      const std::string p = "shard " + std::to_string(sh.shard) + " ";
      ExpectFraction(&problems, p + "disk_utilization", sh.disk_utilization);
      ExpectFraction(&problems, p + "t_unprot_fraction", sh.t_unprot_fraction);
      max_pieces = std::max(max_pieces, sh.requests);
    }
    checks->Op("fleet run", problems);

    it.items = report_.requests;
    it.report = afraid::FleetReportToJson(report_);
    if (spans != nullptr) {
      it.layer = {
          {"fleet.run_streamed_ms", spans->TotalMs(run), "ms"},
          {"fleet.split_requests", static_cast<double>(report_.split_requests),
           "count"},
          {"fleet.imbalance_max_mean", report_.imbalance_max_mean, "ratio"},
          {"fleet.max_shard_pieces", static_cast<double>(max_pieces), "count"},
      };
    }
    return it;
  }

  Metrics Probe(SpanLog* spans) override {
    // ShardMap::SplitRange over every record: the routing share of a run.
    std::vector<double> ms;
    std::vector<afraid::ShardPiece> pieces;
    uint64_t total = 0;
    for (int rep = 0; rep < 5; ++rep) {
      const int32_t id = InSpan(spans, "fleet.route", [&] {
        for (const afraid::FleetRecord& r : trace_.records) {
          pieces.clear();
          vm_->shard_map().SplitRange(r.offset, r.size, &pieces);
          total += pieces.size();
        }
      });
      ms.push_back(spans->TotalMs(id));
    }
    if (total < 5 * trace_.Size()) {
      Fatal("routing produced fewer pieces than records");
    }
    return {{"fleet.route_ms", Median(ms), "ms"}};
  }

  Metrics LayerMetrics() const override {
    return {{"trace.fleet_generate_ms", 0, "ms"},
            {"trace.fleet_record_ms", 0, "ms"},
            {"fleet.route_ms", 0, "ms"},
            {"fleet.run_streamed_ms", 0, "ms"},
            {"fleet.split_requests", 0, "count"},
            {"fleet.imbalance_max_mean", 0, "ratio"},
            {"fleet.max_shard_pieces", 0, "count"}};
  }

  void PrintSimulated(std::FILE* out) const override {
    std::fprintf(out,
                 "simulated fleet %llu requests  mean %.3f ms  p99 %.3f ms  "
                 "p999 %.3f ms  imbalance %.4f  split %llu\n",
                 static_cast<unsigned long long>(report_.requests),
                 report_.mean_ms, report_.p99_ms, report_.p999_ms,
                 report_.imbalance_max_mean,
                 static_cast<unsigned long long>(report_.split_requests));
  }

 private:
  Options opts_;
  uint64_t requests_;
  int32_t tenants_;
  afraid::SimDuration duration_;
  std::string path_;
  afraid::FleetConfig cfg_;
  std::unique_ptr<afraid::VolumeManager> vm_;
  afraid::FleetTrace trace_;
  afraid::FleetReport report_;
};

}  // namespace

std::unique_ptr<Workload> MakeFleet(const Options& opts) {
  return std::make_unique<Fleet>(opts);
}

}  // namespace perfbench
