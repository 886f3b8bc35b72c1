// Workload `replay`: the paper's core experiment on the in-memory plan path.
//
// Set-up generates a netware-like trace from the seed and records it to a
// text file. One iteration loads it with LoadTraceFile and replays it through
// Experiment once per configuration: the RAID 5, AFRAID and MTTDL_x policies
// on "afraid", plus "raid6", "parity-log" and "mirror". No reconstruction,
// fleet or faultsim code runs.
//
// RAID 0 is left out: its unprotected-time fraction is 1 by definition, and
// the simulator's floating-point time integrator lands a few ulp above 1 on
// about 2 seeds in 5, which the exact [0, 1] check rightly fails.

#include <algorithm>
#include <climits>
#include <cstdio>
#include <utility>

#include "array/decluster.h"
#include "array/plan.h"
#include "core/experiment.h"
#include "core/scheme_registry.h"
#include "disk/geometry.h"
#include "harness.h"
#include "obs/json.h"
#include "obs/report_io.h"
#include "trace/recorder.h"

namespace perfbench {
namespace {

using afraid::PolicySpec;

struct ReplayConfig {
  const char* label;
  const char* scheme;
  PolicySpec policy;
};

const ReplayConfig kConfigs[] = {
    {"raid5", "afraid", PolicySpec::Raid5()},
    {"afraid", "afraid", PolicySpec::AfraidBaseline()},
    {"mttdl", "afraid", PolicySpec::MttdlTarget(1e7)},
    {"raid6", "raid6", PolicySpec::AfraidBaseline()},
    {"parity-log", "parity-log", PolicySpec::AfraidBaseline()},
    {"mirror", "mirror", PolicySpec::AfraidBaseline()},
};

class Replay : public Workload {
 public:
  explicit Replay(const Options& opts)
      : opts_(opts),
        requests_(opts.tiny ? 2000 : 200000),
        path_(opts.work_dir + "/replay-netware.trace") {}

  const char* item() const override { return "request"; }

  std::string Describe() const override {
    return "netware trace, " + std::to_string(requests_) +
           " requests, 6 configurations on the paper array";
  }

  Metrics Setup(SpanLog* /*spans*/) override {
    afraid::WorkloadParams p;
    if (!afraid::FindWorkload("netware", &p)) {
      Fatal("no netware workload preset");
    }
    p.seed = opts_.seed;
    // Every configuration must address the whole trace: size it to the
    // smallest data capacity (the mirror's).
    p.address_space_bytes = INT64_MAX;
    for (const ReplayConfig& c : kConfigs) {
      p.address_space_bytes = std::min(
          p.address_space_bytes,
          afraid::SchemeRegistry::DataCapacityBytes(c.scheme, PaperArray()));
    }
    const afraid::Trace trace =
        afraid::GenerateWorkload(p, requests_, afraid::Minutes(24 * 60));
    if (trace.Size() != requests_) {
      Fatal("netware generator made " + std::to_string(trace.Size()) +
            " requests, wanted " + std::to_string(requests_));
    }
    const afraid::TraceStatus st = afraid::RecordTrace(trace, path_);
    if (!st.ok) {
      Fatal(st.Format(path_));
    }
    return {};
  }

  Iteration Run(SpanLog* spans, Checks* checks, int32_t fan_out) override {
    Iteration it;
    ScopedSpan root(spans, "replay.iteration");
    afraid::TraceStatus st;
    const int32_t parse = InSpan(spans, "trace.parse", [&] {
      st = afraid::LoadTraceFile(path_, &trace_);
    });
    checks->Op("load trace", st.ok ? std::vector<std::string>{}
                                   : std::vector<std::string>{st.Format(path_)});
    if (spans != nullptr) {
      it.layer.push_back({"trace.parse_ms", spans->TotalMs(parse), "ms"});
    }

    // The configurations are independent simulations over the same
    // read-only trace.
    constexpr size_t kCount = std::size(kConfigs);
    std::vector<afraid::SimReport> reps(kCount);
    std::vector<int32_t> runs(kCount, -1);
    ParallelFor(kCount, spans != nullptr ? 1 : fan_out, [&](size_t i) {
      const ReplayConfig& c = kConfigs[i];
      runs[i] = InSpan(spans, std::string("core.run.") + c.label, [&] {
        reps[i] = afraid::Experiment(PaperArray())
                      .Scheme(c.scheme)
                      .Policy(c.policy)
                      .Trace(trace_)
                      .Run();
      });
    });

    afraid::JsonWriter w;
    w.BeginArray();
    reports_.clear();
    for (size_t i = 0; i < kCount; ++i) {
      const std::string l = kConfigs[i].label;
      const afraid::SimReport& rep = reps[i];
      const int32_t run = runs[i];
      std::vector<std::string> problems;
      Expect(&problems, rep.requests == trace_.Size(),
             "completed " + std::to_string(rep.requests) + " of " +
                 std::to_string(trace_.Size()) + " requests");
      ExpectFraction(&problems, "disk_utilization", rep.disk_utilization);
      ExpectFraction(&problems, "t_unprot_fraction", rep.t_unprot_fraction);
      ExpectFraction(&problems, "idle_fraction", rep.idle_fraction);
      checks->Op("replay " + l, problems);

      it.items += rep.requests;
      afraid::AppendSimReportJson(w, rep);
      if (spans != nullptr) {
        const double ops = static_cast<double>(rep.disk_ops_total);
        it.layer.push_back({"core.run_ms." + l, spans->SelfMs(run), "ms"});
        it.layer.push_back(
            {"core.ns_per_disk_op." + l,
             ops > 0 ? static_cast<double>(spans->TotalNs(run)) / ops : 0.0,
             "ns"});
        it.layer.push_back({"disk.ops." + l, ops, "count"});
        it.layer.push_back({"disk.ops_parity." + l,
                            static_cast<double>(rep.disk_ops_parity), "count"});
        it.layer.push_back({"disk.util." + l, rep.disk_utilization, "fraction"});
        it.layer.push_back(
            {"array.queue_depth." + l, rep.mean_queue_depth, "requests"});
        if (l == "afraid") {
          // For AFRAID, stripes_rebuilt counts deferred parity refreshed.
          it.layer.push_back({"core.parity_refreshes.afraid",
                              static_cast<double>(rep.stripes_rebuilt),
                              "count"});
        }
      }
      reports_.emplace_back(l, rep);
    }
    w.EndArray();
    it.report = std::move(w).Take();
    return it;
  }

  Metrics Probe(SpanLog* spans) override {
    // A RequestPlan compiled over the paper array's layout: the work
    // Experiment::Run does before each replay, timed on its own.
    const afraid::ArrayConfig cfg = PaperArray();
    const afraid::DiskGeometry geom(cfg.disk_spec.zones, cfg.disk_spec.heads,
                                    cfg.disk_spec.sector_bytes);
    const auto layout = afraid::MakeLayout(cfg.layout, cfg.num_disks,
                                           cfg.stripe_unit_bytes,
                                           geom.CapacityBytes(),
                                           cfg.parity_blocks);
    std::vector<double> ms;
    for (int rep = 0; rep < 5; ++rep) {
      size_t planned = 0;
      const int32_t id = InSpan(spans, "array.plan_compile", [&] {
        planned = afraid::RequestPlan(trace_, *layout).size();
      });
      if (planned != trace_.Size()) {
        Fatal("request plan does not cover the trace");
      }
      ms.push_back(spans->TotalMs(id));
    }
    return {{"array.plan_compile_ms", Median(ms), "ms"}};
  }

  Metrics LayerMetrics() const override {
    Metrics m = {{"trace.parse_ms", 0, "ms"},
                 {"array.plan_compile_ms", 0, "ms"}};
    for (const ReplayConfig& c : kConfigs) {
      const std::string l = c.label;
      m.push_back({"core.run_ms." + l, 0, "ms"});
      m.push_back({"core.ns_per_disk_op." + l, 0, "ns"});
      m.push_back({"disk.ops." + l, 0, "count"});
      m.push_back({"disk.ops_parity." + l, 0, "count"});
      m.push_back({"disk.util." + l, 0, "fraction"});
      m.push_back({"array.queue_depth." + l, 0, "requests"});
    }
    m.push_back({"core.parity_refreshes.afraid", 0, "count"});
    return m;
  }

  void PrintSimulated(std::FILE* out) const override {
    for (const auto& [label, rep] : reports_) {
      std::fprintf(out,
                   "simulated %-10s mean %.3f ms  p95 %.3f ms  util %.4f  "
                   "t_unprot %.6f  MTTDL %.4g h\n",
                   label.c_str(), rep.mean_io_ms, rep.p95_io_ms,
                   rep.disk_utilization, rep.t_unprot_fraction,
                   rep.avail.mttdl_overall_hours);
    }
  }

 private:
  Options opts_;
  uint64_t requests_;
  std::string path_;
  afraid::Trace trace_;
  std::vector<std::pair<std::string, afraid::SimReport>> reports_;
};

}  // namespace

std::unique_ptr<Workload> MakeReplay(const Options& opts) {
  return std::make_unique<Replay>(opts);
}

}  // namespace perfbench
