// Workload `rebuild`: the failure and reconstruction engine under live load.
//
// For each of "afraid", "raid6", "parity-log" and "mirror", one iteration
// builds Simulator + SchemeRegistry::Create + HostDriver on the paper array
// (content tracking on; "afraid" under the RAID 5 policy, as in
// bench/bench_rebuild_decluster.cc, so parity is current when the disk dies
// and the long degraded window does not pin t_unprot_fraction at 1), replays a steady open-loop trace, and mid-run calls
// FailDisk(0) -> ReplaceDisk(0) -> StartReconstruction(done), then runs to
// the end: the reconstruction sweep, degraded reads and ContentModel XOR.
// Reconstruction is measured by the done-callback window and by the ops the
// replacement disk completes inside it. Neither stripes_rebuilt (for AFRAID:
// deferred parity refreshed, 0 after a completed reconstruction) nor
// disk_ops_rebuild (AFRAID's parity-refresh ops; 0 for the other schemes)
// counts reconstruction work.

#include <algorithm>
#include <climits>
#include <cstdio>
#include <functional>
#include <utility>

#include "array/host_driver.h"
#include "array/scheme.h"
#include "core/experiment.h"
#include "core/scheme_registry.h"
#include "disk/disk_model.h"
#include "harness.h"
#include "obs/json.h"
#include "sim/simulator.h"

namespace perfbench {
namespace {

const char* const kSchemes[] = {"afraid", "raid6", "parity-log", "mirror"};

struct RebuildResult {
  std::string scheme;
  uint64_t requests = 0;
  double mean_ms = 0.0;
  double p99_ms = 0.0;
  double window_s = 0.0;  // FailDisk -> done callback, simulated.
  uint64_t replacement_ops = 0;  // Completed by disk 0 inside the window.
  uint64_t events = 0;
  afraid::SchemeStats stats;
  std::vector<std::string> problems;  // Failed checks.
  Metrics layer;                      // Traced runs only.
};

class Rebuild : public Workload {
 public:
  explicit Rebuild(const Options& opts) : opts_(opts) {
    cfg_ = PaperArray();
    cfg_.track_content = true;
    if (opts.tiny) {
      cfg_.disk_spec = afraid::DiskSpec::TinyTestDisk();
    }
  }

  const char* item() const override { return "request"; }

  std::string Describe() const override {
    return "fail, replace and reconstruct disk 0 under open-loop load, " +
           std::to_string(trace_.Size()) + " requests, 4 schemes";
  }

  Metrics Setup(SpanLog* /*spans*/) override {
    // Steady open load (short bursts and idles, no long quiet periods) over
    // the smallest data capacity, so every scheme serves the same bytes.
    afraid::WorkloadParams wl;
    wl.name = "rebuild-load";
    wl.seed = opts_.seed;
    wl.address_space_bytes = INT64_MAX;
    for (const char* s : kSchemes) {
      wl.address_space_bytes = std::min(
          wl.address_space_bytes,
          afraid::SchemeRegistry::DataCapacityBytes(s, cfg_));
    }
    wl.mean_burst_requests = 8.0;
    wl.mean_idle_ms = 60.0;
    wl.idle_pareto_alpha = 1.5;
    wl.max_idle_ms = 500.0;
    wl.intra_burst_gap_ms = 15.0;
    wl.write_fraction = 0.5;
    wl.size_dist = {{8192, 3.0}, {24576, 1.0}};
    wl.align_bytes = 8192;
    trace_ = afraid::GenerateWorkload(wl, opts_.tiny ? 400 : 6000,
                                      afraid::Minutes(60));
    if (trace_.Empty()) {
      Fatal("rebuild workload is empty");
    }
    return {};
  }

  Iteration Run(SpanLog* spans, Checks* checks, int32_t fan_out) override {
    Iteration it;
    ScopedSpan root(spans, "rebuild.iteration");
    // Each scheme is its own simulation over the same read-only trace.
    results_.assign(std::size(kSchemes), RebuildResult{});
    ParallelFor(results_.size(), spans != nullptr ? 1 : fan_out,
                [&](size_t i) { results_[i] = RunOne(kSchemes[i], spans); });
    afraid::JsonWriter w;
    w.BeginArray();
    for (const RebuildResult& r : results_) {
      checks->Op("rebuild " + r.scheme, r.problems);
      it.layer.insert(it.layer.end(), r.layer.begin(), r.layer.end());
      it.items += r.requests;
      w.BeginObject();
      w.Key("scheme").Value(r.scheme);
      w.Key("requests").Value(r.requests);
      w.Key("mean_ms").Value(r.mean_ms);
      w.Key("p99_ms").Value(r.p99_ms);
      w.Key("rebuild_window_s").Value(r.window_s);
      w.Key("sim_events").Value(r.events);
      w.Key("replacement_ops").Value(r.replacement_ops);
      w.Key("disk_ops_total").Value(r.stats.disk_ops_total);
      w.Key("disk_ops_rebuild").Value(r.stats.disk_ops_rebuild);
      w.Key("disk_ops_parity").Value(r.stats.disk_ops_parity);
      w.Key("loss_events").Value(r.stats.loss_events);
      w.Key("bytes_lost").Value(r.stats.bytes_lost);
      w.Key("t_unprot_fraction").Value(r.stats.t_unprot_fraction);
      w.EndObject();
    }
    w.EndArray();
    it.report = std::move(w).Take();
    return it;
  }

  Metrics Probe(SpanLog* /*spans*/) override { return {}; }

  Metrics LayerMetrics() const override {
    Metrics m;
    for (const std::string s : kSchemes) {
      m.push_back({"core.fail_replace_us." + s, 0, "us"});
      m.push_back({"core.reconstruct_ms." + s, 0, "ms"});
      m.push_back({"sim.events." + s, 0, "count"});
      m.push_back({"sim.ns_per_event." + s, 0, "ns"});
      m.push_back({"disk.ops_replacement." + s, 0, "count"});
      m.push_back({"core.rebuild_window_s." + s, 0, "sim_s"});
    }
    return m;
  }

  void PrintSimulated(std::FILE* out) const override {
    for (const RebuildResult& r : results_) {
      std::fprintf(out,
                   "simulated %-10s mean %.3f ms  p99 %.3f ms  window %.3f s  "
                   "replacement ops %llu  losses %llu\n",
                   r.scheme.c_str(), r.mean_ms, r.p99_ms, r.window_s,
                   static_cast<unsigned long long>(r.replacement_ops),
                   static_cast<unsigned long long>(r.stats.loss_events));
    }
  }

 private:
  // One scheme's run. Thread-safe when `spans` is null.
  RebuildResult RunOne(const std::string& scheme, SpanLog* spans) const {
    RebuildResult res;
    res.scheme = scheme;
    std::vector<std::string>& problems = res.problems;
    int32_t whole = -1;
    int32_t fail_replace = -1;
    int32_t reconstruct = -1;
    {
      ScopedSpan s(spans, "rebuild." + scheme);
      whole = s.id();
      const afraid::ArrayConfig cfg =
          afraid::SchemeRegistry::Normalize(scheme, cfg_);
      afraid::Simulator sim;
      afraid::SchemeContext ctx;
      ctx.sim = &sim;
      ctx.config = cfg;
      ctx.policy = afraid::PolicySpec::Raid5();
      ctx.avail = afraid::AvailabilityParamsFor(cfg);
      std::unique_ptr<afraid::ArrayScheme> ctl =
          afraid::SchemeRegistry::Create(scheme, ctx);
      if (ctl == nullptr) {
        Fatal("unknown scheme " + scheme);
      }
      afraid::HostDriver driver(&sim, ctl.get(), cfg.MaxActive());
      driver.ReserveLatencySamples(trace_.Size());

      // Open-loop arrivals, one pending event at a time.
      size_t next = 0;
      std::function<void()> feed = [&] {
        while (next < trace_.Size() && trace_.records[next].time <= sim.Now()) {
          const afraid::TraceRecord& r = trace_.records[next++];
          driver.Submit(r.offset, r.size, r.is_write);
        }
        if (next < trace_.Size()) {
          sim.At(trace_.records[next].time, [&] { feed(); });
        }
      };
      sim.At(trace_.records.front().time, [&] { feed(); });

      InSpan(spans, "sim.before_failure",
             [&] { sim.RunUntil(trace_.Duration() / 4); });
      const afraid::SimTime failed_at = sim.Now();
      bool failed = false;
      bool replaced = false;
      fail_replace = InSpan(spans, "core.fail_replace", [&] {
        failed = ctl->FailDisk(0);
        replaced = failed && ctl->ReplaceDisk(0);
      });
      // The reconstruction span runs from StartReconstruction to the done
      // callback, inside the simulator loop below; the remaining simulation
      // is its own span.
      bool done = false;
      int32_t after = -1;
      if (spans != nullptr) {
        reconstruct = spans->Begin("core.reconstruct");
      }
      const uint64_t ops_before = ctl->disk(0).OpsCompleted();
      const bool started = replaced && ctl->StartReconstruction([&] {
        done = true;
        res.window_s = afraid::ToSeconds(sim.Now() - failed_at);
        res.replacement_ops = ctl->disk(0).OpsCompleted() - ops_before;
        if (spans != nullptr) {
          spans->End(reconstruct);
          after = spans->Begin("sim.after_reconstruction");
        }
      });
      sim.RunToEnd();
      if (spans != nullptr) {
        spans->End(done ? after : reconstruct);
      }

      Expect(&problems, failed, "FailDisk(0) refused");
      Expect(&problems, replaced, "ReplaceDisk(0) refused");
      Expect(&problems, started, "StartReconstruction refused");
      Expect(&problems, done, "reconstruction done callback never fired");
      const uint64_t completed = driver.Completed();
      Expect(&problems, completed == trace_.Size() && driver.Drained(),
             "completed " + std::to_string(completed) + " of " +
                 std::to_string(trace_.Size()) + " requests");
      for (int32_t d = 0; d < ctl->num_disks(); ++d) {
        ExpectFraction(&problems, "disk " + std::to_string(d) + " utilization",
                       ctl->disk(d).UtilizationTo(sim.Now()));
      }
      res.stats = ctl->Stats();
      ExpectFraction(&problems, "t_unprot_fraction", res.stats.t_unprot_fraction);
      ExpectFraction(&problems, "idle_fraction", res.stats.idle_fraction);
      res.requests = completed;
      res.mean_ms = driver.AllLatencies().Mean();
      res.p99_ms = driver.AllLatencies().Percentile(0.99);
      res.events = sim.EventsProcessed();
    }
    if (spans != nullptr) {
      Metrics* layer = &res.layer;
      const double events = static_cast<double>(res.events);
      layer->push_back({"core.fail_replace_us." + scheme,
                        spans->TotalMs(fail_replace) * 1e3, "us"});
      layer->push_back({"core.reconstruct_ms." + scheme,
                        spans->TotalMs(reconstruct), "ms"});
      layer->push_back({"sim.events." + scheme, events, "count"});
      layer->push_back(
          {"sim.ns_per_event." + scheme,
           events > 0 ? static_cast<double>(spans->TotalNs(whole)) / events
                      : 0.0,
           "ns"});
      layer->push_back({"disk.ops_replacement." + scheme,
                        static_cast<double>(res.replacement_ops), "count"});
      layer->push_back(
          {"core.rebuild_window_s." + scheme, res.window_s, "sim_s"});
    }
    return res;
  }

  Options opts_;
  afraid::ArrayConfig cfg_;
  afraid::Trace trace_;
  std::vector<RebuildResult> results_;
};

}  // namespace

std::unique_ptr<Workload> MakeRebuild(const Options& opts) {
  return std::make_unique<Rebuild>(opts);
}

}  // namespace perfbench
