// Workload `campaign`: Monte-Carlo fault campaigns (faultsim) and the stats
// estimators.
//
// One iteration runs RunCampaign on exactly 2 threads, variance reduction
// off, on tiny-disk 5-disk arrays with the hplajw workload, for two
// policies that use the fault timeline in opposite ways: AFRAID baseline
// (drill-heavy: failures injected into the live array) and RAID 5
// (timeline-heavy: hundreds of disk failures per lifetime, no drills).

#include <cstdio>

#include "core/experiment.h"
#include "faultsim/campaign.h"
#include "faultsim/report.h"
#include "faultsim/runner.h"
#include "harness.h"

namespace perfbench {
namespace {

struct Policy {
  const char* label;
  afraid::PolicySpec spec;
  double cap_hours;  // Per-lifetime cap, as bench_mc_availability uses.
};

const Policy kPolicies[] = {
    {"afraid", afraid::PolicySpec::AfraidBaseline(), 5e7},
    {"raid5", afraid::PolicySpec::Raid5(), 1e8},
};

class Campaign : public Workload {
 public:
  explicit Campaign(const Options& opts)
      : opts_(opts), lifetimes_(opts.tiny ? 12 : 1000) {}

  const char* item() const override { return "lifetime"; }

  std::string Describe() const override {
    return "hplajw on tiny-disk 5-disk arrays, " + std::to_string(lifetimes_) +
           " lifetimes per policy (afraid, raid5), " +
           std::to_string(kThreads) + " threads";
  }

  Metrics Setup(SpanLog* /*spans*/) override {
    configs_.clear();
    afraid::WorkloadParams workload;
    if (!afraid::FindWorkload("hplajw", &workload)) {
      Fatal("no hplajw workload preset");
    }
    for (const Policy& p : kPolicies) {
      afraid::CampaignConfig c;
      c.array.disk_spec = afraid::DiskSpec::TinyTestDisk();
      c.array.num_disks = 5;
      c.array.stripe_unit_bytes = 8192;
      c.policy = p.spec;
      c.workload = workload;
      c.faults = afraid::FaultModelParams::From(
          afraid::AvailabilityParamsFor(c.array), afraid::SchemeFor(p.spec));
      c.lifetimes = lifetimes_;
      c.base_seed = opts_.seed;
      c.max_lifetime_hours = p.cap_hours;
      // Lifetime 0 run serially on a fresh arena: validates the config and
      // finishes lazy set-up before the timed phase.
      if (afraid::RunLifetime(c, 0).hours_observed <= 0.0) {
        Fatal(std::string("calibration lifetime failed for ") + p.label);
      }
      configs_.push_back(c);
    }
    return {};
  }

  Iteration Run(SpanLog* spans, Checks* checks, int32_t /*fan_out*/) override {
    Iteration it;
    ScopedSpan root(spans, "campaign.iteration");
    std::vector<afraid::SchemeComparison> rows;
    summaries_.clear();
    for (size_t i = 0; i < configs_.size(); ++i) {
      const afraid::CampaignConfig& c = configs_[i];
      afraid::CampaignSummary s;
      InSpan(spans, std::string("faultsim.campaign.") + kPolicies[i].label,
             [&] { s = afraid::RunCampaign(c, kThreads); });
      std::vector<std::string> problems;
      Expect(&problems, s.lifetimes == c.lifetimes,
             "ran " + std::to_string(s.lifetimes) + " of " +
                 std::to_string(c.lifetimes) + " lifetimes");
      ExpectFraction(&problems, "mean_t_unprot_fraction",
                     s.mean_t_unprot_fraction);
      ExpectFraction(&problems, "loss_probability", s.loss_probability.point);
      ExpectFraction(&problems, "loss_probability.lo", s.loss_probability.lo);
      ExpectFraction(&problems, "loss_probability.hi", s.loss_probability.hi);
      checks->Op(std::string("campaign ") + kPolicies[i].label, problems);
      it.items += static_cast<uint64_t>(s.lifetimes);
      rows.push_back(afraid::CompareWithModel(c, s));
      summaries_.push_back(s);
    }
    it.report = afraid::ComparisonJson(rows);
    return it;
  }

  Metrics Probe(SpanLog* spans) override {
    // Every lifetime run serially through one LifetimeArena, so per-lifetime
    // host time and event counts are visible.
    Metrics m;
    for (size_t i = 0; i < configs_.size(); ++i) {
      const afraid::CampaignConfig& c = configs_[i];
      const std::string l = kPolicies[i].label;
      afraid::LifetimeArena arena;
      std::vector<afraid::LifetimeResult> results;
      std::vector<double> lifetime_ms;
      double array_events = 0.0;
      double timeline_events = 0.0;
      double drills = 0.0;
      int64_t total_ns = 0;
      for (int32_t k = 0; k < c.lifetimes; ++k) {
        const int32_t id = InSpan(spans, "faultsim.lifetime." + l, [&] {
          results.push_back(afraid::RunLifetime(c, k, &arena));
        });
        lifetime_ms.push_back(spans->TotalMs(id));
        total_ns += spans->TotalNs(id);
        array_events += static_cast<double>(arena.array_sim.EventsProcessed());
        timeline_events +=
            static_cast<double>(arena.timeline_sim.EventsProcessed());
        drills += static_cast<double>(results.back().drills);
      }
      std::vector<double> summarize_ms;
      for (int rep = 0; rep < 5; ++rep) {
        const int32_t id = InSpan(spans, "stats.summarize." + l,
                                  [&] { afraid::Summarize(c, results); });
        summarize_ms.push_back(spans->TotalMs(id));
      }
      const double n = static_cast<double>(c.lifetimes);
      m.push_back({"faultsim.lifetime_p50_ms." + l, Percentile(lifetime_ms, 0.5),
                   "ms"});
      m.push_back({"faultsim.lifetime_p99_ms." + l,
                   Percentile(lifetime_ms, 0.99), "ms"});
      m.push_back({"faultsim.lifetime_samples." + l, n, "count"});
      m.push_back({"sim.array_events." + l, array_events / n, "count"});
      m.push_back({"sim.timeline_events." + l, timeline_events / n, "count"});
      m.push_back({"faultsim.ns_per_array_event." + l,
                   array_events > 0 ? static_cast<double>(total_ns) / array_events
                                    : 0.0,
                   "ns"});
      m.push_back({"faultsim.drills." + l, drills, "count"});
      m.push_back({"stats.summarize_ms." + l, Median(summarize_ms), "ms"});
    }
    return m;
  }

  Metrics LayerMetrics() const override {
    Metrics m;
    for (const Policy& p : kPolicies) {
      const std::string l = p.label;
      m.push_back({"faultsim.lifetime_p50_ms." + l, 0, "ms"});
      m.push_back({"faultsim.lifetime_p99_ms." + l, 0, "ms"});
      m.push_back({"faultsim.lifetime_samples." + l, 0, "count"});
      m.push_back({"sim.array_events." + l, 0, "count"});
      m.push_back({"sim.timeline_events." + l, 0, "count"});
      m.push_back({"faultsim.ns_per_array_event." + l, 0, "ns"});
      m.push_back({"faultsim.drills." + l, 0, "count"});
      m.push_back({"stats.summarize_ms." + l, 0, "ms"});
    }
    return m;
  }

  void PrintSimulated(std::FILE* out) const override {
    for (const afraid::CampaignSummary& s : summaries_) {
      std::fprintf(out,
                   "simulated %-18s MTTDL %.4g h  losses %llu  drills %llu  "
                   "failures %llu  t_unprot %.6f\n",
                   s.label.c_str(), s.mttdl_hours.point,
                   static_cast<unsigned long long>(s.loss_events),
                   static_cast<unsigned long long>(s.drills),
                   static_cast<unsigned long long>(s.disk_failures),
                   s.mean_t_unprot_fraction);
    }
  }

 private:
  Options opts_;
  int32_t lifetimes_;
  std::vector<afraid::CampaignConfig> configs_;
  std::vector<afraid::CampaignSummary> summaries_;
};

}  // namespace

std::unique_ptr<Workload> MakeCampaign(const Options& opts) {
  return std::make_unique<Campaign>(opts);
}

}  // namespace perfbench
