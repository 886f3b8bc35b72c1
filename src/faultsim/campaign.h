// The Monte-Carlo availability campaign: many independent simulated array
// lifetimes, each running the fault timeline (scenario.h) against a live
// array (exposure.h), accumulated into empirical MTTDL/MDLR estimates with
// confidence intervals.
//
// One lifetime = one seeded realization of the fault process, run until the
// FIRST data-loss event or a time cap (right-censoring; the estimators in
// stats/confidence.h handle both). Loss modes detected:
//
//   * catastrophic dual failure -- a second unpredicted disk failure inside
//     an open repair window (Eq. 1/3's mode; priced from the timeline, since
//     the controller models at most one concurrent failure);
//   * unprotected-stripe loss on a single failure -- measured by injecting
//     the failure into the live controller and reading its loss-event hooks
//     (Eq. 2a/4's mode, with the controller's actual loss semantics);
//   * NVRAM loss -- the marking-memory scrub via the controller, plus the
//     Section 3.4 vulnerable-data loss when configured;
//   * support-hardware loss -- whole-array (Section 3.3), when configured.
//
// An always-redundant array (SchemeRegistry::AlwaysRedundant) never holds a
// stale stripe, so its lifetimes build no live array: every fault is priced
// from the timeline alone, and both exposure statistics are 0.
//
// Every lifetime is a pure function of (config, lifetime index): seeds come
// from DeriveStreamSeed(base_seed, index), so results are bit-identical no
// matter how lifetimes are scheduled across worker threads (runner.h).

#ifndef AFRAID_FAULTSIM_CAMPAIGN_H_
#define AFRAID_FAULTSIM_CAMPAIGN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/array_config.h"
#include "core/policy.h"
#include "faultsim/fault_model.h"
#include "sim/simulator.h"
#include "sim/time.h"
#include "stats/confidence.h"
#include "trace/workload_gen.h"

namespace afraid {

struct CampaignConfig {
  std::string label;        // Row label in reports (defaults to policy label).
  ArrayConfig array;        // Keep it small: every drill sweeps all stripes.
  // Array organization, by registry name (src/core/scheme_registry.h).
  std::string scheme = "afraid";
  PolicySpec policy;
  WorkloadParams workload;  // Address space is sized to the array internally.
  FaultModelParams faults;
  int32_t lifetimes = 200;
  uint64_t base_seed = 1;
  // Cap per lifetime; lifetimes that never lose data are right-censored here.
  double max_lifetime_hours = 5e7;
  // Rare-event acceleration (fault_model.h): off by default, in which case
  // trajectories are byte-identical to the historical unweighted campaign.
  // When enabled, every lifetime carries a log likelihood-ratio weight and
  // Summarize() switches to the weighted estimators.
  VarianceReduction vr;
  // Array-sim warmup before the first sample: at least this much time AND at
  // least `warmup_requests` completed requests (so a cold start into one of
  // the workload's long idle periods still accumulates write history).
  SimDuration exposure_warmup = Seconds(30);
  uint64_t warmup_requests = 200;
  // Decorrelation advance of the array sim before each fault samples the
  // stationary exposure process.
  SimDuration min_sample_gap = Seconds(1);
  SimDuration max_sample_gap = Seconds(8);

  std::string Label() const { return label.empty() ? policy.Label() : label; }
};

// Outcome of one simulated lifetime.
struct LifetimeResult {
  uint64_t seed = 0;
  bool data_loss = false;
  double hours_observed = 0.0;  // first_loss_hours if loss, else the cap.
  double first_loss_hours = 0.0;
  int64_t bytes_lost = 0;

  // Which mode ended the lifetime (at most one fires; a lifetime stops at
  // its first loss).
  uint32_t unprotected_loss_events = 0;
  uint32_t catastrophic_events = 0;
  uint32_t nvram_loss_events = 0;
  uint32_t support_loss_events = 0;

  // Fault-process accounting.
  uint64_t disk_failures = 0;      // Unpredicted (degraded-window) failures.
  uint64_t predicted_averted = 0;  // Predicted and proactively migrated.
  uint64_t nvram_losses = 0;
  uint64_t drills = 0;             // Failures injected into the live array.

  // Exposure statistics measured by this lifetime's array simulation (the
  // analytic model's inputs, measured on exactly the hardware+workload the
  // campaign injected faults into).
  double t_unprot_fraction = 0.0;
  double mean_parity_lag_bytes = 0.0;

  // Log likelihood ratio of the nominal fault process against the sampled
  // one at this lifetime's stopping time. Exactly 0 with vr off; a pure
  // function of (config, lifetime index) either way.
  double log_weight = 0.0;
};

// Reusable per-worker simulation state: the two discrete-event simulators a
// lifetime needs (the array simulation, which always-redundant lifetimes
// leave untouched, and the fault timeline). Reset() between lifetimes
// retains their event-queue slab storage, so a sweep worker pays allocation
// cost once instead of per lifetime.
struct LifetimeArena {
  Simulator array_sim;
  Simulator timeline_sim;

  void Reset() {
    array_sim.Reset();
    timeline_sim.Reset();
  }
};

// Runs lifetime `index` of the campaign. Deterministic in (config, index).
LifetimeResult RunLifetime(const CampaignConfig& config, int32_t index);

// As above, reusing `arena`'s simulators (resets them first). Results are
// identical to the arena-free overload.
LifetimeResult RunLifetime(const CampaignConfig& config, int32_t index,
                           LifetimeArena* arena);

// Aggregated campaign estimates.
struct CampaignSummary {
  std::string label;
  int32_t lifetimes = 0;
  double total_hours = 0.0;
  uint64_t loss_events = 0;  // Lifetimes that ended in data loss.
  int64_t total_bytes_lost = 0;

  uint64_t unprotected_loss_events = 0;
  uint64_t catastrophic_events = 0;
  uint64_t nvram_loss_events = 0;
  uint64_t support_loss_events = 0;
  uint64_t disk_failures = 0;
  uint64_t predicted_averted = 0;
  uint64_t drills = 0;

  // Means over lifetimes of the measured exposure inputs.
  double mean_t_unprot_fraction = 0.0;
  double mean_parity_lag_bytes = 0.0;

  // Empirical estimates (95% CIs; see stats/confidence.h). With variance
  // reduction on these come from the weighted (importance-sampled)
  // estimators; otherwise they are the historical unweighted ones.
  ConfidenceInterval mttdl_hours;
  ConfidenceInterval mdlr_bph;
  // Probability a lifetime ends in data loss before the cap.
  ConfidenceInterval loss_probability;

  // Variance-reduction diagnostics. `ess` is the Kish effective sample size
  // of the lifetime weights (== lifetimes when vr is off);
  // `weighted_loss_events` is the weighted loss count sum(w_i * loss_i).
  VrMode vr_mode = VrMode::kOff;
  double failure_bias = 1.0;
  double ess = 0.0;
  double weighted_loss_events = 0.0;
};

CampaignSummary Summarize(const CampaignConfig& config,
                          const std::vector<LifetimeResult>& lifetimes);

}  // namespace afraid

#endif  // AFRAID_FAULTSIM_CAMPAIGN_H_
