#include "faultsim/campaign.h"

#include <cmath>
#include <optional>

#include "core/experiment.h"
#include "core/scheme_registry.h"
#include "faultsim/exposure.h"
#include "faultsim/scenario.h"
#include "sim/random.h"

namespace afraid {
namespace {

// Bytes lost to a catastrophic dual failure: two disks' worth, less the
// parity fraction (the numerator of Eq. (3)).
double CatastrophicLossBytes(const AvailabilityParams& p) {
  return 2.0 * p.disk_bytes * p.num_data_disks / (p.num_data_disks + 1);
}

}  // namespace

LifetimeResult RunLifetime(const CampaignConfig& config, int32_t index) {
  return RunLifetime(config, index, nullptr);
}

LifetimeResult RunLifetime(const CampaignConfig& config, int32_t index,
                           LifetimeArena* arena) {
  if (arena != nullptr) {
    arena->Reset();
  }
  LifetimeResult res;
  res.seed = DeriveStreamSeed(config.base_seed, static_cast<uint64_t>(index));
  Rng seeds(res.seed);
  const uint64_t scenario_seed = static_cast<uint64_t>(seeds.engine()());
  const uint64_t exposure_seed = static_cast<uint64_t>(seeds.engine()());
  const uint64_t sample_seed = static_cast<uint64_t>(seeds.engine()());
  Rng sampler(sample_seed);

  const AvailabilityParams avail = AvailabilityParamsFor(config.array);

  // An always-redundant array has no exposure to sample: no stripe is ever
  // stale, so its lifetime runs no array simulation at all.
  std::optional<ExposureModel> exposure;
  if (!SchemeRegistry::AlwaysRedundant(config.scheme, config.policy)) {
    exposure.emplace(config.scheme, config.array, config.policy,
                     config.workload, exposure_seed,
                     arena != nullptr ? &arena->array_sim : nullptr);
    exposure->Advance(config.exposure_warmup);
    while (exposure->RequestsCompleted() < config.warmup_requests) {
      exposure->Advance(Seconds(10));
    }
  }

  auto sample_gap = [&]() -> SimDuration {
    return static_cast<SimDuration>(
        sampler.UniformDouble(static_cast<double>(config.min_sample_gap),
                              static_cast<double>(config.max_sample_gap)));
  };

  auto record_loss = [&](double now_hours, int64_t bytes) {
    res.data_loss = true;
    res.first_loss_hours = now_hours;
    res.bytes_lost += bytes;
  };

  ScenarioEngine* engine = nullptr;
  ScenarioEvents events;
  events.on_disk_failure = [&](int32_t disk, double now_hours) {
    if (engine->FailedDisks() >= 2) {
      // A second unpredicted failure inside an open repair window: the
      // redundant copy is gone too. Priced analytically (Eq. (3) numerator);
      // the array simulation models at most one concurrent failure. RAID 0
      // lifetimes almost never reach this: the first failure already loses.
      ++res.catastrophic_events;
      record_loss(now_hours,
                  static_cast<int64_t>(CatastrophicLossBytes(avail)));
      engine->Stop();
      return;
    }
    if (!exposure) {
      return;  // Nothing stale: reconstruction provably loses nothing.
    }
    // Sample the stationary exposure process at a fresh random instant.
    exposure->Advance(sample_gap());
    if (exposure->CurrentParityLagBytes() == 0.0) {
      // No byte lacks live redundancy: reconstruction provably loses
      // nothing, so skip the (expensive) drill. This is the common case for
      // AFRAID after a long idle period, and always so for the parity log
      // (its staged images keep parity live) and deferred-Q RAID 6 (P is
      // never stale).
      return;
    }
    ++res.drills;
    const DrillResult drill = exposure->FailureDrill(disk);
    if (drill.bytes_lost > 0) {
      // One fault with stale stripes = one data-loss incident (Eq. (2a)'s
      // event), however many stripes it touched.
      ++res.unprotected_loss_events;
      record_loss(now_hours, drill.bytes_lost);
      engine->Stop();
    }
  };
  events.on_nvram_loss = [&](double now_hours) {
    // Exercise the controller's conservative scrub-the-world response; the
    // marking memory itself holds no client data, so loss only occurs when
    // the NVRAM is configured as also caching vulnerable client bytes.
    int64_t bytes = static_cast<int64_t>(config.faults.nvram_vulnerable_bytes);
    if (exposure) {
      bytes += exposure->NvramDrill().bytes_lost;  // Scrub itself is lossless.
    }
    if (bytes > 0) {
      ++res.nvram_loss_events;
      record_loss(now_hours, bytes);
      engine->Stop();
    }
  };
  events.on_support_loss = [&](double now_hours) {
    ++res.support_loss_events;
    record_loss(now_hours, static_cast<int64_t>(avail.ArrayDataBytes()));
    engine->Stop();
  };

  ScenarioEngine scenario(config.faults, config.array.num_disks, scenario_seed,
                          events, config.vr, config.max_lifetime_hours,
                          arena != nullptr ? &arena->timeline_sim : nullptr);
  engine = &scenario;
  scenario.RunUntil(config.max_lifetime_hours);

  res.hours_observed =
      res.data_loss ? res.first_loss_hours : config.max_lifetime_hours;
  res.log_weight = scenario.FinalLogWeight(res.hours_observed);
  res.disk_failures = scenario.DiskFailures();
  res.predicted_averted = scenario.PredictedAverted();
  res.nvram_losses = scenario.NvramLosses();
  if (exposure) {
    res.t_unprot_fraction = exposure->TUnprotFraction();
    res.mean_parity_lag_bytes = exposure->MeanParityLagBytes();
  }
  return res;
}

CampaignSummary Summarize(const CampaignConfig& config,
                          const std::vector<LifetimeResult>& lifetimes) {
  CampaignSummary s;
  s.label = config.Label();
  s.lifetimes = static_cast<int32_t>(lifetimes.size());
  if (lifetimes.empty()) {
    return s;  // The estimators below need at least one observed lifetime.
  }
  std::vector<double> loss_bytes;
  std::vector<double> hours;
  std::vector<double> log_w;
  std::vector<double> loss_ind;
  loss_bytes.reserve(lifetimes.size());
  hours.reserve(lifetimes.size());
  log_w.reserve(lifetimes.size());
  loss_ind.reserve(lifetimes.size());
  // Strictly sequential reduction in lifetime order: keeps the summary
  // bit-identical regardless of how many threads produced the results.
  for (const LifetimeResult& r : lifetimes) {
    s.total_hours += r.hours_observed;
    s.loss_events += r.data_loss ? 1 : 0;
    s.total_bytes_lost += r.bytes_lost;
    s.unprotected_loss_events += r.unprotected_loss_events;
    s.catastrophic_events += r.catastrophic_events;
    s.nvram_loss_events += r.nvram_loss_events;
    s.support_loss_events += r.support_loss_events;
    s.disk_failures += r.disk_failures;
    s.predicted_averted += r.predicted_averted;
    s.drills += r.drills;
    s.mean_t_unprot_fraction += r.t_unprot_fraction;
    s.mean_parity_lag_bytes += r.mean_parity_lag_bytes;
    loss_bytes.push_back(static_cast<double>(r.bytes_lost));
    hours.push_back(r.hours_observed);
    log_w.push_back(r.log_weight);
    loss_ind.push_back(r.data_loss ? 1.0 : 0.0);
  }
  s.mean_t_unprot_fraction /= static_cast<double>(lifetimes.size());
  s.mean_parity_lag_bytes /= static_cast<double>(lifetimes.size());
  s.vr_mode = config.vr.mode;
  s.failure_bias = config.vr.RateMultiplier();
  s.ess = WeightEss(log_w);  // == lifetimes when vr is off (all weights 1).
  s.loss_probability = WeightedMeanCi(log_w, loss_ind);
  if (config.vr.Enabled()) {
    // Forcing conditions every sampled lifetime on at least one fault inside
    // the window, so the fault-free path's censored observation mass
    // exp(-Lambda H) * H re-enters the hour denominators analytically.
    const double censored_mass_hours =
        std::exp(-TotalFaultRatePerHour(config.faults, config.array.num_disks) *
                 config.max_lifetime_hours) *
        config.max_lifetime_hours;
    s.mttdl_hours =
        WeightedMttdlCiHours(log_w, loss_ind, hours, censored_mass_hours);
    s.mdlr_bph = WeightedRatioCi(log_w, loss_bytes, hours, censored_mass_hours);
    for (size_t i = 0; i < log_w.size(); ++i) {
      s.weighted_loss_events += std::exp(log_w[i]) * loss_ind[i];
    }
  } else {
    s.mttdl_hours = MttdlCiHours(s.loss_events, s.total_hours);
    s.mdlr_bph = RatioCi(loss_bytes, hours);
    s.weighted_loss_events = static_cast<double>(s.loss_events);
  }
  return s;
}

}  // namespace afraid
