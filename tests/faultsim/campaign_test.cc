#include "faultsim/campaign.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "avail/model.h"
#include "core/experiment.h"
#include "faultsim/report.h"
#include "faultsim/runner.h"
#include "trace/workload_gen.h"

namespace afraid {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

CampaignConfig TestCampaign(const PolicySpec& policy, int32_t lifetimes,
                            double cap_hours) {
  CampaignConfig c;
  c.array.disk_spec = DiskSpec::TinyTestDisk();
  c.array.num_disks = 5;
  c.array.stripe_unit_bytes = 8192;
  c.policy = policy;
  c.workload = PaperWorkloads().front();
  c.faults = FaultModelParams::From(AvailabilityParamsFor(c.array),
                                    SchemeFor(policy));
  c.lifetimes = lifetimes;
  c.base_seed = 20240817;
  c.max_lifetime_hours = cap_hours;
  return c;
}

TEST(CampaignTest, ThreadCountDoesNotChangeResults) {
  const CampaignConfig cfg =
      TestCampaign(PolicySpec::AfraidBaseline(), /*lifetimes=*/12, 2e7);
  const std::vector<LifetimeResult> serial = RunCampaignLifetimes(cfg, 1);
  const std::vector<LifetimeResult> parallel = RunCampaignLifetimes(cfg, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].seed, parallel[i].seed) << i;
    EXPECT_EQ(serial[i].data_loss, parallel[i].data_loss) << i;
    EXPECT_EQ(serial[i].hours_observed, parallel[i].hours_observed) << i;
    EXPECT_EQ(serial[i].bytes_lost, parallel[i].bytes_lost) << i;
    EXPECT_EQ(serial[i].disk_failures, parallel[i].disk_failures) << i;
    EXPECT_EQ(serial[i].drills, parallel[i].drills) << i;
    EXPECT_EQ(serial[i].t_unprot_fraction, parallel[i].t_unprot_fraction) << i;
  }
  const CampaignSummary s1 = Summarize(cfg, serial);
  const CampaignSummary s4 = Summarize(cfg, parallel);
  EXPECT_EQ(s1.mttdl_hours.point, s4.mttdl_hours.point);
  EXPECT_EQ(s1.mdlr_bph.point, s4.mdlr_bph.point);
  EXPECT_EQ(s1.total_bytes_lost, s4.total_bytes_lost);
}

TEST(CampaignTest, Raid0LosesOnFirstFailureNearAnalyticRate) {
  // RAID 0: never rebuilds, so (after warmup writes) every stripe written
  // stays unprotected and the first unpredicted failure loses data.
  const CampaignConfig cfg = TestCampaign(PolicySpec::Raid0(), 40, 5e6);
  const CampaignSummary s = RunCampaign(cfg, 0);
  EXPECT_EQ(s.loss_events, static_cast<uint64_t>(s.lifetimes));
  EXPECT_EQ(s.catastrophic_events, 0u);
  EXPECT_EQ(s.predicted_averted, 0u);  // Prediction cannot help RAID 0.
  const double analytic = MttdlRaid0Hours(AvailabilityParamsFor(cfg.array));
  EXPECT_GT(s.mttdl_hours.point, 0.3 * analytic);
  EXPECT_LT(s.mttdl_hours.point, 3.0 * analytic);
  EXPECT_GT(s.total_bytes_lost, 0);
}

TEST(CampaignTest, Raid5NeverLosesToSingleFailures) {
  // RAID 5 keeps parity fresh: every single-failure drill is screened out
  // (nothing dirty) and losses can only be catastrophic dual failures.
  const CampaignConfig cfg = TestCampaign(PolicySpec::Raid5(), 15, 2e7);
  const CampaignSummary s = RunCampaign(cfg, 0);
  EXPECT_EQ(s.unprotected_loss_events, 0u);
  EXPECT_EQ(s.drills, 0u);
  EXPECT_NEAR(s.mean_t_unprot_fraction, 0.0, 1e-9);
  EXPECT_EQ(s.loss_events, s.catastrophic_events);
  // Loss events are astronomically rare here; whether zero or not, the CI
  // machinery must produce a usable finite lower bound.
  EXPECT_GT(s.mttdl_hours.lo, 0.0);
  EXPECT_LT(s.mttdl_hours.lo, kInf);
}

TEST(CampaignTest, AlwaysRedundantLifetimeRunsNoArray) {
  // RAID 5 never holds a stale stripe, so its lifetime is priced from the
  // fault timeline alone: the arena's array simulation processes no event.
  LifetimeArena arena;
  const LifetimeResult raid5 =
      RunLifetime(TestCampaign(PolicySpec::Raid5(), 1, 2e7), 0, &arena);
  EXPECT_GT(raid5.disk_failures, 0u);
  EXPECT_GT(arena.timeline_sim.EventsProcessed(), 0u);
  EXPECT_EQ(arena.array_sim.EventsProcessed(), 0u);
  // Baseline AFRAID can be stale, so it samples the live array.
  RunLifetime(TestCampaign(PolicySpec::AfraidBaseline(), 1, 2e7), 0, &arena);
  EXPECT_GT(arena.array_sim.EventsProcessed(), 0u);
}

TEST(CampaignTest, DrillsOnlyWhereParityLags) {
  // Dirty marks without parity lag cannot lose data: the parity log's staged
  // images keep parity live, and deferred-Q RAID 6 never defers P. Their
  // lifetimes drill nothing (AfraidSitsBetweenRaid0AndRaid5 checks that
  // baseline AFRAID's stale bands still are drilled).
  for (const char* scheme : {"parity-log", "raid6-deferQ"}) {
    CampaignConfig cfg = TestCampaign(PolicySpec::AfraidBaseline(), 6, 2e7);
    cfg.scheme = scheme;
    const CampaignSummary s = RunCampaign(cfg, 0);
    EXPECT_GT(s.disk_failures, 0u) << scheme;
    EXPECT_EQ(s.drills, 0u) << scheme;
  }
}

TEST(CampaignTest, AfraidSitsBetweenRaid0AndRaid5) {
  const CampaignSummary afraid =
      RunCampaign(TestCampaign(PolicySpec::AfraidBaseline(), 30, 5e7), 0);
  const CampaignSummary raid0 =
      RunCampaign(TestCampaign(PolicySpec::Raid0(), 30, 5e6), 0);
  ASSERT_GT(afraid.loss_events, 0u);
  ASSERT_GT(raid0.loss_events, 0u);
  // The paper's ordering: RAID 0 << AFRAID < RAID 5.
  EXPECT_GT(afraid.mttdl_hours.point, 10.0 * raid0.mttdl_hours.point);
  const double raid5_analytic = MttdlRaidCatastrophicHours(
      AvailabilityParamsFor(TestCampaign(PolicySpec::Raid5(), 1, 1.0).array));
  EXPECT_LT(afraid.mttdl_hours.point, raid5_analytic);
  // AFRAID's loss mode is the unprotected-stripe one.
  EXPECT_EQ(afraid.loss_events,
            afraid.unprotected_loss_events + afraid.catastrophic_events);
  EXPECT_GT(afraid.drills, 0u);
  EXPECT_GT(afraid.mean_t_unprot_fraction, 0.0);
  EXPECT_LT(afraid.mean_t_unprot_fraction, 1.0);
}

TEST(CampaignTest, SummaryAccountingIsConsistent) {
  const CampaignConfig cfg =
      TestCampaign(PolicySpec::AfraidBaseline(), 10, 2e7);
  const std::vector<LifetimeResult> lifetimes = RunCampaignLifetimes(cfg, 0);
  const CampaignSummary s = Summarize(cfg, lifetimes);
  EXPECT_EQ(s.lifetimes, 10);
  EXPECT_EQ(s.loss_events, s.unprotected_loss_events + s.catastrophic_events +
                               s.nvram_loss_events + s.support_loss_events);
  double hours = 0.0;
  for (const LifetimeResult& r : lifetimes) {
    EXPECT_LE(r.hours_observed, cfg.max_lifetime_hours);
    EXPECT_EQ(r.data_loss, r.bytes_lost > 0);
    hours += r.hours_observed;
  }
  EXPECT_DOUBLE_EQ(s.total_hours, hours);
  if (s.loss_events > 0) {
    EXPECT_DOUBLE_EQ(s.mttdl_hours.point,
                     s.total_hours / static_cast<double>(s.loss_events));
  }
}

// --- Rare-event acceleration -----------------------------------------------

// High failure rate so the naive estimator converges in few lifetimes; used
// to validate that the biased estimators agree with it.
CampaignConfig HighRateCampaign(int32_t lifetimes) {
  CampaignConfig c = TestCampaign(PolicySpec::AfraidBaseline(), lifetimes, 4e4);
  c.faults.mttf_disk_raw_hours = 1e5;
  c.base_seed = 20260808;
  return c;
}

TEST(CampaignVrTest, BiasedResultsAreThreadCountInvariant) {
  CampaignConfig cfg = HighRateCampaign(16);
  cfg.vr.mode = VrMode::kBiasing;
  cfg.vr.failure_bias = 4.0;
  const std::vector<LifetimeResult> serial = RunCampaignLifetimes(cfg, 1);
  const std::vector<LifetimeResult> parallel = RunCampaignLifetimes(cfg, 8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].seed, parallel[i].seed) << i;
    EXPECT_EQ(serial[i].data_loss, parallel[i].data_loss) << i;
    EXPECT_EQ(serial[i].hours_observed, parallel[i].hours_observed) << i;
    EXPECT_EQ(serial[i].bytes_lost, parallel[i].bytes_lost) << i;
    // The weight too is a pure function of (config, index): bit-identical
    // regardless of which worker ran the lifetime.
    EXPECT_EQ(serial[i].log_weight, parallel[i].log_weight) << i;
  }
  const CampaignSummary s1 = Summarize(cfg, serial);
  const CampaignSummary s8 = Summarize(cfg, parallel);
  EXPECT_EQ(s1.mttdl_hours.point, s8.mttdl_hours.point);
  EXPECT_EQ(s1.loss_probability.point, s8.loss_probability.point);
  EXPECT_EQ(s1.ess, s8.ess);
}

TEST(CampaignVrTest, ArenaReuseIsResultIdentical) {
  // One arena run through several lifetimes (with and without variance
  // reduction) must reproduce the fresh-construction results exactly.
  for (const bool vr_on : {false, true}) {
    CampaignConfig cfg = HighRateCampaign(4);
    if (vr_on) {
      cfg.vr.mode = VrMode::kBiasing;
      cfg.vr.failure_bias = 4.0;
    }
    LifetimeArena arena;
    for (int32_t i = 0; i < cfg.lifetimes; ++i) {
      const LifetimeResult fresh = RunLifetime(cfg, i);
      const LifetimeResult reused = RunLifetime(cfg, i, &arena);
      EXPECT_EQ(fresh.seed, reused.seed) << i;
      EXPECT_EQ(fresh.data_loss, reused.data_loss) << i;
      EXPECT_EQ(fresh.hours_observed, reused.hours_observed) << i;
      EXPECT_EQ(fresh.bytes_lost, reused.bytes_lost) << i;
      EXPECT_EQ(fresh.disk_failures, reused.disk_failures) << i;
      EXPECT_EQ(fresh.drills, reused.drills) << i;
      EXPECT_EQ(fresh.t_unprot_fraction, reused.t_unprot_fraction) << i;
      EXPECT_EQ(fresh.log_weight, reused.log_weight) << i;
    }
  }
}

TEST(CampaignVrTest, OffModeHasUnitWeightsAndFullEss) {
  const CampaignConfig cfg = HighRateCampaign(8);
  const std::vector<LifetimeResult> results = RunCampaignLifetimes(cfg, 0);
  for (const LifetimeResult& r : results) {
    EXPECT_EQ(r.log_weight, 0.0);
  }
  const CampaignSummary s = Summarize(cfg, results);
  EXPECT_EQ(s.vr_mode, VrMode::kOff);
  EXPECT_DOUBLE_EQ(s.ess, 8.0);
  EXPECT_DOUBLE_EQ(s.weighted_loss_events,
                   static_cast<double>(s.loss_events));
}

TEST(CampaignVrTest, BiasedEstimateLandsInsideNaiveCi) {
  // The unbiasedness validation from the issue: on a high-failure-rate
  // config where the naive estimator converges, the biased point estimates
  // must land inside the naive 95% CIs.
  const CampaignSummary naive = RunCampaign(HighRateCampaign(400), 0);
  ASSERT_GE(naive.loss_events, 5u);

  CampaignConfig biased_cfg = HighRateCampaign(400);
  biased_cfg.vr.mode = VrMode::kBiasing;
  biased_cfg.vr.failure_bias = 2.0;
  const CampaignSummary biased = RunCampaign(biased_cfg, 0);

  EXPECT_TRUE(naive.mttdl_hours.Contains(biased.mttdl_hours.point))
      << "biased MTTDL " << biased.mttdl_hours.point << " outside naive ["
      << naive.mttdl_hours.lo << ", " << naive.mttdl_hours.hi << "]";
  EXPECT_TRUE(naive.loss_probability.Contains(biased.loss_probability.point))
      << "biased P[loss] " << biased.loss_probability.point
      << " outside naive [" << naive.loss_probability.lo << ", "
      << naive.loss_probability.hi << "]";
  // Biasing multiplies observed loss events and keeps the weights healthy at
  // this mild factor.
  EXPECT_GT(biased.loss_events, naive.loss_events);
  EXPECT_GT(biased.ess, 0.4 * 400);
}

TEST(CampaignVrTest, ForcingAcceleratesRareLossConfig) {
  // At a rare-event cap (fault-rate x cap << 1) forcing must put faults in
  // every lifetime while the naive campaign mostly samples nothing.
  CampaignConfig cfg = TestCampaign(PolicySpec::AfraidBaseline(), 60, 2000.0);
  cfg.faults.mttf_disk_raw_hours = 1e5;
  cfg.base_seed = 20260808;
  const CampaignSummary naive = RunCampaign(cfg, 0);

  CampaignConfig forced_cfg = cfg;
  forced_cfg.vr.mode = VrMode::kForcing;
  const CampaignSummary forced = RunCampaign(forced_cfg, 0);

  // Every forced lifetime saw at least one fault; the naive one mostly none.
  EXPECT_GE(forced.disk_failures + forced.predicted_averted,
            static_cast<uint64_t>(forced.lifetimes));
  EXPECT_LT(naive.disk_failures + naive.predicted_averted,
            forced.disk_failures + forced.predicted_averted);
  // Pure forcing weights are the constant window mass: no weight degeneracy.
  EXPECT_NEAR(forced.ess, 60.0, 1e-6);
}

TEST(CampaignTest, NvramVulnerableBytesCauseLossEvents) {
  // A PrestoServe-style single-copy NVRAM holding client data: each NVRAM
  // loss is a data-loss event (Section 3.4).
  CampaignConfig cfg = TestCampaign(PolicySpec::Raid5(), 10, 2e7);
  cfg.faults.nvram_mttf_hours = 15000.0;
  cfg.faults.nvram_vulnerable_bytes = 1 << 20;
  const CampaignSummary s = RunCampaign(cfg, 0);
  // MTTF 15k hours vs a 2e7-hour window: every lifetime loses, immediately
  // on its first NVRAM loss.
  EXPECT_EQ(s.loss_events, static_cast<uint64_t>(s.lifetimes));
  EXPECT_EQ(s.loss_events, s.nvram_loss_events);
  EXPECT_EQ(s.total_bytes_lost, 10 * (1 << 20));
  // And the empirical MTTDL should sit near the NVRAM MTTF.
  EXPECT_GT(s.mttdl_hours.point, 0.3 * 15000.0);
  EXPECT_LT(s.mttdl_hours.point, 3.0 * 15000.0);
}

TEST(CampaignTest, ComparisonReportMatchesModelHelpers) {
  const CampaignConfig cfg = TestCampaign(PolicySpec::Raid0(), 20, 5e6);
  const CampaignSummary s = RunCampaign(cfg, 0);
  const SchemeComparison cmp = CompareWithModel(cfg, s);
  EXPECT_EQ(cmp.scheme, RedundancyScheme::kRaid0);
  const AvailabilityParams p = AvailabilityParamsFor(cfg.array);
  EXPECT_DOUBLE_EQ(cmp.analytic_mttdl_hours, MttdlRaid0Hours(p));
  EXPECT_DOUBLE_EQ(cmp.analytic_mdlr_bph, MdlrRaid0Bph(p));
  EXPECT_GT(cmp.mttdl_ratio, 0.0);
  EXPECT_EQ(cmp.mttdl_in_ci, s.mttdl_hours.Contains(cmp.analytic_mttdl_hours));
  // The emitters must serialize without infinities leaking into JSON.
  const std::string json = ComparisonJson({cmp});
  EXPECT_NE(json.find("\"scheme\": \"RAID 0\""), std::string::npos);
  EXPECT_EQ(json.find("inf"), std::string::npos);
  const std::string csv = ComparisonCsv({cmp});
  EXPECT_NE(csv.find("RAID 0"), std::string::npos);
}

}  // namespace
}  // namespace afraid
