// The registry's always-redundant fact, checked against the live array in
// both directions: a scheme labelled always redundant must read clean at
// every exposure sample the campaign could take, and every other scheme must
// be seen stale at some sample. A row mislabelled either way fails.

#include "faultsim/exposure.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/scheme_registry.h"
#include "faultsim/campaign.h"
#include "sim/random.h"
#include "trace/workload_gen.h"

namespace afraid {
namespace {

struct Row {
  std::string scheme;
  PolicySpec policy;
};

// Every registered scheme; the policy-driven one under each policy whose
// staleness differs (RAID 5, baseline AFRAID, RAID 0 and MTTDL_x).
std::vector<Row> Rows() {
  std::vector<Row> rows;
  for (const std::string& name : SchemeRegistry::List()) {
    if (SchemeRegistry::Find(name)->uses_policy) {
      for (const PolicySpec& p :
           {PolicySpec::Raid5(), PolicySpec::AfraidBaseline(),
            PolicySpec::Raid0(), PolicySpec::MttdlTarget(1e7)}) {
        rows.push_back({name, p});
      }
    } else {
      rows.push_back({name, PolicySpec::AfraidBaseline()});
    }
  }
  return rows;
}

TEST(AlwaysRedundantTest, RegistryFactMatchesEverySampledExposure) {
  const CampaignConfig campaign;  // Warm-up and sample gaps as campaigns use.
  ArrayConfig array;
  array.disk_spec = DiskSpec::TinyTestDisk();
  array.num_disks = 6;
  array.stripe_unit_bytes = 8192;
  constexpr int kSamples = 200;
  for (const Row& row : Rows()) {
    const bool always = SchemeRegistry::AlwaysRedundant(row.scheme, row.policy);
    // hplajw idles for minutes between bursts, so a stale-prone scheme may
    // read clean at nearly every sample there; netware rarely idles.
    int stale_samples = 0;
    for (const char* workload_name : {"hplajw", "netware"}) {
      SCOPED_TRACE(row.scheme + " / " + row.policy.Label() + " / " +
                   workload_name);
      WorkloadParams workload;
      ASSERT_TRUE(FindWorkload(workload_name, &workload));
      ExposureModel model(row.scheme, array, row.policy, workload,
                          /*seed=*/7);
      model.Advance(campaign.exposure_warmup);
      while (model.RequestsCompleted() < campaign.warmup_requests) {
        model.Advance(Seconds(10));
      }
      Rng gaps(11);
      for (int i = 0; i < kSamples; ++i) {
        model.Advance(static_cast<SimDuration>(gaps.UniformDouble(
            static_cast<double>(campaign.min_sample_gap),
            static_cast<double>(campaign.max_sample_gap))));
        stale_samples += model.DirtyBands() > 0 ? 1 : 0;
        if (always) {
          ASSERT_EQ(model.DirtyBands(), 0) << "sample " << i;
          ASSERT_EQ(model.CurrentParityLagBytes(), 0.0) << "sample " << i;
        }
      }
      if (always) {
        EXPECT_EQ(model.TUnprotFraction(), 0.0);
        EXPECT_EQ(model.MeanParityLagBytes(), 0.0);
        // The campaign bills such an NVRAM loss only its vulnerable bytes.
        EXPECT_EQ(model.NvramDrill().bytes_lost, 0);
      }
    }
    if (!always) {
      EXPECT_GT(stale_samples, 0) << row.scheme << " / " << row.policy.Label();
    }
  }
}

TEST(AlwaysRedundantTest, OnlyTheRaid5PolicyMakesAfraidAlwaysRedundant) {
  EXPECT_TRUE(SchemeRegistry::AlwaysRedundant("afraid", PolicySpec::Raid5()));
  for (const PolicySpec& p :
       {PolicySpec::AfraidBaseline(), PolicySpec::Raid0(),
        PolicySpec::MttdlTarget(1e7), PolicySpec::StripeThreshold(20),
        PolicySpec::AutoSwitch()}) {
    EXPECT_FALSE(SchemeRegistry::AlwaysRedundant("afraid", p)) << p.Label();
  }
  // Other schemes ignore the policy; unknown names are never vouched for.
  EXPECT_TRUE(SchemeRegistry::AlwaysRedundant("raid6", PolicySpec::Raid0()));
  EXPECT_FALSE(
      SchemeRegistry::AlwaysRedundant("parity-log", PolicySpec::Raid5()));
  EXPECT_FALSE(SchemeRegistry::AlwaysRedundant("no-such", PolicySpec::Raid5()));
}

}  // namespace
}  // namespace afraid
