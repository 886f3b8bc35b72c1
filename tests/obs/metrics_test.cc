#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "json_reader.h"
#include "sim/time.h"

namespace afraid {
namespace {

TEST(MetricsRegistry, SnapshotRecordsOneRowOfAllScalars) {
  MetricsRegistry m;
  const MetricId c = m.AddCounter("ops");
  const MetricId g = m.AddGauge("depth");
  ASSERT_EQ(m.NumScalars(), 2u);

  m.Inc(c);
  m.Inc(c, 2.0);
  m.Set(g, 5.0);
  m.Snapshot(Seconds(1));
  m.Set(g, 1.0);
  m.Snapshot(Seconds(2));

  ASSERT_EQ(m.NumSnapshots(), 2u);
  EXPECT_EQ(m.rows()[0].time, Seconds(1));
  EXPECT_EQ(m.rows()[0].values, (std::vector<double>{3.0, 5.0}));
  EXPECT_EQ(m.rows()[1].values, (std::vector<double>{3.0, 1.0}));
}

TEST(MetricsRegistry, SamplersPullBeforeEachRow) {
  MetricsRegistry m;
  const MetricId g = m.AddGauge("live");
  double live_state = 7.0;
  int sampled_at = 0;
  m.AddSampler([&, g](SimTime) {
    m.Set(g, live_state);
    ++sampled_at;
  });

  m.Snapshot(0);
  live_state = 9.0;
  m.Snapshot(Seconds(1));
  EXPECT_EQ(sampled_at, 2);
  EXPECT_DOUBLE_EQ(m.rows()[0].values[0], 7.0);
  EXPECT_DOUBLE_EQ(m.rows()[1].values[0], 9.0);
}

TEST(MetricsRegistry, EqualSnapshotTimesAreAllowed) {
  // The experiment loop snapshots at t=0 and again at the first event if it
  // fires at t=0; non-decreasing times must be accepted.
  MetricsRegistry m;
  m.AddGauge("g");
  m.Snapshot(Seconds(3));
  m.Snapshot(Seconds(3));
  EXPECT_EQ(m.NumSnapshots(), 2u);
}

TEST(MetricsRegistry, FindHistogram) {
  MetricsRegistry m;
  Histogram* h = m.AddHistogram("lat", 0.0, 1.0, 4);
  h->Add(0.5);
  EXPECT_EQ(m.FindHistogram("lat"), h);
  EXPECT_EQ(m.FindHistogram("absent"), nullptr);
}

TEST(MetricsRegistry, JsonLinesAreSelfDescribingAndParse) {
  MetricsRegistry m;
  m.AddCounter("ops");
  m.AddGauge("depth");
  Histogram* h = m.AddHistogram("lat", 0.0, 2.0, 3);
  h->Add(-1.0);
  h->Add(1.0);
  h->Add(99.0);
  m.Snapshot(0);
  m.Snapshot(Milliseconds(100));

  std::istringstream lines(m.ToJsonLines());
  std::string line;
  std::vector<JsonValue> records;
  while (std::getline(lines, line)) {
    JsonValue v;
    std::string err;
    ASSERT_TRUE(ParseJson(line, &v, &err)) << err << " in: " << line;
    records.push_back(std::move(v));
  }
  // Schema, two snapshots, one histogram.
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[0].GetString("type"), "schema");
  const JsonValue* schema_metrics = records[0].Get("metrics");
  ASSERT_NE(schema_metrics, nullptr);
  ASSERT_EQ(schema_metrics->Items().size(), 2u);
  EXPECT_EQ(schema_metrics->Items()[0].GetString("name"), "ops");
  EXPECT_EQ(schema_metrics->Items()[0].GetString("kind"), "counter");
  EXPECT_EQ(schema_metrics->Items()[1].GetString("kind"), "gauge");

  for (size_t i = 1; i <= 2; ++i) {
    EXPECT_EQ(records[i].GetString("type"), "snapshot");
    const JsonValue* values = records[i].Get("values");
    ASSERT_NE(values, nullptr);
    // Every snapshot row carries exactly one value per schema entry.
    EXPECT_EQ(values->Items().size(), schema_metrics->Items().size());
  }
  EXPECT_DOUBLE_EQ(records[2].GetNumber("t_s"), 0.1);

  EXPECT_EQ(records[3].GetString("type"), "histogram");
  EXPECT_EQ(records[3].GetString("name"), "lat");
  EXPECT_DOUBLE_EQ(records[3].GetNumber("bucket_width"), 2.0);
  EXPECT_DOUBLE_EQ(records[3].GetNumber("underflow"), 1.0);
  EXPECT_DOUBLE_EQ(records[3].GetNumber("overflow"), 1.0);
  EXPECT_DOUBLE_EQ(records[3].GetNumber("total"), 3.0);
  ASSERT_EQ(records[3].Get("counts")->Items().size(), 3u);
}

}  // namespace
}  // namespace afraid
