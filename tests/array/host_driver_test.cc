#include "array/host_driver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/simulator.h"

namespace afraid {
namespace {

// A scripted controller: completes each request after a fixed service time,
// recording dispatch order.
class FakeArray : public ArrayController {
 public:
  FakeArray(Simulator* sim, SimDuration service) : sim_(sim), service_(service) {}

  void Submit(const ClientRequest& request, RequestDone done) override {
    dispatched_.push_back(request.offset);
    ++in_flight_;
    max_in_flight_ = std::max(max_in_flight_, in_flight_);
    sim_->After(service_, [this, done = std::move(done)]() mutable {
      --in_flight_;
      done();
    });
  }
  int64_t DataCapacityBytes() const override { return 1LL << 40; }

  std::vector<int64_t> dispatched_;
  int32_t in_flight_ = 0;
  int32_t max_in_flight_ = 0;

 private:
  Simulator* sim_;
  SimDuration service_;
};

TEST(HostDriver, CompletesAndMeasuresLatency) {
  Simulator sim;
  FakeArray array(&sim, Milliseconds(10));
  HostDriver driver(&sim, &array, 4);
  driver.Submit(0, 512, false);
  sim.RunToEnd();
  EXPECT_TRUE(driver.Drained());
  EXPECT_EQ(driver.Completed(), 1u);
  EXPECT_NEAR(driver.AllLatencies().Mean(), 10.0, 1e-9);
}

TEST(HostDriver, EnforcesConcurrencyLimit) {
  Simulator sim;
  FakeArray array(&sim, Milliseconds(10));
  HostDriver driver(&sim, &array, 3);
  for (int i = 0; i < 10; ++i) {
    driver.Submit(i * 512, 512, false);
  }
  sim.RunToEnd();
  EXPECT_EQ(array.max_in_flight_, 3);
  EXPECT_EQ(driver.Completed(), 10u);
}

TEST(HostDriver, UnlimitedWhenMaxActiveZero) {
  Simulator sim;
  FakeArray array(&sim, Milliseconds(10));
  HostDriver driver(&sim, &array, 0);
  for (int i = 0; i < 10; ++i) {
    driver.Submit(i * 512, 512, false);
  }
  sim.RunToEnd();
  EXPECT_EQ(array.max_in_flight_, 10);
}

TEST(HostDriver, ClookDispatchOrder) {
  Simulator sim;
  FakeArray array(&sim, Milliseconds(10));
  HostDriver driver(&sim, &array, 1);
  // First request dispatches immediately (offset 5000); the rest queue.
  driver.Submit(5000, 512, false);
  driver.Submit(9000, 512, false);
  driver.Submit(1000, 512, false);
  driver.Submit(7000, 512, false);
  driver.Submit(3000, 512, false);
  sim.RunToEnd();
  // CLOOK from 5000: 7000, 9000, then wrap to 1000, 3000.
  EXPECT_EQ(array.dispatched_,
            (std::vector<int64_t>{5000, 7000, 9000, 1000, 3000}));
}

TEST(HostDriver, ClookDoesNotStarveLowOffsets) {
  Simulator sim;
  FakeArray array(&sim, Milliseconds(10));
  HostDriver driver(&sim, &array, 1);
  driver.Submit(100000, 512, false);
  // While the sweep is high, feed a low-offset request; it must be served on
  // the wrap, not starve.
  driver.Submit(50, 512, false);
  sim.RunToEnd();
  EXPECT_EQ(driver.Completed(), 2u);
  EXPECT_EQ(array.dispatched_.back(), 50);
}

TEST(HostDriver, SeparatesReadAndWriteLatencies) {
  Simulator sim;
  FakeArray array(&sim, Milliseconds(10));
  HostDriver driver(&sim, &array, 8);
  driver.Submit(0, 512, false);
  driver.Submit(512, 512, true);
  driver.Submit(1024, 512, true);
  sim.RunToEnd();
  EXPECT_EQ(driver.ReadLatencies().Count(), 1u);
  EXPECT_EQ(driver.WriteLatencies().Count(), 2u);
  EXPECT_EQ(driver.AllLatencies().Count(), 3u);
}

// The read/write split keeps only a running summary; its count, mean and
// max must equal those of every latency the completion listener sees, in
// the order it sees them. The whole distribution is still retained once.
TEST(HostDriver, ReadWriteSummariesMatchListenerSamples) {
  Simulator sim;
  FakeArray array(&sim, Milliseconds(10));
  HostDriver driver(&sim, &array, 3);
  std::vector<double> reads;
  std::vector<double> writes;
  driver.SetCompletionListener([&](uint64_t /*id*/, double ms, bool is_write) {
    (is_write ? writes : reads).push_back(ms);
  });
  for (int i = 0; i < 40; ++i) {
    // Queueing behind the concurrency limit spreads the latencies.
    sim.At(Milliseconds(3 * i), [&driver, i] {
      driver.Submit((i * 7919 % 40) * 512, 512, i % 3 == 0);
    });
  }
  sim.RunToEnd();
  ASSERT_TRUE(driver.Drained());

  const auto expect_summary = [](const StreamingStats& got,
                                 const std::vector<double>& samples) {
    StreamingStats want;
    for (const double ms : samples) {
      want.Add(ms);
    }
    EXPECT_EQ(got.Count(), samples.size());
    EXPECT_EQ(got.Mean(), want.Mean());
    EXPECT_EQ(got.Max(), *std::max_element(samples.begin(), samples.end()));
  };
  ASSERT_FALSE(reads.empty());
  ASSERT_FALSE(writes.empty());
  expect_summary(driver.ReadLatencies(), reads);
  expect_summary(driver.WriteLatencies(), writes);
  EXPECT_GT(driver.ReadLatencies().Max(), driver.ReadLatencies().Min());

  std::vector<double> all = reads;
  all.insert(all.end(), writes.begin(), writes.end());
  std::vector<double> retained = driver.AllLatencies().Samples();
  std::sort(all.begin(), all.end());
  std::sort(retained.begin(), retained.end());
  EXPECT_EQ(retained, all);
}

TEST(HostDriver, LatencyIncludesQueueingDelay) {
  Simulator sim;
  FakeArray array(&sim, Milliseconds(10));
  HostDriver driver(&sim, &array, 1);
  driver.Submit(0, 512, false);
  driver.Submit(512, 512, false);  // Waits 10 ms in the driver queue.
  sim.RunToEnd();
  EXPECT_NEAR(driver.AllLatencies().Max(), 20.0, 1e-9);
  EXPECT_NEAR(driver.AllLatencies().Min(), 10.0, 1e-9);
}

TEST(HostDriver, OccupancyTimeAverage) {
  Simulator sim;
  FakeArray array(&sim, Milliseconds(10));
  HostDriver driver(&sim, &array, 4);
  driver.Submit(0, 512, false);
  sim.RunToEnd();       // Busy 10 ms with 1 request.
  sim.RunUntil(Milliseconds(20));  // Idle 10 ms.
  EXPECT_NEAR(driver.Occupancy().MeanTo(sim.Now()), 0.5, 1e-9);
}

TEST(HostDriverFcfs, DispatchesInArrivalOrder) {
  Simulator sim;
  FakeArray array(&sim, Milliseconds(10));
  HostDriver driver(&sim, &array, 1, HostSched::kFcfs);
  driver.Submit(5000, 512, false);
  driver.Submit(9000, 512, false);
  driver.Submit(1000, 512, false);
  driver.Submit(7000, 512, false);
  sim.RunToEnd();
  EXPECT_EQ(array.dispatched_, (std::vector<int64_t>{5000, 9000, 1000, 7000}));
}

TEST(HostDriverFcfs, SameLatencyAccounting) {
  Simulator sim;
  FakeArray array(&sim, Milliseconds(10));
  HostDriver driver(&sim, &array, 1, HostSched::kFcfs);
  driver.Submit(0, 512, false);
  driver.Submit(512, 512, true);
  sim.RunToEnd();
  EXPECT_EQ(driver.Completed(), 2u);
  EXPECT_NEAR(driver.AllLatencies().Max(), 20.0, 1e-9);
}

}  // namespace
}  // namespace afraid
