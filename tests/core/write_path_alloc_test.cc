// Proves the steady-state client request path is allocation-free: after a
// warm-up that fills every pool (join blocks, scratch vectors, queue nodes,
// event slabs, disk in-flight slots, reserved latency samples), a further
// burst of reads and writes must perform zero heap allocations. The same
// holds for a repeated reconstruction sweep on every registered scheme.
//
// The global operator new/delete overrides below count every allocation in
// the process; the test snapshots the counter between identical workload
// phases. Any new heap traffic on the request path -- a lambda too big for
// its SmallCallback buffer, a scratch vector acquired without pooling, a
// map node outside its NodePool -- fails this test.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>

#include "array/host_driver.h"
#include "array/scheme.h"
#include "core/afraid_controller.h"
#include "core/experiment.h"
#include "core/scheme_registry.h"
#include "obs/probe.h"
#include "sim/simulator.h"

namespace {
std::atomic<uint64_t> g_new_calls{0};
}  // namespace

void* operator new(std::size_t n) {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
void* operator new(std::size_t n, std::align_val_t al) {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(al), n ? n : 1) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return ::operator new(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace afraid {
namespace {

// One workload phase: a deterministic mix of single-unit, sub-unit, and
// multi-stripe requests (reads and writes) with bursts and drains. Both the
// warm-up and the measured phase run this exact shape so pool high-water
// marks are identical.
void RunPhase(Simulator* sim, HostDriver* driver, int64_t cap, uint64_t salt) {
  const int64_t blocks = cap / 4096 - 8;  // Room for the largest request.
  for (int i = 0; i < 600; ++i) {
    const uint64_t h =
        (salt * 0x9e3779b97f4a7c15ull + static_cast<uint64_t>(i) * 7919u);
    const int64_t offset = static_cast<int64_t>(h % static_cast<uint64_t>(blocks)) * 4096;
    const int32_t size = (i % 7 == 0) ? 32768 : ((i % 3 == 0) ? 4096 : 8192);
    driver->Submit(offset, size, (i % 4) != 0);
    if (i % 16 == 15) {
      sim->RunUntil(sim->Now() + Milliseconds(40));
    }
  }
  sim->RunToEnd();
  ASSERT_TRUE(driver->Drained());
}

TEST(WritePathAllocTest, SteadyStateRequestPathIsAllocationFree) {
  ArrayConfig cfg;
  cfg.disk_spec = DiskSpec::TinyTestDisk();
  cfg.num_disks = 5;
  cfg.stripe_unit_bytes = 8192;
  cfg.track_content = false;  // Steady-state data path, not the test oracle.

  Simulator sim;
  AfraidController ctl(&sim, cfg, MakePolicy(PolicySpec::AfraidBaseline()),
                       AvailabilityParamsFor(cfg));
  HostDriver driver(&sim, &ctl, cfg.MaxActive());
  driver.ReserveLatencySamples(4096);  // Three phases x 600 requests fit.

  const int64_t cap = ctl.DataCapacityBytes();

  // Two warm-up rounds: the first grows pools to the workload's high-water
  // mark, the second confirms the marks are stable before measuring.
  RunPhase(&sim, &driver, cap, 1);
  RunPhase(&sim, &driver, cap, 2);

  const uint64_t before = g_new_calls.load(std::memory_order_relaxed);
  RunPhase(&sim, &driver, cap, 3);
  const uint64_t after = g_new_calls.load(std::memory_order_relaxed);

  EXPECT_EQ(after - before, 0u)
      << "steady-state request path performed " << (after - before)
      << " heap allocations";
}

// The reconstruction sweep must be allocation-free once warmed up, on every
// registered scheme: fail, replace and reconstruct a disk three times on an
// idle array, and the second and third rounds allocate nothing (the first
// grows the event slots, op records, joins and lock-table states).
TEST(WritePathAllocTest, RepeatedReconstructionSweepIsAllocationFree) {
  for (const std::string& name : SchemeRegistry::List()) {
    ArrayConfig base;
    base.disk_spec = DiskSpec::TinyTestDisk();
    base.num_disks = 5;
    base.stripe_unit_bytes = 8192;
    base.track_content = false;
    const ArrayConfig cfg = SchemeRegistry::Normalize(name, base);
    Simulator sim;
    SchemeContext ctx{&sim, cfg, PolicySpec::AfraidBaseline(),
                      AvailabilityParamsFor(cfg), Probe()};
    const std::unique_ptr<ArrayScheme> scheme = SchemeRegistry::Create(name, ctx);
    ASSERT_NE(scheme, nullptr) << name;
    sim.RunToEnd();
    for (int round = 1; round <= 3; ++round) {
      int sweeps_done = 0;
      const uint64_t before = g_new_calls.load(std::memory_order_relaxed);
      ASSERT_TRUE(scheme->FailDisk(1)) << name;
      ASSERT_TRUE(scheme->ReplaceDisk(1)) << name;
      ASSERT_TRUE(scheme->StartReconstruction([&sweeps_done] { ++sweeps_done; }))
          << name;
      sim.RunToEnd();
      const uint64_t allocs = g_new_calls.load(std::memory_order_relaxed) - before;
      ASSERT_EQ(sweeps_done, 1) << name;
      if (round > 1) {
        EXPECT_EQ(allocs, 0u) << name << " round " << round << " performed "
                              << allocs << " heap allocations";
      }
    }
  }
}

}  // namespace
}  // namespace afraid
