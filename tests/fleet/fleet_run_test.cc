// End-to-end fleet runs: thread-count invariance (the acceptance bar for
// the sharded sweep), online management while traffic flows, exact drop
// accounting under destroy, and the split-request latency join.

#include "fleet/volume_manager.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "fleet/recorder.h"
#include "fleet/tenants.h"
#include "trace/trace_stream.h"

namespace afraid {
namespace {

FleetConfig TinyFleet() {
  FleetConfig cfg;
  cfg.array.disk_spec = DiskSpec::TinyTestDisk();
  cfg.array.num_disks = 4;
  cfg.array.stripe_unit_bytes = 8192;
  cfg.num_shards = 8;
  cfg.chunk_bytes = 512 * 1024;
  cfg.seed = 5;
  return cfg;
}

FleetTrace TinyTenants(int64_t volume_bytes, int32_t tenants = 64,
                       uint64_t requests = 4000) {
  FleetWorkloadParams wp;
  wp.seed = 11;
  wp.num_tenants = tenants;
  wp.max_requests = requests;
  wp.max_duration = Minutes(5);
  return GenerateFleetWorkload(wp, volume_bytes);
}

void ExpectShardReportsIdentical(const ShardReport& a, const ShardReport& b) {
  EXPECT_EQ(a.shard, b.shard);
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_EQ(a.writes, b.writes);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.mean_ms, b.mean_ms);
  EXPECT_EQ(a.p99_ms, b.p99_ms);
  EXPECT_EQ(a.max_ms, b.max_ms);
  EXPECT_EQ(a.duration_s, b.duration_s);
  EXPECT_EQ(a.disk_utilization, b.disk_utilization);
  EXPECT_EQ(a.mean_parity_lag_bytes, b.mean_parity_lag_bytes);
  EXPECT_EQ(a.stripes_rebuilt, b.stripes_rebuilt);
  EXPECT_EQ(a.degraded_s, b.degraded_s);
}

// Field-by-field exact equality: any double ULP of drift between thread
// counts is a determinism bug.
void ExpectFleetReportsIdentical(const FleetReport& a, const FleetReport& b) {
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_EQ(a.writes, b.writes);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.split_requests, b.split_requests);
  EXPECT_EQ(a.mean_ms, b.mean_ms);
  EXPECT_EQ(a.p50_ms, b.p50_ms);
  EXPECT_EQ(a.p90_ms, b.p90_ms);
  EXPECT_EQ(a.p99_ms, b.p99_ms);
  EXPECT_EQ(a.p999_ms, b.p999_ms);
  EXPECT_EQ(a.max_ms, b.max_ms);
  EXPECT_EQ(a.mean_read_ms, b.mean_read_ms);
  EXPECT_EQ(a.mean_write_ms, b.mean_write_ms);
  EXPECT_EQ(a.duration_s, b.duration_s);
  EXPECT_EQ(a.imbalance_max_mean, b.imbalance_max_mean);
  EXPECT_EQ(a.imbalance_cv, b.imbalance_cv);
  EXPECT_EQ(a.degraded_shard_s, b.degraded_shard_s);
  EXPECT_EQ(a.loss_events, b.loss_events);
  EXPECT_EQ(a.bytes_lost, b.bytes_lost);
  ASSERT_EQ(a.shards.size(), b.shards.size());
  for (size_t i = 0; i < a.shards.size(); ++i) {
    SCOPED_TRACE(i);
    ExpectShardReportsIdentical(a.shards[i], b.shards[i]);
  }
}

TEST(FleetRun, ThreadCountInvariant) {
  for (ShardingKind kind :
       {ShardingKind::kRange, ShardingKind::kConsistentHash}) {
    SCOPED_TRACE(ShardingKindName(kind));
    FleetConfig cfg = TinyFleet();
    cfg.sharding = kind;
    VolumeManager vm1(cfg);
    // A mid-run failure + repair must also replay identically.
    vm1.DiskFail(Seconds(1), /*shard=*/2, /*disk=*/1);
    vm1.DiskRepaired(Seconds(20), /*shard=*/2, /*disk=*/1);
    const FleetTrace trace = TinyTenants(vm1.VolumeBytes());
    ASSERT_GT(trace.Size(), 1000u);

    VolumeManager::RunOptions serial;
    serial.threads = 1;
    const FleetReport a = vm1.Run(trace, serial);

    VolumeManager vm8(cfg);
    vm8.DiskFail(Seconds(1), 2, 1);
    vm8.DiskRepaired(Seconds(20), 2, 1);
    VolumeManager::RunOptions fanned;
    fanned.threads = 8;
    const FleetReport b = vm8.Run(trace, fanned);

    ExpectFleetReportsIdentical(a, b);
    EXPECT_GT(a.requests, 0u);
    EXPECT_GT(a.p999_ms, 0.0);
    EXPECT_GE(a.p999_ms, a.p99_ms);
    EXPECT_GE(a.imbalance_max_mean, 1.0);
  }
}

TEST(FleetRun, SplitRequestsJoinAtMaxOfPieces) {
  // chunk == stripe unit makes straddles common; every logical request must
  // be accounted for exactly once and split latencies must bound the pieces.
  FleetConfig cfg = TinyFleet();
  cfg.sharding = ShardingKind::kConsistentHash;  // Scatters adjacent chunks.
  cfg.chunk_bytes = 64 * 1024;
  VolumeManager vm(cfg);
  const FleetTrace trace = TinyTenants(vm.VolumeBytes(), 32, 2000);
  const FleetReport rep = vm.Run(trace);
  EXPECT_EQ(rep.requests + rep.dropped, trace.Size());
  EXPECT_EQ(rep.dropped, 0u);
  EXPECT_GT(rep.split_requests, 0u);
  // Shard-served pieces >= logical requests (splits fan out).
  uint64_t pieces = 0;
  for (const ShardReport& s : rep.shards) {
    pieces += s.requests;
  }
  EXPECT_GE(pieces, rep.requests);
  EXPECT_GE(rep.max_ms, rep.p999_ms);
}

TEST(FleetRun, OnlineFailRepairDegradesOneShardOnly) {
  FleetConfig cfg = TinyFleet();
  VolumeManager vm(cfg);
  vm.DiskFail(Seconds(2), /*shard=*/3, /*disk=*/0);
  vm.DiskRepaired(Seconds(30), /*shard=*/3, /*disk=*/0);
  vm.InfoAt(Seconds(5), /*shard=*/-1);  // Broadcast snapshot mid-failure.
  const FleetTrace trace = TinyTenants(vm.VolumeBytes());
  const FleetReport rep = vm.Run(trace);

  const ShardReport& failed = rep.shards[3];
  EXPECT_TRUE(failed.disk_failed);
  EXPECT_TRUE(failed.repaired);
  EXPECT_GT(failed.degraded_s, 0.0);
  EXPECT_GT(failed.requests, 0u);  // Kept serving while degraded.
  EXPECT_DOUBLE_EQ(rep.degraded_shard_s, failed.degraded_s);
  for (int32_t s = 0; s < rep.num_shards; ++s) {
    if (s == 3) {
      continue;
    }
    EXPECT_FALSE(rep.shards[static_cast<size_t>(s)].disk_failed);
    EXPECT_EQ(rep.shards[static_cast<size_t>(s)].degraded_s, 0.0);
    EXPECT_GT(rep.shards[static_cast<size_t>(s)].requests, 0u);
  }
  // The broadcast info op snapshotted every shard; shard 3's snapshot shows
  // the failed disk.
  ASSERT_EQ(failed.infos.size(), 1u);
  EXPECT_EQ(failed.infos[0].failed_disk, 0);
  for (const ShardReport& s : rep.shards) {
    ASSERT_EQ(s.infos.size(), 1u);
    EXPECT_EQ(s.infos[0].time, Seconds(5));
  }
}

TEST(FleetRun, DestroyDropsRemainingTrafficOnThatShardOnly) {
  FleetConfig cfg = TinyFleet();
  VolumeManager vm(cfg);
  vm.Destroy(Seconds(1), /*shard=*/0);
  const FleetTrace trace = TinyTenants(vm.VolumeBytes());
  const FleetReport rep = vm.Run(trace);
  EXPECT_EQ(rep.shards_destroyed, 1);
  EXPECT_TRUE(rep.shards[0].destroyed);
  EXPECT_GT(rep.shards[0].dropped, 0u);
  EXPECT_GT(rep.dropped, 0u);
  EXPECT_EQ(rep.requests + rep.dropped, trace.Size());
  for (size_t s = 1; s < rep.shards.size(); ++s) {
    EXPECT_EQ(rep.shards[s].dropped, 0u);
  }
}

// The pieces SplitRange routes to each shard: what that shard must either
// serve or count as dropped.
std::vector<uint64_t> RoutedPieces(const VolumeManager& vm,
                                   const FleetTrace& trace) {
  std::vector<uint64_t> pieces(static_cast<size_t>(vm.config().num_shards), 0);
  std::vector<ShardPiece> scratch;
  for (const FleetRecord& rec : trace.records) {
    vm.shard_map().SplitRange(rec.offset, rec.size, &scratch);
    for (const ShardPiece& p : scratch) {
      ++pieces[static_cast<size_t>(p.shard)];
    }
  }
  return pieces;
}

// A destroy mid-chunk drops exactly the pieces the shard never served,
// including those routed to it in later chunks: for every shard, served +
// dropped equals what routing sent it, under Run (one chunk) and
// RunStreamed (small chunks and one big chunk) alike.
TEST(FleetRun, DestroyMidChunkAccountsForEveryRoutedPiece) {
  FleetConfig cfg = TinyFleet();
  cfg.num_shards = 2;
  VolumeManager vm(cfg);
  const FleetTrace trace = TinyTenants(vm.VolumeBytes(), 64, 24000);
  const std::vector<uint64_t> routed = RoutedPieces(vm, trace);
  vm.Destroy(trace.records[trace.Size() / 10].time, /*shard=*/0);
  const std::string path =
      (std::filesystem::temp_directory_path() / "afraid_fleet_destroy.txt")
          .string();
  ASSERT_TRUE(RecordFleetTrace(trace, path).ok);

  std::vector<FleetReport> reps;
  reps.push_back(vm.Run(trace));
  for (const size_t chunk : {4096u, 4u << 20}) {
    StreamOptions sopts;
    sopts.chunk_bytes = chunk;
    TraceStatus st;
    reps.push_back(
        vm.RunStreamed(path, sopts, VolumeManager::RunOptions(), &st));
    ASSERT_TRUE(st.ok) << st.message;
  }
  std::remove(path.c_str());

  for (size_t i = 0; i < reps.size(); ++i) {
    SCOPED_TRACE(i);
    const FleetReport& rep = reps[i];
    ASSERT_EQ(rep.shards.size(), routed.size());
    EXPECT_TRUE(rep.shards[0].destroyed);
    EXPECT_GT(rep.shards[0].dropped, 0u);
    EXPECT_EQ(rep.shards[1].dropped, 0u);
    for (size_t s = 0; s < routed.size(); ++s) {
      EXPECT_EQ(rep.shards[s].requests + rep.shards[s].dropped, routed[s])
          << "shard " << s;
    }
  }
}

TEST(FleetRun, InvalidMgmtOpsAreRefusedAndCountedByKind) {
  // Every registered scheme now supports fail/repair; refusals come from
  // *invalid* ops: failing an out-of-range disk, repairing a disk that never
  // failed. Each lands in its own per-kind counter and leaves the shard
  // serving normally.
  FleetConfig cfg = TinyFleet();
  cfg.scheme = "raid6-deferQ";
  cfg.num_shards = 2;
  VolumeManager vm(cfg);
  vm.DiskFail(Seconds(1), 0, /*disk=*/99);      // Out of range: refused.
  vm.DiskRepaired(Seconds(2), 0, /*disk=*/1);   // Nothing failed: refused.
  const FleetTrace trace = TinyTenants(vm.VolumeBytes(), 16, 500);
  const FleetReport rep = vm.Run(trace);
  EXPECT_EQ(rep.shards[0].mgmt_unsupported_fail, 1u);
  EXPECT_EQ(rep.shards[0].mgmt_unsupported_repair, 1u);
  EXPECT_EQ(rep.shards[0].mgmt_unsupported_info, 0u);
  EXPECT_EQ(rep.shards[0].mgmt_unsupported_destroy, 0u);
  EXPECT_EQ(rep.shards[0].MgmtUnsupportedTotal(), 2u);
  EXPECT_FALSE(rep.shards[0].disk_failed);
  EXPECT_GT(rep.requests, 0u);
}

TEST(FleetRun, ValidFailRepairIsAppliedOnEveryRegisteredScheme) {
  // The old behaviour (non-afraid schemes refuse fail/repair) is gone: a
  // well-formed incident must degrade and then repair the shard under every
  // scheme the registry knows.
  for (const char* scheme :
       {"afraid", "raid6", "raid6-deferQ", "raid6-deferPQ", "parity-log",
        "mirror"}) {
    SCOPED_TRACE(scheme);
    FleetConfig cfg = TinyFleet();
    cfg.scheme = scheme;
    cfg.num_shards = 2;
    VolumeManager vm(cfg);
    vm.DiskFail(Seconds(1), 0, /*disk=*/1);
    vm.DiskRepaired(Seconds(20), 0, /*disk=*/1);
    const FleetTrace trace = TinyTenants(vm.VolumeBytes(), 16, 500);
    const FleetReport rep = vm.Run(trace);
    EXPECT_TRUE(rep.shards[0].disk_failed);
    EXPECT_TRUE(rep.shards[0].repaired);
    EXPECT_GT(rep.shards[0].degraded_s, 0.0);
    EXPECT_EQ(rep.shards[0].MgmtUnsupportedTotal(), 0u);
    EXPECT_EQ(rep.shards[1].MgmtUnsupportedTotal(), 0u);
    EXPECT_GT(rep.requests, 0u);
  }
}

TEST(FleetRun, SparePoolGatesRepairsAndRestocksOnline) {
  // With a zero-spare pool the first repair is refused outright (the shard
  // keeps serving degraded); a spare_add restocks the pool and a later
  // repair succeeds, drawing the pool back down.
  FleetConfig cfg = TinyFleet();
  cfg.num_shards = 2;
  cfg.spares = 0;
  VolumeManager vm(cfg);
  vm.DiskFail(Seconds(1), 0, /*disk=*/1);
  vm.DiskRepaired(Seconds(5), 0, /*disk=*/1);  // Pool empty: refused.
  vm.InfoAt(Seconds(8), 0);
  vm.SpareAdd(Seconds(10), 0);
  vm.DiskRepaired(Seconds(20), 0, /*disk=*/1);  // Spare available: applied.
  vm.InfoAt(Seconds(50), 0);
  const FleetTrace trace = TinyTenants(vm.VolumeBytes(), 16, 800);
  const FleetReport rep = vm.Run(trace);
  const ShardReport& s0 = rep.shards[0];
  EXPECT_TRUE(s0.disk_failed);
  EXPECT_EQ(s0.repairs_refused_no_spare, 1u);
  EXPECT_EQ(s0.spares_added, 1u);
  EXPECT_EQ(s0.spares_used, 1u);
  EXPECT_TRUE(s0.repaired);
  EXPECT_EQ(s0.mgmt_unsupported_repair, 0u);
  ASSERT_EQ(s0.infos.size(), 2u);
  EXPECT_EQ(s0.infos[0].spares_free, 0);    // Before the restock.
  EXPECT_EQ(s0.infos[0].failed_disk, 1);    // Still degraded: repair refused.
  EXPECT_EQ(s0.infos[1].spares_free, 0);    // Restocked, then consumed.
  // The untouched shard's pool is intact and uncounted.
  EXPECT_EQ(rep.shards[1].spares_added, 0u);
  EXPECT_EQ(rep.shards[1].spares_used, 0u);
}

TEST(FleetRun, SpareAddWithoutPoolIsRefused) {
  // Legacy unlimited stock (spares < 0): repairs never consume spares and
  // spare_add is meaningless, counted in its own refusal bucket.
  FleetConfig cfg = TinyFleet();
  cfg.num_shards = 2;
  VolumeManager vm(cfg);
  vm.DiskFail(Seconds(1), 0, /*disk=*/1);
  vm.SpareAdd(Seconds(2), 0);
  vm.DiskRepaired(Seconds(20), 0, /*disk=*/1);
  const FleetTrace trace = TinyTenants(vm.VolumeBytes(), 16, 500);
  const FleetReport rep = vm.Run(trace);
  EXPECT_EQ(rep.shards[0].mgmt_unsupported_spare_add, 1u);
  EXPECT_EQ(rep.shards[0].spares_added, 0u);
  EXPECT_EQ(rep.shards[0].spares_used, 0u);
  EXPECT_TRUE(rep.shards[0].repaired);
  ASSERT_TRUE(rep.shards[0].infos.empty());
}

TEST(FleetRun, Raid6SchemeForcesTwoParityBlocks) {
  FleetConfig cfg = TinyFleet();
  cfg.scheme = "raid6-deferPQ";
  cfg.num_shards = 2;
  const VolumeManager vm(cfg);
  EXPECT_EQ(vm.config().array.parity_blocks, 2);
  FleetConfig a = TinyFleet();
  a.num_shards = 2;
  const VolumeManager plain(a);
  // Two parities leave less data capacity per shard.
  EXPECT_LT(vm.ShardCapacityBytes(), plain.ShardCapacityBytes());
}

TEST(FleetRun, MirrorSchemeRoundsDisksToPairsAndHalvesCapacity) {
  FleetConfig cfg = TinyFleet();
  cfg.array.num_disks = 5;
  cfg.scheme = "mirror";
  cfg.num_shards = 2;
  const VolumeManager vm(cfg);
  EXPECT_EQ(vm.config().array.num_disks, 4);
  EXPECT_EQ(vm.config().array.parity_blocks, 0);
  FleetConfig a = TinyFleet();
  a.num_shards = 2;
  const VolumeManager plain(a);  // 4 disks, RAID 5: 3 data disks.
  // Two mirrored columns < three data disks of capacity.
  EXPECT_LT(vm.ShardCapacityBytes(), plain.ShardCapacityBytes());
}

}  // namespace
}  // namespace afraid
