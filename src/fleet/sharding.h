// Sharding policies: how one large logical volume maps onto N arrays.
//
// A fleet-scale installation does not serve millions of users from one
// array; it stripes a large logical volume across many independent arrays
// ("shards") and routes each request to the shard owning its address. Two
// placement policies are provided, both compiled down to the same flat
// chunk table so the hot routing path is one bounds check plus two array
// loads regardless of policy (BM_FleetRoute):
//
//   * Range sharding: the volume is cut into num_shards contiguous spans;
//     chunk c lives on shard c / chunks_per_shard. Simple, preserves
//     locality (a tenant's whole slice usually lands on one shard), but a
//     hot address range concentrates on one array.
//   * Consistent hashing: each shard projects `vnodes_per_shard` virtual
//     nodes onto a 64-bit ring; chunk c is owned by the shard of the first
//     virtual node at or after hash(c). Spreads hot ranges across the
//     fleet and keeps reassignment incremental when shards join or leave.
//     Chunks that would overflow a shard's capacity spill deterministically
//     to the next virtual node with free space, so the map is always valid.
//
// The chunk table also pre-assigns every chunk a dense local index within
// its shard, so routing yields the shard-local byte offset directly: no
// per-request modular arithmetic over ring points, and the per-shard
// address spaces stay compact (each is one shard array's data space).

#ifndef AFRAID_FLEET_SHARDING_H_
#define AFRAID_FLEET_SHARDING_H_

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

namespace afraid {

enum class ShardingKind {
  kRange,
  kConsistentHash,
};

const char* ShardingKindName(ShardingKind kind);

// Where one logical byte lives.
struct ShardTarget {
  int32_t shard = 0;
  int64_t local_offset = 0;  // Byte offset within the shard's address space.
};

// One shard-contiguous piece of a routed request.
struct ShardPiece {
  int32_t shard = 0;
  int64_t local_offset = 0;
  int32_t length = 0;
};

// The 64-bit mixer both policies hash with (SplitMix64 finalizer). Exposed
// so tests can build a naive reference ring from first principles.
constexpr uint64_t FleetHash64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Ring position of virtual node `vnode` of `shard` under `seed`.
constexpr uint64_t FleetVnodePoint(uint64_t seed, int32_t shard, int32_t vnode) {
  return FleetHash64(seed ^ FleetHash64(static_cast<uint64_t>(shard) * 0x10001ULL +
                                        static_cast<uint64_t>(vnode)));
}

// Ring key of chunk `chunk`.
constexpr uint64_t FleetChunkPoint(int64_t chunk) {
  return FleetHash64(static_cast<uint64_t>(chunk) * 0x9e3779b97f4a7c15ULL + 0x5bULL);
}

class ShardMap {
 public:
  // Contiguous range placement. `volume_bytes` must be a multiple of
  // `chunk_bytes`, and the chunks must divide evenly over the shards
  // (callers size the volume with SizeVolume below).
  static ShardMap Range(int32_t num_shards, int64_t chunk_bytes,
                        int64_t volume_bytes);

  // Consistent-hash placement with capacity-aware spill. `shard_capacity
  // _bytes` bounds how many chunks one shard may own; pass the per-shard
  // data capacity so the map can never address past a shard's end.
  static ShardMap ConsistentHash(int32_t num_shards, int64_t chunk_bytes,
                                 int64_t volume_bytes,
                                 int64_t shard_capacity_bytes,
                                 int32_t vnodes_per_shard, uint64_t seed);

  // Largest volume size (a multiple of chunk_bytes * num_shards, so both
  // policies can place it) not exceeding fill_fraction of the fleet's total
  // data capacity.
  static int64_t SizeVolume(int32_t num_shards, int64_t shard_capacity_bytes,
                            int64_t chunk_bytes, double fill_fraction);

  ShardingKind kind() const { return kind_; }
  int32_t num_shards() const { return num_shards_; }
  int64_t chunk_bytes() const { return chunk_bytes_; }
  int64_t volume_bytes() const { return volume_bytes_; }
  int64_t num_chunks() const { return static_cast<int64_t>(chunk_shard_.size()); }

  // Routes one logical byte offset. The fleet's hot path: two array loads.
  ShardTarget Route(int64_t offset) const {
    assert(offset >= 0 && offset < volume_bytes_);
    const int64_t chunk = offset / chunk_bytes_;
    const int64_t within = offset - chunk * chunk_bytes_;
    const size_t c = static_cast<size_t>(chunk);
    return ShardTarget{chunk_shard_[c],
                       chunk_local_[c] * chunk_bytes_ + within};
  }

  // Splits [offset, offset+length) into shard-contiguous pieces, in
  // ascending logical-offset order. Adjacent chunks owned by the same shard
  // at consecutive local indices coalesce into one piece.
  void SplitRange(int64_t offset, int32_t length,
                  std::vector<ShardPiece>* pieces) const;

  // Chunks owned per shard (load-balance introspection; sums to num_chunks).
  const std::vector<int64_t>& ChunksPerShard() const { return chunks_per_shard_; }

  // Chunks the consistent-hash builder had to spill past a full primary
  // owner (always 0 for range sharding).
  int64_t SpilledChunks() const { return spilled_chunks_; }

  // An empty map (no chunks); VolumeManager builds the real one in its
  // constructor via the factories above.
  ShardMap() = default;

 private:

  ShardingKind kind_ = ShardingKind::kRange;
  int32_t num_shards_ = 0;
  int64_t chunk_bytes_ = 0;
  int64_t volume_bytes_ = 0;
  std::vector<int32_t> chunk_shard_;  // chunk -> owning shard.
  std::vector<int64_t> chunk_local_;  // chunk -> dense index within shard.
  std::vector<int64_t> chunks_per_shard_;
  int64_t spilled_chunks_ = 0;
};

}  // namespace afraid

#endif  // AFRAID_FLEET_SHARDING_H_
