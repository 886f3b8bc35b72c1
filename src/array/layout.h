// Array layouts: mappings between the array's logical data space and
// per-disk block addresses.
//
// Two placements implement the common ArrayLayout concept:
//
//  * StripeLayout -- the paper's "straightforward left-symmetric RAID 5 data
//    layout" (Section 2). With num_disks = 5 the placement is the classic
//    picture:
//
//      disk:    0    1    2    3    4
//      S0:     D0   D1   D2   D3   P0
//      S1:     D5   D6   D7   P1   D4
//      S2:    D10  D11   P2   D8   D9
//      S3:    D15   P3  D12  D13  D14
//      S4:     P4  D16  D17  D18  D19
//
//    Parity rotates right-to-left; the data blocks of a stripe start just
//    right of the parity (wrapping), so consecutive logical blocks visit
//    every disk once per num_disks blocks -- the property that makes large
//    sequential accesses N+1-way parallel. The same class also supports a
//    second rotating parity block (P+Q) for the Section 5 RAID 6 + AFRAID
//    extension.
//
//  * DeclusteredLayout (array/decluster.h) -- parity declustering via block
//    designs: stripes are only `k < num_disks` units wide, placed by a
//    balanced incomplete block design so a rebuild reads just a fraction
//    (k-1)/(num_disks-1) of each surviving disk.
//
// Everything that depends only on the stripe *geometry* (unit size, data
// blocks per stripe) -- request splitting, logical<->stripe address math --
// lives non-virtually in the base class on strength-reduced divisors, so the
// request hot path is shared and branch-free. Only the placement queries
// (which disk, which byte offset) dispatch virtually, and both concrete
// layouts are `final`, so calls through a concrete type devirtualize.

#ifndef AFRAID_ARRAY_LAYOUT_H_
#define AFRAID_ARRAY_LAYOUT_H_

#include <cassert>
#include <cstdint>
#include <vector>

#include "sim/fast_div.h"

namespace afraid {

// Which placement maps stripes onto disks (core/array_config.h selects one;
// MakeLayout in array/decluster.h constructs it).
enum class LayoutKind : int32_t {
  kLeftSymmetric = 0,  // Classic rotated RAID 5/6 placement (StripeLayout).
  kDeclustered = 1,    // Block-design parity declustering (DeclusteredLayout).
};

const char* LayoutKindName(LayoutKind kind);
// Parses "left-symmetric" / "declustered" (CLI --layout values). Returns
// false, leaving *kind untouched, for anything else.
bool LayoutKindFromName(const char* name, LayoutKind* kind);

// Physical location of one stripe unit: disk index and byte offset on disk.
struct BlockLoc {
  int32_t disk = 0;
  int64_t byte_offset = 0;

  bool operator==(const BlockLoc&) const = default;
};

// A stripe-unit-aligned fragment of a client request.
struct Segment {
  int64_t stripe = 0;        // Stripe index.
  int32_t block_in_stripe = 0;  // Data-block index j within the stripe, [0, N).
  int64_t logical_offset = 0;   // Byte offset in the array's data space.
  int32_t offset_in_block = 0;  // Byte offset within the stripe unit.
  int32_t length = 0;           // Bytes, <= stripe_unit - offset_in_block.
};

// The placement concept every controller, plan compiler and test talks to.
// A layout is immutable after construction; all queries are const and
// allocation-free (SplitInto appends into a caller-owned vector).
class ArrayLayout {
 public:
  virtual ~ArrayLayout() = default;

  int32_t num_disks() const { return num_disks_; }
  int64_t stripe_unit() const { return stripe_unit_; }
  int32_t parity_blocks() const { return parity_blocks_; }
  // k: units per stripe (data + parity). num_disks for the left-symmetric
  // layout, the design's block size for a declustered one.
  int32_t stripe_width() const { return stripe_width_; }
  // N: data blocks per stripe.
  int32_t data_blocks_per_stripe() const {
    return stripe_width_ - parity_blocks_;
  }
  int64_t num_stripes() const { return num_stripes_; }
  // Client-visible capacity.
  int64_t data_capacity_bytes() const {
    return num_stripes_ * data_blocks_per_stripe() * stripe_unit_;
  }

  // Registry-stable placement name ("left-symmetric", "declustered").
  virtual const char* LayoutName() const = 0;

  // Bytes of each disk occupied by stripe units (data + parity). Anything
  // beyond this on a disk is free for scheme-private regions (the parity
  // log's on-disk log region starts here).
  virtual int64_t DiskDataBytes() const = 0;

  // Disk holding parity block `which` (0 = P, 1 = Q) of `stripe`.
  virtual int32_t ParityDisk(int64_t stripe, int32_t which = 0) const = 0;
  // Disk holding data block j of `stripe`.
  virtual int32_t DataDisk(int64_t stripe, int32_t j) const = 0;

  // Physical location of data block j of `stripe` / parity of `stripe`.
  virtual BlockLoc DataLocation(int64_t stripe, int32_t j) const = 0;
  virtual BlockLoc ParityLocation(int64_t stripe, int32_t which = 0) const = 0;

  // True when `stripe` places any unit (data or parity) on `disk`. The
  // rebuild sweeps skip stripes that do not involve the replaced disk;
  // always true for the left-symmetric layout, where every stripe spans
  // every disk.
  virtual bool StripeUsesDisk(int64_t stripe, int32_t disk) const {
    (void)stripe;
    (void)disk;
    return true;
  }

  // --- Geometry-only math, shared by all placements -------------------------

  // Logical (byte) address -> stripe of the containing unit.
  int64_t StripeOfOffset(int64_t logical_offset) const {
    assert(logical_offset >= 0 && logical_offset < data_capacity_bytes());
    return stripe_bytes_div_.Div(logical_offset);
  }

  // Splits a byte range of the logical data space into stripe-unit segments.
  // Segments come out with monotonically nondecreasing stripe numbers, so a
  // per-stripe grouping is a contiguous-run scan of the result.
  std::vector<Segment> Split(int64_t logical_offset, int64_t length) const;

  // Allocation-free variant: clears `segments` and appends into it, reusing
  // its capacity. The request fast path feeds this from a pooled vector.
  void SplitInto(int64_t logical_offset, int64_t length,
                 std::vector<Segment>* segments) const;

  // Inverse check helper: logical byte offset of data block j of stripe s.
  int64_t LogicalOffsetOf(int64_t stripe, int32_t j) const {
    return (stripe * data_blocks_per_stripe() + j) * stripe_unit_;
  }

 protected:
  ArrayLayout(int32_t num_disks, int64_t stripe_unit_bytes,
              int32_t parity_blocks, int32_t stripe_width, int64_t num_stripes);

  ArrayLayout(const ArrayLayout&) = default;
  ArrayLayout& operator=(const ArrayLayout&) = default;

 private:
  int32_t num_disks_;
  int64_t stripe_unit_;
  int32_t parity_blocks_;
  int32_t stripe_width_;
  int64_t num_stripes_;
  // Strength-reduced divisors for the per-request mapping math.
  FastDiv64 unit_div_;          // By stripe_unit_.
  FastDiv64 data_div_;          // By data_blocks_per_stripe().
  FastDiv64 stripe_bytes_div_;  // By stripe_unit_ * data_blocks_per_stripe().
};

class StripeLayout final : public ArrayLayout {
 public:
  // `disk_capacity_bytes` is the usable capacity of each (identical) disk;
  // `parity_blocks` is 1 for RAID 5 / AFRAID (and RAID 0 modelled as an
  // AFRAID that never rebuilds), or 2 for RAID 6.
  StripeLayout(int32_t num_disks, int64_t stripe_unit_bytes, int64_t disk_capacity_bytes,
               int32_t parity_blocks = 1);

  const char* LayoutName() const override { return "left-symmetric"; }
  // Every stripe stores one unit per disk at byte offset stripe * unit.
  int64_t DiskDataBytes() const override { return num_stripes() * stripe_unit(); }

  int32_t ParityDisk(int64_t stripe, int32_t which = 0) const override;
  int32_t DataDisk(int64_t stripe, int32_t j) const override;
  BlockLoc DataLocation(int64_t stripe, int32_t j) const override;
  BlockLoc ParityLocation(int64_t stripe, int32_t which = 0) const override;

 private:
  // Anchor parity disk of `stripe` (Q when there are two parity blocks).
  int32_t AnchorDisk(int64_t stripe) const {
    return static_cast<int32_t>(num_disks() - 1 - disks_div_.Mod(stripe));
  }

  FastDiv64 disks_div_;  // By num_disks().
};

}  // namespace afraid

#endif  // AFRAID_ARRAY_LAYOUT_H_
