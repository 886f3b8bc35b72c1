#include "array/layout.h"

#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <vector>

#include "sim/random.h"

namespace afraid {
namespace {

TEST(Layout, ClassicLeftSymmetricPicture) {
  // The 5-disk picture from the header comment.
  StripeLayout layout(5, 8192, 50 * 8192, 1);
  // Parity rotates right-to-left.
  EXPECT_EQ(layout.ParityDisk(0), 4);
  EXPECT_EQ(layout.ParityDisk(1), 3);
  EXPECT_EQ(layout.ParityDisk(2), 2);
  EXPECT_EQ(layout.ParityDisk(3), 1);
  EXPECT_EQ(layout.ParityDisk(4), 0);
  EXPECT_EQ(layout.ParityDisk(5), 4);  // Wraps.
  // Stripe 0: D0..D3 on disks 0..3.
  for (int j = 0; j < 4; ++j) {
    EXPECT_EQ(layout.DataDisk(0, j), j);
  }
  // Stripe 1: D4 on disk 4, D5..D7 on disks 0..2.
  EXPECT_EQ(layout.DataDisk(1, 0), 4);
  EXPECT_EQ(layout.DataDisk(1, 1), 0);
  EXPECT_EQ(layout.DataDisk(1, 2), 1);
  EXPECT_EQ(layout.DataDisk(1, 3), 2);
}

TEST(Layout, ConsecutiveDataBlocksVisitAllDisks) {
  // The left-symmetric property: logical blocks 0..num_disks-1 land on
  // distinct disks (full parallelism for sequential access).
  StripeLayout layout(5, 8192, 50 * 8192, 1);
  std::set<int32_t> disks;
  for (int64_t b = 0; b < 5; ++b) {
    const int64_t stripe = b / 4;
    const auto j = static_cast<int32_t>(b % 4);
    disks.insert(layout.DataDisk(stripe, j));
  }
  EXPECT_EQ(disks.size(), 5u);
}

TEST(Layout, ParityNeverCollidesWithData) {
  for (int32_t nd : {3, 4, 5, 8}) {
    StripeLayout layout(nd, 8192, 100 * 8192, 1);
    for (int64_t s = 0; s < 50; ++s) {
      std::set<int32_t> used;
      used.insert(layout.ParityDisk(s));
      for (int32_t j = 0; j < layout.data_blocks_per_stripe(); ++j) {
        EXPECT_TRUE(used.insert(layout.DataDisk(s, j)).second)
            << "collision at stripe " << s << " block " << j;
      }
      EXPECT_EQ(used.size(), static_cast<size_t>(nd));
    }
  }
}

TEST(Layout, Raid6ParityDisksDistinct) {
  StripeLayout layout(6, 8192, 100 * 8192, 2);
  EXPECT_EQ(layout.data_blocks_per_stripe(), 4);
  for (int64_t s = 0; s < 60; ++s) {
    std::set<int32_t> used;
    EXPECT_TRUE(used.insert(layout.ParityDisk(s, 0)).second);
    EXPECT_TRUE(used.insert(layout.ParityDisk(s, 1)).second);
    for (int32_t j = 0; j < 4; ++j) {
      EXPECT_TRUE(used.insert(layout.DataDisk(s, j)).second);
    }
  }
  // Both parity blocks rotate across all disks.
  std::set<int32_t> p_disks;
  std::set<int32_t> q_disks;
  for (int64_t s = 0; s < 6; ++s) {
    p_disks.insert(layout.ParityDisk(s, 0));
    q_disks.insert(layout.ParityDisk(s, 1));
  }
  EXPECT_EQ(p_disks.size(), 6u);
  EXPECT_EQ(q_disks.size(), 6u);
}

TEST(Layout, CapacityArithmetic) {
  StripeLayout layout(5, 8192, 1'000'000, 1);
  EXPECT_EQ(layout.num_stripes(), 1'000'000 / 8192);
  EXPECT_EQ(layout.data_capacity_bytes(), layout.num_stripes() * 4 * 8192);
}

TEST(Layout, SplitSingleAlignedBlock) {
  StripeLayout layout(5, 8192, 100 * 8192, 1);
  const auto segs = layout.Split(8192 * 4, 8192);  // Stripe 1, block 0.
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_EQ(segs[0].stripe, 1);
  EXPECT_EQ(segs[0].block_in_stripe, 0);
  EXPECT_EQ(segs[0].offset_in_block, 0);
  EXPECT_EQ(segs[0].length, 8192);
}

TEST(Layout, SplitUnalignedSmallWrite) {
  StripeLayout layout(5, 8192, 100 * 8192, 1);
  const auto segs = layout.Split(1024, 2048);
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_EQ(segs[0].stripe, 0);
  EXPECT_EQ(segs[0].block_in_stripe, 0);
  EXPECT_EQ(segs[0].offset_in_block, 1024);
  EXPECT_EQ(segs[0].length, 2048);
}

TEST(Layout, SplitSpanningBlocksAndStripes) {
  StripeLayout layout(5, 8192, 100 * 8192, 1);
  // From mid-block 3 of stripe 0 into block 0 of stripe 1.
  const auto segs = layout.Split(3 * 8192 + 4096, 8192);
  ASSERT_EQ(segs.size(), 2u);
  EXPECT_EQ(segs[0].stripe, 0);
  EXPECT_EQ(segs[0].block_in_stripe, 3);
  EXPECT_EQ(segs[0].offset_in_block, 4096);
  EXPECT_EQ(segs[0].length, 4096);
  EXPECT_EQ(segs[1].stripe, 1);
  EXPECT_EQ(segs[1].block_in_stripe, 0);
  EXPECT_EQ(segs[1].offset_in_block, 0);
  EXPECT_EQ(segs[1].length, 4096);
}

TEST(FastDiv, MatchesHardwareDivide) {
  Rng rng(7);
  for (int64_t d : std::initializer_list<int64_t>{
           1, 2, 3, 4, 5, 7, 8, 12, 4096, 8192, 8191, 65536, 1'000'003,
           10'000'000, 11'111'111, int64_t{1} << 40}) {
    const FastDiv64 fd(d);
    // Edge values plus a random spray across the full non-negative range.
    for (int64_t n : {int64_t{0}, int64_t{1}, d - 1, d, d + 1, 2 * d - 1,
                      std::numeric_limits<int64_t>::max() - 1,
                      std::numeric_limits<int64_t>::max()}) {
      EXPECT_EQ(fd.Div(n), n / d) << n << " / " << d;
      EXPECT_EQ(fd.Mod(n), n % d) << n << " % " << d;
    }
    for (int i = 0; i < 10000; ++i) {
      const int64_t n =
          rng.UniformInt(0, std::numeric_limits<int64_t>::max() - 1);
      ASSERT_EQ(fd.Div(n), n / d) << n << " / " << d;
      ASSERT_EQ(fd.Mod(n), n % d) << n << " % " << d;
    }
  }
}

TEST(LayoutProperty, SplitIsExactCover) {
  Rng rng(9);
  StripeLayout layout(5, 8192, 5000 * 8192, 1);
  const int64_t cap = layout.data_capacity_bytes();
  for (int i = 0; i < 2000; ++i) {
    const int64_t size = rng.UniformInt(1, 100 * 1024);
    const int64_t off = rng.UniformInt(0, cap - size);
    const auto segs = layout.Split(off, size);
    int64_t expect = off;
    int64_t total = 0;
    for (const Segment& seg : segs) {
      EXPECT_EQ(seg.logical_offset, expect);
      EXPECT_GT(seg.length, 0);
      EXPECT_LE(seg.offset_in_block + seg.length, 8192);
      // The (stripe, block, offset) triple maps back to the logical offset.
      EXPECT_EQ(layout.LogicalOffsetOf(seg.stripe, seg.block_in_stripe) +
                    seg.offset_in_block,
                seg.logical_offset);
      expect += seg.length;
      total += seg.length;
    }
    EXPECT_EQ(total, size);
  }
}

}  // namespace
}  // namespace afraid
