// Equivalence of the flat open-addressed ContentModel against the original
// map-of-vectors semantics: a randomized op sequence is replayed against a
// tiny reference implementation (kept here, mirroring the pre-flattening
// code) and every observable -- Get/Set, XorOfData, ReconstructData,
// StripeConsistent, TouchedStripes -- must agree exactly. The whole-unit
// operations are checked against the per-sector compositions they replace.

#include "array/content.h"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/random.h"

namespace afraid {
namespace {

// The original sparse representation: stripe -> one vector holding all
// (N + P) * sectors_per_unit values, block-major. Like the model, it keeps
// zero implicit: a zero written into a stripe it does not hold stores
// nothing.
class ReferenceContentModel {
 public:
  ReferenceContentModel(int32_t n, int32_t pb, int32_t spu)
      : n_(n), pb_(pb), spu_(spu) {}

  uint64_t GetData(int64_t stripe, int32_t j, int32_t sector) const {
    return Get(stripe, j, sector);
  }
  void SetData(int64_t stripe, int32_t j, int32_t sector, uint64_t v) {
    Set(stripe, j, sector, v);
  }
  uint64_t GetParity(int64_t stripe, int32_t sector, int32_t which = 0) const {
    return Get(stripe, n_ + which, sector);
  }
  void SetParity(int64_t stripe, int32_t sector, uint64_t v, int32_t which = 0) {
    Set(stripe, n_ + which, sector, v);
  }
  uint64_t XorOfData(int64_t stripe, int32_t sector) const {
    uint64_t x = 0;
    for (int32_t j = 0; j < n_; ++j) {
      x ^= GetData(stripe, j, sector);
    }
    return x;
  }
  uint64_t ReconstructData(int64_t stripe, int32_t j, int32_t sector) const {
    uint64_t x = GetParity(stripe, sector);
    for (int32_t k = 0; k < n_; ++k) {
      if (k != j) {
        x ^= GetData(stripe, k, sector);
      }
    }
    return x;
  }
  bool StripeConsistent(int64_t stripe) const {
    for (int32_t s = 0; s < spu_; ++s) {
      if (GetParity(stripe, s) != XorOfData(stripe, s)) {
        return false;
      }
    }
    return true;
  }
  std::vector<int64_t> TouchedStripes() const {
    std::vector<int64_t> out;
    for (const auto& [s, _] : stripes_) {
      out.push_back(s);
    }
    return out;
  }

 private:
  uint64_t Get(int64_t stripe, int32_t slot, int32_t sector) const {
    auto it = stripes_.find(stripe);
    if (it == stripes_.end()) {
      return 0;
    }
    return it->second[static_cast<size_t>(slot) * spu_ + sector];
  }
  void Set(int64_t stripe, int32_t slot, int32_t sector, uint64_t v) {
    auto it = stripes_.find(stripe);
    if (it == stripes_.end()) {
      if (v == 0) {
        return;
      }
      it = stripes_.emplace(stripe, std::vector<uint64_t>(
                                        static_cast<size_t>(n_ + pb_) * spu_, 0)).first;
    }
    it->second[static_cast<size_t>(slot) * spu_ + sector] = v;
  }

  int32_t n_;
  int32_t pb_;
  int32_t spu_;
  std::unordered_map<int64_t, std::vector<uint64_t>> stripes_;
};

std::vector<int64_t> Sorted(std::vector<int64_t> v) {
  std::sort(v.begin(), v.end());
  return v;
}

TEST(ContentModelEquivalence, RandomizedOpSequenceMatchesReference) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    const int32_t n = 4, pb = 1, spu = 16;
    ContentModel model(n, pb, spu);
    ReferenceContentModel ref(n, pb, spu);
    Rng rng(seed);
    // Key set mixes dense small stripes, sparse large ones, and collisions
    // of the probe sequence; enough distinct stripes to force rehash growth.
    auto random_stripe = [&]() -> int64_t {
      switch (rng.UniformInt(0, 2)) {
        case 0:
          return rng.UniformInt(0, 40);
        case 1:
          return rng.UniformInt(0, 200) * 64;  // Same low bits, stresses probing.
        default:
          return rng.UniformInt(1'000'000'000LL, 1'000'000'400LL);
      }
    };
    for (int step = 0; step < 20000; ++step) {
      const int64_t stripe = random_stripe();
      const int32_t sector = static_cast<int32_t>(rng.UniformInt(0, spu - 1));
      const double roll = rng.UniformDouble(0, 1);
      if (roll < 0.35) {
        const int32_t j = static_cast<int32_t>(rng.UniformInt(0, n - 1));
        const uint64_t v = ContentModel::MixTag(static_cast<uint64_t>(step), stripe);
        model.SetData(stripe, j, sector, v);
        ref.SetData(stripe, j, sector, v);
      } else if (roll < 0.5) {
        // XorOfData of a stripe neither holds is a zero write into an absent
        // stripe, which must store nothing in both.
        const uint64_t v = rng.Bernoulli(0.3) ? ref.XorOfData(stripe, sector)
                                              : static_cast<uint64_t>(step);
        model.SetParity(stripe, sector, v);
        ref.SetParity(stripe, sector, v);
      } else if (roll < 0.65) {
        const int32_t j = static_cast<int32_t>(rng.UniformInt(0, n - 1));
        ASSERT_EQ(model.GetData(stripe, j, sector), ref.GetData(stripe, j, sector));
      } else if (roll < 0.8) {
        ASSERT_EQ(model.GetParity(stripe, sector), ref.GetParity(stripe, sector));
      } else if (roll < 0.9) {
        ASSERT_EQ(model.XorOfData(stripe, sector), ref.XorOfData(stripe, sector));
      } else {
        const int32_t j = static_cast<int32_t>(rng.UniformInt(0, n - 1));
        ASSERT_EQ(model.ReconstructData(stripe, j, sector),
                  ref.ReconstructData(stripe, j, sector));
        ASSERT_EQ(model.StripeConsistent(stripe), ref.StripeConsistent(stripe));
      }
    }
    // Touched-stripe sets (order is representation-defined in both) agree.
    EXPECT_EQ(Sorted(model.TouchedStripes()), Sorted(ref.TouchedStripes()));
    // Full-model scan agrees stripe by stripe.
    for (int64_t s : model.TouchedStripes()) {
      ASSERT_EQ(model.StripeConsistent(s), ref.StripeConsistent(s));
      for (int32_t sec = 0; sec < spu; ++sec) {
        ASSERT_EQ(model.XorOfData(s, sec), ref.XorOfData(s, sec));
      }
    }
  }
}

TEST(ContentModelEquivalence, Raid6TwoParityBlocks) {
  ContentModel model(3, 2, 4);
  ReferenceContentModel ref(3, 2, 4);
  Rng rng(99);
  for (int step = 0; step < 3000; ++step) {
    const int64_t stripe = rng.UniformInt(0, 60);
    const int32_t sector = static_cast<int32_t>(rng.UniformInt(0, 3));
    const int32_t which = static_cast<int32_t>(rng.UniformInt(0, 1));
    if (rng.Bernoulli(0.5)) {
      const uint64_t v = static_cast<uint64_t>(step) * 0x9e37ULL + 1;
      model.SetParity(stripe, sector, v, which);
      ref.SetParity(stripe, sector, v, which);
    } else {
      ASSERT_EQ(model.GetParity(stripe, sector, which),
                ref.GetParity(stripe, sector, which));
    }
  }
}

TEST(ContentModel, UntouchedStripesAreZeroAndConsistent) {
  ContentModel m(4, 1, 8);
  EXPECT_EQ(m.GetData(123, 0, 0), 0u);
  EXPECT_EQ(m.GetParity(123, 7), 0u);
  EXPECT_EQ(m.XorOfData(-5, 3), 0u);  // Negative keys hash fine.
  EXPECT_TRUE(m.StripeConsistent(1LL << 40));
  EXPECT_TRUE(m.TouchedStripes().empty());
  // Reads never mark a stripe as touched.
  EXPECT_TRUE(m.TouchedStripes().empty());
}

TEST(ContentModel, ZeroWritesIntoAbsentStripesStoreNothing) {
  ContentModel m(4, 1, 8);
  m.SetData(7, 2, 3, 0);
  m.SetParity(9, 5, 0);
  EXPECT_TRUE(m.TouchedStripes().empty());
  EXPECT_FALSE(m.Stores(7));
  EXPECT_FALSE(m.Stores(9));
  EXPECT_EQ(m.GetData(7, 2, 3), 0u);
  EXPECT_EQ(m.GetParity(9, 5), 0u);
  // A nonzero write stores the stripe; zeroing it again keeps it stored.
  m.SetData(7, 2, 3, 11);
  m.SetData(7, 2, 3, 0);
  EXPECT_TRUE(m.Stores(7));
  EXPECT_EQ(m.TouchedStripes(), (std::vector<int64_t>{7}));
  EXPECT_EQ(m.GetData(7, 2, 3), 0u);
}

// The whole-unit operations against the per-sector Get/Set compositions they
// replace, on model shapes (data blocks, parity blocks) = RAID 5 (4, 1),
// RAID 6 (3, 2) and the mirror's (2, 2). Stripes 0..kStripes-1 cycle through
// absent, sparsely written and fully written; stripe -1 is never written.
class UnitOpTest : public ::testing::TestWithParam<std::pair<int32_t, int32_t>> {
 protected:
  static constexpr int32_t kSpu = 8;
  static constexpr int64_t kStripes = 12;

  UnitOpTest()
      : n_(GetParam().first),
        pb_(GetParam().second),
        unit_(n_, pb_, kSpu),
        oracle_(n_, pb_, kSpu) {
    Rng rng(static_cast<uint64_t>(n_ * 10 + pb_));
    for (int64_t stripe = 0; stripe < kStripes; ++stripe) {
      const int64_t kind = stripe % 3;  // 0 absent, 1 sparse, 2 full.
      if (kind == 0) {
        continue;
      }
      for (int32_t col = 0; col < n_ + pb_; ++col) {
        for (int32_t s = 0; s < kSpu; ++s) {
          if (kind == 1 && !rng.Bernoulli(0.15)) {
            continue;
          }
          const uint64_t v = rng.UniformInt(1, 1LL << 40);
          Store(&unit_, stripe, col, s, v);
          Store(&oracle_, stripe, col, s, v);
        }
      }
    }
  }

  void Store(ContentModel* m, int64_t stripe, int32_t col, int32_t s,
             uint64_t v) const {
    if (col < n_) {
      m->SetData(stripe, col, s, v);
    } else {
      m->SetParity(stripe, s, v, col - n_);
    }
  }
  uint64_t Load(const ContentModel& m, int64_t stripe, int32_t col,
                int32_t s) const {
    return col < n_ ? m.GetData(stripe, col, s) : m.GetParity(stripe, s, col - n_);
  }

  // Every value of one stripe, and an absent stripe staying absent.
  void ExpectSameStripe(const char* op, int64_t stripe) const {
    EXPECT_EQ(unit_.Stores(stripe), stripe >= 0 && stripe % 3 != 0)
        << op << ": stripe " << stripe;
    for (int32_t col = 0; col < n_ + pb_; ++col) {
      for (int32_t s = 0; s < kSpu; ++s) {
        ASSERT_EQ(Load(unit_, stripe, col, s), Load(oracle_, stripe, col, s))
            << op << ": stripe " << stripe << " column " << col << " sector " << s;
      }
    }
  }

  void ExpectSameModels(const char* op) const {
    EXPECT_EQ(unit_.TouchedStripes(), oracle_.TouchedStripes()) << op;
    for (int64_t stripe = -1; stripe < kStripes; ++stripe) {
      ExpectSameStripe(op, stripe);
    }
  }

  int32_t n_;
  int32_t pb_;
  ContentModel unit_;
  ContentModel oracle_;
};

TEST_P(UnitOpTest, RefreshParityMatchesPerSectorStores) {
  for (int64_t stripe = -1; stripe < kStripes; ++stripe) {
    for (int32_t first = 0; first < kSpu; ++first) {
      for (int32_t count = 0; count <= kSpu - first; ++count) {
        unit_.RefreshParity(stripe, first, count);
        for (int32_t s = first; s < first + count; ++s) {
          oracle_.SetParity(stripe, s, oracle_.XorOfData(stripe, s));
        }
        ExpectSameStripe("RefreshParity range", stripe);
      }
    }
    unit_.RefreshParity(stripe);
    for (int32_t s = 0; s < kSpu; ++s) {
      oracle_.SetParity(stripe, s, oracle_.XorOfData(stripe, s));
    }
  }
  ExpectSameModels("RefreshParity");
  for (int64_t stripe = 0; stripe < kStripes; ++stripe) {
    EXPECT_TRUE(unit_.StripeConsistent(stripe));
  }
}

TEST_P(UnitOpTest, ReconstructBlockMatchesPerSectorStores) {
  for (int64_t stripe = -1; stripe < kStripes; ++stripe) {
    for (int32_t j = 0; j < n_; ++j) {
      unit_.ReconstructBlock(stripe, j);
      for (int32_t s = 0; s < kSpu; ++s) {
        oracle_.SetData(stripe, j, s, oracle_.ReconstructData(stripe, j, s));
      }
    }
  }
  ExpectSameModels("ReconstructBlock");
}

TEST_P(UnitOpTest, ZeroBlockMatchesPerSectorStores) {
  for (int64_t stripe = -1; stripe < kStripes; ++stripe) {
    const auto col = static_cast<int32_t>((stripe + 1) % (n_ + pb_));
    unit_.ZeroBlock(stripe, col);
    for (int32_t s = 0; s < kSpu; ++s) {
      Store(&oracle_, stripe, col, s, 0);
    }
  }
  ExpectSameModels("ZeroBlock");
}

TEST_P(UnitOpTest, CopyBlockMatchesPerSectorStores) {
  for (int64_t stripe = -1; stripe < kStripes; ++stripe) {
    for (int32_t from = 0; from < n_ + pb_; ++from) {
      const int32_t to = (from + 1 + static_cast<int32_t>(stripe & 1)) % (n_ + pb_);
      unit_.CopyBlock(stripe, from, to);
      for (int32_t s = 0; s < kSpu; ++s) {
        Store(&oracle_, stripe, to, s, Load(oracle_, stripe, from, s));
      }
    }
  }
  ExpectSameModels("CopyBlock");
}

TEST_P(UnitOpTest, ParityColumnFollowsTheDataBlocks) {
  for (int32_t w = 0; w < pb_; ++w) {
    EXPECT_EQ(unit_.ParityColumn(w), n_ + w);
  }
  unit_.SetParity(1, 3, 99, pb_ - 1);
  EXPECT_EQ(Load(unit_, 1, unit_.ParityColumn(pb_ - 1), 3), 99u);
}

std::string ShapeName(
    const ::testing::TestParamInfo<std::pair<int32_t, int32_t>>& info) {
  return std::to_string(info.param.first) + "data" +
         std::to_string(info.param.second) + "parity";
}

INSTANTIATE_TEST_SUITE_P(Shapes, UnitOpTest,
                         ::testing::Values(std::make_pair(4, 1), std::make_pair(3, 2),
                                           std::make_pair(2, 2)),
                         ShapeName);

TEST(ContentModel, TouchedStripesReportsFirstTouchOrder) {
  ContentModel m(2, 1, 2);
  m.SetData(30, 0, 0, 1);
  m.SetData(10, 0, 0, 2);
  m.SetData(30, 1, 1, 3);  // Re-touch must not duplicate.
  m.SetParity(20, 0, 4);
  EXPECT_EQ(m.TouchedStripes(), (std::vector<int64_t>{30, 10, 20}));
}

}  // namespace
}  // namespace afraid
