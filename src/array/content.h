// Functional content tracking for integrity verification.
//
// Instead of storing real bytes, every 512-byte sector carries a 64-bit
// value; parity sectors hold the xor of the corresponding data sectors,
// exactly as real RAID 5 parity holds the xor of the data bytes (xor on
// tags commutes with xor on bytes, so all parity algebra -- read-modify-
// write deltas, reconstruct-writes, rebuilds, degraded reconstruction --
// is exact). Controllers mutate this model at the simulated instant the
// corresponding disk transfer completes, so tests can fail a disk at an
// arbitrary time and check precisely which data is recoverable.
//
// Storage is sparse per stripe, and zero is implicit: a stripe the model
// does not store reads as all zero, which is parity-consistent by
// construction (a freshly initialised array). A stripe is stored only once
// it holds a nonzero value. Writing zero into a stripe the model does not
// store stores nothing, and every whole-unit operation is a no-op on such a
// stripe (its result there is all zero). A stored stripe whose values
// return to zero may stay stored. So the model's memory scales with the
// stripes a run writes, not with the stripes a reconstruction sweep or a
// scrub visits. TouchedStripes() lists every stripe that may hold a nonzero
// value, in the order the stripes were first stored.
//
// Layout: a single open-addressed hash table maps stripe number to a slot in
// one contiguous value array. Each stripe's values are stored sector-major --
// all N+P block values for sector 0, then for sector 1, ... -- so the parity
// reductions (XorOfData, RefreshParity, ReconstructBlock) run over contiguous
// data values that the compiler can vectorise. A one-entry lookup cache
// short-circuits the probe for the per-transfer bursts of Get/Set the
// controllers issue against a single stripe; the whole-unit operations
// resolve the slot once per stripe unit.

#ifndef AFRAID_ARRAY_CONTENT_H_
#define AFRAID_ARRAY_CONTENT_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace afraid {

class ContentModel {
 public:
  // `data_blocks` = N; `parity_blocks` = 1 (RAID 5) or 2 (RAID 6);
  // `sectors_per_unit` = stripe_unit_bytes / sector_bytes.
  ContentModel(int32_t data_blocks, int32_t parity_blocks, int32_t sectors_per_unit)
      : n_(data_blocks),
        pb_(parity_blocks),
        spu_(sectors_per_unit),
        width_(data_blocks + parity_blocks),
        stride_(static_cast<size_t>(data_blocks + parity_blocks) *
                static_cast<size_t>(sectors_per_unit)),
        buckets_(kInitialBuckets, kEmptyBucket) {
    assert(n_ > 0 && pb_ >= 1 && spu_ > 0);
  }

  int32_t sectors_per_unit() const { return spu_; }

  // --- Physical (on-disk) state ---------------------------------------------

  uint64_t GetData(int64_t stripe, int32_t j, int32_t sector) const {
    assert(j >= 0 && j < n_);
    return Get(stripe, j, sector);
  }
  void SetData(int64_t stripe, int32_t j, int32_t sector, uint64_t v) {
    assert(j >= 0 && j < n_);
    Set(stripe, j, sector, v);
  }
  uint64_t GetParity(int64_t stripe, int32_t sector, int32_t which = 0) const {
    assert(which >= 0 && which < pb_);
    return Get(stripe, n_ + which, sector);
  }
  void SetParity(int64_t stripe, int32_t sector, uint64_t v, int32_t which = 0) {
    assert(which >= 0 && which < pb_);
    Set(stripe, n_ + which, sector, v);
  }

  // --- Parity algebra --------------------------------------------------------

  // Xor of all data blocks of the stripe at one sector position: what a full
  // parity rebuild computes, and what degraded-mode reconstruction recovers.
  // The reduction runs over `n_` contiguous values.
  uint64_t XorOfData(int64_t stripe, int32_t sector) const {
    assert(sector >= 0 && sector < spu_);
    const uint32_t slot = FindSlot(stripe);
    return slot == kNoStripe ? 0 : DataXor(RowPtr(slot, sector));
  }

  // Reconstruction of data block j from the other data blocks and P parity:
  // xor of everything except block j.
  uint64_t ReconstructData(int64_t stripe, int32_t j, int32_t sector) const {
    return XorOfData(stripe, sector) ^ GetData(stripe, j, sector) ^
           GetParity(stripe, sector);
  }

  // True iff P parity equals the xor of the data at every sector position.
  bool StripeConsistent(int64_t stripe) const {
    const uint32_t slot = FindSlot(stripe);
    if (slot == kNoStripe) {
      return true;  // Implicitly all-zero, hence consistent.
    }
    for (int32_t s = 0; s < spu_; ++s) {
      const uint64_t* row = RowPtr(slot, s);
      if (row[n_] != DataXor(row)) {
        return false;
      }
    }
    return true;
  }

  // Every stripe that may hold a nonzero value (for whole-model consistency
  // scans), in first-store order. Any stripe not listed reads as all zero.
  const std::vector<int64_t>& TouchedStripes() const { return stripe_of_slot_; }

  // True iff the model stores `stripe`; a stripe it does not store is all
  // zero.
  bool Stores(int64_t stripe) const { return FindSlot(stripe) != kNoStripe; }

  // --- Whole-unit operations -------------------------------------------------
  //
  // Each updates one stripe unit in place with a single slot lookup and is a
  // no-op on a stripe the model does not store. Blocks are addressed by
  // column: data block j is column j, parity block `which` is column
  // ParityColumn(which).

  int32_t ParityColumn(int32_t which = 0) const {
    assert(which >= 0 && which < pb_);
    return n_ + which;
  }

  // P parity becomes the xor of the data blocks at sectors
  // [first, first + count): SetParity(stripe, s, XorOfData(stripe, s)) for
  // each of them.
  void RefreshParity(int64_t stripe, int32_t first, int32_t count) {
    assert(first >= 0 && count >= 0 && first + count <= spu_);
    uint64_t* row = StoredRow(stripe, first);
    if (row == nullptr) {
      return;
    }
    for (int32_t i = 0; i < count; ++i, row += width_) {
      row[n_] = DataXor(row);
    }
  }
  void RefreshParity(int64_t stripe) { RefreshParity(stripe, 0, spu_); }

  // Data block j becomes P xor the other data blocks at every sector:
  // SetData(stripe, j, s, ReconstructData(stripe, j, s)) for each of them.
  void ReconstructBlock(int64_t stripe, int32_t j) {
    assert(j >= 0 && j < n_);
    uint64_t* row = StoredRow(stripe, 0);
    if (row == nullptr) {
      return;
    }
    for (int32_t s = 0; s < spu_; ++s, row += width_) {
      row[j] = DataXor(row) ^ row[j] ^ row[n_];
    }
  }

  // Column `col` becomes all zero: the blank unit of a replacement disk.
  void ZeroBlock(int64_t stripe, int32_t col) {
    assert(col >= 0 && col < width_);
    uint64_t* row = StoredRow(stripe, 0);
    if (row == nullptr) {
      return;
    }
    for (int32_t s = 0; s < spu_; ++s, row += width_) {
      row[col] = 0;
    }
  }

  // Column `to` becomes a copy of column `from`: a mirror twin copied onto
  // its replacement.
  void CopyBlock(int64_t stripe, int32_t from, int32_t to) {
    assert(from >= 0 && from < width_ && to >= 0 && to < width_);
    uint64_t* row = StoredRow(stripe, 0);
    if (row == nullptr) {
      return;
    }
    for (int32_t s = 0; s < spu_; ++s, row += width_) {
      row[to] = row[from];
    }
  }

  // The unique value a client write `tag` deposits into logical sector
  // `logical_sector`. Tests recompute this to know what to expect.
  static uint64_t MixTag(uint64_t tag, int64_t logical_sector) {
    uint64_t x = tag * 0x9e3779b97f4a7c15ULL ^
                 static_cast<uint64_t>(logical_sector) * 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 31;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 29;
    // Avoid producing 0 so "never written" is distinguishable in practice.
    return x == 0 ? 1 : x;
  }

 private:
  static constexpr uint32_t kEmptyBucket = 0;   // Buckets hold slot index + 1.
  static constexpr uint32_t kNoStripe = 0xffffffffu;
  static constexpr size_t kInitialBuckets = 64;  // Power of two.

  static uint64_t HashStripe(int64_t stripe) {
    uint64_t z = static_cast<uint64_t>(stripe) + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  size_t ValueIndex(uint32_t slot, int32_t block, int32_t sector) const {
    return static_cast<size_t>(slot) * stride_ +
           static_cast<size_t>(sector) * static_cast<size_t>(width_) +
           static_cast<size_t>(block);
  }

  const uint64_t* RowPtr(uint32_t slot, int32_t sector) const {
    return values_.data() + ValueIndex(slot, 0, sector);
  }

  // Sector row `sector` of `stripe`, or nullptr if the model does not store
  // the stripe.
  uint64_t* StoredRow(int64_t stripe, int32_t sector) {
    const uint32_t slot = FindSlot(stripe);
    return slot == kNoStripe ? nullptr
                             : values_.data() + ValueIndex(slot, 0, sector);
  }

  // Xor of the data values of one sector row: a reduction over `n_`
  // contiguous values.
  uint64_t DataXor(const uint64_t* row) const {
    uint64_t x = 0;
    for (int32_t j = 0; j < n_; ++j) {
      x ^= row[j];
    }
    return x;
  }

  // Linear-probe lookup; kNoStripe if the model does not store the stripe.
  uint32_t FindSlot(int64_t stripe) const {
    if (cached_slot_ != kNoStripe && cached_stripe_ == stripe) {
      return cached_slot_;
    }
    const size_t mask = buckets_.size() - 1;
    for (size_t b = HashStripe(stripe) & mask;; b = (b + 1) & mask) {
      const uint32_t entry = buckets_[b];
      if (entry == kEmptyBucket) {
        return kNoStripe;
      }
      const uint32_t slot = entry - 1;
      if (stripe_of_slot_[slot] == stripe) {
        cached_stripe_ = stripe;
        cached_slot_ = slot;
        return slot;
      }
    }
  }

  // Stores a new all-zero stripe; the caller has checked it is absent.
  uint32_t InsertSlot(int64_t stripe) {
    // Grow at 50% load so probe sequences stay short.
    if ((stripe_of_slot_.size() + 1) * 2 > buckets_.size()) {
      Rehash(buckets_.size() * 2);
    }
    const uint32_t slot = static_cast<uint32_t>(stripe_of_slot_.size());
    stripe_of_slot_.push_back(stripe);
    values_.resize(values_.size() + stride_, 0);
    const size_t mask = buckets_.size() - 1;
    size_t b = HashStripe(stripe) & mask;
    while (buckets_[b] != kEmptyBucket) {
      b = (b + 1) & mask;
    }
    buckets_[b] = slot + 1;
    cached_stripe_ = stripe;
    cached_slot_ = slot;
    return slot;
  }

  void Rehash(size_t new_buckets) {
    buckets_.assign(new_buckets, kEmptyBucket);
    const size_t mask = new_buckets - 1;
    for (uint32_t slot = 0; slot < stripe_of_slot_.size(); ++slot) {
      size_t b = HashStripe(stripe_of_slot_[slot]) & mask;
      while (buckets_[b] != kEmptyBucket) {
        b = (b + 1) & mask;
      }
      buckets_[b] = slot + 1;
    }
  }

  uint64_t Get(int64_t stripe, int32_t block, int32_t sector) const {
    assert(sector >= 0 && sector < spu_);
    const uint32_t slot = FindSlot(stripe);
    if (slot == kNoStripe) {
      return 0;
    }
    return values_[ValueIndex(slot, block, sector)];
  }
  void Set(int64_t stripe, int32_t block, int32_t sector, uint64_t v) {
    assert(sector >= 0 && sector < spu_);
    uint32_t slot = FindSlot(stripe);
    if (slot == kNoStripe) {
      if (v == 0) {
        return;  // Zero stays implicit.
      }
      slot = InsertSlot(stripe);
    }
    values_[ValueIndex(slot, block, sector)] = v;
  }

  int32_t n_;
  int32_t pb_;
  int32_t spu_;
  int32_t width_;   // n_ + pb_: values per sector row.
  size_t stride_;   // Values per stripe.

  std::vector<uint32_t> buckets_;        // Open-addressed: slot index + 1.
  std::vector<int64_t> stripe_of_slot_;  // Slot -> stripe key, store order.
  std::vector<uint64_t> values_;         // Slot-contiguous, sector-major.

  mutable int64_t cached_stripe_ = 0;
  mutable uint32_t cached_slot_ = kNoStripe;
};

}  // namespace afraid

#endif  // AFRAID_ARRAY_CONTENT_H_
