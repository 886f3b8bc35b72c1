// Parity declustering: block-design placement with stripes narrower than the
// array (Holland & Gibson; the t-design construction from the PAPERS.md entry
// "Parity Declustering for Fault-Tolerant Storage Systems via t-designs").
//
// A stripe is k < C units wide (C = disks). Which k disks each stripe lives
// on comes from a block design on C points with block size k: b blocks, each
// disk a member of r = b*k/C of them. Stripe s maps to block s mod b within
// rotation s / b; one rotation consumes exactly r units of every disk, so the
// placement tiles each disk perfectly. When the design is a 2-design (every
// disk *pair* co-occurs in exactly lambda blocks), the rebuild of one disk
// reads exactly lambda units per rotation from every survivor -- perfectly
// balanced -- while touching only the fraction
//
//     alpha = (k-1) / (C-1)
//
// of each survivor (the declustering ratio). That shortens the
// reconstruction window AFRAID's vulnerability periods are dominated by, at
// the cost of parity overhead 1/k instead of 1/C.
//
// The design is compiled at construction into flat per-block tables (member
// disk, per-rotation slot, membership bitmap), so the request hot path stays
// exactly what the left-symmetric layout's is: FastDiv64 + table loads. No
// per-segment modular search. Table memory is O(b * (k + C)) int32s --
// independent of disk capacity; rotations reuse the same tables with a
// rotated role assignment (anchor position shifts by rotation mod k) so
// parity still spreads across all members. The role rotation is itself
// periodic in stripe mod (b*k), so block index and anchor position are
// precompiled over that period and a disk query costs one FastDiv.
//
// Design sources, in order of preference for given (C, k):
//   1. Tabulated cyclic difference sets (Fano plane (7,3), projective plane
//      (13,4)): b = C blocks, lambda = 1 -- minimal tables, perfect balance.
//   2. The complete design (all C-choose-k subsets) when it fits in a small
//      table budget: lambda = (C-2 choose k-2), always a 2-design.
//   3. Cyclic consecutive intervals {i, .., i+k-1} mod C: b = C, always
//      available; rebuild still touches only k-1 units per stripe but
//      per-survivor balance is approximate (pair_balanced() == false).

#ifndef AFRAID_ARRAY_DECLUSTER_H_
#define AFRAID_ARRAY_DECLUSTER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "array/layout.h"

namespace afraid {

class DeclusteredLayout final : public ArrayLayout {
 public:
  // `stripe_width` = k, must satisfy parity_blocks + 1 <= k < num_disks.
  // Capacity is consumed in whole rotations (r units per disk each); the
  // remainder past the last whole rotation is unused, mirroring how
  // StripeLayout drops the partial trailing stripe.
  DeclusteredLayout(int32_t num_disks, int64_t stripe_unit_bytes,
                    int64_t disk_capacity_bytes, int32_t parity_blocks,
                    int32_t stripe_width);

  const char* LayoutName() const override { return "declustered"; }
  int64_t DiskDataBytes() const override {
    return rotations_ * units_per_disk_per_rotation_ * stripe_unit();
  }

  int32_t ParityDisk(int64_t stripe, int32_t which = 0) const override;
  int32_t DataDisk(int64_t stripe, int32_t j) const override;
  BlockLoc DataLocation(int64_t stripe, int32_t j) const override;
  BlockLoc ParityLocation(int64_t stripe, int32_t which = 0) const override;
  bool StripeUsesDisk(int64_t stripe, int32_t disk) const override {
    return uses_[block_div_.Mod(stripe) * num_disks() + disk] != 0;
  }

  // --- Design introspection (tests, docs, benches) --------------------------

  // b: blocks (stripes) per rotation.
  int32_t blocks_per_rotation() const { return blocks_; }
  // r = b*k/C: stripe units every disk contributes to one rotation.
  int32_t units_per_disk_per_rotation() const {
    return units_per_disk_per_rotation_;
  }
  int64_t rotations() const { return rotations_; }
  // True when the compiled design is a 2-design: every disk pair co-occurs
  // in exactly lambda blocks, so rebuild reads are exactly balanced across
  // survivors. The consecutive-interval fallback is declustered but only
  // approximately balanced.
  bool pair_balanced() const { return pair_balanced_; }
  // lambda of the 2-design (0 when !pair_balanced()).
  int32_t pair_lambda() const { return pair_lambda_; }
  // Fraction of each surviving disk a single-disk rebuild reads.
  double declustering_ratio() const {
    return static_cast<double>(stripe_width() - 1) / (num_disks() - 1);
  }
  // Default stripe width for C disks: about half the array, clamped so a
  // stripe keeps at least two data blocks and stays narrower than the array.
  static int32_t AutoWidth(int32_t num_disks, int32_t parity_blocks);

 private:
  struct Design;  // A compiled block design (decluster.cc).
  static Design BuildDesign(int32_t num_disks, int32_t stripe_width);
  static int64_t StripesFor(const Design& design, int32_t num_disks,
                            int32_t stripe_width, int64_t disk_capacity_bytes,
                            int64_t stripe_unit_bytes);
  DeclusteredLayout(int32_t num_disks, int64_t stripe_unit_bytes,
                    int64_t disk_capacity_bytes, int32_t parity_blocks,
                    int32_t stripe_width, Design design);

  // The block index and anchor parity position depend on the stripe only
  // through u = stripe mod (b*k), so both are precompiled into tables over
  // that period: a disk query is ONE FastDiv plus loads, the same op count
  // as the left-symmetric layout (the BM_LayoutMapDecl gate pins this).
  int32_t AnchorPosAt(int64_t u) const { return anchor_pos_u_[u]; }
  // Unit position -> physical location within block t of rotation rot.
  BlockLoc LocAt(int64_t t, int64_t rot, int32_t pos) const {
    const size_t cell = static_cast<size_t>(t) * stripe_width() + pos;
    return BlockLoc{member_disk_[cell],
                    (rot * units_per_disk_per_rotation_ + member_slot_[cell]) *
                        stripe_unit()};
  }

  int32_t blocks_ = 0;                      // b
  int32_t units_per_disk_per_rotation_ = 0;  // r
  int64_t rotations_ = 0;
  bool pair_balanced_ = false;
  int32_t pair_lambda_ = 0;
  std::vector<int32_t> member_disk_;  // [b*k]: sorted member disks per block.
  std::vector<int32_t> member_slot_;  // [b*k]: per-rotation slot on that disk.
  std::vector<uint8_t> uses_;         // [b*C]: membership bitmap.
  std::vector<int32_t> u_to_t_;       // [b*k]: stripe mod b*k -> block index.
  std::vector<int32_t> anchor_pos_u_;  // [b*k]: -> anchor parity position.
  FastDiv64 block_div_;               // By b: stripe -> (rotation, block).
  FastDiv64 period_div_;              // By b*k: stripe -> role-table index.
};

// Constructs the layout `kind` selects. `decluster_width` is the declustered
// stripe width k; 0 picks DeclusteredLayout::AutoWidth. Falls back to the
// left-symmetric layout when declustering is degenerate for the geometry
// (k >= num_disks after clamping -- e.g. 3-disk arrays).
std::unique_ptr<ArrayLayout> MakeLayout(LayoutKind kind, int32_t num_disks,
                                        int64_t stripe_unit_bytes,
                                        int64_t disk_capacity_bytes,
                                        int32_t parity_blocks,
                                        int32_t decluster_width = 0);

}  // namespace afraid

#endif  // AFRAID_ARRAY_DECLUSTER_H_
