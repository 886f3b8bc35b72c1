// Strength-reduced division by a divisor fixed at construction.
//
// Hot paths that divide by the same runtime value over and over (a layout's
// stripe geometry, a disk zone's sectors per track, the revolution time) hold
// one FastDiv64 per divisor instead of issuing a hardware div/mod per call.

#ifndef AFRAID_SIM_FAST_DIV_H_
#define AFRAID_SIM_FAST_DIV_H_

#include <cassert>
#include <cstdint>

namespace afraid {

// Unsigned division by a positive divisor fixed at construction,
// strength-reduced Granlund-Montgomery style: a power-of-two divisor becomes
// a shift, anything else a 128-bit multiply by floor(2^64/d)+1. With
// m = floor(2^64/d)+1 and e = m*d - 2^64 (0 < e <= d), mulhi(n, m) equals
// floor(n/d) exactly for every n with n*e < 2^64. Byte offsets into an array
// never leave that range, but a nanosecond clock can (for the 11.1 ms
// revolution of a 5400 RPM disk, after 6.5 simulated hours). Above it, the
// multiply by m-1 = floor(2^64/d) is used instead: for any n < 2^64 it falls
// short of floor(n/d) by at most one, and one compare of the remainder
// against d corrects that.
class FastDiv64 {
 public:
  FastDiv64() : FastDiv64(1) {}
  explicit FastDiv64(int64_t divisor) {
    assert(divisor > 0);
    d_ = static_cast<uint64_t>(divisor);
    shift_ = 0;
    while ((uint64_t{1} << shift_) < d_) {
      ++shift_;
    }
    if ((uint64_t{1} << shift_) == d_) {  // Power of two (including 1).
      magic_ = 0;
      limit_ = ~uint64_t{0};
      return;
    }
    magic_ = ~uint64_t{0} / d_ + 1;                  // floor(2^64/d) + 1.
    const uint64_t excess = magic_ * d_;             // e = m*d mod 2^64.
    limit_ = ~uint64_t{0} / excess;                  // n <= limit_ => n*e < 2^64.
  }

  int64_t divisor() const { return static_cast<int64_t>(d_); }

  // Requires n >= 0.
  int64_t Div(int64_t n) const {
    assert(n >= 0);
    const auto u = static_cast<uint64_t>(n);
    if (magic_ == 0) {
      return static_cast<int64_t>(u >> shift_);
    }
    if (u > limit_) {
      uint64_t q = MulHi(u, magic_ - 1);
      if (u - q * d_ >= d_) {
        ++q;
      }
      return static_cast<int64_t>(q);
    }
    return static_cast<int64_t>(MulHi(u, magic_));
  }

  int64_t Mod(int64_t n) const { return n - Div(n) * static_cast<int64_t>(d_); }

 private:
  static uint64_t MulHi(uint64_t a, uint64_t b) {
    return static_cast<uint64_t>((static_cast<unsigned __int128>(a) * b) >> 64);
  }

  uint64_t d_ = 1;
  uint64_t magic_ = 0;   // 0 marks the shift path.
  uint64_t limit_ = 0;   // Largest dividend the multiply by magic_ divides exactly.
  int32_t shift_ = 0;
};

}  // namespace afraid

#endif  // AFRAID_SIM_FAST_DIV_H_
