#include "trace/transform.h"

#include <gtest/gtest.h>

namespace afraid {
namespace {

Trace Sample() {
  Trace t;
  t.name = "s";
  t.records = {
      {Milliseconds(0), 0, 512, false},
      {Milliseconds(100), 8192, 4096, true},
      {Milliseconds(250), 1 << 20, 8192, true},
      {Milliseconds(900), 123 * 512, 1024, false},
  };
  return t;
}

TEST(Transform, ScaleTimeHalvesGaps) {
  const Trace out = ScaleTime(Sample(), 0.5);
  ASSERT_EQ(out.records.size(), 4u);
  EXPECT_EQ(out.records[1].time, Milliseconds(50));
  EXPECT_EQ(out.records[3].time, Milliseconds(450));
  EXPECT_EQ(out.records[1].offset, 8192);  // Space untouched.
}

}  // namespace
}  // namespace afraid
