#include "trace/transform.h"

#include <cassert>

namespace afraid {

Trace ScaleTime(const Trace& in, double factor) {
  assert(factor > 0.0);
  Trace out;
  out.name = in.name + "*t" + std::to_string(factor);
  out.records.reserve(in.records.size());
  for (TraceRecord r : in.records) {
    r.time = static_cast<SimTime>(static_cast<double>(r.time) * factor);
    out.records.push_back(r);
  }
  return out;
}

}  // namespace afraid
