// Trace transformations: reshaping a trace's arrival process while keeping
// its request mix, e.g. to sweep the offered load of one workload.

#ifndef AFRAID_TRACE_TRANSFORM_H_
#define AFRAID_TRACE_TRANSFORM_H_

#include "trace/trace.h"

namespace afraid {

// Scales all arrival times by `factor` (> 0): factor 0.5 doubles the offered
// load; 2.0 halves it. Sizes and offsets are untouched.
Trace ScaleTime(const Trace& in, double factor);

}  // namespace afraid

#endif  // AFRAID_TRACE_TRANSFORM_H_
