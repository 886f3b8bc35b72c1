// The legacy getline-plus-stream-extraction trace parser, kept outside the
// library as the reference oracle for the fast scanner (trace/trace.h):
// trace_test asserts record-for-record equality on every in-tree workload,
// and bench_micro_engine's BM_TraceParseStreamRef benchmarks against it.

#ifndef AFRAID_TESTS_TRACE_TRACE_PARSE_REF_H_
#define AFRAID_TESTS_TRACE_TRACE_PARSE_REF_H_

#include <string>

#include "trace/trace.h"

namespace afraid {

// Parses `text` into `out` (cleared first); false on any malformed line.
bool ParseTraceStreamRef(const std::string& text, Trace* out);

}  // namespace afraid

#endif  // AFRAID_TESTS_TRACE_TRACE_PARSE_REF_H_
