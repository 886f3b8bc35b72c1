// Shared pieces of the perfbench harness: host clocks, the in-memory span
// log, output checks, metrics and the workload interface.
//
// Every number the harness grades is HOST time or host memory: the simulator
// is deterministic, so its simulated statistics are printed and digested, not
// timed. Spans are placed by the harness around its own calls into each
// layer of src/ (trace, array, core, disk/sim, fleet, faultsim, stats); a
// layer's self time is its span's duration minus the time its child spans
// cover.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/array_config.h"

namespace perfbench {

// Host clocks in nanoseconds: steady wall time, and CPU time of the whole
// process (every thread).
int64_t WallNs();
int64_t CpuNs();

double Median(std::vector<double> v);
// Nearest-rank percentile, p in [0, 1].
double Percentile(std::vector<double> v, double p);

// 64-bit FNV-1a digest of serialized simulated reports.
uint64_t Digest(std::string_view bytes);

// Worker threads of a graded iteration, fixed rather than taken from the
// host. fleet and campaign pass it to the simulator's own parallel sweeps;
// replay and rebuild spread their independent simulations over it.
constexpr int32_t kThreads = 2;

// Calls fn(i) once for every i in [0, n), on `threads` threads (the caller
// and threads - 1 helpers). Rethrows the first exception fn threw.
void ParallelFor(size_t n, int32_t threads,
                 const std::function<void(size_t)>& fn);

// --- Spans ----------------------------------------------------------------

struct Span {
  std::string name;
  int32_t parent = -1;  // -1: the root of one tree (one iteration or probe).
  int64_t start_ns = 0;
  int64_t end_ns = -1;  // -1 while open.
  int64_t child_ns = 0; // Time covered by direct children.
};

// Spans kept in memory and written out when the run ends. Children nest
// strictly inside their parent (one thread, stack discipline), so the part of
// a span its children cover is the sum of their durations.
class SpanLog {
 public:
  int32_t Begin(std::string name);
  void End(int32_t id);  // Must close the innermost open span.

  double TotalMs(int32_t id) const;
  double SelfMs(int32_t id) const;
  int64_t TotalNs(int32_t id) const;

  bool WriteJson(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
  int64_t epoch_ns_ = WallNs();
};

// Records one span for its scope; does nothing when `log` is null, which is
// how the untraced (graded) runs call the same code.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name)
      : log_(log), id_(log != nullptr ? log->Begin(std::move(name)) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) {
      log_->End(id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int32_t id() const { return id_; }

 private:
  SpanLog* log_;
  int32_t id_;
};

// Runs `fn` inside a span and returns the closed span's id (-1 untraced).
template <typename Fn>
int32_t InSpan(SpanLog* log, std::string name, Fn&& fn) {
  ScopedSpan s(log, std::move(name));
  fn();
  return s.id();
}

// --- Metrics and checks ---------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

// Output checks. One operation is one simulated run (an Experiment, a fleet
// replay, a rebuild, a campaign) or one digest comparison; it fails when any
// of its checks does.
class Checks {
 public:
  // Records one operation; `problems` names every check it failed.
  void Op(const std::string& what, const std::vector<std::string>& problems);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> messages_;
};

void Expect(std::vector<std::string>* problems, bool ok, const std::string& what);
// A fraction must lie in [0, 1] exactly: no epsilon, so accumulated rounding
// such as 1.0000000000001 fails.
void ExpectFraction(std::vector<std::string>* problems, const std::string& name,
                    double value);

// --- Workloads ------------------------------------------------------------

struct Options {
  uint64_t seed = 1;
  bool tiny = false;      // Smoke-test sizes.
  std::string work_dir;   // Scratch files (recorded traces, spans).
};

// One unit of timed work.
struct Iteration {
  uint64_t items = 0;   // Simulated client requests (or lifetimes) completed.
  std::string report;   // Serialized simulated reports; digested.
  Metrics layer;        // Per-layer metrics; traced iterations only.
};

class Workload {
 public:
  virtual ~Workload() = default;

  // "request" or "lifetime": what one item is.
  virtual const char* item() const = 0;
  // One-line description of the inputs and sizes.
  virtual std::string Describe() const = 0;

  // Builds the inputs of the timed phase from the seed, replacing any
  // earlier ones. With a span log, also returns its per-layer metrics.
  virtual Metrics Setup(SpanLog* spans) = 0;
  // One timed iteration. With a span log, records spans and fills `layer`.
  // `fan_out` threads may run the iteration's independent simulations
  // (replay configurations, rebuild schemes); traced runs pass 1 so that
  // spans nest on one thread. fleet and campaign always use kThreads inside
  // the simulator, where the span around the call stays on this thread.
  virtual Iteration Run(SpanLog* spans, Checks* checks, int32_t fan_out) = 0;
  // Traced runs only: layer probes made outside the timed iterations.
  virtual Metrics Probe(SpanLog* spans) = 0;
  // Every per-layer metric this workload reports (values unused).
  virtual Metrics LayerMetrics() const = 0;
  // Simulated statistics of the last iteration (printed, never graded).
  virtual void PrintSimulated(std::FILE* out) const = 0;
};

std::unique_ptr<Workload> MakeReplay(const Options& opts);
std::unique_ptr<Workload> MakeFleet(const Options& opts);
std::unique_ptr<Workload> MakeRebuild(const Options& opts);
std::unique_ptr<Workload> MakeCampaign(const Options& opts);

// The paper's array: 5 HP C3325-like disks, 8 KB stripe unit (Section 4.1).
afraid::ArrayConfig PaperArray();

// Aborts the run (exit code 1, no result line) when set-up cannot proceed.
[[noreturn]] void Fatal(const std::string& message);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
