// perfbench: host cost of the AFRAID simulator on four workloads.
//
//   perfbench --workload replay|fleet|rebuild|campaign --seed N --seconds S
//             --trace 0|1 --work-dir DIR [--size full|tiny] [--commit ID]
//
// --trace 0 (graded): set up several times (median = setup_s), warm up with
// one iteration, then run iterations for S seconds and report the median
// per-iteration throughput and CPU cost, plus peak RSS. Every workload runs
// on kThreads threads.
// --trace 1: the same iterations, on one thread for replay and rebuild,
// alternate untraced and traced; spans give
// the per-layer metrics and the traced/untraced throughput ratio gives the
// tracing overhead. Layer probes then run outside the iterations, and the
// spans are written to DIR/spans-<workload>.json.
//
// Every iteration's simulated reports are digested and must match the first
// iteration's digest. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

#include <sys/resource.h>
#include <unistd.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "harness.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

// Set-up repeats at least kMinSetupReps times and until kSetupSeconds have
// passed, so a set-up of a millisecond gets as steady a median as one of a
// tenth of a second.
constexpr size_t kMinSetupReps = 5;
constexpr size_t kMaxSetupReps = 200;
constexpr double kSetupSeconds = 1.0;
constexpr size_t kMinIterations = 3;
constexpr size_t kMaxIterations = 1000;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string work_dir;
  std::string size = "full";
  std::string commit = "unknown";
};

[[noreturn]] void Usage(const std::string& why) {
  Fatal(why +
        "\nusage: perfbench --workload replay|fleet|rebuild|campaign "
        "--seed N --seconds S --trace 0|1 --work-dir DIR [--size full|tiny] "
        "[--commit ID]");
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) {
      Usage("missing value for " + key);
    }
    const std::string val = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
      have_seed = end != val.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
    } else if (key == "--trace") {
      a.trace = val == "0" ? 0 : val == "1" ? 1 : -1;
    } else if (key == "--work-dir") {
      a.work_dir = val;
    } else if (key == "--size") {
      a.size = val;
    } else if (key == "--commit") {
      a.commit = val;
    } else {
      Usage("unknown argument " + key);
    }
  }
  if (!have_seed) {
    Usage("--seed must be a non-negative integer");
  }
  if (!(a.seconds > 0.0 && a.seconds <= 120.0)) {
    Usage("--seconds must be in (0, 120]");
  }
  if (a.trace < 0) {
    Usage("--trace must be 0 or 1");
  }
  if (a.work_dir.empty()) {
    Usage("--work-dir is required");
  }
  if (a.size != "full" && a.size != "tiny") {
    Usage("--size must be full or tiny");
  }
  return a;
}

std::unique_ptr<Workload> Make(const std::string& name, const Options& opts) {
  if (name == "replay") return MakeReplay(opts);
  if (name == "fleet") return MakeFleet(opts);
  if (name == "rebuild") return MakeRebuild(opts);
  if (name == "campaign") return MakeCampaign(opts);
  return nullptr;
}

std::string Num(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB.
}

// One timed iteration: throughput and CPU cost per item.
struct Sample {
  double items_per_s = 0.0;
  double cpu_us_per_item = 0.0;
};

class Runner {
 public:
  Runner(Workload* wl, double seconds) : wl_(wl), seconds_(seconds) {}

  double SetUp(SpanLog* spans, Metrics* layer) {
    std::vector<double> s;
    std::vector<Metrics> per_rep;
    double total = 0.0;
    while (s.size() < kMinSetupReps ||
           (total < kSetupSeconds && s.size() < kMaxSetupReps)) {
      const int64_t t0 = WallNs();
      per_rep.push_back(wl_->Setup(spans));
      s.push_back(static_cast<double>(WallNs() - t0) / 1e9);
      total += s.back();
    }
    std::printf("set-up repeated %zu times, median reported\n", s.size());
    MedianInto(per_rep, layer);
    return Median(s);
  }

  // Runs one iteration and checks its digest against the first one's.
  Sample Iterate(SpanLog* spans, std::vector<Metrics>* layers,
                 int32_t fan_out) {
    const int64_t w0 = WallNs();
    const int64_t c0 = CpuNs();
    Iteration it = wl_->Run(spans, &checks_, fan_out);
    const int64_t cpu = CpuNs() - c0;
    const int64_t wall = WallNs() - w0;
    const uint64_t digest = Digest(it.report);
    if (!have_digest_) {
      digest_ = digest;
      have_digest_ = true;
    }
    checks_.Op("report digest stable",
               digest == digest_
                   ? std::vector<std::string>{}
                   : std::vector<std::string>{"iteration digest differs"});
    if (layers != nullptr) {
      layers->push_back(std::move(it.layer));
    }
    Sample s;
    if (it.items > 0 && wall > 0) {
      s.items_per_s = static_cast<double>(it.items) * 1e9 / static_cast<double>(wall);
      s.cpu_us_per_item =
          static_cast<double>(cpu) / 1e3 / static_cast<double>(it.items);
    } else {
      checks_.Op("iteration", {"no items completed"});
    }
    return s;
  }

  bool TimeLeft(int64_t start, size_t done) const {
    if (done < kMinIterations) {
      return true;
    }
    return done < kMaxIterations &&
           static_cast<double>(WallNs() - start) / 1e9 < seconds_;
  }

  static void MedianInto(const std::vector<Metrics>& reps, Metrics* out) {
    std::map<std::string, std::vector<double>> values;
    std::map<std::string, std::string> units;
    std::vector<std::string> order;
    for (const Metrics& m : reps) {
      for (const Metric& x : m) {
        if (values.find(x.name) == values.end()) {
          order.push_back(x.name);
        }
        values[x.name].push_back(x.value);
        units[x.name] = x.unit;
      }
    }
    for (const std::string& name : order) {
      out->push_back({name, Median(values[name]), units[name]});
    }
  }

  Checks& checks() { return checks_; }
  uint64_t digest() const { return digest_; }

 private:
  Workload* wl_;
  double seconds_;
  Checks checks_;
  uint64_t digest_ = 0;
  bool have_digest_ = false;
};

Metrics MeasureEndToEnd(Workload* wl, Runner* r) {
  const double setup_s = r->SetUp(nullptr, nullptr);
  // Warm-up (caches, allocator, reference digest) without fan-out: peak RSS
  // is then set-up plus one simulation at a time, independent of which
  // simulations the scheduler overlaps. Later iterations only add allocator
  // fragmentation from re-running threaded replays in one process.
  r->Iterate(nullptr, nullptr, 1);
  const double rss_mb = PeakRssMb();
  std::vector<double> rate;
  std::vector<double> cpu;
  const int64_t start = WallNs();
  while (r->TimeLeft(start, rate.size())) {
    const Sample s = r->Iterate(nullptr, nullptr, kThreads);
    rate.push_back(s.items_per_s);
    cpu.push_back(s.cpu_us_per_item);
  }
  std::printf("iterations %zu (after 1 warm-up), median of each\n", rate.size());
  const bool lifetimes = std::string(wl->item()) == "lifetime";
  const double m_rate = Median(rate);
  const double m_cpu = Median(cpu);
  std::printf("%s = %s 1/s\n", lifetimes ? "lifetimes_per_s" : "req_per_s",
              Num(m_rate).c_str());
  if (lifetimes) {
    std::printf("cpu_ms_per_lifetime = %s ms\n", Num(m_cpu / 1e3).c_str());
  } else {
    std::printf("cpu_us_per_req = %s us\n", Num(m_cpu).c_str());
  }
  return {{"setup_s", setup_s, "s"},
          {"items_per_s", m_rate, "1/s"},
          {"cpu_us_per_item", m_cpu, "us"},
          {"peak_rss_mb", rss_mb, "MB"}};
}

Metrics MeasureLayers(Workload* wl, Runner* r, const Options& opts,
                      const std::string& name) {
  SpanLog spans;
  Metrics layer;
  r->SetUp(&spans, &layer);
  // Spans need the layer calls on this thread, so both sides of the
  // overhead comparison run replay and rebuild without fan-out.
  r->Iterate(nullptr, nullptr, 1);  // Warm-up.
  std::vector<double> plain;
  std::vector<double> traced;
  std::vector<Metrics> per_iter;
  const int64_t start = WallNs();
  while (r->TimeLeft(start, traced.size())) {
    plain.push_back(r->Iterate(nullptr, nullptr, 1).items_per_s);
    traced.push_back(r->Iterate(&spans, &per_iter, 1).items_per_s);
  }
  Runner::MedianInto(per_iter, &layer);
  for (Metric& m : wl->Probe(&spans)) {
    layer.push_back(std::move(m));
  }
  const double overhead = (Median(plain) / Median(traced) - 1.0) * 100.0;
  std::printf("tracing overhead %s %% (untraced %s vs traced %s %ss/s, "
              "%zu iterations each)\n",
              Num(overhead).c_str(), Num(Median(plain)).c_str(),
              Num(Median(traced)).c_str(), wl->item(), traced.size());
  layer.push_back({"spans.overhead_pct", overhead, "%"});

  // Metrics of layers this workload leaves idle read 0.
  std::map<std::string, bool> have;
  for (const Metric& m : layer) {
    have[m.name] = true;
  }
  for (const char* other : {"replay", "fleet", "rebuild", "campaign"}) {
    for (const Metric& m : Make(other, opts)->LayerMetrics()) {
      if (!have[m.name]) {
        layer.push_back({m.name, 0.0, m.unit});
        have[m.name] = true;
      }
    }
  }
  const std::string path = opts.work_dir + "/spans-" + name + ".json";
  if (!spans.WriteJson(path)) {
    Fatal("cannot write " + path);
  }
  std::printf("spans written to %s\n", path.c_str());
  return layer;
}

int Main(int argc, char** argv) {
#ifndef __OPTIMIZE__
  Fatal("refusing to time an unoptimized build; configure with "
        "-DCMAKE_BUILD_TYPE=Release");
#endif
  const Args args = ParseArgs(argc, argv);
  Options opts;
  opts.seed = args.seed;
  opts.tiny = args.size == "tiny";
  opts.work_dir = args.work_dir;
  std::unique_ptr<Workload> wl = Make(args.workload, opts);
  if (wl == nullptr) {
    Usage("unknown workload '" + args.workload + "'");
  }

  std::printf("perfbench workload %s seed %llu seconds %s trace %d size %s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              Num(args.seconds).c_str(), args.trace, args.size.c_str());
  std::printf("env nproc %ld, compiler %s, build %s, commit %s\n",
              sysconf(_SC_NPROCESSORS_ONLN), __VERSION__, PERFBENCH_BUILD_TYPE,
              args.commit.c_str());

  Runner runner(wl.get(), args.seconds);
  const Metrics metrics =
      args.trace == 0 ? MeasureEndToEnd(wl.get(), &runner)
                      : MeasureLayers(wl.get(), &runner, opts, args.workload);
  std::printf("inputs: %s\n", wl->Describe().c_str());
  wl->PrintSimulated(stdout);
  std::printf("report digest %016llx (identical across iterations: %s)\n",
              static_cast<unsigned long long>(runner.digest()),
              runner.checks().messages().empty() ? "checked" : "see failures");

  std::vector<std::string> non_finite;
  for (const Metric& m : metrics) {
    Expect(&non_finite, std::isfinite(m.value), m.name + " is not finite");
  }
  runner.checks().Op("metrics finite", non_finite);

  const Checks& checks = runner.checks();
  for (const std::string& msg : checks.messages()) {
    std::printf("FAILED %s\n", msg.c_str());
  }
  std::printf("failed_frac = %s (%llu of %llu operations)\n",
              Num(static_cast<double>(checks.failed()) /
                  static_cast<double>(checks.attempted()))
                  .c_str(),
              static_cast<unsigned long long>(checks.failed()),
              static_cast<unsigned long long>(checks.attempted()));
  for (const Metric& m : metrics) {
    std::printf("%s = %s %s\n", m.name.c_str(), Num(m.value).c_str(),
                m.unit.c_str());
  }

  const bool correct = checks.failed() == 0;
  std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(checks.attempted()) +
                     ", \"failed\": " + std::to_string(checks.failed()) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
            (std::isfinite(m.value) ? Num(m.value) : "null") +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
