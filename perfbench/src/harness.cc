#include "harness.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <mutex>
#include <thread>

namespace perfbench {

int64_t WallNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

int64_t CpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  if (p == 0.5 && v.size() % 2 == 0) {
    return 0.5 * (v[v.size() / 2 - 1] + v[v.size() / 2]);
  }
  const auto rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

uint64_t Digest(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

void ParallelFor(size_t n, int32_t threads,
                 const std::function<void(size_t)>& fn) {
  std::atomic<size_t> next{0};
  std::mutex error_mu;
  std::exception_ptr error;  // Guarded by error_mu.
  const auto work = [&] {
    for (size_t i = next++; i < n; i = next++) {
      try {
        fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mu);
        if (error == nullptr) {
          error = std::current_exception();
        }
      }
    }
  };
  {
    std::vector<std::jthread> helpers;  // Joined on scope exit, on any path.
    for (int32_t t = 1; t < threads; ++t) {
      helpers.emplace_back(work);
    }
    work();
  }
  if (error != nullptr) {
    std::rethrow_exception(error);
  }
}

int32_t SpanLog::Begin(std::string name) {
  const auto id = static_cast<int32_t>(spans_.size());
  Span s;
  s.name = std::move(name);
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_ns = WallNs();
  spans_.push_back(std::move(s));
  open_.push_back(id);
  return id;
}

void SpanLog::End(int32_t id) {
  if (open_.empty() || open_.back() != id) {
    Fatal("span '" + spans_[static_cast<size_t>(id)].name +
          "' closed out of order");
  }
  open_.pop_back();
  Span& s = spans_[static_cast<size_t>(id)];
  s.end_ns = WallNs();
  if (s.parent >= 0) {
    spans_[static_cast<size_t>(s.parent)].child_ns += s.end_ns - s.start_ns;
  }
}

int64_t SpanLog::TotalNs(int32_t id) const {
  const Span& s = spans_[static_cast<size_t>(id)];
  return s.end_ns - s.start_ns;
}

double SpanLog::TotalMs(int32_t id) const {
  return static_cast<double>(TotalNs(id)) / 1e6;
}

double SpanLog::SelfMs(int32_t id) const {
  const Span& s = spans_[static_cast<size_t>(id)];
  return static_cast<double>(s.end_ns - s.start_ns - s.child_ns) / 1e6;
}

bool SpanLog::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                 "\"start_us\": %.3f, \"dur_us\": %.3f, \"self_us\": %.3f}%s\n",
                 i, s.name.c_str(), s.parent,
                 static_cast<double>(s.start_ns - epoch_ns_) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns - s.child_ns) / 1e3,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

void Checks::Op(const std::string& what,
                const std::vector<std::string>& problems) {
  ++attempted_;
  if (problems.empty()) {
    return;
  }
  ++failed_;
  for (const std::string& p : problems) {
    messages_.push_back(what + ": " + p);
  }
}

void Expect(std::vector<std::string>* problems, bool ok,
            const std::string& what) {
  if (!ok) {
    problems->push_back(what);
  }
}

void ExpectFraction(std::vector<std::string>* problems, const std::string& name,
                    double value) {
  if (!(value >= 0.0 && value <= 1.0)) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), " = %.17g is outside [0, 1]", value);
    problems->push_back(name + buf);
  }
}

afraid::ArrayConfig PaperArray() {
  afraid::ArrayConfig cfg;
  cfg.disk_spec = afraid::DiskSpec::HpC3325Like();
  cfg.num_disks = 5;
  cfg.stripe_unit_bytes = 8192;
  return cfg;
}

void Fatal(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(1);
}

}  // namespace perfbench
