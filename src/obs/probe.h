// The instrumentation handle threaded through the simulated components.
//
// A Probe is a pointer-sized value type: a Tracer pointer plus a default
// track id. Default-constructed probes are *null* -- every emit helper is an
// inline early-return on the null check, so instrumented code paths cost one
// predictable branch when observability is off and components need no #ifdef
// seams. Construction of event payloads (name strings, args JSON) happens
// only behind the null check; callers that must do work *before* the call
// (formatting args, capturing timestamps in lambdas) should guard it with
// `if (probe) { ... }` themselves.
//
// Components receive a Probe at construction (defaulted, so existing call
// sites are untouched) and register their own named tracks via AddTrack.

#ifndef AFRAID_OBS_PROBE_H_
#define AFRAID_OBS_PROBE_H_

#include <cstdint>
#include <string>
#include <utility>

#include "obs/tracer.h"
#include "sim/time.h"

namespace afraid {

class Probe {
 public:
  constexpr Probe() = default;
  explicit constexpr Probe(Tracer* tracer, int32_t track = 0)
      : tracer_(tracer), track_(track) {}

  explicit operator bool() const { return tracer_ != nullptr; }
  Tracer* tracer() const { return tracer_; }
  int32_t track() const { return track_; }

  // Registers a named track; returns a probe bound to it. On a null probe
  // this is a no-op returning another null probe, so components can
  // unconditionally set up their tracks.
  Probe NewTrack(const std::string& name) const {
    if (tracer_ == nullptr) {
      return Probe();
    }
    return Probe(tracer_, tracer_->AddTrack(name));
  }

  // --- Emit helpers (no-ops when null) ---------------------------------------

  void Complete(std::string name, SimTime start, SimTime end,
                std::string args_json = {}) const {
    if (tracer_ == nullptr) {
      return;
    }
    tracer_->Complete(track_, std::move(name), start, end, std::move(args_json));
  }

  void AsyncBegin(std::string name, uint64_t id, SimTime ts,
                  std::string args_json = {}) const {
    if (tracer_ == nullptr) {
      return;
    }
    tracer_->AsyncBegin(track_, std::move(name), id, ts, std::move(args_json));
  }

  void AsyncEnd(std::string name, uint64_t id, SimTime ts) const {
    if (tracer_ == nullptr) {
      return;
    }
    tracer_->AsyncEnd(track_, std::move(name), id, ts);
  }

  void Instant(std::string name, SimTime ts) const {
    if (tracer_ == nullptr) {
      return;
    }
    tracer_->Instant(track_, std::move(name), ts);
  }

  void Counter(std::string name, SimTime ts, double value) const {
    if (tracer_ == nullptr) {
      return;
    }
    tracer_->Counter(track_, std::move(name), ts, value);
  }

 private:
  Tracer* tracer_ = nullptr;
  int32_t track_ = 0;
};

}  // namespace afraid

#endif  // AFRAID_OBS_PROBE_H_
