// Scheme registry: one construction API for every array scheme.
//
// Every redundancy scheme in the repo (AFRAID, synchronous/deferred RAID 6,
// parity logging, mirrored striping) implements the ArrayScheme interface;
// this registry maps the stable scheme-name strings used by CLIs, fleet
// configs and test grids onto factories, so harnesses can construct any
// scheme without a string-switch.
//
// Names are stable wire format (fleet reports, CI grids):
//   "afraid"        AfraidController (policy-driven deferred parity)
//   "raid6"         Raid6Controller, synchronous P+Q
//   "raid6-deferQ"  Raid6Controller, P synchronous / Q deferred
//   "raid6-deferPQ" Raid6Controller, both deferred
//   "parity-log"    ParityLogController
//   "mirror"        MirrorController (RAID 1/0, SPTF read dispatch)

#ifndef AFRAID_CORE_SCHEME_REGISTRY_H_
#define AFRAID_CORE_SCHEME_REGISTRY_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "array/scheme.h"
#include "avail/model.h"
#include "core/array_config.h"
#include "core/policy.h"
#include "obs/probe.h"
#include "sim/simulator.h"

namespace afraid {

// Everything a scheme factory may need. Factories ignore fields that do not
// apply to them (only "afraid" consults `policy` and `avail`).
struct SchemeContext {
  Simulator* sim = nullptr;
  ArrayConfig config;
  PolicySpec policy = PolicySpec::AfraidBaseline();
  AvailabilityParams avail;
  Probe probe;
};

struct SchemeInfo {
  std::string name;
  std::string description;
  // Parity blocks the scheme's stripe layout uses (0 for mirroring). Used by
  // Normalize() to fix up ArrayConfig::parity_blocks before construction.
  int32_t parity_blocks = 1;
  // True when the scheme's behaviour is driven by a ParityPolicy spec.
  bool uses_policy = false;
  // True when the scheme requires an even number of disks (mirror pairs).
  bool requires_even_disks = false;
  // Section 3 scheme used to price availability for this controller when it
  // is not policy-driven ("afraid" derives it from the policy instead).
  RedundancyScheme avail_scheme = RedundancyScheme::kRaid5;
  // True when every write updates all of a stripe's redundancy before it
  // completes, so no stripe is ever stale and a single failure can never
  // lose data ("afraid" derives it from the policy instead).
  bool always_redundant = false;
  // Constructs the controller. The context outlives the call only through
  // `ctx.sim`; everything else is copied.
  std::function<std::unique_ptr<ArrayScheme>(const SchemeContext& ctx)> create;
  // Client-visible data capacity for a config, without constructing the
  // controller (workload sizing needs this before the simulator exists).
  std::function<int64_t(const ArrayConfig& config)> data_capacity;
};

class SchemeRegistry {
 public:
  // nullptr when `name` is unknown.
  static const SchemeInfo* Find(const std::string& name);

  // Registered names, in registration order.
  static std::vector<std::string> List();

  // Copy of `config` adjusted so the named scheme can be constructed from
  // it: parity_blocks forced to the scheme's layout, and mirror widths
  // rounded down to an even disk count (minimum one pair).
  static ArrayConfig Normalize(const std::string& name, const ArrayConfig& config);

  // Data capacity of the normalised config under the named scheme.
  static int64_t DataCapacityBytes(const std::string& name, const ArrayConfig& config);

  // Constructs the named scheme (the context's config is normalised first).
  // Returns nullptr for unknown names.
  static std::unique_ptr<ArrayScheme> Create(const std::string& name,
                                             const SchemeContext& ctx);

  // Availability pricing scheme for a controller built as `name` under
  // `policy` (only "afraid" consults the policy).
  static RedundancyScheme AvailSchemeFor(const std::string& name,
                                         const PolicySpec& policy);

  // Whether a controller built as `name` under `policy` never holds stale
  // redundancy (only "afraid" consults the policy: its RAID 5 policy does
  // not). False for unknown names.
  static bool AlwaysRedundant(const std::string& name,
                              const PolicySpec& policy);
};

}  // namespace afraid

#endif  // AFRAID_CORE_SCHEME_REGISTRY_H_
