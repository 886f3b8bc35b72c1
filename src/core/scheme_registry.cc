#include "core/scheme_registry.h"

#include <utility>

#include "array/decluster.h"
#include "array/layout.h"
#include "core/afraid_controller.h"
#include "core/mirror_controller.h"
#include "core/parity_log_controller.h"
#include "core/raid6_controller.h"
#include "disk/geometry.h"

namespace afraid {
namespace {

int64_t DiskCapacityBytes(const ArrayConfig& cfg) {
  return DiskGeometry(cfg.disk_spec.zones, cfg.disk_spec.heads,
                      cfg.disk_spec.sector_bytes)
      .CapacityBytes();
}

int64_t ParityCapacity(const ArrayConfig& cfg, int32_t parity_blocks) {
  // Capacity depends on the configured layout: a declustered design exports
  // k-parity data blocks per stripe instead of C-parity.
  return MakeLayout(cfg.layout, cfg.num_disks, cfg.stripe_unit_bytes,
                    DiskCapacityBytes(cfg), parity_blocks, cfg.decluster_width)
      ->data_capacity_bytes();
}

int32_t EvenDisks(int32_t num_disks) {
  const int32_t even = num_disks - (num_disks % 2);
  return even >= 2 ? even : 2;
}

SchemeInfo MakeRaid6Info(const char* name, const char* description,
                         Raid6Mode mode) {
  SchemeInfo info;
  info.name = name;
  info.description = description;
  info.parity_blocks = 2;
  info.avail_scheme = RedundancyScheme::kRaid5;
  info.always_redundant = mode == Raid6Mode::kSynchronous;
  info.create = [mode](const SchemeContext& ctx) -> std::unique_ptr<ArrayScheme> {
    return std::make_unique<Raid6Controller>(ctx.sim, ctx.config, mode, ctx.probe);
  };
  info.data_capacity = [](const ArrayConfig& cfg) { return ParityCapacity(cfg, 2); };
  return info;
}

std::vector<SchemeInfo> BuiltIns() {
  std::vector<SchemeInfo> schemes;
  {
    SchemeInfo info;
    info.name = "afraid";
    info.description =
        "AFRAID: policy-driven deferred parity over a RAID 5 layout";
    info.parity_blocks = 1;
    info.uses_policy = true;
    info.avail_scheme = RedundancyScheme::kAfraid;
    info.create = [](const SchemeContext& ctx) -> std::unique_ptr<ArrayScheme> {
      return std::make_unique<AfraidController>(ctx.sim, ctx.config,
                                                MakePolicy(ctx.policy), ctx.avail,
                                                ctx.probe);
    };
    info.data_capacity = [](const ArrayConfig& cfg) {
      return ParityCapacity(cfg, 1);
    };
    schemes.push_back(std::move(info));
  }
  schemes.push_back(MakeRaid6Info(
      "raid6", "RAID 6: synchronous P+Q parity in the write's critical path",
      Raid6Mode::kSynchronous));
  schemes.push_back(MakeRaid6Info(
      "raid6-deferQ", "RAID 6 with synchronous P and idle-deferred Q",
      Raid6Mode::kDeferQ));
  schemes.push_back(MakeRaid6Info(
      "raid6-deferPQ", "RAID 6 with both parities deferred (AFRAID-style)",
      Raid6Mode::kDeferBoth));
  {
    SchemeInfo info;
    info.name = "parity-log";
    info.description =
        "Parity logging [Stodolsky93]: parity-update images staged to a log";
    info.parity_blocks = 1;
    info.avail_scheme = RedundancyScheme::kRaid5;
    info.create = [](const SchemeContext& ctx) -> std::unique_ptr<ArrayScheme> {
      return std::make_unique<ParityLogController>(ctx.sim, ctx.config,
                                                   ParityLogConfig{}, ctx.probe);
    };
    info.data_capacity = [](const ArrayConfig& cfg) {
      // The log region at the end of each disk is not client-visible.
      const int64_t cap = DiskCapacityBytes(cfg);
      const int64_t usable =
          cap - ParityLogConfig{}.FittedTo(cap).log_region_bytes;
      return MakeLayout(cfg.layout, cfg.num_disks, cfg.stripe_unit_bytes,
                        usable, 1, cfg.decluster_width)
          ->data_capacity_bytes();
    };
    schemes.push_back(std::move(info));
  }
  {
    SchemeInfo info;
    info.name = "mirror";
    info.description =
        "Mirrored striping (RAID 1/0) with shortest-positioning-time reads";
    info.parity_blocks = 0;
    info.requires_even_disks = true;
    info.avail_scheme = RedundancyScheme::kRaid5;
    info.always_redundant = true;
    info.create = [](const SchemeContext& ctx) -> std::unique_ptr<ArrayScheme> {
      return std::make_unique<MirrorController>(ctx.sim, ctx.config, ctx.probe);
    };
    info.data_capacity = [](const ArrayConfig& cfg) {
      // Mirroring stripes plainly over the columns; parity declustering does
      // not apply (there is no parity to decluster), so the layout knob is
      // ignored here.
      return StripeLayout(EvenDisks(cfg.num_disks) / 2, cfg.stripe_unit_bytes,
                          DiskCapacityBytes(cfg), 0)
          .data_capacity_bytes();
    };
    schemes.push_back(std::move(info));
  }
  return schemes;
}

const std::vector<SchemeInfo>& Schemes() {
  static const std::vector<SchemeInfo>* schemes = new std::vector<SchemeInfo>(BuiltIns());
  return *schemes;
}

}  // namespace

const SchemeInfo* SchemeRegistry::Find(const std::string& name) {
  for (const SchemeInfo& info : Schemes()) {
    if (info.name == name) {
      return &info;
    }
  }
  return nullptr;
}

std::vector<std::string> SchemeRegistry::List() {
  std::vector<std::string> names;
  names.reserve(Schemes().size());
  for (const SchemeInfo& info : Schemes()) {
    names.push_back(info.name);
  }
  return names;
}

ArrayConfig SchemeRegistry::Normalize(const std::string& name,
                                      const ArrayConfig& config) {
  ArrayConfig cfg = config;
  const SchemeInfo* info = Find(name);
  if (info == nullptr) {
    return cfg;
  }
  cfg.parity_blocks = info->parity_blocks;
  if (info->requires_even_disks) {
    cfg.num_disks = EvenDisks(cfg.num_disks);
  }
  return cfg;
}

int64_t SchemeRegistry::DataCapacityBytes(const std::string& name,
                                          const ArrayConfig& config) {
  const SchemeInfo* info = Find(name);
  if (info == nullptr) {
    return 0;
  }
  return info->data_capacity(Normalize(name, config));
}

std::unique_ptr<ArrayScheme> SchemeRegistry::Create(const std::string& name,
                                                    const SchemeContext& ctx) {
  const SchemeInfo* info = Find(name);
  if (info == nullptr) {
    return nullptr;
  }
  SchemeContext normalized = ctx;
  normalized.config = Normalize(name, ctx.config);
  return info->create(normalized);
}

RedundancyScheme SchemeRegistry::AvailSchemeFor(const std::string& name,
                                                const PolicySpec& policy) {
  const SchemeInfo* info = Find(name);
  if (info == nullptr) {
    return RedundancyScheme::kRaid5;
  }
  return info->uses_policy ? SchemeFor(policy) : info->avail_scheme;
}

bool SchemeRegistry::AlwaysRedundant(const std::string& name,
                                     const PolicySpec& policy) {
  const SchemeInfo* info = Find(name);
  if (info == nullptr) {
    return false;
  }
  return info->uses_policy ? SchemeFor(policy) == RedundancyScheme::kRaid5
                           : info->always_redundant;
}

}  // namespace afraid
