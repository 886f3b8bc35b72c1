// Fleet workload recording: serialize a synthetic multi-tenant workload
// (fleet/tenants.h) to the text trace format, so fleet experiments can pin a
// generated workload to disk and every scheme replays the identical bytes --
// loaded whole (VolumeManager::Run on the re-parsed trace) or streamed
// (VolumeManager::RunStreamed). The "# tenants N" header carries the tenant
// count through the round trip into FleetReport::num_tenants.
//
// The per-record tenant id is NOT serialized: routing and latency join key
// off (time, offset, size, op) only, so a recorded replay is field-exact
// with the direct synthetic replay (tested for 1 and 8 threads).

#ifndef AFRAID_FLEET_RECORDER_H_
#define AFRAID_FLEET_RECORDER_H_

#include <string>

#include "fleet/tenants.h"
#include "trace/trace.h"

namespace afraid {

// Records `trace` (name, tenant count, records in time order) to `path`.
TraceStatus RecordFleetTrace(const FleetTrace& trace, const std::string& path);

// The in-memory equivalent of a record + re-parse round trip: flattens a
// fleet trace to plain TraceRecords (dropping tenant ids, keeping the tenant
// count in Trace::tenants).
Trace FlattenFleetTrace(const FleetTrace& trace);

}  // namespace afraid

#endif  // AFRAID_FLEET_RECORDER_H_
