// Multi-device sharded query execution over a gpusim::DeviceGroup.
//
// The partitioned path (plan/partition.h) runs K lineitem slices one after
// another on one device; this module places the same slices across N devices
// and runs them in parallel, one host thread per device, each against a
// private backend instance bound to its device (gpusim::Device::DeviceGuard).
// Both paths run their slices through the one slice runner
// (plan/partition_detail.h): small build-side tables (orders/customer/part)
// are broadcast to every device that takes slices, and each slice's partials
// land in host memory as it finishes. Each device's merged partials are then
// exchanged to the coordinator — the lowest live device that ran slices —
// over the group's fabric: a direct peer link inside an island, a two-hop
// via-host path across islands.
//
// Correctness inherits from the partitioned path: shard boundaries snap to
// l_orderkey change points for the join/group queries, so per-slice partials
// merge by addition or disjoint concatenation, and the host folds every slice
// in ascending row order whichever device ran it. For a fixed slice count the
// answer is therefore the same on any number of devices, on any recovery
// path, and on the governed single-device path, wherever the per-slice
// results themselves are deterministic. Simulated time stays deterministic:
// each device's stream timeline is a pure function of the commands charged
// to it, the exchange charges happen in fixed device order, and the reported
// makespan is the maximum per-device timeline delta — independent of host
// thread scheduling. A 1-device group runs the same way with one worker and
// no exchange, so its timeline equals the governed path's at the same slice
// count.
//
// Device loss degrades the run instead of failing it. A worker whose device
// fires a sticky gpusim::DeviceLost marks the device dead in the group,
// keeps the slices it already finished (their partials are in host memory),
// and reports its unfinished slices. RunSharded then re-places those slices
// deterministically — sorted by row_begin, round-robin over the surviving
// devices in ascending order — re-uploading the broadcast tables once on
// each device that takes replacement work, and repeats until every slice has
// run somewhere or no device survives (DeviceLost is rethrown only then). The
// gather re-routes around dead devices: a dead device's partials are drained
// from host staging without a fabric charge, the coordinator moves to the
// lowest surviving device, and transient TransferFaults on a gather edge
// retry against the same budget a slice gets before falling back to a
// host-staged drain. Inside a device's shard list the slice runner replays
// a slice that hits a transient fault; RunSharded itself re-slices nothing,
// so an OOM propagates to the caller.
//
// Finished slices are checkpoints: when a device dies only its *unfinished*
// slices re-deal, and the finished ones merge into the final answer without
// recompute (counted in checkpointed_slices_reused). A lost device can also
// come back: once its operator calls MarkReset between runs, the next run
// places slices on it like any other, its broadcast tables uploaded with its
// first slice. If the reset did not cure it, that slice raises DeviceLost
// and the recovery rounds re-deal its slices as for any loss mid-run, so
// they are the one owner of DeviceLost in a sharded run. The group's health
// flags are the run's only health record: RunSharded keeps no circuit
// breakers.
// When no fault fires, none of this machinery charges anything, so the
// healthy-path simulated timeline is bit-identical to the fault-free build.
// The slice runner's replays are counted in ShardedRunStats::slice_replays.
#ifndef PLAN_EXCHANGE_H_
#define PLAN_EXCHANGE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "gpusim/device_group.h"
#include "plan/partition.h"

namespace plan {

/// One shard's placement: a lineitem row range pinned to a device.
struct ShardPlacement {
  int device = 0;
  size_t row_begin = 0;
  size_t row_end = 0;
  uint64_t upload_bytes = 0;  ///< estimated slice upload (raw host bytes)
};

/// One exchange edge of a sharded plan, for EXPLAIN and the benches.
struct ExchangeEdge {
  enum class Kind { kScatter, kBroadcast, kGather };
  Kind kind = Kind::kScatter;
  int device = 0;        ///< destination (scatter/broadcast) or source (gather)
  uint64_t bytes = 0;    ///< estimated payload
  size_t rows = 0;
  std::string what;      ///< payload description ("lineitem[0,8192)", "orders")
  bool peer = false;     ///< gather edges: 1 p2p hop? (else 2 via host)
  /// Estimated simulated ns: a gather at DeviceGroup::TransferNs, the price
  /// RunSharded charges; a scatter or broadcast at one host-to-device copy.
  uint64_t est_ns = 0;
};

const char* ExchangeEdgeKindName(ExchangeEdge::Kind kind);

/// Static placement + exchange structure of a sharded execution, computed
/// without touching a device.
struct ShardedPlanSpec {
  int devices = 1;
  size_t shards = 1;
  int coordinator = 0;  ///< device the gather edges lead into
  std::vector<ShardPlacement> placements;
  std::vector<ExchangeEdge> edges;
};

/// Plans a sharded execution exactly as RunSharded places it: orderkey-snapped
/// shard bounds (one shard per device unless `force_shards` overrides),
/// shards dealt round-robin over the live devices, broadcast edges for every
/// non-lineitem table the query reads, and one gather edge per other device
/// that takes shards, routed per the group topology into the lowest live
/// device. Every edge carries its estimated cost. Pure function of its
/// inputs; throws gpusim::DeviceLost when no device of the group is alive.
ShardedPlanSpec PlanShardedExecution(TpchQuery query,
                                     const TpchHostTables& tables,
                                     const gpusim::DeviceGroup& group,
                                     size_t force_shards = 0);

/// Renders the spec: placement table, and the exchange edges with their
/// link routes and estimated costs.
std::string ExplainSharded(const ShardedPlanSpec& spec,
                           const gpusim::DeviceGroup& group);

struct ShardedQueryOptions {
  /// Number of lineitem shards; 0 = one per device. Shards are dealt
  /// round-robin to devices, so forcing more shards than devices makes each
  /// device run several slices in sequence (the differential tests use this
  /// to decouple shard count from device count).
  size_t force_shards = 0;
  /// Upload tables (and shard slices) compressed, as in GovernedQueryOptions.
  bool use_encoding = false;
};

/// Per-device accounting of one sharded run.
struct DeviceShardStats {
  int device = 0;
  size_t shards = 0;          ///< slices this device executed
  size_t rows = 0;            ///< lineitem rows across those slices
  uint64_t upload_bytes = 0;  ///< h2d: broadcast tables + shard slices
  uint64_t download_bytes = 0;  ///< d2h: partial-result fetches
  uint64_t busy_ns = 0;       ///< stream delta of the device's own work
  uint64_t peak_bytes = 0;    ///< device allocator high-water over the run
  bool lost = false;          ///< device died (sticky DeviceLost) this run
};

/// Accounting of one sharded run.
struct ShardedRunStats {
  int devices = 1;
  size_t shards = 1;
  /// Makespan: max per-device timeline delta, including the partial-result
  /// exchanges into the coordinator. For a 1-device group this equals
  /// GovernedRunStats::simulated_ns of a governed run at the same slice
  /// count.
  uint64_t simulated_ns = 0;
  uint64_t exchange_bytes = 0;           ///< partials moved between devices
  uint64_t exchange_p2p_bytes = 0;       ///< share over direct peer links
  uint64_t exchange_via_host_bytes = 0;  ///< share routed through the host
  uint64_t broadcast_bytes = 0;  ///< build-side tables replicated per device
  // Degraded-mode accounting (all zero on a healthy run).
  int devices_lost = 0;          ///< devices that died during this run
  int recovery_rounds = 0;       ///< re-placement passes after a loss
  size_t replaced_shards = 0;    ///< slices re-run on a surviving device
  uint64_t transfer_retries = 0; ///< gather exchanges replayed after a
                                 ///< transient TransferFault
  /// Slices a dying device had already finished whose host-checkpointed
  /// partials merged into the answer without recompute.
  size_t checkpointed_slices_reused = 0;
  /// Uploads and slices the slice runner re-ran after a transient fault,
  /// summed over devices and rounds.
  size_t slice_replays = 0;
  std::vector<DeviceShardStats> per_device;
};

/// Runs `query` sharded across every live device of `group` on
/// `backend_name` instances (one per device, each on its own host thread).
/// A 1-device group runs one worker on the same path, with `force_shards`
/// slices (one when 0). A device lost mid-run is marked dead in the group
/// and its unfinished slices complete on the survivors (see the file
/// comment); gpusim::DeviceLost escapes only when every device of the group
/// is dead.
TpchQueryResult RunSharded(TpchQuery query, const TpchHostTables& tables,
                           gpusim::DeviceGroup& group,
                           const std::string& backend_name,
                           const ShardedQueryOptions& options = {},
                           ShardedRunStats* stats = nullptr);

}  // namespace plan

#endif  // PLAN_EXCHANGE_H_
