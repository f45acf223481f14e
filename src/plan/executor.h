// Physical-plan executor.
//
// Nodes run eagerly in insertion order. The query table's plans insert
// their nodes in the order a chain of library calls issues them, so a pinned
// run is that chain: the same call sequence (including host downloads) and
// therefore a bit-identical simulated timeline. PlanGoldenTest
// (tests/plan_golden_test.cc) pins this against hand-coded chains.
//
// RunHybrid executes each node on its dispatched registry backend and
// charges a device-to-device materialization transfer on the consumer's
// stream whenever an input crosses a backend boundary.
//
// The executor owns one fault class only (DESIGN.md §7): in hybrid mode a
// node whose backend fails fatally falls back to the next capable dispatch
// candidate, so a dead sub-backend degrades the plan instead of failing the
// query. The fallback list lives for one run and the node counts its
// re-routes in NodeValue::reroutes; no health state outlives the run.
// Transient and out-of-memory faults propagate to their owner: the slice
// runner inside governed and sharded runs, the scheduler for everything
// else.
#ifndef PLAN_EXECUTOR_H_
#define PLAN_EXECUTOR_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "core/backend.h"
#include "plan/optimizer.h"
#include "storage/device_column.h"

namespace plan {

/// Runtime value of one node. Only the member matching the node kind is
/// populated.
struct NodeValue {
  bool computed = false;  ///< ran (false: scan, dead, or skipped)
  bool skipped = false;   ///< guard was falsy or an input was skipped
  bool decoded = false;   ///< encoded scan materialized into `column` (once)

  core::SelectionResult sel;                              // filter kinds
  core::JoinResult join;                                  // join
  core::GroupByResult groups;                             // group-by
  storage::DeviceColumn column;                           // gather/map/...
  std::pair<storage::DeviceColumn, storage::DeviceColumn> pair;  // sort-by-key
  double scalar = 0.0;                                    // reduce / fused sum

  // Host downloads (fetch nodes).
  std::vector<int32_t> host_keys;    ///< FetchGroups keys
  std::vector<double> host_vals_f;   ///< FetchGroups float aggregate
  std::vector<int64_t> host_vals_i;  ///< FetchGroups count aggregate
  std::vector<double> host_first;    ///< FetchPair sorted keys
  std::vector<int32_t> host_second;  ///< FetchPair reordered values

  uint64_t measured_ns = 0;  ///< simulated time this node charged
  uint32_t reroutes = 0;     ///< hybrid fallbacks after a fatal failure
  uint64_t boundary_ns = 0;  ///< share spent on cross-backend transfers
  size_t out_rows = 0;
};

struct ExecutionResult {
  std::vector<NodeValue> values;  ///< indexed by node id
  uint64_t total_ns = 0;          ///< sum of per-node measured time
};

/// Runs every node on `backend`, ignoring the plan's dispatch assignments
/// (single-backend / pinned execution). Throws std::logic_error if the plan
/// still contains an unmerged filter chain (run Optimize first).
ExecutionResult RunPinned(const PhysicalPlan& plan, core::Backend& backend);

/// Runs each node on its assigned backend (instantiated from the registry),
/// pricing boundary materializations. Requires RegisterBuiltinBackends().
ExecutionResult RunHybrid(const PhysicalPlan& plan);

}  // namespace plan

#endif  // PLAN_EXECUTOR_H_
