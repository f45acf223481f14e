// Partitioned (spill-to-host) query execution under memory pressure.
//
// The paper's whole-query measurements assume every working set fits in
// device memory. This module is the degradation path for when it does not:
// a query whose estimated footprint exceeds its admission grant
// (core::MemoryGovernor) re-runs morsel-wise — the scan side is split into K
// row-range partitions, the operator DAG executes per partition against a
// sliced upload, and per-partition partials merge host-side. Host tables
// stay the source of truth, so the only extra cost is the priced
// host<->device traffic of the slices and partial downloads ("spill" bytes).
// The slices run through the same slice runner as multi-device sharded
// execution (plan/partition_detail.h); K == 1 is one slice covering the
// whole table.
//
// Correctness: each query's entry in the query table (plan/tpch_plans.h)
// defines its plan, and partials merge by the kind of the plan's marked
// nodes: fetched groups and reduced scalars add, fetched pairs concatenate.
// Concatenation is exact because entries that group or semi-join on
// l_orderkey snap partition boundaries to orderkey change points (lineitem
// is generated grouped by order with nondecreasing l_orderkey), so
// per-partition key sets are disjoint. Each slice keeps its own partials and
// they fold in ascending row order, so for a fixed K the float sums add up
// in one order only — the same order a sharded run over the same slices
// uses, on any number of devices.
// Simulated time stays deterministic: partition sizes and counts are pure
// functions of the inputs, so a partitioned run's simulated-ns is as
// replayable as an unpartitioned one.
#ifndef PLAN_PARTITION_H_
#define PLAN_PARTITION_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/backend.h"
#include "core/scheduler.h"
#include "plan/tpch_plans.h"
#include "storage/table.h"

namespace plan {

/// Estimated device footprint in bytes of running `query` split into
/// `partitions` row ranges of lineitem: upload bytes of every scanned column
/// plus worst-case materialized intermediates (a headroom factor covers
/// operator scratch like hash-table fills and sort ping-pong buffers). Row
/// counts propagate worst-case (filters pass everything), so the estimate is
/// a deliberate over-bound: a query admitted at its estimate does not OOM.
/// Deterministic for fixed inputs — admission decisions built on it replay.
///
/// With `use_encoding`, base-table scan terms are priced at their encoded
/// size (the same ChooseEncoding decision the upload path takes) while
/// materialized intermediates stay raw-sized — including a full raw decode
/// for encoded columns consumed by operators with no encoded realization —
/// and only the intermediates carry the x2 scratch headroom.
uint64_t EstimateQueryFootprint(TpchQuery query, const TpchHostTables& tables,
                                const std::string& backend_name,
                                size_t partitions = 1,
                                bool use_encoding = false);

/// One memory-pressure event of a governed run, for inline reporting
/// (tools/trace_query) and the tracer's "memory" category.
struct PressureEvent {
  enum class Kind {
    kAdmission,  ///< grant observed at query start
    kPartition,  ///< a partitioned execution attempt begins
    kSpill,      ///< one partition's host<->device traffic
    kFallback,   ///< recurring OOM absorbed by repartitioning
  };
  Kind kind = Kind::kAdmission;
  std::string detail;   ///< human-readable summary
  uint64_t bytes = 0;   ///< grant / slice / spill bytes (kind-dependent)
  size_t partitions = 0;
};

const char* PressureEventKindName(PressureEvent::Kind kind);

struct GovernedQueryOptions {
  /// Skip grant-driven sizing and use exactly this many partitions (0 =
  /// derive from the grant). Used by the timing-invariance golden test.
  size_t force_partitions = 0;
  /// Observer for admission/partition/spill events; may be null. Called on
  /// the executing thread.
  std::function<void(const PressureEvent&)> on_event;
  /// Upload tables (and partition slices) compressed: columns where a
  /// lightweight encoding beats the raw layout cross the link encoded and
  /// run on the encoded operator path. Shrinks both the admission footprint
  /// and the spill traffic.
  bool use_encoding = false;
};

/// Accounting of one governed run.
struct GovernedRunStats {
  uint64_t footprint_bytes = 0;  ///< estimated unpartitioned footprint
  uint64_t grant_bytes = 0;      ///< reservation observed (0 = ungoverned)
  size_t partitions = 1;         ///< K of the successful attempt
  size_t oom_fallbacks = 0;      ///< attempts abandoned to a larger K
  uint64_t spill_h2d_bytes = 0;  ///< partition-slice upload traffic (K > 1)
  uint64_t spill_d2h_bytes = 0;  ///< partial-result download traffic (K > 1)
  uint64_t simulated_ns = 0;     ///< stream-timeline delta of the whole run
  /// Uploads and slices the slice runner re-ran after a transient fault,
  /// over every attempt of the ladder.
  size_t slice_replays = 0;
};

/// Runs `query` on `backend`, degrading to partitioned execution when the
/// stream's admission grant (gpusim::Device::ReservationRemaining) — or, for
/// ungoverned streams, the device capacity — is smaller than the estimated
/// footprint. Recurring OutOfDeviceMemory doubles K and restarts (the
/// partials accumulated so far are discarded; queries are idempotent); an
/// OOM at 256 partitions throws core::BackendError of class kFatal. With
/// `force_partitions` set there is no ladder and an OOM propagates as is.
/// A transient fault replays the slice it hit (partition_detail.h), and a
/// spent replay budget is fatal too. K == 1 charges exactly the ordinary
/// unpartitioned plan execution.
TpchQueryResult RunGoverned(TpchQuery query, const TpchHostTables& tables,
                            core::Backend& backend,
                            const GovernedQueryOptions& options = {},
                            GovernedRunStats* stats = nullptr);

/// Adapts RunGoverned for core::QueryScheduler submission. `tables` is
/// captured by value (a struct of pointers — the caller keeps the host
/// tables alive); `out` and `stats` may be null and are written on the
/// client thread when the query completes.
core::QueryFn MakeGovernedQuery(TpchQuery query, TpchHostTables tables,
                                GovernedQueryOptions options = {},
                                TpchQueryResult* out = nullptr,
                                GovernedRunStats* stats = nullptr);

}  // namespace plan

#endif  // PLAN_PARTITION_H_
