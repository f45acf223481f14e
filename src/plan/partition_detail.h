// Shared internals of the partitioned execution paths.
//
// plan/partition.cc (single-device spill-to-host execution) and
// plan/exchange.cc (multi-device sharded execution) both run a query as a
// list of lineitem row ranges cut on the same orderkey-snapped boundaries.
// RunSlices is the one loop that runs such a list on one backend; the
// governed path calls it once per attempt, the sharded path once per device
// and round. Every finished slice keeps its own partials, and MergeSlices
// folds them in ascending row order, so an answer does not depend on how the
// slices were spread over devices, in what order they finished, or where
// recovery re-ran them. These helpers are implementation detail: no
// stability promises, not part of the plan/ public API.
#ifndef PLAN_PARTITION_DETAIL_H_
#define PLAN_PARTITION_DETAIL_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "core/backend.h"
#include "plan/optimizer.h"
#include "plan/partition.h"
#include "plan/tpch_plans.h"
#include "storage/table.h"

namespace plan {
namespace detail {

/// Attempts against transient faults, the first one included, that
/// RunSlices gives one build-side upload or one whole slice, and that the
/// sharded gather gives one exchange edge. These are the only replays of a
/// transient fault inside a governed or sharded run (DESIGN.md §7).
constexpr int kTransientAttempts = 4;

/// A lineitem row range [first, second).
using RowRange = std::pair<size_t, size_t>;

/// K consecutive row ranges covering lineitem, in ascending row order; with
/// `align_orderkey` each boundary snaps forward to the next l_orderkey change
/// point so no order straddles two ranges (which can leave a range empty).
/// Pure function of (rows, keys, k).
std::vector<RowRange> PartitionRanges(const storage::Table& lineitem,
                                      size_t k, bool align_orderkey);

/// One finished slice: its partials and the link traffic it cost.
struct SliceResult {
  RowRange rows;
  Partials partials;
  uint64_t upload_bytes = 0;    ///< slice h2d (encoded size with encoding on)
  uint64_t download_bytes = 0;  ///< d2h of the slice's partial results
};

/// How far one RunSlices call got. It is updated as the call runs, so it is
/// exact after a throw too.
struct SliceProgress {
  uint64_t broadcast_bytes = 0;   ///< build-side tables uploaded
  size_t next = 0;                ///< ranges[next..] have not finished
  std::vector<SliceResult> done;  ///< finished slices, in range order
  size_t replays = 0;  ///< uploads and slices re-run after a transient fault
};

/// The one slice loop. Resets `progress`, uploads the build-side tables `q`'s
/// table entry lists, then runs `ranges` in order on `backend`: upload the
/// slice (the host table itself when the range covers all of it),
/// BuildTpchPlan -> Optimize -> RunPinned -> ExtractPartials, and record the
/// slice's partials in progress.done before the next slice starts.
/// `on_slice`, if set, then sees the record and its index in `ranges`. Empty
/// ranges are skipped. A transient fault (TransientKernelFault,
/// TransferFault) replays the failed build-side upload, or the whole slice
/// from its upload through ExtractPartials, up to kTransientAttempts
/// attempts in all, and counts each re-run in progress.replays; the
/// simulated time of failed attempts stays charged.
/// A spent budget throws core::BackendError of class kFatal with the fault's
/// message, and every other fault propagates unchanged. Whatever escapes,
/// `progress` still holds every slice that finished.
void RunSlices(
    TpchQuery q, const TpchHostTables& tables, core::Backend& backend,
    const std::vector<RowRange>& ranges, bool use_encoding,
    SliceProgress& progress,
    const std::function<void(size_t, const SliceResult&)>& on_slice = {});

/// Sorts `slices` into ascending row order and merges their partials in
/// that order.
Partials MergeSlices(std::vector<SliceResult>& slices);

/// Calls `use` with `q`'s plan over metadata-only device tables: every
/// column carries its type and row count but no storage (lineitem at
/// `slice_rows` rows, the build-side tables whole), so building, optimizing
/// and pricing the plan moves no bytes. With `use_encoding` the columns are
/// sized as UploadTableEncoded would upload them. The tables live only for
/// the call.
void WithMetaBundle(TpchQuery q, const TpchHostTables& tables,
                    size_t slice_rows, bool use_encoding,
                    const std::function<void(const QueryPlanBundle&)>& use);

/// Worst-case device footprint of executing `phys` once: base-table upload
/// bytes (skipped with include_scans == false — the tables are already
/// resident, as in the serving tier's prepared queries) plus 2x the
/// materialized intermediates. See the definition in partition.cc for the
/// full model.
uint64_t FootprintOfPlan(const PhysicalPlan& phys, bool include_scans = true);

uint64_t HostTableBytes(const storage::Table& t);

}  // namespace detail
}  // namespace plan

#endif  // PLAN_PARTITION_DETAIL_H_
