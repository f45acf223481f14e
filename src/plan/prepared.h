// Resident tables and prepared (reusable) query plans.
//
// The one-shot execution paths (plan/partition.h) upload tables, build and
// optimize a plan, run it, and throw everything away. A serving process
// amortizes all of that: tables upload once and stay device-resident across
// requests ("Accelerating Presto with GPUs", PAPERS.md), and an optimized
// physical plan over those resident tables is reusable for every later
// request for the same query — a PreparedTpchQuery, the value a serving
// catalog snapshot keeps one of per query (serve/session.h). Eiger
// (PAPERS.md) motivates the reuse: repeated query shapes should reuse
// optimization decisions instead of paying the optimizer per request.
//
// Lifetime is the safety argument: a physical plan binds raw pointers to the
// DeviceColumns it scans, so a PreparedTpchQuery co-owns its
// ResidentTpchTables via shared_ptr. A stale plan — one prepared against a
// residency that has since been replaced — keeps its own tables alive and
// merely computes against the old (consistent) snapshot; dangling reuse is
// impossible by construction. The server never serves one: each snapshot's
// plans are prepared against that snapshot's residency only.
#ifndef PLAN_PREPARED_H_
#define PLAN_PREPARED_H_

#include <cstdint>
#include <memory>
#include <string>

#include "core/backend.h"
#include "gpusim/stream.h"
#include "plan/optimizer.h"
#include "plan/partition.h"
#include "plan/tpch_plans.h"
#include "storage/device_column.h"

namespace plan {

/// Everything that identifies "the same query" for plan reuse: the query
/// (its table entry fixes the parameters) and whether it runs against
/// encoded residency (encoded tables take different operator paths).
struct QueryShape {
  TpchQuery query = TpchQuery::kQ1;
  bool use_encoding = false;
};

/// Device-resident TPC-H tables. Immutable after MakeResident — plan nodes
/// hold pointers into the DeviceTables, so the struct is only handed out as
/// shared_ptr<const>.
struct ResidentTpchTables {
  storage::DeviceTable lineitem;
  storage::DeviceTable orders;
  storage::DeviceTable customer;
  storage::DeviceTable part;
  bool has_orders = false;
  bool has_customer = false;
  bool has_part = false;
  bool encoded = false;          ///< uploaded via UploadTableEncoded
  uint64_t uploaded_bytes = 0;   ///< bytes that crossed the link
  uint64_t resident_bytes = 0;   ///< device bytes the residency occupies

  /// The resident tables as a plan builder reads them (absent ones null).
  TpchDeviceTables view() const;
};

/// Uploads every non-null table of `host` on `stream` (encoded when
/// `use_encoding`). Lineitem is required.
std::shared_ptr<const ResidentTpchTables> MakeResident(
    gpusim::Stream& stream, const TpchHostTables& host, bool use_encoding);

/// An optimized physical plan bound to resident tables, ready for repeated
/// execution. Run() is const and thread-safe: concurrent scheduler clients
/// may execute the same prepared query simultaneously (RunPinned keeps all
/// mutable state per call).
class PreparedTpchQuery {
 public:
  PreparedTpchQuery(QueryShape shape,
                    std::shared_ptr<const ResidentTpchTables> tables,
                    QueryPlanBundle bundle, PhysicalPlan physical);

  /// Executes the cached physical plan on `backend` (no optimizer, no
  /// upload) and finishes it as a one-slice run: extract the partials, merge
  /// them into empty ones, finalize (plan/tpch_plans.h).
  TpchQueryResult Run(core::Backend& backend) const;

  const QueryShape& shape() const { return shape_; }
  const PhysicalPlan& physical() const { return physical_; }
  const std::shared_ptr<const ResidentTpchTables>& tables() const {
    return tables_;
  }
  /// Admission footprint of one execution: intermediates only — the scanned
  /// base tables are already resident and charge nothing per run.
  uint64_t footprint_bytes() const { return footprint_bytes_; }

 private:
  QueryShape shape_;
  std::shared_ptr<const ResidentTpchTables> tables_;
  QueryPlanBundle bundle_;
  PhysicalPlan physical_;
  uint64_t footprint_bytes_ = 0;
};

/// Builds the shape's logical plan over the resident tables and optimizes
/// it pinned to `backend_name`. Throws std::invalid_argument when the
/// shape's query needs a table the residency does not hold.
std::shared_ptr<const PreparedTpchQuery> PrepareTpchQuery(
    const QueryShape& shape,
    std::shared_ptr<const ResidentTpchTables> tables,
    const std::string& backend_name);

}  // namespace plan

#endif  // PLAN_PREPARED_H_
