// Plan-cache fingerprints.
//
// A cached physical plan is only reusable when everything the optimizer
// looked at is unchanged: the query shape (which query, over raw or encoded
// residency), the table statistics (row counts, per-column types and
// encoding choices — cardinalities drive both cost-based dispatch and the
// footprint estimate), and the backend the plan was pinned to. These
// helpers reduce each of those to a stable 64-bit fingerprint;
// serve/plan_cache.h composes them into the cache key. Eiger (PAPERS.md)
// motivates the idea: repeated query shapes should reuse optimization
// decisions instead of paying the optimizer per request.
#ifndef PLAN_FINGERPRINT_H_
#define PLAN_FINGERPRINT_H_

#include <cstdint>
#include <string>

#include "plan/tpch_plans.h"
#include "storage/device_column.h"
#include "storage/table.h"

namespace plan {

/// Everything that identifies "the same query" for plan reuse: the query
/// (its table entry fixes the parameters) and whether it runs against
/// encoded residency (encoded tables take different operator paths).
struct QueryShape {
  TpchQuery query = TpchQuery::kQ1;
  bool use_encoding = false;
};

/// Stable hash of the shape (FNV-1a over the discriminating fields).
uint64_t QueryShapeHash(const QueryShape& shape);

/// Stable fingerprint of one resident table's statistics: per-column (in the
/// host table's insertion order) the name, logical type, row count, and —
/// when the column is resident encoded — the encoding kind, bit width, and
/// encoded byte size. Any change that could alter the optimizer's choices
/// (row count, encoding decision, added/dropped column) changes the value.
uint64_t TableStatsFingerprint(const storage::Table& host,
                               const storage::DeviceTable& resident);

/// Order-sensitive combiner for multi-table fingerprints (fold the
/// per-table values in a fixed table order).
uint64_t CombineFingerprint(uint64_t seed, uint64_t value);

/// Full plan-cache key: shape x stats x backend x the catalog generation
/// the plan was prepared against. A readmission re-uploads the same tables,
/// so only the generation tells its residency from the one it replaced.
struct PlanCacheKey {
  uint64_t shape_hash = 0;
  uint64_t stats_fingerprint = 0;
  std::string backend;
  uint64_t generation = 0;

  bool operator==(const PlanCacheKey& o) const {
    return shape_hash == o.shape_hash &&
           stats_fingerprint == o.stats_fingerprint && backend == o.backend &&
           generation == o.generation;
  }
};

struct PlanCacheKeyHash {
  size_t operator()(const PlanCacheKey& k) const;
};

}  // namespace plan

#endif  // PLAN_FINGERPRINT_H_
