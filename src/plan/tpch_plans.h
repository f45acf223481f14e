// The TPC-H query table: one definition per query, as a logical plan.
//
// The plan is the only definition of a query: every bench, tool and example
// runs it. Each entry of the table names a query, lists the tables it reads
// besides lineitem, says whether its slices snap to l_orderkey, and holds its
// plan builder, its host finalize and its host reference answer. Every
// execution path runs a query the same
// way: build the plan over the slice's device tables, run it, extract one
// Partials from the plan's marked terminal nodes, merge the slices' partials
// in ascending row order, and finalize on the host. The one-shot paths
// (plan/partition.h, plan/exchange.h) run many slices; a prepared query
// (plan/prepared.h) runs one.
//
// Partials merge by the kind of the marked node, so no query needs its own
// merge code: fetched groups add per key (sums and counts are the only
// aggregates the plans fetch), reduced scalars add (a reduction that did not
// run counts as 0), and fetched pairs concatenate.
//
// Each builder inserts nodes in the order a chain of library calls issues
// them, so a plan pinned to one backend is the paper's per-library query:
// PlanGoldenTest (tests/plan_golden_test.cc) checks that it replays a
// hand-coded chain's call sequence, with the same answer and a bit-identical
// simulated timeline.
//
// A new query needs a TpchQuery value, one table entry (tpch_plans.cc), a
// host reference to test it against (tpch/queries.h), and the wire encoding
// of its result (serve/protocol.cc).
#ifndef PLAN_TPCH_PLANS_H_
#define PLAN_TPCH_PLANS_H_

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "plan/executor.h"
#include "plan/ir.h"
#include "storage/device_column.h"
#include "storage/table.h"
#include "tpch/queries.h"

namespace plan {

/// The five TPC-H queries of the paper's query experiments.
enum class TpchQuery { kQ1, kQ3, kQ4, kQ6, kQ14 };

/// The table entry's name: "q1", "q3", "q4", "q6" or "q14".
const char* TpchQueryName(TpchQuery query);

/// Parses a table entry's name (throws std::invalid_argument).
TpchQuery ParseTpchQuery(const std::string& name);

/// The tables a query can read besides lineitem.
enum class TpchTable { kOrders, kCustomer, kPart };

const char* TpchTableName(TpchTable table);

/// One pointer per TPC-H table, host-side or device-resident. Only lineitem
/// and the tables the query's entry lists need be set.
template <typename T>
struct TpchTableSet {
  const T* lineitem = nullptr;
  const T* orders = nullptr;
  const T* customer = nullptr;
  const T* part = nullptr;

  const T* operator[](TpchTable t) const {
    return t == TpchTable::kOrders     ? orders
           : t == TpchTable::kCustomer ? customer
                                       : part;
  }
  const T*& operator[](TpchTable t) {
    return t == TpchTable::kOrders     ? orders
           : t == TpchTable::kCustomer ? customer
                                       : part;
  }
};

using TpchHostTables = TpchTableSet<storage::Table>;
using TpchDeviceTables = TpchTableSet<storage::DeviceTable>;

/// Result of any of the five queries (the member matching the query is set).
struct TpchQueryResult {
  std::vector<tpch::Q1Row> q1;
  std::vector<tpch::Q3Row> q3;
  std::vector<tpch::Q4Row> q4;
  double scalar = 0.0;  ///< q6 revenue / q14 promo share
};

/// A built query plan plus its marked terminal nodes, by name.
struct QueryPlanBundle {
  Plan plan;
  std::map<std::string, int> marks;
};

/// Mergeable state of one executed plan: one entry per marked node of its
/// bundle. Each entry fills the one field its node kind produces.
struct Partials {
  struct Mark {
    NodeKind kind = NodeKind::kReduce;
    std::map<int32_t, double> groups;  ///< kFetchGroups: key -> sum or count
    /// kFetchPair: (first, second) rows in fetch order.
    std::vector<std::pair<double, int32_t>> pairs;
    double scalar = 0.0;  ///< kReduce: 0 when the node did not run
  };
  std::map<std::string, Mark> marks;

  /// Adds `other`'s groups per key and its scalars, and appends its pairs.
  void Merge(const Partials& other);

  /// Host bytes of the partial, which a sharded gather moves: 4 B per
  /// distinct group key (the fetched groups share one key column), 8 B per
  /// group aggregate, 16 B per (double, int32) pair row, 8 B per scalar.
  uint64_t bytes() const;
};

/// Reads the partials off an executed bundle's marked nodes.
Partials ExtractPartials(const QueryPlanBundle& bundle,
                         const ExecutionResult& result);

/// One entry of the query table.
struct TpchQueryDef {
  TpchQuery query;
  const char* name;
  /// Tables read besides lineitem, in upload order; each is broadcast whole
  /// to every device that runs slices.
  std::vector<TpchTable> build_tables;
  /// Slice boundaries snap to l_orderkey change points, which keeps the
  /// slices' group keys and semi-join keys disjoint.
  bool align_orderkey;
  /// Inserts the plan's nodes over device tables holding what the entry
  /// lists (default tpch:: parameters).
  QueryPlanBundle (*build)(const TpchDeviceTables& tables);
  /// The host-side end of the query over every slice's merged partials.
  TpchQueryResult (*finalize)(const Partials& merged);
  /// Planning-time estimate of the rows per fetched node in one device's
  /// partials, given the lineitem rows of one shard (EXPLAIN's gather
  /// edges).
  size_t (*partial_rows)(size_t shard_rows);
  /// The host reference answer (tpch/queries.h) over whole host tables.
  TpchQueryResult (*reference)(const TpchHostTables& tables);
};

/// The query table: one entry per query, in TpchQuery order.
const std::vector<TpchQueryDef>& QueryTable();

/// The table entry of `query`.
const TpchQueryDef& QueryDef(TpchQuery query);

/// The tables `query` reads out of `tables`: lineitem and the ones its
/// entry lists. The others are left null.
template <typename T>
TpchTableSet<T> QueryTables(TpchQuery query, const TpchTableSet<T>& tables) {
  TpchTableSet<T> out;
  out.lineitem = tables.lineitem;
  for (const TpchTable t : QueryDef(query).build_tables) out[t] = tables[t];
  return out;
}

/// Throws std::invalid_argument naming the first table `query` reads that
/// `tables` does not set.
template <typename T>
void RequireTables(TpchQuery query, const TpchTableSet<T>& tables) {
  const auto require = [&](const T* table, const char* name) {
    if (table == nullptr) {
      throw std::invalid_argument(std::string(TpchQueryName(query)) +
                                  " requires the " + name + " table");
    }
  };
  require(tables.lineitem, "lineitem");
  for (const TpchTable t : QueryDef(query).build_tables) {
    require(tables[t], TpchTableName(t));
  }
}

/// Checks the tables, then runs the entry's plan builder.
QueryPlanBundle BuildTpchPlan(TpchQuery query, const TpchDeviceTables& tables);

/// The answer of one executed plan: its partials merged into empty ones, as
/// a one-slice run folds them, then finalized.
TpchQueryResult FinalizeRun(TpchQuery query, const QueryPlanBundle& bundle,
                            const ExecutionResult& result);

/// Checks the tables, then computes the entry's host reference answer.
TpchQueryResult ReferenceAnswer(TpchQuery query, const TpchHostTables& tables);

/// The host reference answer of every query in the table.
std::map<TpchQuery, TpchQueryResult> ReferenceAnswers(
    const TpchHostTables& tables);

/// True when `got` answers `query` as `want` does: the same rows in the same
/// order, keys and counts equal, floats within a relative 1e-9 plus
/// `abs_slack` (device sums associate differently from the host
/// reference's). Otherwise `why`, when set, names the first difference.
bool SameAnswer(TpchQuery query, const TpchQueryResult& got,
                const TpchQueryResult& want, std::string* why = nullptr,
                double abs_slack = 1e-6);

}  // namespace plan

#endif  // PLAN_TPCH_PLANS_H_
