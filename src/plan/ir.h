// Logical query-plan IR.
//
// A Plan is a small operator DAG over device-resident table columns. Nodes
// are stored in insertion order and the executor runs them strictly in that
// order, so a plan whose nodes were inserted in the same order as a chain of
// backend calls replays the *identical* call sequence — the property
// PlanGoldenTest pins against hand-coded chains (a plan pinned to one
// backend must charge a bit-identical simulated timeline).
//
// The optimizer (plan/optimizer.h) rewrites plans in place: merged or fused
// nodes keep their slot (stable node ids) and consumed intermediates are
// marked dead rather than erased, which preserves both execution order and
// the node references held by result extractors.
#ifndef PLAN_IR_H_
#define PLAN_IR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/backend.h"
#include "storage/device_column.h"

namespace plan {

/// Operator kinds. kFusedMap / kFusedFilterSum exist only after the
/// optimizer's fusion rewrites (hybrid plans); logical builders never emit
/// them.
enum class NodeKind {
  kScan,           ///< base-table column reference (no device work)
  kFilter,         ///< 1..k predicates, conjunctive or disjunctive
  kFilterCompare,  ///< column-vs-column predicate (e.g. Q4's commit < receipt)
  kGather,         ///< materialize src[indices]
  kMap,            ///< element-wise arithmetic (product / +- scalar)
  kJoin,           ///< equi-join, build side unique (PK)
  kUnique,         ///< distinct values (semi-join build side)
  kGroupBy,        ///< grouped aggregation
  kReduce,         ///< full-column reduction to a host scalar
  kSortByKey,      ///< key-value sort
  kFetchGroups,    ///< download a GroupBy result (keys then aggregate)
  kFetchPair,      ///< download a SortByKey result (first then second)
  kFusedMap,       ///< a*(alpha-b) or a*(b+alpha) in one kernel (rewrite)
  kFusedFilterSum, ///< filter+project+sum in one pass (rewrite)
};

const char* NodeKindName(NodeKind kind);

/// Element-wise arithmetic ops for kMap.
enum class MapOp {
  kMul,            ///< out[i] = a[i] * b[i]
  kAddScalar,      ///< out[i] = a[i] + alpha
  kSubFromScalar,  ///< out[i] = alpha - a[i]
};

/// Join algorithm; kAuto is resolved by the optimizer per assigned backend
/// (hash when Realization(kHashJoin) != kNone, else nested loops).
/// kNestedLoops forces the libraries' realization on any backend.
enum class JoinAlgo { kAuto, kNestedLoops, kHash };

/// Which output of a producer node an edge consumes.
enum class Part {
  kValue,          ///< the node's column (scan/gather/map/unique/fused map)
  kRowIds,         ///< a selection's matching row ids
  kLeftRows,       ///< a join's build-side row ids
  kRightRows,      ///< a join's probe-side row ids
  kGroupKeys,      ///< a group-by's key column
  kGroupAggregate, ///< a group-by's aggregate column
  kPairFirst,      ///< a sort-by-key's sorted keys
  kPairSecond,     ///< a sort-by-key's reordered values
};

/// An edge: output `part` of node `node`.
struct NodeInput {
  int node = -1;
  Part part = Part::kValue;
};

/// One plan node. Only the fields relevant to `kind` are meaningful.
struct PlanNode {
  NodeKind kind = NodeKind::kScan;
  std::string label;  ///< short human-readable tag for EXPLAIN output

  // kScan. Exactly one of scan_col / scan_enc is set: a table column lives
  // on the device either raw or encoded (storage/encoded_column.h), and the
  // executor picks the encoded-domain operator realizations when scan_enc
  // feeds a filter, gather, or reduce.
  std::string table, column;
  const storage::DeviceColumn* scan_col = nullptr;
  const storage::EncodedDeviceColumn* scan_enc = nullptr;

  // kFilter: pred_cols[i] produces the column pred[i] applies to.
  std::vector<NodeInput> pred_cols;
  std::vector<core::Predicate> preds;
  bool conjunctive = true;
  /// Chained filter this one refines (-1 = none). The optimizer folds
  /// conjunctive chains into one multi-predicate node; the executor refuses
  /// unmerged chains.
  int filter_source = -1;

  // kFilterCompare
  NodeInput cmp_lhs, cmp_rhs;
  core::CompareOp cmp_op = core::CompareOp::kLt;

  // kGather
  NodeInput gather_src, gather_indices;

  // kMap / kFusedMap. kMul uses (map_a, map_b); scalar forms use map_a and
  // alpha. kFusedMap computes map_a * (alpha - map_b) for kSubFromScalar or
  // map_a * (map_b + alpha) for kAddScalar (fused_inner names the folded op).
  MapOp map_op = MapOp::kMul;
  NodeInput map_a, map_b;
  double alpha = 0.0;
  MapOp fused_inner = MapOp::kSubFromScalar;

  // kJoin
  NodeInput join_build, join_probe;
  JoinAlgo join_algo = JoinAlgo::kAuto;

  // kUnique / kReduce / kGroupBy / kSortByKey
  NodeInput unary_in;            ///< unique/reduce input column
  NodeInput group_keys, group_values;
  /// kGroupBy over encoded keys: a selection's row ids (node -1 = none).
  /// When set, group_keys is an encoded base-table scan, group_values holds
  /// the selected rows, and the keys never decode: the executor calls
  /// GroupByAggregateEncoded, which reads the packed codes of those rows.
  NodeInput group_rows;
  core::AggOp agg = core::AggOp::kSum;
  NodeInput sort_keys, sort_values;

  // kFetchGroups / kFetchPair
  NodeInput fetch_from;  ///< the group-by / sort-by-key node (node id only)

  // kFusedFilterSum: sum over rows i of the filter domain where the
  // predicates hold of value_a[i] (* value_b[i] when value_b is set).
  NodeInput fused_value_a, fused_value_b;
  bool fused_has_b = false;

  /// Guard: when set (>= 0), the node (and transitively its consumers) is
  /// skipped unless the guard node produced a non-zero result — a group-by
  /// with > 0 groups or a reduction with a non-zero scalar: a chain's
  /// host-side early exits (Q3, Q14).
  int guard = -1;

  /// Set by optimizer rewrites when this node's work was absorbed by another
  /// node. Dead nodes keep their slot (stable ids) but are never executed.
  bool dead = false;
};

/// A query plan: nodes in insertion (execution) order.
struct Plan {
  std::vector<PlanNode> nodes;

  int Add(PlanNode node) {
    nodes.push_back(std::move(node));
    return static_cast<int>(nodes.size()) - 1;
  }

  /// Sets every join's algorithm to `algo`.
  void SetJoinAlgo(JoinAlgo algo) {
    for (PlanNode& n : nodes) {
      if (n.kind == NodeKind::kJoin) n.join_algo = algo;
    }
  }

  // -- Builder helpers (each returns the new node's id) ---------------------

  int Scan(std::string table, std::string column,
           const storage::DeviceColumn& col) {
    PlanNode n;
    n.kind = NodeKind::kScan;
    n.table = std::move(table);
    n.column = std::move(column);
    n.scan_col = &col;
    n.label = n.table + "." + n.column;
    return Add(std::move(n));
  }

  int ScanEncoded(std::string table, std::string column,
                  const storage::EncodedDeviceColumn& col) {
    PlanNode n;
    n.kind = NodeKind::kScan;
    n.table = std::move(table);
    n.column = std::move(column);
    n.scan_enc = &col;
    n.label = n.table + "." + n.column;
    return Add(std::move(n));
  }

  /// Scans `column` however the device table holds it — encoded when an
  /// encoded-resident copy exists, raw otherwise. Plan builders use this so
  /// the same builder works over raw and encoded uploads.
  int Scan(std::string table, std::string column,
           const storage::DeviceTable& from) {
    if (from.HasEncoded(column)) {
      return ScanEncoded(std::move(table), column, from.encoded(column));
    }
    return Scan(std::move(table), column, from.column(column));
  }

  int Filter(NodeInput col, core::Predicate pred, int source = -1) {
    PlanNode n;
    n.kind = NodeKind::kFilter;
    n.pred_cols = {col};
    n.label = "Filter(" + pred.column + ")";
    n.preds = {std::move(pred)};
    n.filter_source = source;
    return Add(std::move(n));
  }

  int FilterCompare(NodeInput lhs, core::CompareOp op, NodeInput rhs,
                    std::string label) {
    PlanNode n;
    n.kind = NodeKind::kFilterCompare;
    n.cmp_lhs = lhs;
    n.cmp_rhs = rhs;
    n.cmp_op = op;
    n.label = std::move(label);
    return Add(std::move(n));
  }

  int Gather(NodeInput src, NodeInput indices, std::string label) {
    PlanNode n;
    n.kind = NodeKind::kGather;
    n.gather_src = src;
    n.gather_indices = indices;
    n.label = std::move(label);
    return Add(std::move(n));
  }

  int Map(MapOp op, NodeInput a, NodeInput b, double alpha,
          std::string label) {
    PlanNode n;
    n.kind = NodeKind::kMap;
    n.map_op = op;
    n.map_a = a;
    n.map_b = b;
    n.alpha = alpha;
    n.label = std::move(label);
    return Add(std::move(n));
  }

  int Join(NodeInput build, NodeInput probe, std::string label,
           JoinAlgo algo = JoinAlgo::kAuto) {
    PlanNode n;
    n.kind = NodeKind::kJoin;
    n.join_build = build;
    n.join_probe = probe;
    n.join_algo = algo;
    n.label = std::move(label);
    return Add(std::move(n));
  }

  int Unique(NodeInput in, std::string label) {
    PlanNode n;
    n.kind = NodeKind::kUnique;
    n.unary_in = in;
    n.label = std::move(label);
    return Add(std::move(n));
  }

  int GroupBy(NodeInput keys, NodeInput values, core::AggOp agg,
              std::string label, NodeInput rows = NodeInput{}) {
    PlanNode n;
    n.kind = NodeKind::kGroupBy;
    n.group_keys = keys;
    n.group_values = values;
    n.group_rows = rows;
    n.agg = agg;
    n.label = std::move(label);
    return Add(std::move(n));
  }

  int Reduce(NodeInput in, core::AggOp agg, std::string label,
             int guard = -1) {
    PlanNode n;
    n.kind = NodeKind::kReduce;
    n.unary_in = in;
    n.agg = agg;
    n.label = std::move(label);
    n.guard = guard;
    return Add(std::move(n));
  }

  int SortByKey(NodeInput keys, NodeInput values, std::string label,
                int guard = -1) {
    PlanNode n;
    n.kind = NodeKind::kSortByKey;
    n.sort_keys = keys;
    n.sort_values = values;
    n.label = std::move(label);
    n.guard = guard;
    return Add(std::move(n));
  }

  int FetchGroups(int group_by_node) {
    PlanNode n;
    n.kind = NodeKind::kFetchGroups;
    n.fetch_from = NodeInput{group_by_node, Part::kGroupKeys};
    n.label = "FetchGroups";
    return Add(std::move(n));
  }

  int FetchPair(int sort_by_key_node) {
    PlanNode n;
    n.kind = NodeKind::kFetchPair;
    n.fetch_from = NodeInput{sort_by_key_node, Part::kPairFirst};
    n.label = "FetchPair";
    return Add(std::move(n));
  }
};

/// The device-work inputs of a node (excludes guards), in evaluation order.
std::vector<NodeInput> NodeInputs(const PlanNode& node);

/// The edge whose rows a group-by aggregates: its row selection when it has
/// one (the keys are then a whole encoded column), its keys otherwise.
NodeInput GroupedRows(const PlanNode& group_by);

}  // namespace plan

#endif  // PLAN_IR_H_
