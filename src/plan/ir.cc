#include "plan/ir.h"

namespace plan {

const char* NodeKindName(NodeKind kind) {
  switch (kind) {
    case NodeKind::kScan: return "Scan";
    case NodeKind::kFilter: return "Filter";
    case NodeKind::kFilterCompare: return "FilterCompare";
    case NodeKind::kGather: return "Gather";
    case NodeKind::kMap: return "Map";
    case NodeKind::kJoin: return "Join";
    case NodeKind::kUnique: return "Unique";
    case NodeKind::kGroupBy: return "GroupBy";
    case NodeKind::kReduce: return "Reduce";
    case NodeKind::kSort: return "Sort";
    case NodeKind::kSortByKey: return "SortByKey";
    case NodeKind::kFetchGroups: return "FetchGroups";
    case NodeKind::kFetchPair: return "FetchPair";
    case NodeKind::kFusedMap: return "FusedMap";
    case NodeKind::kFusedFilterSum: return "FusedFilterSum";
  }
  return "?";
}

NodeInput GroupedRows(const PlanNode& group_by) {
  return group_by.group_rows.node >= 0 ? group_by.group_rows
                                       : group_by.group_keys;
}

std::vector<NodeInput> NodeInputs(const PlanNode& node) {
  std::vector<NodeInput> in;
  switch (node.kind) {
    case NodeKind::kScan:
      break;
    case NodeKind::kFilter:
      in = node.pred_cols;
      if (node.filter_source >= 0) {
        in.push_back(NodeInput{node.filter_source, Part::kRowIds});
      }
      break;
    case NodeKind::kFilterCompare:
      in = {node.cmp_lhs, node.cmp_rhs};
      break;
    case NodeKind::kGather:
      in = {node.gather_src, node.gather_indices};
      break;
    case NodeKind::kMap:
      in = {node.map_a};
      if (node.map_op == MapOp::kMul) in.push_back(node.map_b);
      break;
    case NodeKind::kFusedMap:
      in = {node.map_a, node.map_b};
      break;
    case NodeKind::kJoin:
      in = {node.join_build, node.join_probe};
      break;
    case NodeKind::kUnique:
    case NodeKind::kSort:
    case NodeKind::kReduce:
      in = {node.unary_in};
      break;
    case NodeKind::kGroupBy:
      in = {node.group_keys, node.group_values};
      if (node.group_rows.node >= 0) in.push_back(node.group_rows);
      break;
    case NodeKind::kSortByKey:
      in = {node.sort_keys, node.sort_values};
      break;
    case NodeKind::kFetchGroups:
    case NodeKind::kFetchPair:
      in = {node.fetch_from};
      break;
    case NodeKind::kFusedFilterSum:
      in = node.pred_cols;
      in.push_back(node.fused_value_a);
      if (node.fused_has_b) in.push_back(node.fused_value_b);
      break;
  }
  return in;
}

}  // namespace plan
