#include "plan/optimizer.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "core/registry.h"
#include "storage/column.h"

namespace plan {
namespace {

// -- Graph helpers ----------------------------------------------------------

/// Applies `fn` to every NodeInput field of `node` (mutating), plus the
/// integer node references (guard, filter_source) via `fn_id`.
template <typename Fn, typename FnId>
void RemapNode(PlanNode& node, Fn fn, FnId fn_id) {
  for (NodeInput& in : node.pred_cols) fn(in);
  fn(node.cmp_lhs);
  fn(node.cmp_rhs);
  fn(node.gather_src);
  fn(node.gather_indices);
  fn(node.map_a);
  fn(node.map_b);
  fn(node.join_build);
  fn(node.join_probe);
  fn(node.unary_in);
  fn(node.group_keys);
  fn(node.group_values);
  fn(node.group_rows);
  fn(node.sort_keys);
  fn(node.sort_values);
  fn(node.fetch_from);
  fn(node.fused_value_a);
  fn(node.fused_value_b);
  fn_id(node.guard);
  fn_id(node.filter_source);
}

/// Ids of alive nodes that consume any output of `producer` (data inputs,
/// filter chaining, or guard references).
std::vector<int> Users(const Plan& p, int producer) {
  std::vector<int> users;
  for (int j = 0; j < static_cast<int>(p.nodes.size()); ++j) {
    const PlanNode& n = p.nodes[j];
    if (n.dead || j == producer) continue;
    bool uses = n.guard == producer || n.filter_source == producer;
    if (!uses) {
      for (const NodeInput& in : NodeInputs(n)) {
        if (in.node == producer) {
          uses = true;
          break;
        }
      }
    }
    if (uses) users.push_back(j);
  }
  return users;
}

/// True when `producer` is consumed exactly by the nodes in `consumers`
/// (order-insensitive).
bool UsedOnlyBy(const Plan& p, int producer, std::vector<int> consumers) {
  std::vector<int> users = Users(p, producer);
  std::sort(users.begin(), users.end());
  std::sort(consumers.begin(), consumers.end());
  return users == consumers;
}

/// Element type of an edge, when statically known.
std::optional<storage::DataType> InferType(const Plan& p, NodeInput in) {
  if (in.node < 0) return std::nullopt;
  switch (in.part) {
    case Part::kRowIds:
    case Part::kLeftRows:
    case Part::kRightRows:
    case Part::kGroupKeys:
    case Part::kPairSecond:
      return storage::DataType::kInt32;
    case Part::kGroupAggregate:
      return p.nodes[in.node].agg == core::AggOp::kCount
                 ? storage::DataType::kInt64
                 : storage::DataType::kFloat64;
    case Part::kPairFirst:
      return InferType(p, p.nodes[in.node].sort_keys);
    case Part::kValue:
      break;
  }
  const PlanNode& n = p.nodes[in.node];
  switch (n.kind) {
    case NodeKind::kScan:
      if (n.scan_col != nullptr) return n.scan_col->type();
      if (n.scan_enc != nullptr) return n.scan_enc->type;
      return std::nullopt;
    case NodeKind::kGather:
      return InferType(p, n.gather_src);
    case NodeKind::kMap:
    case NodeKind::kFusedMap:
      return storage::DataType::kFloat64;
    case NodeKind::kUnique:
    case NodeKind::kSort:
      return InferType(p, n.unary_in);
    default:
      return std::nullopt;
  }
}

uint64_t ElemBytes(const Plan& p, NodeInput in) {
  auto t = InferType(p, in);
  return t ? storage::DataTypeSize(*t) : 8;
}

bool IsEncodedScan(const Plan& p, NodeInput in) {
  return in.node >= 0 && in.part == Part::kValue &&
         p.nodes[in.node].kind == NodeKind::kScan &&
         p.nodes[in.node].scan_enc != nullptr;
}

/// Bytes one sequential scan of the edge reads per row — the encoded payload
/// width for compressed base columns, the element size otherwise.
uint64_t ScanElemBytes(const Plan& p, NodeInput in) {
  if (IsEncodedScan(p, in)) {
    const storage::EncodedDeviceColumn* e = p.nodes[in.node].scan_enc;
    if (e->size == 0) return 1;
    return std::max<uint64_t>(1, e->encoded_byte_size() / e->size);
  }
  return ElemBytes(p, in);
}

/// Collects the single guard governing a set of nodes; nullopt when two
/// distinct guards would have to be merged (the rewrite then bails).
std::optional<int> MergedGuard(const Plan& p, const std::vector<int>& ids) {
  int guard = -1;
  for (int id : ids) {
    int g = p.nodes[id].guard;
    if (g < 0) continue;
    if (guard >= 0 && guard != g) return std::nullopt;
    guard = g;
  }
  return guard;
}

std::string PredListLabel(const std::vector<core::Predicate>& preds) {
  std::string s = "Filter(";
  for (size_t i = 0; i < preds.size(); ++i) {
    if (i) s += " & ";
    s += preds[i].column;
  }
  return s + ")";
}

// -- Pass 1: filter-chain merging -------------------------------------------

void MergeFilterChains(Plan& p) {
  for (int i = 0; i < static_cast<int>(p.nodes.size()); ++i) {
    PlanNode& node = p.nodes[i];
    if (node.dead || node.kind != NodeKind::kFilter || node.filter_source < 0)
      continue;
    const int src = node.filter_source;
    PlanNode& head = p.nodes[src];
    if (head.kind != NodeKind::kFilter || head.dead) continue;
    if (!head.conjunctive || !node.conjunctive) continue;
    // The chain head's row ids must feed only this refinement — merging
    // would otherwise change what other consumers see.
    if (!UsedOnlyBy(p, src, {i})) continue;
    head.pred_cols.insert(head.pred_cols.end(), node.pred_cols.begin(),
                          node.pred_cols.end());
    head.preds.insert(head.preds.end(), node.preds.begin(), node.preds.end());
    head.label = PredListLabel(head.preds);
    node.dead = true;
    node.filter_source = -1;
    // Redirect every reference to the absorbed refinement at its head right
    // away, so longer chains keep collapsing into the same node.
    for (PlanNode& other : p.nodes) {
      if (other.dead) continue;
      RemapNode(
          other, [&](NodeInput& in) { if (in.node == i) in.node = src; },
          [&](int& id) { if (id == i) id = src; });
    }
  }
}

// -- Pass 2: fusion rewrites (hybrid only) ----------------------------------

/// Fusion requires *raw* base-table scans: the fused kernels read typed
/// device pointers directly, so encoded scans stay on the encoded operator
/// path instead.
bool IsScanValue(const Plan& p, NodeInput in) {
  return in.node >= 0 && in.part == Part::kValue &&
         p.nodes[in.node].kind == NodeKind::kScan &&
         p.nodes[in.node].scan_enc == nullptr;
}

/// Reduce(sum, Product(Gather(scan, F), Gather(scan, F))) over a merged
/// conjunctive filter on base-table columns -> one handwritten fused
/// filter+multiply+sum pass (Q6's whole body).
bool TryFuseFilterProductSum(Plan& p, int i) {
  PlanNode& r = p.nodes[i];
  if (r.unary_in.part != Part::kValue || r.unary_in.node < 0) return false;
  const int vi = r.unary_in.node;
  const PlanNode& v = p.nodes[vi];
  if (v.kind != NodeKind::kMap || v.map_op != MapOp::kMul) return false;
  if (v.map_a.part != Part::kValue || v.map_b.part != Part::kValue)
    return false;
  const int gai = v.map_a.node, gbi = v.map_b.node;
  if (gai < 0 || gbi < 0 || gai == gbi) return false;
  const PlanNode& ga = p.nodes[gai];
  const PlanNode& gb = p.nodes[gbi];
  if (ga.kind != NodeKind::kGather || gb.kind != NodeKind::kGather)
    return false;
  if (ga.gather_indices.part != Part::kRowIds ||
      gb.gather_indices.part != Part::kRowIds ||
      ga.gather_indices.node != gb.gather_indices.node)
    return false;
  const int fi = ga.gather_indices.node;
  const PlanNode& f = p.nodes[fi];
  if (f.kind != NodeKind::kFilter || !f.conjunctive || f.filter_source >= 0)
    return false;
  for (const NodeInput& pc : f.pred_cols)
    if (!IsScanValue(p, pc)) return false;
  if (!IsScanValue(p, ga.gather_src) || !IsScanValue(p, gb.gather_src))
    return false;
  if (InferType(p, ga.gather_src) != storage::DataType::kFloat64 ||
      InferType(p, gb.gather_src) != storage::DataType::kFloat64)
    return false;
  // Every intermediate must be private to the chain.
  if (!UsedOnlyBy(p, fi, {gai, gbi}) || !UsedOnlyBy(p, gai, {vi}) ||
      !UsedOnlyBy(p, gbi, {vi}) || !UsedOnlyBy(p, vi, {i}))
    return false;
  auto guard = MergedGuard(p, {fi, gai, gbi, vi, i});
  if (!guard) return false;

  r.kind = NodeKind::kFusedFilterSum;
  r.pred_cols = f.pred_cols;
  r.preds = f.preds;
  r.conjunctive = true;
  r.fused_value_a = ga.gather_src;
  r.fused_value_b = gb.gather_src;
  r.fused_has_b = true;
  r.guard = *guard;
  r.label = "FusedFilterSum(" + p.nodes[ga.gather_src.node].column + "*" +
            p.nodes[gb.gather_src.node].column + ")";
  p.nodes[fi].dead = p.nodes[gai].dead = p.nodes[gbi].dead = p.nodes[vi].dead =
      true;
  return true;
}

/// Reduce(sum, Gather(x, F.row_ids)) -> fused filter+sum with identity
/// value (the Q14 promo-revenue tail shape). The filter domain and `x` must
/// be co-indexed; the executor checks their lengths agree.
bool TryFuseFilterSum(Plan& p, int i) {
  PlanNode& r = p.nodes[i];
  if (r.unary_in.part != Part::kValue || r.unary_in.node < 0) return false;
  const int vi = r.unary_in.node;
  const PlanNode& v = p.nodes[vi];
  if (v.kind != NodeKind::kGather || v.gather_indices.part != Part::kRowIds)
    return false;
  const int fi = v.gather_indices.node;
  if (fi < 0) return false;
  const PlanNode& f = p.nodes[fi];
  if (f.kind != NodeKind::kFilter || f.filter_source >= 0) return false;
  for (const NodeInput& pc : f.pred_cols)
    if (IsEncodedScan(p, pc)) return false;
  if (IsEncodedScan(p, v.gather_src)) return false;
  if (InferType(p, v.gather_src) != storage::DataType::kFloat64) return false;
  if (!UsedOnlyBy(p, fi, {vi}) || !UsedOnlyBy(p, vi, {i})) return false;
  auto guard = MergedGuard(p, {fi, vi, i});
  if (!guard) return false;

  r.kind = NodeKind::kFusedFilterSum;
  r.pred_cols = f.pred_cols;
  r.preds = f.preds;
  r.conjunctive = f.conjunctive;
  r.fused_value_a = v.gather_src;
  r.fused_has_b = false;
  r.guard = *guard;
  r.label = "FusedFilterSum(" + r.preds[0].column + ")";
  p.nodes[fi].dead = p.nodes[vi].dead = true;
  return true;
}

/// Product(a, Map(+-scalar, b)) with a private inner map -> one kernel
/// computing a*(alpha-b) or a*(b+alpha).
bool TryFuseMapChain(Plan& p, int i) {
  PlanNode& m2 = p.nodes[i];
  if (m2.map_op != MapOp::kMul || m2.map_b.part != Part::kValue ||
      m2.map_b.node < 0)
    return false;
  const int mi = m2.map_b.node;
  const PlanNode& inner = p.nodes[mi];
  if (inner.kind != NodeKind::kMap || inner.map_op == MapOp::kMul)
    return false;
  if (IsEncodedScan(p, m2.map_a) || IsEncodedScan(p, inner.map_a))
    return false;
  if (InferType(p, m2.map_a) != storage::DataType::kFloat64 ||
      InferType(p, inner.map_a) != storage::DataType::kFloat64)
    return false;
  if (!UsedOnlyBy(p, mi, {i})) return false;
  auto guard = MergedGuard(p, {mi, i});
  if (!guard) return false;

  m2.kind = NodeKind::kFusedMap;
  m2.fused_inner = inner.map_op;
  m2.alpha = inner.alpha;
  m2.map_b = inner.map_a;
  m2.guard = *guard;
  m2.label = "FusedMap(" + m2.label + "<-" + inner.label + ")";
  p.nodes[mi].dead = true;
  return true;
}

void ApplyFusion(Plan& p) {
  for (int i = 0; i < static_cast<int>(p.nodes.size()); ++i) {
    const PlanNode& n = p.nodes[i];
    if (n.dead) continue;
    if (n.kind == NodeKind::kReduce && n.agg == core::AggOp::kSum) {
      if (!TryFuseFilterProductSum(p, i)) TryFuseFilterSum(p, i);
    }
  }
  for (int i = 0; i < static_cast<int>(p.nodes.size()); ++i) {
    if (!p.nodes[i].dead && p.nodes[i].kind == NodeKind::kMap)
      TryFuseMapChain(p, i);
  }
}

// -- Pass 3: cardinality estimation -----------------------------------------

double PredSelectivity(const core::Predicate& pred) {
  switch (pred.op) {
    case core::CompareOp::kEq: return 0.1;
    case core::CompareOp::kNe: return 0.9;
    default: return 1.0 / 3.0;
  }
}

std::vector<size_t> EstimateRows(const Plan& p) {
  std::vector<size_t> rows(p.nodes.size(), 0);
  auto in_rows = [&](NodeInput in) {
    return in.node >= 0 ? rows[in.node] : size_t{0};
  };
  for (size_t i = 0; i < p.nodes.size(); ++i) {
    const PlanNode& n = p.nodes[i];
    if (n.dead) continue;
    switch (n.kind) {
      case NodeKind::kScan:
        rows[i] = n.scan_col   ? n.scan_col->size()
                  : n.scan_enc ? n.scan_enc->size
                               : 0;
        break;
      case NodeKind::kFilter: {
        const size_t domain = in_rows(n.pred_cols.empty() ? NodeInput{}
                                                          : n.pred_cols[0]);
        double sel = n.conjunctive ? 1.0 : 1.0;
        if (n.conjunctive) {
          for (const auto& pr : n.preds) sel *= PredSelectivity(pr);
        } else {
          double none = 1.0;
          for (const auto& pr : n.preds) none *= 1.0 - PredSelectivity(pr);
          sel = 1.0 - none;
        }
        rows[i] = std::max<size_t>(1, static_cast<size_t>(domain * sel));
        break;
      }
      case NodeKind::kFilterCompare:
        rows[i] = std::max<size_t>(1, in_rows(n.cmp_lhs) / 2);
        break;
      case NodeKind::kGather:
        rows[i] = in_rows(n.gather_indices);
        break;
      case NodeKind::kMap:
      case NodeKind::kFusedMap:
        rows[i] = in_rows(n.map_a);
        break;
      case NodeKind::kJoin:
        rows[i] = std::max<size_t>(1, in_rows(n.join_probe) / 2);
        break;
      case NodeKind::kUnique:
        rows[i] = std::max<size_t>(1, in_rows(n.unary_in) / 2);
        break;
      case NodeKind::kGroupBy:
        rows[i] = std::min<size_t>(
            std::max<size_t>(1, in_rows(GroupedRows(n))), 128);
        break;
      case NodeKind::kReduce:
      case NodeKind::kFusedFilterSum:
        rows[i] = 1;
        break;
      case NodeKind::kSort:
        rows[i] = in_rows(n.unary_in);
        break;
      case NodeKind::kSortByKey:
        rows[i] = in_rows(n.sort_keys);
        break;
      case NodeKind::kFetchGroups:
      case NodeKind::kFetchPair:
        rows[i] = in_rows(n.fetch_from);
        break;
    }
  }
  return rows;
}

// -- Pass 4: dispatch --------------------------------------------------------

class Dispatcher {
 public:
  Dispatcher(PhysicalPlan& phys, const CostEstimator& est,
             const OptimizerOptions& opts)
      : phys_(phys), est_(est), opts_(opts) {}

  void Run() {
    Plan& p = phys_.plan;
    const size_t n = p.nodes.size();
    phys_.node_backend.assign(n, "");
    phys_.est_ns.assign(n, 0);
    phys_.est_boundary_ns.assign(n, 0);

    for (size_t i = 0; i < n; ++i) {
      PlanNode& node = p.nodes[i];
      if (node.dead || node.kind == NodeKind::kScan) continue;

      if (node.kind == NodeKind::kFetchGroups ||
          node.kind == NodeKind::kFetchPair) {
        // Downloads run on the stream that produced the device result.
        const std::string& b = phys_.node_backend[node.fetch_from.node];
        phys_.node_backend[i] = b;
        phys_.est_ns[i] =
            node.kind == NodeKind::kFetchGroups
                ? est_.FetchGroups(b, Rows(node.fetch_from.node), 8)
                : est_.FetchPair(b, Rows(node.fetch_from.node));
        continue;
      }

      std::vector<std::string> cands;
      const bool fused = node.kind == NodeKind::kFusedMap ||
                         node.kind == NodeKind::kFusedFilterSum;
      if (!opts_.pin_backend.empty()) {
        cands = {opts_.pin_backend};
      } else {
        // Fused nodes carry the handwritten kernels. They execute raw on
        // the assigned backend's stream, so the executor's re-route can
        // still move them to any candidate.
        cands = fused ? std::vector<std::string>{"Handwritten"}
                      : opts_.candidates;
      }

      std::string best;
      uint64_t best_cost = 0, best_boundary = 0;
      JoinAlgo best_algo = node.join_algo;
      for (const std::string& c : cands) {
        JoinAlgo algo = node.join_algo;
        if (node.kind == NodeKind::kJoin && algo == JoinAlgo::kAuto) {
          algo = HashCapable(c) ? JoinAlgo::kHash : JoinAlgo::kNestedLoops;
        }
        const uint64_t op = OpEstimate(i, node, c, algo);
        const uint64_t boundary = BoundaryEstimate(node, c);
        if (best.empty() || op + boundary < best_cost) {
          best = c;
          best_cost = op + boundary;
          best_boundary = boundary;
          best_algo = algo;
        }
      }
      phys_.node_backend[i] = best;
      phys_.est_ns[i] = best_cost;
      phys_.est_boundary_ns[i] = best_boundary;
      if (node.kind == NodeKind::kJoin) node.join_algo = best_algo;
    }
  }

 private:
  size_t Rows(int id) const { return id >= 0 ? phys_.est_rows[id] : 0; }

  static bool HashCapable(const std::string& name) {
    const auto& reg = core::BackendRegistry::Instance();
    if (!reg.Contains(name)) {
      throw std::invalid_argument("plan::Optimize: unknown backend '" + name +
                                  "'");
    }
    return reg.Realization(name, core::DbOperator::kHashJoin).level !=
           core::SupportLevel::kNone;
  }

  uint64_t OpEstimate(size_t i, const PlanNode& n, const std::string& c,
                      JoinAlgo algo) const {
    return OpBase(i, n, c, algo) + DecodeExtra(n, c);
  }

  /// Full-decode cost for encoded base columns this node consumes through an
  /// operator with no encoded-domain realization (the executor's ColDecoded
  /// path). Selection and gather stay in code space and are priced by their
  /// own encoded-aware estimates; group-by keys stay encoded only on the
  /// handwritten backend (GroupByAggregateEncoded): the library default
  /// gather-decodes the selected keys on every call.
  uint64_t DecodeExtra(const PlanNode& n, const std::string& c) const {
    const Plan& p = phys_.plan;
    uint64_t extra = 0;
    auto add = [&](NodeInput in) {
      if (!IsEncodedScan(p, in)) return;
      const storage::EncodedDeviceColumn* e = p.nodes[in.node].scan_enc;
      extra += est_.DecodeColumn(
          c, e->size, e->encoded_byte_size(),
          e->size * storage::DataTypeSize(e->type));
    };
    switch (n.kind) {
      case NodeKind::kMap:
        add(n.map_a);
        if (n.map_op == MapOp::kMul) add(n.map_b);
        break;
      case NodeKind::kFilterCompare:
        add(n.cmp_lhs);
        add(n.cmp_rhs);
        break;
      case NodeKind::kJoin:
        add(n.join_build);
        add(n.join_probe);
        break;
      case NodeKind::kUnique:
      case NodeKind::kReduce:
      case NodeKind::kSort:
        add(n.unary_in);
        break;
      case NodeKind::kSortByKey:
        add(n.sort_keys);
        add(n.sort_values);
        break;
      case NodeKind::kGroupBy:
        if (n.group_rows.node < 0) {
          add(n.group_keys);
        } else if (c != "Handwritten") {
          extra += est_.GatherDecode(c, Rows(n.group_rows.node),
                                     ScanElemBytes(p, n.group_keys),
                                     ElemBytes(p, n.group_keys));
        }
        add(n.group_values);
        break;
      default:
        break;
    }
    return extra;
  }

  uint64_t OpBase(size_t i, const PlanNode& n, const std::string& c,
                  JoinAlgo algo) const {
    const Plan& p = phys_.plan;
    switch (n.kind) {
      case NodeKind::kFilter: {
        uint64_t bpr = 0;
        for (const NodeInput& pc : n.pred_cols) bpr += ScanElemBytes(p, pc);
        return est_.Select(c, Rows(n.pred_cols[0].node), phys_.est_rows[i],
                           bpr, n.preds.size());
      }
      case NodeKind::kFilterCompare:
        return est_.SelectCompare(c, Rows(n.cmp_lhs.node), phys_.est_rows[i],
                                  ScanElemBytes(p, n.cmp_lhs));
      case NodeKind::kGather:
        if (IsEncodedScan(p, n.gather_src)) {
          return est_.GatherDecode(c, phys_.est_rows[i],
                                   ScanElemBytes(p, n.gather_src),
                                   ElemBytes(p, n.gather_src));
        }
        return est_.Gather(c, phys_.est_rows[i], ElemBytes(p, n.gather_src));
      case NodeKind::kMap:
        return est_.Map(c, phys_.est_rows[i], 8,
                        n.map_op == MapOp::kMul ? 2 : 1);
      case NodeKind::kJoin:
        return est_.Join(c, algo, Rows(n.join_build.node),
                         Rows(n.join_probe.node), phys_.est_rows[i]);
      case NodeKind::kUnique:
        return est_.Unique(c, Rows(n.unary_in.node), phys_.est_rows[i],
                           ElemBytes(p, n.unary_in));
      case NodeKind::kGroupBy:
        return est_.GroupBy(c, Rows(GroupedRows(n).node), phys_.est_rows[i],
                            ElemBytes(p, n.group_values));
      case NodeKind::kReduce:
        return est_.Reduce(c, Rows(n.unary_in.node), ElemBytes(p, n.unary_in));
      case NodeKind::kSort:
        return est_.Sort(c, Rows(n.unary_in.node), ElemBytes(p, n.unary_in));
      case NodeKind::kSortByKey:
        return est_.SortByKey(c, Rows(n.sort_keys.node),
                              ElemBytes(p, n.sort_keys),
                              ElemBytes(p, n.sort_values));
      case NodeKind::kFusedMap:
        return est_.FusedMap(phys_.est_rows[i]);
      case NodeKind::kFusedFilterSum: {
        uint64_t bpr = 0;
        for (const NodeInput& pc : n.pred_cols) bpr += ElemBytes(p, pc);
        bpr += ElemBytes(p, n.fused_value_a);
        if (n.fused_has_b) bpr += ElemBytes(p, n.fused_value_b);
        return est_.FusedFilterSum(Rows(n.pred_cols[0].node), bpr);
      }
      default:
        return 0;
    }
  }

  uint64_t BoundaryEstimate(const PlanNode& n, const std::string& c) const {
    uint64_t total = 0;
    for (const NodeInput& in : NodeInputs(n)) {
      if (in.node < 0) continue;
      const PlanNode& producer = phys_.plan.nodes[in.node];
      if (producer.kind == NodeKind::kScan) continue;  // shared base column
      const std::string& pb = phys_.node_backend[in.node];
      if (pb.empty() || pb == c) continue;
      total += est_.BoundaryTransfer(
          c, Rows(in.node) * ElemBytes(phys_.plan, in));
    }
    return total;
  }

  PhysicalPlan& phys_;
  const CostEstimator& est_;
  const OptimizerOptions& opts_;
};

}  // namespace

PhysicalPlan Optimize(const Plan& logical, const OptimizerOptions& options,
                      const CostEstimator& estimator) {
  PhysicalPlan phys;
  phys.plan = logical;
  phys.hybrid = options.pin_backend.empty();

  // Validate every backend name up front (capability probes are lazy and
  // would otherwise only reject unknown names on plans containing joins).
  auto& registry = core::BackendRegistry::Instance();
  const std::vector<std::string> named =
      phys.hybrid ? options.candidates
                  : std::vector<std::string>{options.pin_backend};
  for (const std::string& name : named) {
    if (!registry.Contains(name)) {
      throw std::invalid_argument("plan::Optimize: unknown backend '" + name +
                                  "'");
    }
  }

  if (phys.hybrid) phys.candidates = options.candidates;
  MergeFilterChains(phys.plan);
  if (phys.hybrid) ApplyFusion(phys.plan);
  phys.est_rows = EstimateRows(phys.plan);
  Dispatcher(phys, estimator, options).Run();
  return phys;
}

}  // namespace plan
