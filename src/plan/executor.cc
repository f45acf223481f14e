#include "plan/executor.h"

#include <exception>
#include <map>
#include <set>
#include <stdexcept>
#include <string>

#include "core/error.h"
#include "core/registry.h"
#include "gpusim/algorithms.h"
#include "gpusim/kernel.h"
#include "handwritten/handwritten.h"

namespace plan {
namespace {

using storage::DataType;
using storage::DeviceColumn;

class Executor {
 public:
  /// `pinned`: run everything there. Null: hybrid mode, backends come from
  /// the registry per the plan's dispatch.
  Executor(const PhysicalPlan& phys, core::Backend* pinned)
      : phys_(phys), pinned_(pinned), assigned_(phys.node_backend) {
    result_.values.resize(phys.plan.nodes.size());
  }

  ExecutionResult Run() {
    const Plan& p = phys_.plan;
    for (size_t i = 0; i < p.nodes.size(); ++i) {
      const PlanNode& node = p.nodes[i];
      if (node.dead) continue;
      NodeValue& value = result_.values[i];
      if (node.kind == NodeKind::kScan) {
        value.computed = true;
        value.out_rows = node.scan_col   ? node.scan_col->size()
                         : node.scan_enc ? node.scan_enc->size
                                         : 0;
        continue;
      }
      if (ShouldSkip(node)) {
        value.skipped = true;
        continue;
      }
      RunNode(i, node, value);
      result_.total_ns += value.measured_ns;
    }
    return std::move(result_);
  }

 private:
  // -- Input resolution -----------------------------------------------------

  const NodeValue& ValueOf(int id) const { return result_.values[id]; }

  const DeviceColumn& Col(NodeInput in) const {
    const PlanNode& n = phys_.plan.nodes[in.node];
    const NodeValue& v = ValueOf(in.node);
    switch (in.part) {
      case Part::kValue:
        return n.kind == NodeKind::kScan ? *n.scan_col : v.column;
      case Part::kRowIds: return v.sel.row_ids;
      case Part::kLeftRows: return v.join.left_rows;
      case Part::kRightRows: return v.join.right_rows;
      case Part::kGroupKeys: return v.groups.keys;
      case Part::kGroupAggregate: return v.groups.aggregate;
      case Part::kPairFirst: return v.pair.first;
      case Part::kPairSecond: return v.pair.second;
    }
    throw std::logic_error("plan: bad NodeInput part");
  }

  /// The encoded column behind `in`, or null when the input is not an
  /// encoded base-table scan.
  const storage::EncodedDeviceColumn* EncOf(NodeInput in) const {
    if (in.node < 0 || in.part != Part::kValue) return nullptr;
    const PlanNode& n = phys_.plan.nodes[in.node];
    return n.kind == NodeKind::kScan ? n.scan_enc : nullptr;
  }

  /// Like Col, but materializes encoded scans: consumers with no
  /// encoded-domain realization (join build sides, disjunctive filters, map
  /// inputs) get the column decoded in full — once, cached in the scan
  /// node's value so later consumers reuse it.
  const DeviceColumn& ColDecoded(NodeInput in, core::Backend& backend) {
    const storage::EncodedDeviceColumn* enc = EncOf(in);
    if (enc == nullptr) return Col(in);
    NodeValue& v = result_.values[in.node];
    if (!v.decoded) {
      v.column = backend.DecodeColumn(*enc);
      v.decoded = true;
    }
    return v.column;
  }

  // -- Guard / skip handling ------------------------------------------------

  bool ShouldSkip(const PlanNode& node) const {
    for (const NodeInput& in : NodeInputs(node)) {
      if (in.node >= 0 && ValueOf(in.node).skipped) return true;
    }
    if (node.guard < 0) return false;
    const NodeValue& g = ValueOf(node.guard);
    if (g.skipped) return true;
    switch (phys_.plan.nodes[node.guard].kind) {
      case NodeKind::kGroupBy:
        return g.groups.num_groups == 0;
      case NodeKind::kReduce:
      case NodeKind::kFusedFilterSum:
        return g.scalar == 0.0;
      default:
        return !g.computed;
    }
  }

  // -- Backend resolution & boundary pricing --------------------------------

  core::Backend& BackendByName(const std::string& name) {
    auto it = backends_.find(name);
    if (it == backends_.end()) {
      it = backends_
               .emplace(name, core::BackendRegistry::Instance().Create(name))
               .first;
    }
    return *it->second;
  }

  core::Backend& BackendFor(size_t i) {
    if (pinned_ != nullptr) return *pinned_;
    const std::string& name = assigned_[i];
    if (name.empty()) {
      throw std::logic_error("plan: node " + std::to_string(i) +
                             " has no backend assignment");
    }
    return BackendByName(name);
  }

  /// In hybrid mode, charges a device-to-device copy on `backend`'s stream
  /// for every input materialized by a differently-assigned backend.
  /// Consults the *effective* assignment, so a node that fell back to
  /// another backend prices boundaries against where its inputs really live.
  uint64_t ChargeBoundaries(size_t i, const PlanNode& node,
                            core::Backend& backend) {
    if (pinned_ != nullptr) return 0;
    gpusim::Stream& stream = backend.stream();
    const uint64_t t0 = stream.now_ns();
    for (const NodeInput& in : NodeInputs(node)) {
      if (in.node < 0) continue;
      if (phys_.plan.nodes[in.node].kind == NodeKind::kScan) continue;
      const std::string& producer = assigned_[in.node];
      if (producer.empty() || producer == assigned_[i]) continue;
      stream.ChargeTransfer(gpusim::Stream::TransferKind::kDeviceToDevice,
                            Col(in).byte_size());
    }
    return stream.now_ns() - t0;
  }

  // -- Node execution with hybrid fallback ---------------------------------

  /// A fallback candidate must actually be able to run the node: a join
  /// already resolved to the hash algorithm needs hash-join support (kAuto
  /// re-resolves per backend, and fused nodes run raw on any stream).
  bool CanRun(const std::string& name, const PlanNode& node) {
    if (node.kind == NodeKind::kJoin && node.join_algo == JoinAlgo::kHash) {
      return BackendByName(name)
                 .Realization(core::DbOperator::kHashJoin)
                 .level != core::SupportLevel::kNone;
    }
    return true;
  }

  /// Executes one node. In hybrid mode a fatal failure falls the node back
  /// to the next capable dispatch candidate of this run, counted in
  /// value.reroutes. Every other failure, and any failure of a pinned run,
  /// propagates to the owner of its fault class (DESIGN.md §7). Simulated
  /// time of a failed attempt stays charged (the device really spent it),
  /// accumulated into measured_ns.
  void RunNode(size_t i, const PlanNode& node, NodeValue& value) {
    std::vector<std::string> fallbacks;
    size_t next_fallback = 0;
    bool enumerated = false;
    for (;;) {
      core::Backend& backend = BackendFor(i);
      gpusim::Stream& stream = backend.stream();
      const uint64_t t0 = stream.now_ns();
      try {
        value.boundary_ns += ChargeBoundaries(i, node, backend);
        Execute(i, node, backend, value);
        value.computed = true;
        value.measured_ns += stream.now_ns() - t0;
        return;
      } catch (...) {
        value.measured_ns += stream.now_ns() - t0;
        if (pinned_ != nullptr ||
            core::Classify(std::current_exception()) !=
                core::ErrorClass::kFatal) {
          throw;
        }
        if (!enumerated) {
          enumerated = true;
          for (const std::string& c : phys_.candidates) {
            if (c != assigned_[i] && CanRun(c, node)) fallbacks.push_back(c);
          }
        }
        if (next_fallback >= fallbacks.size()) throw;
        assigned_[i] = fallbacks[next_fallback++];
        ++value.reroutes;
      }
    }
  }

  // -- Node execution -------------------------------------------------------

  void Execute(size_t i, const PlanNode& node, core::Backend& backend,
               NodeValue& value) {
    switch (node.kind) {
      case NodeKind::kScan:
        break;
      case NodeKind::kFilter: {
        if (node.filter_source >= 0) {
          throw std::logic_error(
              "plan: unmerged filter chain at node " + std::to_string(i) +
              " — run Optimize() before executing");
        }
        bool any_enc = false;
        for (const NodeInput& pc : node.pred_cols) {
          if (EncOf(pc) != nullptr) any_enc = true;
        }
        if (any_enc && node.conjunctive) {
          // Encoded-domain selection: predicates fold into code-space
          // comparisons, nothing decodes.
          std::vector<core::ScanColumnRef> cols;
          cols.reserve(node.pred_cols.size());
          for (const NodeInput& pc : node.pred_cols) {
            const storage::EncodedDeviceColumn* e = EncOf(pc);
            cols.push_back(e != nullptr ? core::ScanColumnRef::Encoded(*e)
                                        : core::ScanColumnRef::Raw(Col(pc)));
          }
          value.sel = backend.SelectConjunctiveEncoded(cols, node.preds);
        } else if (node.preds.size() == 1 && node.conjunctive) {
          value.sel = backend.Select(ColDecoded(node.pred_cols[0], backend),
                                     node.preds[0]);
        } else {
          std::vector<const DeviceColumn*> cols;
          cols.reserve(node.pred_cols.size());
          for (const NodeInput& pc : node.pred_cols) {
            cols.push_back(&ColDecoded(pc, backend));
          }
          value.sel = node.conjunctive
                          ? backend.SelectConjunctive(cols, node.preds)
                          : backend.SelectDisjunctive(cols, node.preds);
        }
        value.out_rows = value.sel.count;
        break;
      }
      case NodeKind::kFilterCompare: {
        const storage::EncodedDeviceColumn* el = EncOf(node.cmp_lhs);
        const storage::EncodedDeviceColumn* er = EncOf(node.cmp_rhs);
        if (el != nullptr || er != nullptr) {
          const core::ScanColumnRef lhs =
              el != nullptr ? core::ScanColumnRef::Encoded(*el)
                            : core::ScanColumnRef::Raw(Col(node.cmp_lhs));
          const core::ScanColumnRef rhs =
              er != nullptr ? core::ScanColumnRef::Encoded(*er)
                            : core::ScanColumnRef::Raw(Col(node.cmp_rhs));
          value.sel = backend.SelectCompareColumnsEncoded(lhs, node.cmp_op,
                                                          rhs);
        } else {
          value.sel = backend.SelectCompareColumns(Col(node.cmp_lhs),
                                                   node.cmp_op,
                                                   Col(node.cmp_rhs));
        }
        value.out_rows = value.sel.count;
        break;
      }
      case NodeKind::kGather: {
        const storage::EncodedDeviceColumn* e = EncOf(node.gather_src);
        value.column =
            e != nullptr
                ? backend.GatherDecode(*e, Col(node.gather_indices))
                : backend.Gather(ColDecoded(node.gather_src, backend),
                                 Col(node.gather_indices));
        value.out_rows = value.column.size();
        break;
      }
      case NodeKind::kMap:
        switch (node.map_op) {
          case MapOp::kMul:
            value.column = backend.Product(ColDecoded(node.map_a, backend),
                                           ColDecoded(node.map_b, backend));
            break;
          case MapOp::kAddScalar:
            value.column =
                backend.AddScalar(ColDecoded(node.map_a, backend), node.alpha);
            break;
          case MapOp::kSubFromScalar:
            value.column = backend.SubtractFromScalar(
                node.alpha, ColDecoded(node.map_a, backend));
            break;
        }
        value.out_rows = value.column.size();
        break;
      case NodeKind::kJoin: {
        const DeviceColumn& build = ColDecoded(node.join_build, backend);
        const DeviceColumn& probe = ColDecoded(node.join_probe, backend);
        JoinAlgo algo = node.join_algo;
        if (algo == JoinAlgo::kAuto) {
          algo = backend.Realization(core::DbOperator::kHashJoin).level !=
                         core::SupportLevel::kNone
                     ? JoinAlgo::kHash
                     : JoinAlgo::kNestedLoops;
        }
        value.join = algo == JoinAlgo::kHash
                         ? backend.HashJoin(build, probe)
                         : backend.NestedLoopsJoin(build, probe);
        value.out_rows = value.join.count;
        break;
      }
      case NodeKind::kUnique:
        value.column = backend.Unique(ColDecoded(node.unary_in, backend));
        value.out_rows = value.column.size();
        break;
      case NodeKind::kGroupBy:
        if (node.group_rows.node >= 0) {
          const storage::EncodedDeviceColumn* keys = EncOf(node.group_keys);
          if (keys == nullptr) {
            throw std::logic_error("plan: group-by over a row selection at "
                                   "node " + std::to_string(i) +
                                   " needs encoded scan keys");
          }
          value.groups = backend.GroupByAggregateEncoded(
              *keys, ValueOf(node.group_rows.node).sel,
              ColDecoded(node.group_values, backend), node.agg);
        } else {
          value.groups = backend.GroupByAggregate(
              ColDecoded(node.group_keys, backend),
              ColDecoded(node.group_values, backend), node.agg);
        }
        value.out_rows = value.groups.num_groups;
        break;
      case NodeKind::kReduce: {
        const storage::EncodedDeviceColumn* e = EncOf(node.unary_in);
        value.scalar =
            e != nullptr
                ? backend.ReduceEncoded(*e, node.agg)
                : backend.ReduceColumn(ColDecoded(node.unary_in, backend),
                                       node.agg);
        value.out_rows = 1;
        break;
      }
      case NodeKind::kSort:
        value.column = backend.Sort(ColDecoded(node.unary_in, backend));
        value.out_rows = value.column.size();
        break;
      case NodeKind::kSortByKey:
        value.pair = backend.SortByKey(ColDecoded(node.sort_keys, backend),
                                       ColDecoded(node.sort_values, backend));
        value.out_rows = value.pair.first.size();
        break;
      case NodeKind::kFetchGroups: {
        // Same download order as a chain of library calls: keys, then
        // aggregate.
        const core::GroupByResult& g = ValueOf(node.fetch_from.node).groups;
        gpusim::Stream& stream = backend.stream();
        const storage::Column keys = g.keys.ToHost(stream);
        const storage::Column agg = g.aggregate.ToHost(stream);
        value.host_keys = keys.values<int32_t>();
        if (g.aggregate.type() == DataType::kInt64) {
          value.host_vals_i = agg.values<int64_t>();
        } else {
          value.host_vals_f = agg.values<double>();
        }
        value.out_rows = g.num_groups;
        break;
      }
      case NodeKind::kFetchPair: {
        const auto& pr = ValueOf(node.fetch_from.node).pair;
        gpusim::Stream& stream = backend.stream();
        value.host_first = pr.first.ToHost(stream).values<double>();
        value.host_second = pr.second.ToHost(stream).values<int32_t>();
        value.out_rows = value.host_first.size();
        break;
      }
      case NodeKind::kFusedMap:
        ExecuteFusedMap(node, backend.stream(), value);
        break;
      case NodeKind::kFusedFilterSum:
        ExecuteFusedFilterSum(node, backend.stream(), value);
        break;
    }
  }

  void ExecuteFusedMap(const PlanNode& node, gpusim::Stream& stream,
                       NodeValue& value) {
    const DeviceColumn& a = Col(node.map_a);
    const DeviceColumn& b = Col(node.map_b);
    const size_t n = a.size();
    if (b.size() != n) {
      throw std::logic_error("plan: fused-map input lengths differ");
    }
    DeviceColumn out(DataType::kFloat64, n, stream.device());
    const double* pa = a.data<double>();
    const double* pb = b.data<double>();
    double* po = out.data<double>();
    const double alpha = node.alpha;
    const bool sub = node.fused_inner == MapOp::kSubFromScalar;
    gpusim::KernelStats stats;
    stats.name = "plan::fused_map";
    stats.bytes_read = 2 * n * sizeof(double);
    stats.bytes_written = n * sizeof(double);
    stats.ops = 2 * n;
    gpusim::ParallelFor(stream, n, stats, [=](size_t i) {
      po[i] = pa[i] * (sub ? (alpha - pb[i]) : (pb[i] + alpha));
    });
    value.column = std::move(out);
    value.out_rows = n;
  }

  void ExecuteFusedFilterSum(const PlanNode& node, gpusim::Stream& stream,
                             NodeValue& value) {
    const size_t n = Col(node.pred_cols[0]).size();
    std::vector<core::ScanMatcher> evals;
    std::set<const void*> buffers;
    uint64_t bytes_per_row = 0;
    auto account = [&](const DeviceColumn& c) {
      if (buffers.insert(c.raw_data()).second) {
        bytes_per_row += storage::DataTypeSize(c.type());
      }
    };
    for (size_t k = 0; k < node.pred_cols.size(); ++k) {
      const DeviceColumn& c = Col(node.pred_cols[k]);
      if (c.size() != n) {
        throw std::logic_error("plan: fused filter-sum domains differ");
      }
      account(c);
      evals.push_back(
          core::MakeScanMatcher(core::ScanColumnRef::Raw(c), node.preds[k]));
    }
    const DeviceColumn& va = Col(node.fused_value_a);
    if (va.size() != n) {
      throw std::logic_error("plan: fused filter-sum value length differs");
    }
    account(va);
    const double* pa = va.data<double>();
    const double* pb = nullptr;
    if (node.fused_has_b) {
      const DeviceColumn& vb = Col(node.fused_value_b);
      if (vb.size() != n) {
        throw std::logic_error("plan: fused filter-sum value length differs");
      }
      account(vb);
      pb = vb.data<double>();
    }
    const bool conj = node.conjunctive;
    const std::vector<core::ScanMatcher>* pe = &evals;
    auto pred = [pe, conj](size_t i) {
      for (const core::ScanMatcher& e : *pe) {
        const bool ok = e(i);
        if (conj && !ok) return false;
        if (!conj && ok) return true;
      }
      return conj;
    };
    value.scalar = handwritten::FusedFilterSum<double>(
        stream, n,
        pred,
        [=](size_t i) { return pb ? pa[i] * pb[i] : pa[i]; },
        bytes_per_row);
    value.out_rows = 1;
  }

  const PhysicalPlan& phys_;
  core::Backend* pinned_;
  /// Effective per-node backend: starts as the optimizer's assignment and is
  /// updated when a node falls back, so boundary pricing and downstream
  /// consumers see where values were actually materialized.
  std::vector<std::string> assigned_;
  std::map<std::string, std::unique_ptr<core::Backend>> backends_;
  ExecutionResult result_;
};

}  // namespace

ExecutionResult RunPinned(const PhysicalPlan& plan, core::Backend& backend) {
  return Executor(plan, &backend).Run();
}

ExecutionResult RunHybrid(const PhysicalPlan& plan) {
  return Executor(plan, nullptr).Run();
}

}  // namespace plan
