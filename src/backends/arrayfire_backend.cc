// ArrayFire binding of the operator framework.
//
// Table II realizations:
//   Selection            where(<fused predicate expression>)             (+)
//   Conjunction          setIntersect() over per-predicate where() sets  (+)
//   Disjunction          setUnion()                                      (+)
//   Nested-loops join    no direct operator: host loop of where() calls  (~)
//   Grouped aggregation  sort() + sumByKey()/countByKey()                (+)
//   Reduction            sum<T>()                                        (+)
//   Sort / sort-by-key   sort()                                          (+)
//   Prefix sum           scan()/accum()                                  (+)
//   Scatter & gather     lookup() / indexed assignment                   (~)
//   Product              operator*() (JIT-fused)                         (+)
// Hash join and merge join have no ArrayFire realization (Table II "-").
#include <limits>

#include "afsim/afsim.h"
#include "backends/backends.h"
#include "backends/common.h"
#include "core/backend.h"

namespace backends {
namespace {

using core::AggOp;
using core::CompareOp;
using core::DbOperator;
using core::GroupByResult;
using core::JoinResult;
using core::OperatorRealization;
using core::Predicate;
using core::SelectionResult;
using core::SupportLevel;
using storage::DataType;
using storage::DeviceColumn;

afsim::dtype ToAfDtype(DataType t) {
  switch (t) {
    case DataType::kInt32: return afsim::dtype::s32;
    case DataType::kInt64: return afsim::dtype::s64;
    case DataType::kFloat64: return afsim::dtype::f64;
    case DataType::kFloat32: return afsim::dtype::f32;
  }
  return afsim::dtype::f64;
}

DataType ToDataType(afsim::dtype t) {
  switch (t) {
    case afsim::dtype::s32: return DataType::kInt32;
    case afsim::dtype::u32: return DataType::kInt32;  // row ids
    case afsim::dtype::s64: return DataType::kInt64;
    case afsim::dtype::f64: return DataType::kFloat64;
    case afsim::dtype::f32: return DataType::kFloat32;
    default:
      throw std::invalid_argument("ArrayFireBackend: no column type for af " +
                                  std::string(afsim::dtype_name(t)));
  }
}

/// Zero-copy view of an evaluated af array as a storage column.
DeviceColumn Unwrap(const afsim::array& a) {
  a.eval();
  return DeviceColumn(ToDataType(a.type()), a.elements(), a.node()->buffer);
}

/// Builds the lazy predicate expression `column <op> literal`.
afsim::array PredicateExpr(const afsim::array& col, const Predicate& pred) {
  const double v = pred.value_f;
  switch (pred.op) {
    case CompareOp::kLt: return col < v;
    case CompareOp::kLe: return col <= v;
    case CompareOp::kGt: return col > v;
    case CompareOp::kGe: return col >= v;
    case CompareOp::kEq: return col == v;
    case CompareOp::kNe: return col != v;
  }
  return col < v;
}

class ArrayFireBackend : public core::Backend {
 public:
  ArrayFireBackend()
      : stream_(gpusim::Device::Current(), gpusim::ApiProfile::Cuda()) {
    stream_.set_label(kArrayFire);
  }

  std::string name() const override { return kArrayFire; }
  gpusim::Stream& stream() override { return stream_; }

  OperatorRealization Realization(DbOperator op) const override {
    switch (op) {
      case DbOperator::kSelection:
        return {SupportLevel::kFull, "where(operator())"};
      case DbOperator::kConjunction:
        return {SupportLevel::kFull, "setIntersect()"};
      case DbOperator::kDisjunction:
        return {SupportLevel::kFull, "setUnion()"};
      case DbOperator::kNestedLoopsJoin:
        return {SupportLevel::kPartial, "where() per outer row"};
      case DbOperator::kMergeJoin:
      case DbOperator::kHashJoin:
        return {SupportLevel::kNone, ""};
      case DbOperator::kGroupedAggregation:
        return {SupportLevel::kFull, "sumByKey(), countByKey()"};
      case DbOperator::kReduction:
        return {SupportLevel::kFull, "sum<T>()"};
      case DbOperator::kSortByKey:
        return {SupportLevel::kFull, "sort()"};
      case DbOperator::kSort:
        return {SupportLevel::kFull, "sort()"};
      case DbOperator::kPrefixSum:
        return {SupportLevel::kFull, "scan()"};
      case DbOperator::kScatterGather:
        return {SupportLevel::kPartial, "lookup(), operator()="};
      case DbOperator::kProduct:
        return {SupportLevel::kFull, "operator*()"};
    }
    return {SupportLevel::kNone, ""};
  }

  SelectionResult Select(const DeviceColumn& column,
                         const Predicate& pred) override {
    // The predicate is one fused JIT kernel inside where().
    afsim::array idx = afsim::where(PredicateExpr(Wrap(column), pred));
    return ToSelection(idx);
  }

  SelectionResult SelectConjunctive(
      const std::vector<const DeviceColumn*>& columns,
      const std::vector<Predicate>& preds) override {
    // Table II: conjunction = setIntersect of per-predicate index sets.
    afsim::array acc = afsim::where(PredicateExpr(Wrap(*columns[0]), preds[0]));
    for (size_t p = 1; p < preds.size(); ++p) {
      afsim::array next =
          afsim::where(PredicateExpr(Wrap(*columns[p]), preds[p]));
      // where() emits ascending unique indices, so the inputs are sets.
      acc = afsim::setIntersect(acc, next, /*is_unique=*/true);
    }
    return ToSelection(acc);
  }

  SelectionResult SelectDisjunctive(
      const std::vector<const DeviceColumn*>& columns,
      const std::vector<Predicate>& preds) override {
    afsim::array acc = afsim::where(PredicateExpr(Wrap(*columns[0]), preds[0]));
    for (size_t p = 1; p < preds.size(); ++p) {
      afsim::array next =
          afsim::where(PredicateExpr(Wrap(*columns[p]), preds[p]));
      acc = afsim::setUnion(acc, next, /*is_unique=*/true);
    }
    return ToSelection(acc);
  }

  SelectionResult SelectCompareColumns(const DeviceColumn& a, CompareOp op,
                                       const DeviceColumn& b) override {
    afsim::array lhs = Wrap(a);
    afsim::array rhs = Wrap(b);
    afsim::array mask;
    switch (op) {
      case CompareOp::kLt: mask = lhs < rhs; break;
      case CompareOp::kLe: mask = lhs <= rhs; break;
      case CompareOp::kGt: mask = lhs > rhs; break;
      case CompareOp::kGe: mask = lhs >= rhs; break;
      case CompareOp::kEq: mask = lhs == rhs; break;
      case CompareOp::kNe: mask = lhs != rhs; break;
    }
    return ToSelection(afsim::where(mask));
  }

  JoinResult NestedLoopsJoin(const DeviceColumn& left_keys,
                             const DeviceColumn& right_keys) override {
    // ArrayFire offers no relational join; the ad-hoc realization issues one
    // where(right == key) per build row and assembles pairs on the host —
    // the "partial support" interoperability cost in its rawest form.
    afsim::array right = Wrap(right_keys);
    const std::vector<int32_t> left_host =
        Wrap(left_keys).host<int32_t>();  // one bulk D2H
    std::vector<int32_t> pairs_left;
    std::vector<int32_t> pairs_right;
    for (size_t j = 0; j < left_host.size(); ++j) {
      afsim::array matches =
          afsim::where(right == static_cast<double>(left_host[j]));
      const std::vector<uint32_t> rows = matches.host<uint32_t>();
      for (uint32_t r : rows) {
        pairs_left.push_back(static_cast<int32_t>(j));
        pairs_right.push_back(static_cast<int32_t>(r));
      }
    }
    JoinResult out;
    out.count = pairs_left.size();
    out.left_rows = Unwrap(afsim::from_vector(pairs_left, stream_));
    out.right_rows = Unwrap(afsim::from_vector(pairs_right, stream_));
    return out;
  }

  GroupByResult GroupByAggregate(const DeviceColumn& keys,
                                 const DeviceColumn& values,
                                 AggOp op) override {
    afsim::array k = Wrap(keys);
    GroupByResult out;
    if (op == AggOp::kCount) {
      afsim::array sorted = afsim::sort(k);
      afsim::array out_keys, out_counts;
      afsim::countByKey(&out_keys, &out_counts, sorted);
      out.num_groups = out_keys.elements();
      out.keys = Unwrap(out_keys);
      out.aggregate = Unwrap(afsim::cast(out_counts, afsim::dtype::s64));
      return out;
    }
    afsim::array v = Wrap(values);
    afsim::array sk, sv;
    afsim::sort(&sk, &sv, k, v);
    afsim::array out_keys, out_vals;
    switch (op) {
      case AggOp::kSum:
        afsim::sumByKey(&out_keys, &out_vals, sk, sv);
        break;
      case AggOp::kMin:
        afsim::minByKey(&out_keys, &out_vals, sk, sv);
        break;
      case AggOp::kMax:
        afsim::maxByKey(&out_keys, &out_vals, sk, sv);
        break;
      case AggOp::kCount:
        break;  // handled above
    }
    out.num_groups = out_keys.elements();
    out.keys = Unwrap(out_keys);
    out.aggregate = Unwrap(afsim::cast(out_vals, afsim::dtype::f64));
    return out;
  }

  double ReduceColumn(const DeviceColumn& values, AggOp op) override {
    if (op == AggOp::kCount) return static_cast<double>(values.size());
    afsim::array a = Wrap(values);
    switch (op) {
      case AggOp::kSum:
        switch (values.type()) {
          case DataType::kInt32: return afsim::sum<int32_t>(a);
          case DataType::kInt64:
            return static_cast<double>(afsim::sum<int64_t>(a));
          case DataType::kFloat64: return afsim::sum<double>(a);
          case DataType::kFloat32: return afsim::sum<float>(a);
        }
        break;
      case AggOp::kMin: return afsim::detail::reduce_min(a);
      case AggOp::kMax: return afsim::detail::reduce_max(a);
      case AggOp::kCount: break;  // handled above
    }
    return 0.0;
  }

  DeviceColumn Sort(const DeviceColumn& column) override {
    return Unwrap(afsim::sort(Wrap(column)));
  }

  std::pair<DeviceColumn, DeviceColumn> SortByKey(
      const DeviceColumn& keys, const DeviceColumn& values) override {
    afsim::array sk, sv;
    afsim::sort(&sk, &sv, Wrap(keys), Wrap(values));
    return {Unwrap(sk), Unwrap(sv)};
  }

  DeviceColumn Unique(const DeviceColumn& column) override {
    return Unwrap(afsim::setUnique(Wrap(column)));
  }

  DeviceColumn PrefixSum(const DeviceColumn& column) override {
    return Unwrap(afsim::scan(Wrap(column), /*inclusive_scan=*/false));
  }

  DeviceColumn Gather(const DeviceColumn& src,
                      const DeviceColumn& indices) override {
    // Indices arrive as kInt32 row ids, which wrap as s32 for lookup().
    return Unwrap(afsim::lookup(Wrap(src), Wrap(indices)));
  }

  DeviceColumn Scatter(const DeviceColumn& src, const DeviceColumn& indices,
                       size_t out_size) override {
    afsim::array target =
        afsim::constant(0.0, out_size, ToAfDtype(src.type()), stream_);
    target.eval();
    afsim::assign_indexed(target, Wrap(indices), Wrap(src));
    return Unwrap(target);
  }

  DeviceColumn Product(const DeviceColumn& a, const DeviceColumn& b) override {
    return Unwrap(Wrap(a) * Wrap(b));
  }

  DeviceColumn AddScalar(const DeviceColumn& a, double alpha) override {
    return Unwrap(Wrap(a) + alpha);
  }

  DeviceColumn SubtractFromScalar(double alpha,
                                  const DeviceColumn& a) override {
    return Unwrap(alpha - Wrap(a));
  }

 protected:
  /// Every encoded-domain kernel is an af JIT node on the backend's stream;
  /// charge the lazy-graph bookkeeping the library pays per node.
  void EncodedOpPrologue(const char* op, int kernels) override {
    (void)op;
    stream_.ChargeOverhead(static_cast<uint64_t>(kernels) *
                           afsim::kJitNodeOverheadNs);
  }

 private:
  /// Zero-copy view of a storage column as an af array on this backend's
  /// stream.
  afsim::array Wrap(const DeviceColumn& column) {
    return afsim::from_buffer(column.buffer_ptr(), ToAfDtype(column.type()),
                              column.size(), stream_);
  }

  /// Converts a u32 where()-style index array into a SelectionResult.
  SelectionResult ToSelection(const afsim::array& idx) {
    idx.eval();
    SelectionResult out;
    out.count = idx.elements();
    out.row_ids =
        DeviceColumn(DataType::kInt32, idx.elements(), idx.node()->buffer);
    return out;
  }

  gpusim::Stream stream_;
};

}  // namespace

std::unique_ptr<core::Backend> CreateArrayFireBackend() {
  return std::make_unique<ArrayFireBackend>();
}

}  // namespace backends
