// Thrust binding of the operator framework.
//
// Realizes each database operator with the Thrust calls from Table II:
//   Selection            transform() & exclusive_scan() & scatter_if()   (~)
//   Conjunction/Disj.    bit_and<T>() / bit_or<T>() over predicate flags (+)
//   Nested-loops join    for_each_n() over the probe side                (+)
//   Grouped aggregation  sort_by_key() + reduce_by_key()                 (+)
//   Reduction            reduce()                                        (+)
//   Sort / sort-by-key   sort() / sort_by_key()                          (+)
//   Prefix sum           exclusive_scan()                                (+)
//   Scatter & gather     scatter() / gather()                            (+)
//   Product              transform() & multiplies<T>()                   (+)
// Hash join and merge join have no Thrust realization (Table II "-").
#include <limits>

#include "backends/backends.h"
#include "backends/common.h"
#include "core/backend.h"
#include "gpusim/atomic_ops.h"
#include "thrustsim/thrustsim.h"

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

class ThrustBackend : public core::Backend {
 public:
  ThrustBackend()
      : stream_(gpusim::Device::Current(), gpusim::ApiProfile::Cuda()) {
    stream_.set_label(kThrust);
  }

  std::string name() const override { return kThrust; }
  gpusim::Stream& stream() override { return stream_; }

  OperatorRealization Realization(DbOperator op) const override {
    switch (op) {
      case DbOperator::kSelection:
        return {SupportLevel::kPartial,
                "transform() & exclusive_scan() & gather()"};
      case DbOperator::kConjunction:
        return {SupportLevel::kFull, "bit_and<T>()"};
      case DbOperator::kDisjunction:
        return {SupportLevel::kFull, "bit_or<T>()"};
      case DbOperator::kNestedLoopsJoin:
        return {SupportLevel::kFull, "for_each_n()"};
      case DbOperator::kMergeJoin:
      case DbOperator::kHashJoin:
        return {SupportLevel::kNone, ""};
      case DbOperator::kGroupedAggregation:
        return {SupportLevel::kFull, "reduce_by_key()"};
      case DbOperator::kReduction:
        return {SupportLevel::kFull, "reduce()"};
      case DbOperator::kSortByKey:
        return {SupportLevel::kFull, "sort_by_key()"};
      case DbOperator::kSort:
        return {SupportLevel::kFull, "sort()"};
      case DbOperator::kPrefixSum:
        return {SupportLevel::kFull, "exclusive_scan()"};
      case DbOperator::kScatterGather:
        return {SupportLevel::kFull, "scatter(), gather()"};
      case DbOperator::kProduct:
        return {SupportLevel::kFull, "transform() & multiplies<T>()"};
    }
    return {SupportLevel::kNone, ""};
  }

  // -- Selection -----------------------------------------------------------

  SelectionResult Select(const DeviceColumn& column,
                         const Predicate& pred) override {
    const size_t n = column.size();
    gpusim::DeviceArray<uint32_t> flags(n, device());
    PredicateFlags(column, pred, flags.data());
    return FinishSelection(flags.data(), n);
  }

  SelectionResult SelectConjunctive(
      const std::vector<const DeviceColumn*>& columns,
      const std::vector<Predicate>& preds) override {
    return SelectCombined(columns, preds, /*conjunctive=*/true);
  }

  SelectionResult SelectDisjunctive(
      const std::vector<const DeviceColumn*>& columns,
      const std::vector<Predicate>& preds) override {
    return SelectCombined(columns, preds, /*conjunctive=*/false);
  }

  SelectionResult SelectCompareColumns(const DeviceColumn& a, CompareOp op,
                                       const DeviceColumn& b) override {
    const size_t n = a.size();
    gpusim::DeviceArray<uint32_t> flags(n, device());
    BACKENDS_DISPATCH(a.type(), {
      uint32_t* f = flags.data();
      thrustsim::transform(pol(), a.data<T>(), a.data<T>() + n, b.data<T>(),
                           f, [op](T x, T y) {
                             return ApplyCompare(op, x, y) ? 1u : 0u;
                           });
    });
    return FinishSelection(flags.data(), n);
  }

  // -- Joins ----------------------------------------------------------------

  JoinResult NestedLoopsJoin(const DeviceColumn& left_keys,
                             const DeviceColumn& right_keys) override {
    const size_t nl = left_keys.size();
    const size_t nr = right_keys.size();
    const int32_t* left = left_keys.data<int32_t>();
    const int32_t* right = right_keys.data<int32_t>();

    JoinResult out;
    out.left_rows = DeviceColumn(DataType::kInt32, nr, device());
    out.right_rows = DeviceColumn(DataType::kInt32, nr, device());
    gpusim::DeviceArray<uint32_t> counter(1, device());
    gpusim::MemsetDevice(stream_, counter.data(), 0, sizeof(uint32_t));

    int32_t* ol = out.left_rows.data<int32_t>();
    int32_t* orr = out.right_rows.data<int32_t>();
    // for_each_n over the probe side; the functor scans the (unique-key)
    // build side and appends via an atomic ticket.
    thrustsim::for_each_index_append(
        pol(), nr, counter.data(),
        [=](size_t i, size_t slot) {
          const int32_t key = right[i];
          for (size_t j = 0; j < nl; ++j) {
            if (left[j] == key) {
              ol[slot] = static_cast<int32_t>(j);
              orr[slot] = static_cast<int32_t>(i);
              return true;
            }
          }
          return false;
        },
        [=](size_t from, size_t to) {
          ol[to] = ol[from];
          orr[to] = orr[from];
        },
        /*extra_read_bytes=*/nr * sizeof(int32_t) +
            static_cast<uint64_t>(nr) * nl * sizeof(int32_t),
        /*extra_ops=*/static_cast<uint64_t>(nr) * nl,
        /*extra_written_bytes=*/nr * 2 * sizeof(int32_t));
    uint32_t count = 0;
    gpusim::CopyDeviceToHost(stream_, &count, counter.data(),
                             sizeof(uint32_t));
    out.count = count;
    out.left_rows = ShrinkToColumn(out.left_rows.data<int32_t>(), count,
                                   DataType::kInt32);
    out.right_rows = ShrinkToColumn(out.right_rows.data<int32_t>(), count,
                                    DataType::kInt32);
    return out;
  }

  // -- Aggregation -----------------------------------------------------------

  GroupByResult GroupByAggregate(const DeviceColumn& keys,
                                 const DeviceColumn& values,
                                 AggOp op) override {
    const size_t n = keys.size();
    gpusim::DeviceArray<int32_t> work_keys(n, device());
    gpusim::CopyDeviceToDevice(stream_, work_keys.data(),
                               keys.data<int32_t>(), n * sizeof(int32_t));

    GroupByResult out;
    if (op == AggOp::kCount) {
      gpusim::DeviceArray<int64_t> ones(n, device());
      thrustsim::fill(pol(), ones.data(), ones.data() + n, int64_t{1});
      thrustsim::sort_by_key(pol(), work_keys.data(), work_keys.data() + n,
                             ones.data());
      gpusim::DeviceArray<int32_t> out_keys(n, device());
      gpusim::DeviceArray<int64_t> out_vals(n, device());
      auto ends = thrustsim::reduce_by_key(
          pol(), work_keys.data(), work_keys.data() + n, ones.data(),
          out_keys.data(), out_vals.data(), thrustsim::plus<int64_t>());
      const size_t groups =
          static_cast<size_t>(ends.first - out_keys.data());
      out.num_groups = groups;
      out.keys = ShrinkToColumn(out_keys.data(), groups, DataType::kInt32);
      out.aggregate = ShrinkToColumn(out_vals.data(), groups, DataType::kInt64);
      return out;
    }

    BACKENDS_DISPATCH(values.type(), {
      gpusim::DeviceArray<T> work_vals(n, device());
      gpusim::CopyDeviceToDevice(stream_, work_vals.data(), values.data<T>(),
                                 n * sizeof(T));
      thrustsim::sort_by_key(pol(), work_keys.data(), work_keys.data() + n,
                             work_vals.data());
      gpusim::DeviceArray<int32_t> out_keys(n, device());
      gpusim::DeviceArray<T> out_vals(n, device());
      std::pair<int32_t*, T*> ends{out_keys.data(), out_vals.data()};
      switch (op) {
        case AggOp::kSum:
          ends = thrustsim::reduce_by_key(
              pol(), work_keys.data(), work_keys.data() + n, work_vals.data(),
              out_keys.data(), out_vals.data(), thrustsim::plus<T>());
          break;
        case AggOp::kMin:
          ends = thrustsim::reduce_by_key(
              pol(), work_keys.data(), work_keys.data() + n, work_vals.data(),
              out_keys.data(), out_vals.data(), thrustsim::minimum<T>());
          break;
        case AggOp::kMax:
          ends = thrustsim::reduce_by_key(
              pol(), work_keys.data(), work_keys.data() + n, work_vals.data(),
              out_keys.data(), out_vals.data(), thrustsim::maximum<T>());
          break;
        case AggOp::kCount:
          break;  // handled above
      }
      const size_t groups = static_cast<size_t>(ends.first - out_keys.data());
      out.num_groups = groups;
      out.keys = ShrinkToColumn(out_keys.data(), groups, DataType::kInt32);
      // Aggregates are reported as float64 (framework convention).
      DeviceColumn agg(DataType::kFloat64, groups, device());
      thrustsim::transform(pol(), out_vals.data(), out_vals.data() + groups,
                           agg.data<double>(),
                           [](T v) { return static_cast<double>(v); });
      out.aggregate = std::move(agg);
    });
    return out;
  }

  double ReduceColumn(const DeviceColumn& values, AggOp op) override {
    if (op == AggOp::kCount) return static_cast<double>(values.size());
    double result = 0.0;
    BACKENDS_DISPATCH(values.type(), {
      const T* data = values.data<T>();
      const size_t n = values.size();
      switch (op) {
        case AggOp::kSum:
          result = static_cast<double>(thrustsim::reduce(
              pol(), data, data + n, T{}, thrustsim::plus<T>()));
          break;
        case AggOp::kMin:
          result = static_cast<double>(
              thrustsim::reduce(pol(), data, data + n,
                                std::numeric_limits<T>::max(),
                                thrustsim::minimum<T>()));
          break;
        case AggOp::kMax:
          result = static_cast<double>(
              thrustsim::reduce(pol(), data, data + n,
                                std::numeric_limits<T>::lowest(),
                                thrustsim::maximum<T>()));
          break;
        case AggOp::kCount:
          break;  // handled above
      }
    });
    return result;
  }

  // -- Sorting ----------------------------------------------------------------

  DeviceColumn Sort(const DeviceColumn& column) override {
    DeviceColumn out(column.type(), column.size(), device());
    BACKENDS_DISPATCH(column.type(), {
      gpusim::CopyDeviceToDevice(stream_, out.data<T>(), column.data<T>(),
                                 column.size() * sizeof(T));
      thrustsim::sort(pol(), out.data<T>(), out.data<T>() + out.size());
    });
    return out;
  }

  std::pair<DeviceColumn, DeviceColumn> SortByKey(
      const DeviceColumn& keys, const DeviceColumn& values) override {
    DeviceColumn out_keys(keys.type(), keys.size(), device());
    DeviceColumn out_vals(values.type(), values.size(), device());
    BACKENDS_DISPATCH(keys.type(), {
      using K = T;
      gpusim::CopyDeviceToDevice(stream_, out_keys.data<K>(), keys.data<K>(),
                                 keys.size() * sizeof(K));
      BACKENDS_DISPATCH(values.type(), {
        gpusim::CopyDeviceToDevice(stream_, out_vals.data<T>(),
                                   values.data<T>(),
                                   values.size() * sizeof(T));
        thrustsim::sort_by_key(pol(), out_keys.data<K>(),
                               out_keys.data<K>() + keys.size(),
                               out_vals.data<T>());
      });
    });
    return {std::move(out_keys), std::move(out_vals)};
  }

  DeviceColumn Unique(const DeviceColumn& column) override {
    DeviceColumn sorted = Sort(column);
    size_t count = 0;
    BACKENDS_DISPATCH(column.type(), {
      T* data = sorted.data<T>();
      T* end = thrustsim::unique(pol(), data, data + sorted.size());
      count = static_cast<size_t>(end - data);
    });
    DeviceColumn out(column.type(), count, device());
    if (count > 0) {
      gpusim::CopyDeviceToDevice(stream_, out.raw_data(), sorted.raw_data(),
                                 count * storage::DataTypeSize(column.type()));
    }
    return out;
  }

  // -- Primitives ---------------------------------------------------------------

  DeviceColumn PrefixSum(const DeviceColumn& column) override {
    DeviceColumn out(column.type(), column.size(), device());
    BACKENDS_DISPATCH(column.type(), {
      thrustsim::exclusive_scan(pol(), column.data<T>(),
                                column.data<T>() + column.size(),
                                out.data<T>(), T{}, thrustsim::plus<T>());
    });
    return out;
  }

  DeviceColumn Gather(const DeviceColumn& src,
                      const DeviceColumn& indices) override {
    DeviceColumn out(src.type(), indices.size(), device());
    const int32_t* map = indices.data<int32_t>();
    BACKENDS_DISPATCH(src.type(), {
      thrustsim::gather(pol(), map, map + indices.size(), src.data<T>(),
                        out.data<T>());
    });
    return out;
  }

  DeviceColumn Scatter(const DeviceColumn& src, const DeviceColumn& indices,
                       size_t out_size) override {
    DeviceColumn out(src.type(), out_size, device());
    const int32_t* map = indices.data<int32_t>();
    BACKENDS_DISPATCH(src.type(), {
      thrustsim::fill(pol(), out.data<T>(), out.data<T>() + out_size, T{});
      thrustsim::scatter(pol(), src.data<T>(), src.data<T>() + src.size(),
                         map, out.data<T>());
    });
    return out;
  }

  DeviceColumn Product(const DeviceColumn& a, const DeviceColumn& b) override {
    DeviceColumn out(a.type(), a.size(), device());
    BACKENDS_DISPATCH(a.type(), {
      thrustsim::transform(pol(), a.data<T>(), a.data<T>() + a.size(),
                           b.data<T>(), out.data<T>(),
                           thrustsim::multiplies<T>());
    });
    return out;
  }

  DeviceColumn AddScalar(const DeviceColumn& a, double alpha) override {
    DeviceColumn out(a.type(), a.size(), device());
    BACKENDS_DISPATCH(a.type(), {
      const T s = static_cast<T>(alpha);
      thrustsim::transform(pol(), a.data<T>(), a.data<T>() + a.size(),
                           out.data<T>(),
                           [=](T v) { return static_cast<T>(v + s); });
    });
    return out;
  }

  DeviceColumn SubtractFromScalar(double alpha,
                                  const DeviceColumn& a) override {
    DeviceColumn out(a.type(), a.size(), device());
    BACKENDS_DISPATCH(a.type(), {
      const T s = static_cast<T>(alpha);
      thrustsim::transform(pol(), a.data<T>(), a.data<T>() + a.size(),
                           out.data<T>(),
                           [=](T v) { return static_cast<T>(s - v); });
    });
    return out;
  }

 private:
  gpusim::Device& device() { return stream_.device(); }
  thrustsim::execution_policy pol() { return thrustsim::cuda::par.on(stream_); }

  /// Copies the first `count` elements of a work buffer into a fresh column.
  template <typename T>
  DeviceColumn ShrinkToColumn(const T* data, size_t count,
                              DataType type) {
    DeviceColumn out(type, count, device());
    if (count > 0) {
      gpusim::CopyDeviceToDevice(stream_, out.raw_data(), data,
                                 count * sizeof(T));
    }
    return out;
  }

  /// transform(): writes 0/1 flags for one predicate.
  void PredicateFlags(const DeviceColumn& column, const Predicate& pred,
                      uint32_t* flags) {
    const size_t n = column.size();
    BACKENDS_DISPATCH(column.type(), {
      const T* data = column.data<T>();
      const T lit = PredLiteral<T>(pred);
      const CompareOp op = pred.op;
      thrustsim::transform(pol(), data, data + n, flags, [=](T v) {
        return ApplyCompare(op, v, lit) ? 1u : 0u;
      });
    });
  }

  /// exclusive_scan() + scatter_if(counting): flags -> compacted row ids.
  SelectionResult FinishSelection(const uint32_t* flags, size_t n) {
    SelectionResult out;
    if (n == 0) {
      out.row_ids = DeviceColumn(DataType::kInt32, 0, device());
      return out;
    }
    gpusim::DeviceArray<uint32_t> positions(n, device());
    thrustsim::exclusive_scan(pol(), flags, flags + n, positions.data(),
                              uint32_t{0}, thrustsim::plus<uint32_t>());
    uint32_t last_pos = 0, last_flag = 0;
    gpusim::CopyDeviceToHost(stream_, &last_pos, positions.data() + (n - 1),
                             sizeof(uint32_t));
    gpusim::CopyDeviceToHost(stream_, &last_flag, flags + (n - 1),
                             sizeof(uint32_t));
    out.count = last_pos + last_flag;
    out.row_ids = DeviceColumn(DataType::kInt32, out.count, device());
    thrustsim::scatter_if(pol(), thrustsim::make_counting_iterator<int32_t>(0),
                          thrustsim::make_counting_iterator<int32_t>(
                              static_cast<int32_t>(n)),
                          positions.data(), flags,
                          out.row_ids.data<int32_t>());
    return out;
  }

  SelectionResult SelectCombined(
      const std::vector<const DeviceColumn*>& columns,
      const std::vector<Predicate>& preds, bool conjunctive) {
    if (columns.empty() || columns.size() != preds.size()) {
      throw std::invalid_argument("SelectCombined: bad predicate list");
    }
    const size_t n = columns[0]->size();
    gpusim::DeviceArray<uint32_t> acc(n, device());
    PredicateFlags(*columns[0], preds[0], acc.data());
    gpusim::DeviceArray<uint32_t> flags(n, device());
    for (size_t p = 1; p < preds.size(); ++p) {
      PredicateFlags(*columns[p], preds[p], flags.data());
      if (conjunctive) {
        thrustsim::transform(pol(), acc.data(), acc.data() + n, flags.data(),
                             acc.data(), thrustsim::bit_and<uint32_t>());
      } else {
        thrustsim::transform(pol(), acc.data(), acc.data() + n, flags.data(),
                             acc.data(), thrustsim::bit_or<uint32_t>());
      }
    }
    return FinishSelection(acc.data(), n);
  }

  gpusim::Stream stream_;
};

}  // namespace

std::unique_ptr<core::Backend> CreateThrustBackend() {
  return std::make_unique<ThrustBackend>();
}

}  // namespace backends
