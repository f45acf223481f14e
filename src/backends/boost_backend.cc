// Boost.Compute binding of the operator framework.
//
// Same operator pipelines as the Thrust binding (Table II maps both to the
// same algorithm names), but executed through bcsim: every algorithm call
// goes to an OpenCL-profile queue, and the first use of each generated
// kernel source pays the run-time program compilation — the overhead
// bench_compile_overhead isolates. Each backend instance owns a fresh
// context, i.e. a cold program cache.
#include <limits>

#include "backends/backends.h"
#include "backends/common.h"
#include "bcsim/bcsim.h"
#include "core/backend.h"
#include "gpusim/atomic_ops.h"

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

const char* CmpSuffix(CompareOp op) {
  switch (op) {
    case CompareOp::kLt: return "lt";
    case CompareOp::kLe: return "le";
    case CompareOp::kGt: return "gt";
    case CompareOp::kGe: return "ge";
    case CompareOp::kEq: return "eq";
    case CompareOp::kNe: return "ne";
  }
  return "?";
}

class BoostComputeBackend : public core::Backend {
 public:
  BoostComputeBackend()
      : ctx_(bcsim::device(gpusim::Device::Current())), queue_(ctx_) {
    queue_.stream().set_label(kBoostCompute);
  }

  std::string name() const override { return kBoostCompute; }
  gpusim::Stream& stream() override { return queue_.stream(); }

  /// The backend's context; exposes the program-cache size for the
  /// compile-overhead experiment.
  const bcsim::context& context() const { return ctx_; }

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
      auto fn = bcsim::make_function(
          std::string("cmp_cols_") + CmpSuffix(op),
          [op](T x, T y) { return ApplyCompare(op, x, y) ? 1u : 0u; });
      bcsim::transform(a.data<T>(), a.data<T>() + n, b.data<T>(),
                       flags.data(), fn, queue_);
    });
    return FinishSelection(flags.data(), n);
  }

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
    gpusim::MemsetDevice(queue_.stream(), counter.data(), 0,
                         sizeof(uint32_t));

    int32_t* ol = out.left_rows.data<int32_t>();
    int32_t* orr = out.right_rows.data<int32_t>();
    // The probe appends each match via an atomic ticket, kept in probe-row
    // order by gpusim::OrderedAppend.
    auto probe = [=](size_t i, size_t slot) {
      const int32_t key = right[i];
      for (size_t j = 0; j < nl; ++j) {
        if (left[j] == key) {
          ol[slot] = static_cast<int32_t>(j);
          orr[slot] = static_cast<int32_t>(i);
          return true;
        }
      }
      return false;
    };
    // for_each_n over a counting sequence of probe row ids. Charge the
    // nested scan's traffic explicitly (the functor reads the build side).
    {
      gpusim::KernelStats stats;
      stats.name = "compute::for_each_n(nlj)";
      stats.bytes_read = nr * sizeof(int32_t) +
                         static_cast<uint64_t>(nr) * nl * sizeof(int32_t);
      stats.bytes_written = nr * 2 * sizeof(int32_t);
      stats.ops = static_cast<uint64_t>(nr) * nl;
      queue_.ensure_program("bcsim.for_each.nlj_probe_s32");
      gpusim::OrderedAppend(queue_.stream(), nr, stats, counter.data(), probe,
                            [=](size_t from, size_t to) {
                              ol[to] = ol[from];
                              orr[to] = orr[from];
                            });
    }
    uint32_t count = 0;
    gpusim::CopyDeviceToHost(queue_.stream(), &count, counter.data(),
                             sizeof(uint32_t));
    out.count = count;
    out.left_rows = ShrinkToColumn(out.left_rows.data<int32_t>(), count,
                                   DataType::kInt32);
    out.right_rows = ShrinkToColumn(out.right_rows.data<int32_t>(), count,
                                    DataType::kInt32);
    return out;
  }

  GroupByResult GroupByAggregate(const DeviceColumn& keys,
                                 const DeviceColumn& values,
                                 AggOp op) override {
    const size_t n = keys.size();
    gpusim::DeviceArray<int32_t> work_keys(n, device());
    gpusim::CopyDeviceToDevice(queue_.stream(), work_keys.data(),
                               keys.data<int32_t>(), n * sizeof(int32_t));

    GroupByResult out;
    if (op == AggOp::kCount) {
      gpusim::DeviceArray<int64_t> ones(n, device());
      bcsim::fill(ones.data(), ones.data() + n, int64_t{1}, queue_);
      bcsim::sort_by_key(work_keys.data(), work_keys.data() + n, ones.data(),
                         queue_);
      gpusim::DeviceArray<int32_t> out_keys(n, device());
      gpusim::DeviceArray<int64_t> out_vals(n, device());
      auto ends = bcsim::reduce_by_key(work_keys.data(), work_keys.data() + n,
                                       ones.data(), out_keys.data(),
                                       out_vals.data(),
                                       bcsim::plus<int64_t>(), queue_);
      const size_t groups = static_cast<size_t>(ends.first - out_keys.data());
      out.num_groups = groups;
      out.keys = ShrinkToColumn(out_keys.data(), groups, DataType::kInt32);
      out.aggregate = ShrinkToColumn(out_vals.data(), groups, DataType::kInt64);
      return out;
    }

    BACKENDS_DISPATCH(values.type(), {
      gpusim::DeviceArray<T> work_vals(n, device());
      gpusim::CopyDeviceToDevice(queue_.stream(), work_vals.data(),
                                 values.data<T>(), n * sizeof(T));
      bcsim::sort_by_key(work_keys.data(), work_keys.data() + n,
                         work_vals.data(), queue_);
      gpusim::DeviceArray<int32_t> out_keys(n, device());
      gpusim::DeviceArray<T> out_vals(n, device());
      std::pair<int32_t*, T*> ends{out_keys.data(), out_vals.data()};
      switch (op) {
        case AggOp::kSum:
          ends = bcsim::reduce_by_key(work_keys.data(), work_keys.data() + n,
                                      work_vals.data(), out_keys.data(),
                                      out_vals.data(), bcsim::plus<T>(),
                                      queue_);
          break;
        case AggOp::kMin:
          ends = bcsim::reduce_by_key(work_keys.data(), work_keys.data() + n,
                                      work_vals.data(), out_keys.data(),
                                      out_vals.data(), bcsim::min_op<T>(),
                                      queue_);
          break;
        case AggOp::kMax:
          ends = bcsim::reduce_by_key(work_keys.data(), work_keys.data() + n,
                                      work_vals.data(), out_keys.data(),
                                      out_vals.data(), bcsim::max_op<T>(),
                                      queue_);
          break;
        case AggOp::kCount:
          break;  // handled above
      }
      const size_t groups = static_cast<size_t>(ends.first - out_keys.data());
      out.num_groups = groups;
      out.keys = ShrinkToColumn(out_keys.data(), groups, DataType::kInt32);
      DeviceColumn agg(DataType::kFloat64, groups, device());
      bcsim::transform(out_vals.data(), out_vals.data() + groups,
                       agg.data<double>(),
                       bcsim::make_function(
                           "to_f64", [](T v) { return static_cast<double>(v); }),
                       queue_);
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
          result = static_cast<double>(
              bcsim::reduce(data, data + n, T{}, bcsim::plus<T>(), queue_));
          break;
        case AggOp::kMin:
          result = static_cast<double>(
              bcsim::reduce(data, data + n, std::numeric_limits<T>::max(),
                            bcsim::min_op<T>(), queue_));
          break;
        case AggOp::kMax:
          result = static_cast<double>(
              bcsim::reduce(data, data + n, std::numeric_limits<T>::lowest(),
                            bcsim::max_op<T>(), queue_));
          break;
        case AggOp::kCount:
          break;  // handled above
      }
    });
    return result;
  }

  DeviceColumn Sort(const DeviceColumn& column) override {
    DeviceColumn out(column.type(), column.size(), device());
    BACKENDS_DISPATCH(column.type(), {
      gpusim::CopyDeviceToDevice(queue_.stream(), out.data<T>(),
                                 column.data<T>(), column.size() * sizeof(T));
      bcsim::sort(out.data<T>(), out.data<T>() + out.size(), queue_);
    });
    return out;
  }

  std::pair<DeviceColumn, DeviceColumn> SortByKey(
      const DeviceColumn& keys, const DeviceColumn& values) override {
    DeviceColumn out_keys(keys.type(), keys.size(), device());
    DeviceColumn out_vals(values.type(), values.size(), device());
    BACKENDS_DISPATCH(keys.type(), {
      using K = T;
      gpusim::CopyDeviceToDevice(queue_.stream(), out_keys.data<K>(),
                                 keys.data<K>(), keys.size() * sizeof(K));
      BACKENDS_DISPATCH(values.type(), {
        gpusim::CopyDeviceToDevice(queue_.stream(), out_vals.data<T>(),
                                   values.data<T>(),
                                   values.size() * sizeof(T));
        bcsim::sort_by_key(out_keys.data<K>(),
                           out_keys.data<K>() + keys.size(),
                           out_vals.data<T>(), queue_);
      });
    });
    return {std::move(out_keys), std::move(out_vals)};
  }

  DeviceColumn Unique(const DeviceColumn& column) override {
    DeviceColumn sorted = Sort(column);
    size_t count = 0;
    BACKENDS_DISPATCH(column.type(), {
      T* data = sorted.data<T>();
      T* end = bcsim::unique(data, data + sorted.size(), queue_);
      count = static_cast<size_t>(end - data);
    });
    DeviceColumn out(column.type(), count, device());
    if (count > 0) {
      gpusim::CopyDeviceToDevice(queue_.stream(), out.raw_data(),
                                 sorted.raw_data(),
                                 count * storage::DataTypeSize(column.type()));
    }
    return out;
  }

  DeviceColumn PrefixSum(const DeviceColumn& column) override {
    DeviceColumn out(column.type(), column.size(), device());
    BACKENDS_DISPATCH(column.type(), {
      bcsim::exclusive_scan(column.data<T>(),
                            column.data<T>() + column.size(), out.data<T>(),
                            T{}, bcsim::plus<T>(), queue_);
    });
    return out;
  }

  DeviceColumn Gather(const DeviceColumn& src,
                      const DeviceColumn& indices) override {
    DeviceColumn out(src.type(), indices.size(), device());
    const int32_t* map = indices.data<int32_t>();
    BACKENDS_DISPATCH(src.type(), {
      bcsim::gather(map, map + indices.size(), src.data<T>(), out.data<T>(),
                    queue_);
    });
    return out;
  }

  DeviceColumn Scatter(const DeviceColumn& src, const DeviceColumn& indices,
                       size_t out_size) override {
    DeviceColumn out(src.type(), out_size, device());
    const int32_t* map = indices.data<int32_t>();
    BACKENDS_DISPATCH(src.type(), {
      bcsim::fill(out.data<T>(), out.data<T>() + out_size, T{}, queue_);
      bcsim::scatter(src.data<T>(), src.data<T>() + src.size(), map,
                     out.data<T>(), queue_);
    });
    return out;
  }

  DeviceColumn Product(const DeviceColumn& a, const DeviceColumn& b) override {
    DeviceColumn out(a.type(), a.size(), device());
    BACKENDS_DISPATCH(a.type(), {
      bcsim::transform(a.data<T>(), a.data<T>() + a.size(), b.data<T>(),
                       out.data<T>(), bcsim::multiplies<T>(), queue_);
    });
    return out;
  }

  DeviceColumn AddScalar(const DeviceColumn& a, double alpha) override {
    DeviceColumn out(a.type(), a.size(), device());
    BACKENDS_DISPATCH(a.type(), {
      const T s = static_cast<T>(alpha);
      bcsim::transform(a.data<T>(), a.data<T>() + a.size(), out.data<T>(),
                       bcsim::make_function(
                           "add_scalar",
                           [=](T v) { return static_cast<T>(v + s); }),
                       queue_);
    });
    return out;
  }

  DeviceColumn SubtractFromScalar(double alpha,
                                  const DeviceColumn& a) override {
    DeviceColumn out(a.type(), a.size(), device());
    BACKENDS_DISPATCH(a.type(), {
      const T s = static_cast<T>(alpha);
      bcsim::transform(a.data<T>(), a.data<T>() + a.size(), out.data<T>(),
                       bcsim::make_function(
                           "sub_from_scalar",
                           [=](T v) { return static_cast<T>(s - v); }),
                       queue_);
    });
    return out;
  }

 protected:
  /// Each encoded-domain operator is a distinct OpenCL program; the queue's
  /// program cache charges its one-time clBuildProgram before the default
  /// pipeline's kernels run, exactly as the raw operators do.
  void EncodedOpPrologue(const char* op, int kernels) override {
    (void)kernels;
    queue_.ensure_program(std::string("bcsim.encoded.") + op);
  }

 private:
  gpusim::Device& device() { return queue_.get_context().get_device(); }

  template <typename T>
  DeviceColumn ShrinkToColumn(const T* data, size_t count, DataType type) {
    DeviceColumn out(type, count, device());
    if (count > 0) {
      gpusim::CopyDeviceToDevice(queue_.stream(), out.raw_data(), data,
                                 count * sizeof(T));
    }
    return out;
  }

  void PredicateFlags(const DeviceColumn& column, const Predicate& pred,
                      uint32_t* flags) {
    const size_t n = column.size();
    BACKENDS_DISPATCH(column.type(), {
      const T* data = column.data<T>();
      const T lit = PredLiteral<T>(pred);
      const CompareOp op = pred.op;
      auto fn = bcsim::make_function(
          std::string("pred_") + CmpSuffix(op),
          [=](T v) { return ApplyCompare(op, v, lit) ? 1u : 0u; });
      bcsim::transform(data, data + n, flags, fn, queue_);
    });
  }

  SelectionResult FinishSelection(const uint32_t* flags, size_t n) {
    SelectionResult out;
    if (n == 0) {
      out.row_ids = DeviceColumn(DataType::kInt32, 0, device());
      return out;
    }
    gpusim::DeviceArray<uint32_t> positions(n, device());
    bcsim::exclusive_scan(flags, flags + n, positions.data(), uint32_t{0},
                          bcsim::plus<uint32_t>(), queue_);
    uint32_t last_pos = 0, last_flag = 0;
    gpusim::CopyDeviceToHost(queue_.stream(), &last_pos,
                             positions.data() + (n - 1), sizeof(uint32_t));
    gpusim::CopyDeviceToHost(queue_.stream(), &last_flag, flags + (n - 1),
                             sizeof(uint32_t));
    out.count = last_pos + last_flag;
    out.row_ids = DeviceColumn(DataType::kInt32, out.count, device());
    bcsim::scatter_if(bcsim::make_counting_iterator<int32_t>(0),
                      bcsim::make_counting_iterator<int32_t>(
                          static_cast<int32_t>(n)),
                      positions.data(), flags, out.row_ids.data<int32_t>(),
                      queue_);
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
        bcsim::transform(acc.data(), acc.data() + n, flags.data(), acc.data(),
                         bcsim::bit_and<uint32_t>(), queue_);
      } else {
        bcsim::transform(acc.data(), acc.data() + n, flags.data(), acc.data(),
                         bcsim::bit_or<uint32_t>(), queue_);
      }
    }
    return FinishSelection(acc.data(), n);
  }

  bcsim::context ctx_;
  bcsim::command_queue queue_;
};

}  // namespace

std::unique_ptr<core::Backend> CreateBoostComputeBackend() {
  return std::make_unique<BoostComputeBackend>();
}

}  // namespace backends
