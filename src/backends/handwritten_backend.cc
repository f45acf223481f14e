// Handwritten-kernel binding of the operator framework: the expert baseline.
//
// Selection (including multi-predicate) runs as ONE fused kernel; grouped
// aggregation and joins use hash tables — the operators Table II shows no
// library supports. This backend is what the paper's "handwritten operator
// implementations" compare against.
#include <algorithm>
#include <array>
#include <limits>
#include <memory>

#include "backends/backends.h"
#include "backends/common.h"
#include "core/backend.h"
#include "gpusim/algorithms.h"
#include "handwritten/handwritten.h"
#include "storage/encoded_column.h"
#include "storage/encoding.h"

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

/// Relocates one selected row id during gpusim::OrderedAppend's compaction.
struct MoveRowId {
  uint32_t* rows;
  void operator()(size_t from, size_t to) const { rows[to] = rows[from]; }
};

/// The combine kernel of the dense-code aggregations, one
/// gpusim::OrderedCombine launch over `n` rows into the `domain`-entry
/// `table`. Each tile folds its rows into partials of its own, one per code
/// and seeded with `identity`; then each code's partials fold into its table
/// entry in tile order. The scratch is one domain-sized partial array per
/// tile of gpusim::kCombineTileThreads rows.
template <typename T, typename CodeOf, typename ValueOf, typename Op>
void DenseCodeCombine(gpusim::Stream& stream, size_t n,
                      const gpusim::KernelStats& stats, T* table,
                      size_t domain, T identity, CodeOf code_of,
                      ValueOf value_of, Op op) {
  const size_t num_tiles = gpusim::NumCombineTiles(n);
  std::unique_ptr<T[]> partials(new T[num_tiles * domain]);
  gpusim::OrderedCombine(
      stream, n, stats,
      [&](size_t t, size_t begin, size_t end) {
        T* p = partials.get() + t * domain;
        std::fill(p, p + domain, identity);
        for (size_t i = begin; i < end; ++i) {
          T& acc = p[code_of(i)];
          acc = op(acc, value_of(i));
        }
      },
      domain,
      [&](size_t code) {
        T acc = table[code];
        for (size_t t = 0; t < num_tiles; ++t) {
          acc = op(acc, partials[t * domain + code]);
        }
        table[code] = acc;
      });
}

constexpr size_t kMaxFusedPredicates = 8;

class HandwrittenBackend : public core::Backend {
 public:
  HandwrittenBackend()
      : stream_(gpusim::Device::Current(), gpusim::ApiProfile::Cuda()) {
    stream_.set_label(kHandwritten);
  }

  std::string name() const override { return kHandwritten; }
  gpusim::Stream& stream() override { return stream_; }

  OperatorRealization Realization(DbOperator op) const override {
    switch (op) {
      case DbOperator::kSelection:
        return {SupportLevel::kFull, "fused predicate kernel"};
      case DbOperator::kConjunction:
      case DbOperator::kDisjunction:
        return {SupportLevel::kFull, "fused multi-predicate kernel"};
      case DbOperator::kNestedLoopsJoin:
        return {SupportLevel::kFull, "count+fill kernels"};
      case DbOperator::kMergeJoin:
        return {SupportLevel::kNone, ""};
      case DbOperator::kHashJoin:
        return {SupportLevel::kFull, "open-addressing build/probe kernels"};
      case DbOperator::kGroupedAggregation:
        return {SupportLevel::kFull, "atomic hash aggregation"};
      case DbOperator::kReduction:
        return {SupportLevel::kFull, "tree reduction kernel"};
      case DbOperator::kSortByKey:
      case DbOperator::kSort:
        return {SupportLevel::kFull, "LSD radix sort kernels"};
      case DbOperator::kPrefixSum:
        return {SupportLevel::kFull, "multi-level Blelloch scan"};
      case DbOperator::kScatterGather:
        return {SupportLevel::kFull, "direct kernels"};
      case DbOperator::kProduct:
        return {SupportLevel::kFull, "fused multiply kernel"};
    }
    return {SupportLevel::kNone, ""};
  }

  SelectionResult Select(const DeviceColumn& column,
                         const Predicate& pred) override {
    SelectionResult out;
    out.row_ids = DeviceColumn(DataType::kInt32, column.size(), device());
    size_t count = 0;
    BACKENDS_DISPATCH(column.type(), {
      const T lit = PredLiteral<T>(pred);
      const CompareOp op = pred.op;
      count = handwritten::SelectIndices(
          stream_, column.data<T>(), column.size(),
          reinterpret_cast<uint32_t*>(out.row_ids.data<int32_t>()),
          [=](T v) { return ApplyCompare(op, v, lit); });
    });
    out.count = count;
    out.row_ids = Shrink(out.row_ids, count);
    return out;
  }

  SelectionResult SelectConjunctive(
      const std::vector<const DeviceColumn*>& columns,
      const std::vector<Predicate>& preds) override {
    return SelectFused(columns, preds, /*conjunctive=*/true);
  }

  SelectionResult SelectDisjunctive(
      const std::vector<const DeviceColumn*>& columns,
      const std::vector<Predicate>& preds) override {
    return SelectFused(columns, preds, /*conjunctive=*/false);
  }

  SelectionResult SelectCompareColumns(const DeviceColumn& a, CompareOp op,
                                       const DeviceColumn& b) override {
    const size_t n = a.size();
    SelectionResult out;
    out.row_ids = DeviceColumn(DataType::kInt32, n, device());
    size_t count = 0;
    BACKENDS_DISPATCH(a.type(), {
      const T* pa = a.data<T>();
      const T* pb = b.data<T>();
      gpusim::DeviceArray<uint32_t> counter(1, device());
      gpusim::MemsetDevice(stream_, counter.data(), 0, sizeof(uint32_t));
      gpusim::KernelStats stats;
      stats.name = "hw::select_cmp_cols";
      stats.bytes_read = n * 2 * sizeof(T);
      stats.bytes_written = n * sizeof(uint32_t);
      uint32_t* rows =
          reinterpret_cast<uint32_t*>(out.row_ids.data<int32_t>());
      gpusim::OrderedAppend(
          stream_, n, stats, counter.data(),
          [=](size_t i, size_t slot) {
            if (!ApplyCompare(op, pa[i], pb[i])) return false;
            rows[slot] = static_cast<uint32_t>(i);
            return true;
          },
          MoveRowId{rows});
      uint32_t got = 0;
      gpusim::CopyDeviceToHost(stream_, &got, counter.data(),
                               sizeof(uint32_t));
      count = got;
    });
    out.count = count;
    out.row_ids = Shrink(out.row_ids, count);
    return out;
  }

  /// Encoded conjunctive selection as ONE fused kernel over the encoded
  /// payloads (ordered atomic-ticket compaction), mirroring SelectFused:
  /// predicates on packed columns compare codes via core::RewritePredicate,
  /// RLE predicates compare run values. One 4-byte count readback.
  SelectionResult SelectConjunctiveEncoded(
      const std::vector<core::ScanColumnRef>& columns,
      const std::vector<Predicate>& preds) override {
    if (columns.empty() || columns.size() != preds.size()) {
      throw std::invalid_argument(
          "SelectConjunctiveEncoded: bad predicate list");
    }
    std::vector<core::ScanMatcher> matchers;
    matchers.reserve(preds.size());
    uint64_t bytes_read = 0;
    for (size_t p = 0; p < preds.size(); ++p) {
      matchers.push_back(core::MakeScanMatcher(columns[p], preds[p]));
      bytes_read += core::ScanColumnSeqBytes(columns[p]);
    }
    return SelectMatching("hw::select_encoded_fused", matchers.data(),
                          matchers.size(), columns[0].size(), bytes_read,
                          /*conjunctive=*/true);
  }

  JoinResult NestedLoopsJoin(const DeviceColumn& left_keys,
                             const DeviceColumn& right_keys) override {
    gpusim::DeviceArray<uint32_t> rights, lefts;
    const size_t count = handwritten::NestedLoopsJoin(
        stream_, right_keys.data<int32_t>(), right_keys.size(),
        left_keys.data<int32_t>(), left_keys.size(), &rights, &lefts);
    JoinResult out;
    out.count = count;
    out.left_rows = CopyToColumn(lefts.data(), count);
    out.right_rows = CopyToColumn(rights.data(), count);
    return out;
  }

  JoinResult HashJoin(const DeviceColumn& left_keys,
                      const DeviceColumn& right_keys) override {
    handwritten::HashJoin<int32_t> table(stream_, left_keys.data<int32_t>(),
                                         left_keys.size());
    gpusim::DeviceArray<uint32_t> build_rows(right_keys.size(), device());
    gpusim::DeviceArray<uint32_t> probe_rows(right_keys.size(), device());
    const size_t count =
        table.Probe(right_keys.data<int32_t>(), right_keys.size(),
                    build_rows.data(), probe_rows.data());
    JoinResult out;
    out.count = count;
    out.left_rows = CopyToColumn(build_rows.data(), count);
    out.right_rows = CopyToColumn(probe_rows.data(), count);
    return out;
  }

  GroupByResult GroupByAggregate(const DeviceColumn& keys,
                                 const DeviceColumn& values,
                                 AggOp op) override {
    const int32_t* k = keys.data<int32_t>();
    const size_t n = keys.size();
    GroupByResult out;
    if (op == AggOp::kCount) {
      gpusim::DeviceArray<int64_t> ones(n, device());
      gpusim::Fill(stream_, ones.data(), n, int64_t{1});
      auto grouped = handwritten::HashGroupByReduce(
          stream_, k, ones.data(), n, int64_t{0},
          [](int64_t a, int64_t b) { return a + b; });
      out.num_groups = grouped.num_groups;
      out.keys = CopyToColumn(
          reinterpret_cast<uint32_t*>(grouped.keys.data()), grouped.num_groups);
      DeviceColumn agg(DataType::kInt64, grouped.num_groups, device());
      if (grouped.num_groups > 0) {
        gpusim::CopyDeviceToDevice(stream_, agg.raw_data(),
                                   grouped.sums.data(),
                                   grouped.num_groups * sizeof(int64_t));
      }
      out.aggregate = std::move(agg);
      return out;
    }
    BACKENDS_DISPATCH(values.type(), {
      T identity{};
      if (op == AggOp::kMin) identity = std::numeric_limits<T>::max();
      if (op == AggOp::kMax) identity = std::numeric_limits<T>::lowest();
      const AggOp aop = op;
      auto grouped = handwritten::HashGroupByReduce(
          stream_, k, values.data<T>(), n, identity, [aop](T a, T b) {
            switch (aop) {
              case AggOp::kSum: return static_cast<T>(a + b);
              case AggOp::kMin: return b < a ? b : a;
              case AggOp::kMax: return a < b ? b : a;
              default: return static_cast<T>(a + b);
            }
          });
      out.num_groups = grouped.num_groups;
      out.keys = CopyToColumn(
          reinterpret_cast<uint32_t*>(grouped.keys.data()), grouped.num_groups);
      DeviceColumn agg(DataType::kFloat64, grouped.num_groups, device());
      const T* sums = grouped.sums.data();
      double* aggp = agg.data<double>();
      gpusim::KernelStats stats;
      stats.name = "hw::agg_to_f64";
      stats.bytes_read = grouped.num_groups * sizeof(T);
      stats.bytes_written = grouped.num_groups * sizeof(double);
      gpusim::ParallelFor(stream_, grouped.num_groups, stats, [=](size_t i) {
        aggp[i] = static_cast<double>(sums[i]);
      });
      out.aggregate = std::move(agg);
    });
    return out;
  }

  /// Encoded group keys over a small dense code domain (Q1's dictionary- or
  /// bit-packed l_rfls): ONE combining pass into a domain-sized dense table —
  /// no hash probes, no flag/scan/compact pipeline, and no count readback,
  /// since every code is a group (absent codes come back with identity
  /// aggregates, as the interface allows). Wide or RLE key domains fall back
  /// to the decode-then-hash default.
  GroupByResult GroupByAggregateEncoded(
      const storage::EncodedDeviceColumn& keys,
      const SelectionResult& rows, const DeviceColumn& values,
      AggOp op) override {
    const bool dict = keys.encoding == storage::Encoding::kDictionary;
    const bool packed = keys.encoding == storage::Encoding::kBitPack ||
                        keys.encoding == storage::Encoding::kFor;
    size_t domain = 0;
    if (dict) {
      domain = keys.host_dict_i64.size();
    } else if (packed && keys.bit_width <= 12) {
      domain = size_t{1} << keys.bit_width;
    }
    if (keys.type != DataType::kInt32 || domain == 0 || domain > 4096) {
      return core::Backend::GroupByAggregateEncoded(keys, rows, values, op);
    }

    const size_t n = rows.count;
    const int32_t* row_ids = n > 0 ? rows.row_ids.data<int32_t>() : nullptr;
    const uint64_t* words = keys.words_data();
    const unsigned bits = keys.bit_width;
    const uint64_t key_bytes = (bits + 7) / 8;

    GroupByResult out;
    out.num_groups = domain;

    // Group keys: dictionary entries are already device-resident at the
    // logical type; packed domains materialize reference + code.
    out.keys = DeviceColumn(DataType::kInt32, domain, device());
    if (dict) {
      gpusim::CopyDeviceToDevice(stream_, out.keys.raw_data(),
                                 keys.dict.raw_data(),
                                 domain * sizeof(int32_t));
    } else {
      int32_t* kp = out.keys.data<int32_t>();
      const int64_t reference = keys.reference;
      gpusim::KernelStats kstats;
      kstats.name = "hw::dense_group_keys";
      kstats.bytes_written = domain * sizeof(int32_t);
      gpusim::ParallelFor(stream_, domain, kstats, [=](size_t g) {
        kp[g] = static_cast<int32_t>(reference + static_cast<int64_t>(g));
      });
    }

    if (op == AggOp::kCount) {
      gpusim::DeviceArray<int64_t> sums(domain, device());
      gpusim::Fill(stream_, sums.data(), domain, int64_t{0});
      gpusim::KernelStats stats;
      stats.name = "hw::dense_group_count";
      stats.bytes_read = n * (sizeof(int32_t) + key_bytes);
      stats.bytes_written = n * sizeof(int64_t);
      stats.ops = 2 * n;
      DenseCodeCombine(
          stream_, n, stats, sums.data(), domain, int64_t{0},
          [=](size_t i) {
            return storage::UnpackBit(words, bits,
                                      static_cast<size_t>(row_ids[i]));
          },
          [](size_t) { return int64_t{1}; },
          [](int64_t a, int64_t b) { return a + b; });
      DeviceColumn agg(DataType::kInt64, domain, device());
      gpusim::CopyDeviceToDevice(stream_, agg.raw_data(), sums.data(),
                                 domain * sizeof(int64_t));
      out.aggregate = std::move(agg);
      return out;
    }

    // Sum/min/max accumulate straight into the f64 aggregate layout the
    // hash realization also produces (no separate conversion kernel).
    gpusim::DeviceArray<double> sums(domain, device());
    double identity = 0.0;
    if (op == AggOp::kMin) identity = std::numeric_limits<double>::max();
    if (op == AggOp::kMax) identity = std::numeric_limits<double>::lowest();
    gpusim::Fill(stream_, sums.data(), domain, identity);
    BACKENDS_DISPATCH(values.type(), {
      const T* pv = n > 0 ? values.data<T>() : nullptr;
      const AggOp aop = op;
      gpusim::KernelStats stats;
      stats.name = "hw::dense_group_reduce";
      stats.bytes_read = n * (sizeof(int32_t) + key_bytes + sizeof(T));
      stats.bytes_written = n * sizeof(double);
      stats.ops = 3 * n;
      DenseCodeCombine(
          stream_, n, stats, sums.data(), domain, identity,
          [=](size_t i) {
            return storage::UnpackBit(words, bits,
                                      static_cast<size_t>(row_ids[i]));
          },
          [=](size_t i) { return static_cast<double>(pv[i]); },
          [aop](double a, double b) {
            switch (aop) {
              case AggOp::kMin: return b < a ? b : a;
              case AggOp::kMax: return a < b ? b : a;
              default: return a + b;
            }
          });
    });
    DeviceColumn agg(DataType::kFloat64, domain, device());
    gpusim::CopyDeviceToDevice(stream_, agg.raw_data(), sums.data(),
                               domain * sizeof(double));
    out.aggregate = std::move(agg);
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
          result = static_cast<double>(gpusim::Reduce(
              stream_, data, n, T{},
              [](T a, T b) { return static_cast<T>(a + b); }, "hw::sum"));
          break;
        case AggOp::kMin:
          result = static_cast<double>(gpusim::Reduce(
              stream_, data, n, std::numeric_limits<T>::max(),
              [](T a, T b) { return b < a ? b : a; }, "hw::min"));
          break;
        case AggOp::kMax:
          result = static_cast<double>(gpusim::Reduce(
              stream_, data, n, std::numeric_limits<T>::lowest(),
              [](T a, T b) { return a < b ? b : a; }, "hw::max"));
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
      gpusim::CopyDeviceToDevice(stream_, out.data<T>(), column.data<T>(),
                                 column.size() * sizeof(T));
      gpusim::RadixSortKeys(stream_, out.data<T>(), out.size());
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
        gpusim::RadixSortPairs(stream_, out_keys.data<K>(), out_vals.data<T>(),
                               keys.size());
      });
    });
    return {std::move(out_keys), std::move(out_vals)};
  }

  DeviceColumn Unique(const DeviceColumn& column) override {
    DeviceColumn sorted = Sort(column);
    size_t count = 0;
    DeviceColumn tmp(column.type(), column.size(), device());
    BACKENDS_DISPATCH(column.type(), {
      count = gpusim::UniqueSorted(stream_, sorted.data<T>(), sorted.size(),
                                   tmp.data<T>());
    });
    DeviceColumn out(column.type(), count, device());
    if (count > 0) {
      gpusim::CopyDeviceToDevice(stream_, out.raw_data(), tmp.raw_data(),
                                 count * storage::DataTypeSize(column.type()));
    }
    return out;
  }

  DeviceColumn PrefixSum(const DeviceColumn& column) override {
    DeviceColumn out(column.type(), column.size(), device());
    BACKENDS_DISPATCH(column.type(), {
      gpusim::ExclusiveScan(stream_, column.data<T>(), out.data<T>(),
                            column.size(), T{},
                            [](T a, T b) { return static_cast<T>(a + b); });
    });
    return out;
  }

  DeviceColumn Gather(const DeviceColumn& src,
                      const DeviceColumn& indices) override {
    DeviceColumn out(src.type(), indices.size(), device());
    const int32_t* map = indices.data<int32_t>();
    BACKENDS_DISPATCH(src.type(), {
      gpusim::Gather(stream_, map, indices.size(), src.data<T>(),
                     out.data<T>());
    });
    return out;
  }

  DeviceColumn Scatter(const DeviceColumn& src, const DeviceColumn& indices,
                       size_t out_size) override {
    DeviceColumn out(src.type(), out_size, device());
    const int32_t* map = indices.data<int32_t>();
    BACKENDS_DISPATCH(src.type(), {
      gpusim::Fill(stream_, out.data<T>(), out_size, T{});
      gpusim::Scatter(stream_, src.data<T>(), map, src.size(), out.data<T>());
    });
    return out;
  }

  DeviceColumn Product(const DeviceColumn& a, const DeviceColumn& b) override {
    DeviceColumn out(a.type(), a.size(), device());
    BACKENDS_DISPATCH(a.type(), {
      const T* pa = a.data<T>();
      const T* pb = b.data<T>();
      T* po = out.data<T>();
      gpusim::KernelStats stats;
      stats.name = "hw::product";
      stats.bytes_read = a.size() * 2 * sizeof(T);
      stats.bytes_written = a.size() * sizeof(T);
      gpusim::ParallelFor(stream_, a.size(), stats,
                          [=](size_t i) { po[i] = pa[i] * pb[i]; });
    });
    return out;
  }

  DeviceColumn AddScalar(const DeviceColumn& a, double alpha) override {
    return MapScalar(a, alpha, /*subtract_from=*/false);
  }

  DeviceColumn SubtractFromScalar(double alpha,
                                  const DeviceColumn& a) override {
    return MapScalar(a, alpha, /*subtract_from=*/true);
  }

 private:
  gpusim::Device& device() { return stream_.device(); }

  DeviceColumn MapScalar(const DeviceColumn& a, double alpha,
                         bool subtract_from) {
    DeviceColumn out(a.type(), a.size(), device());
    BACKENDS_DISPATCH(a.type(), {
      const T* pa = a.data<T>();
      T* po = out.data<T>();
      const T s = static_cast<T>(alpha);
      gpusim::KernelStats stats;
      stats.name = "hw::map_scalar";
      stats.bytes_read = a.size() * sizeof(T);
      stats.bytes_written = a.size() * sizeof(T);
      gpusim::ParallelFor(stream_, a.size(), stats, [=](size_t i) {
        po[i] = subtract_from ? static_cast<T>(s - pa[i])
                              : static_cast<T>(pa[i] + s);
      });
    });
    return out;
  }

  DeviceColumn CopyToColumn(const uint32_t* data, size_t count) {
    DeviceColumn out(DataType::kInt32, count, device());
    if (count > 0) {
      gpusim::CopyDeviceToDevice(stream_, out.raw_data(), data,
                                 count * sizeof(uint32_t));
    }
    return out;
  }

  DeviceColumn Shrink(const DeviceColumn& column, size_t count) {
    DeviceColumn out(column.type(), count, device());
    if (count > 0) {
      gpusim::CopyDeviceToDevice(
          stream_, out.raw_data(), column.raw_data(),
          count * storage::DataTypeSize(column.type()));
    }
    return out;
  }

  SelectionResult SelectFused(
      const std::vector<const DeviceColumn*>& columns,
      const std::vector<Predicate>& preds, bool conjunctive) {
    if (columns.empty() || columns.size() != preds.size() ||
        columns.size() > kMaxFusedPredicates) {
      throw std::invalid_argument("SelectFused: bad predicate list");
    }
    const size_t n = columns[0]->size();
    std::array<core::ScanMatcher, kMaxFusedPredicates> matchers{};
    uint64_t bytes_per_row = 0;
    for (size_t p = 0; p < preds.size(); ++p) {
      matchers[p] = core::MakeScanMatcher(
          core::ScanColumnRef::Raw(*columns[p]), preds[p]);
      bytes_per_row += storage::DataTypeSize(columns[p]->type());
    }
    return SelectMatching("hw::select_multi_fused", matchers.data(),
                          preds.size(), n, n * bytes_per_row, conjunctive);
  }

  /// ONE fused selection kernel (ordered atomic-ticket compaction) over `n`
  /// rows that keeps a row when all (`conjunctive`) or any of the
  /// `num_preds` matchers hold, then one 4-byte count readback. The host
  /// evaluates the matchers a tile at a time (core::MatchTile) and compacts
  /// each tile in row order; the kernel is still priced per row and
  /// predicate.
  SelectionResult SelectMatching(const char* name,
                                 const core::ScanMatcher* matchers,
                                 size_t num_preds, size_t n,
                                 uint64_t bytes_read, bool conjunctive) {
    SelectionResult out;
    out.row_ids = DeviceColumn(DataType::kInt32, n, device());
    gpusim::DeviceArray<uint32_t> counter(1, device());
    gpusim::MemsetDevice(stream_, counter.data(), 0, sizeof(uint32_t));
    gpusim::KernelStats stats;
    stats.name = name;
    stats.bytes_read = bytes_read;
    stats.bytes_written = n * sizeof(uint32_t);
    stats.ops = n * num_preds;
    uint32_t* rows = reinterpret_cast<uint32_t*>(out.row_ids.data<int32_t>());
    gpusim::OrderedAppendRange(
        stream_, n, stats, counter.data(),
        [=](size_t begin, size_t end, size_t slot) {
          uint8_t keep[core::kScanTileRows];
          size_t w = slot;
          for (size_t t = begin; t < end; t += core::kScanTileRows) {
            const size_t te = std::min(end, t + core::kScanTileRows);
            core::MatchTile(matchers, num_preds, conjunctive, t, te, keep);
            // Branch-free compaction: every row is written at the next free
            // slot, and only the kept ones advance it.
            for (size_t i = t; i < te; ++i) {
              rows[w] = static_cast<uint32_t>(i);
              w += keep[i - t];
            }
          }
          return w - slot;
        },
        MoveRowId{rows});
    uint32_t count = 0;
    gpusim::CopyDeviceToHost(stream_, &count, counter.data(),
                             sizeof(uint32_t));
    out.count = count;
    out.row_ids = Shrink(out.row_ids, count);
    return out;
  }

  gpusim::Stream stream_;
};

}  // namespace

std::unique_ptr<core::Backend> CreateHandwrittenBackend() {
  return std::make_unique<HandwrittenBackend>();
}

}  // namespace backends
