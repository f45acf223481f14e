// Host wall-clock throughput of the gpusim primitive hot paths.
//
// Unlike every other bench in this directory, this one reports *real* time:
// it measures what the simulator itself costs on the host (allocator,
// kernel-launch dispatch, thread-pool rendezvous), which bounds how fast the
// whole suite can run. Simulated time is charged as usual but not reported.
// Pool allocator effectiveness shows up as the pool_hits / pool_misses
// counters: after the first iteration every scratch buffer of the multi-pass
// primitives should be served from the device pool. The grouped-combine
// paths run at both ends of group cardinality (4 and 262144 groups over 1M
// rows), where tile-private partials are cheapest and dearest to merge. The
// encoded-scan paths evaluate predicates and decode rows of FOR, dictionary
// and RLE columns, the cost of serving encoded tables. The ArrayFire paths
// evaluate fused JIT trees, alone and as the where() per outer row of its
// nested-loops join.
#include <algorithm>

#include "bench_common.h"

#include "afsim/afsim.h"
#include "gpusim/algorithms.h"
#include "handwritten/handwritten.h"
#include "storage/encoded_column.h"
#include "storage/encoding.h"

namespace bench {

enum class HotPath { kReduce, kScan, kSort, kCompact, kAllocFree };

const char* HotPathName(HotPath p) {
  switch (p) {
    case HotPath::kReduce: return "Reduce";
    case HotPath::kScan: return "Scan";
    case HotPath::kSort: return "Sort";
    case HotPath::kCompact: return "Compact";
    case HotPath::kAllocFree: return "AllocFree";
  }
  return "?";
}

/// Items processed plus the device pool's counters over the timed loop.
void ReportPoolCounters(benchmark::State& state,
                        const gpusim::CounterSnapshot& delta, size_t n) {
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
  state.counters["pool_hits"] = static_cast<double>(delta.pool_hits);
  state.counters["pool_misses"] = static_cast<double>(delta.pool_misses);
  state.counters["bytes_pooled"] = static_cast<double>(delta.bytes_pooled);
  state.counters["hit_rate"] =
      delta.pool_hits + delta.pool_misses > 0
          ? static_cast<double>(delta.pool_hits) /
                static_cast<double>(delta.pool_hits + delta.pool_misses)
          : 0.0;
}

void WallClockBench(benchmark::State& state, HotPath path) {
  const size_t n = static_cast<size_t>(state.range(0));
  gpusim::Device device;  // fresh device: pool warms up during the run
  gpusim::Stream stream(device, gpusim::ApiProfile::Cuda());

  const auto ints = UniformInts(n, 1 << 20);
  gpusim::DeviceArray<int32_t> in = gpusim::ToDevice(stream, ints, device);
  gpusim::DeviceArray<int32_t> out(n, device);
  gpusim::DeviceArray<int32_t> keys(n, device);

  const auto start = device.Snapshot();
  for (auto _ : state) {
    switch (path) {
      case HotPath::kReduce:
        benchmark::DoNotOptimize(gpusim::Reduce(
            stream, in.data(), n, int32_t{0},
            [](int32_t a, int32_t b) { return a + b; }));
        break;
      case HotPath::kScan:
        gpusim::InclusiveScan(stream, in.data(), out.data(), n,
                              [](int32_t a, int32_t b) { return a + b; });
        break;
      case HotPath::kSort:
        gpusim::CopyDeviceToDevice(stream, keys.data(), in.data(),
                                   n * sizeof(int32_t));
        gpusim::RadixSortKeys(stream, keys.data(), n);
        break;
      case HotPath::kCompact:
        benchmark::DoNotOptimize(
            gpusim::CopyIf(stream, in.data(), n, out.data(),
                           [](int32_t v) { return (v & 1) == 0; }));
        break;
      case HotPath::kAllocFree: {
        // Pure allocator churn at the scratch sizes the primitives use.
        gpusim::DeviceArray<uint32_t> a(n / 1024 + 1, device);
        gpusim::DeviceArray<uint32_t> b(n, device);
        benchmark::DoNotOptimize(a.data());
        benchmark::DoNotOptimize(b.data());
        break;
      }
    }
  }
  ReportPoolCounters(state, device.Snapshot().Delta(start), n);
}

enum class GroupPath { kHashGroupByReduce, kReduceByKey };

/// Grouped sums of doubles at a given group count: the handwritten hash
/// aggregation over unsorted keys, and the segmented reduction the
/// libraries run after a sort, over sorted keys.
void GroupByWallClockBench(benchmark::State& state, GroupPath path) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto groups = static_cast<int32_t>(state.range(1));
  gpusim::Device device;
  gpusim::Stream stream(device, gpusim::ApiProfile::Cuda());

  std::vector<int32_t> host_keys = UniformInts(n, groups);
  if (path == GroupPath::kReduceByKey) {
    std::sort(host_keys.begin(), host_keys.end());
  }
  const gpusim::DeviceArray<int32_t> keys =
      gpusim::ToDevice(stream, host_keys, device);
  const gpusim::DeviceArray<double> vals =
      gpusim::ToDevice(stream, UniformDoubles(n, 1000.0), device);
  gpusim::DeviceArray<int32_t> out_keys(n, device);
  gpusim::DeviceArray<double> out_vals(n, device);
  const auto plus = [](double a, double b) { return a + b; };

  const auto start = device.Snapshot();
  for (auto _ : state) {
    if (path == GroupPath::kHashGroupByReduce) {
      const auto grouped = handwritten::HashGroupByReduce(
          stream, keys.data(), vals.data(), n, 0.0, plus);
      benchmark::DoNotOptimize(grouped.num_groups);
    } else {
      benchmark::DoNotOptimize(gpusim::ReduceByKey(
          stream, keys.data(), vals.data(), n, out_keys.data(),
          out_vals.data(), plus));
    }
  }
  ReportPoolCounters(state, device.Snapshot().Delta(start), n);
}

/// Uploads `values` encoded as `encoding` (packed schemes take the width
/// and frame the column needs) on the backend's stream.
template <typename T>
storage::EncodedDeviceColumn UploadEncoded(core::Backend& backend,
                                           const std::vector<T>& values,
                                           storage::Encoding encoding) {
  const storage::Column column((std::vector<T>(values)));
  storage::EncodingChoice choice;
  choice.encoding = encoding;
  if (encoding == storage::Encoding::kFor) {
    const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
    choice.reference = static_cast<int64_t>(*lo);
    choice.bit_width = storage::BitsForMax(static_cast<uint64_t>(*hi - *lo));
  }
  return storage::UploadColumnEncoded(backend.stream(),
                                      storage::EncodeColumn(column, choice));
}

/// Q6's scan shape on 1M encoded rows through the handwritten fused kernel:
/// a date range on a FOR column and a range on a dictionary column.
void SelectEncodedWallClockBench(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  auto backend = core::BackendRegistry::Instance().Create(
      backends::kHandwritten);
  std::vector<int32_t> dates = UniformInts(n, 2557);
  for (int32_t& d : dates) d += 8036;
  std::vector<double> discounts = UniformDoubles(n, 11.0, 99);
  for (double& d : discounts) d = static_cast<int32_t>(d) / 100.0;
  const storage::EncodedDeviceColumn date_col =
      UploadEncoded(*backend, dates, storage::Encoding::kFor);
  const storage::EncodedDeviceColumn discount_col =
      UploadEncoded(*backend, discounts, storage::Encoding::kDictionary);
  const std::vector<core::ScanColumnRef> columns{
      core::ScanColumnRef::Encoded(date_col),
      core::ScanColumnRef::Encoded(date_col),
      core::ScanColumnRef::Encoded(discount_col),
      core::ScanColumnRef::Encoded(discount_col)};
  const std::vector<core::Predicate> preds{
      core::Predicate::Make("d", core::CompareOp::kGe, 8766),
      core::Predicate::Make("d", core::CompareOp::kLt, 9131),
      core::Predicate::Make("x", core::CompareOp::kGe, 0.05),
      core::Predicate::Make("x", core::CompareOp::kLe, 0.07)};

  gpusim::Device& device = backend->stream().device();
  const auto start = device.Snapshot();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        backend->SelectConjunctiveEncoded(columns, preds).count);
  }
  ReportPoolCounters(state, device.Snapshot().Delta(start), n);
}

/// Late materialization of every other row of 1M encoded rows: RLE int32
/// runs (binary search per row) or dictionary doubles.
void GatherDecodeWallClockBench(benchmark::State& state,
                                storage::Encoding encoding) {
  const size_t n = static_cast<size_t>(state.range(0));
  auto backend = core::BackendRegistry::Instance().Create(
      backends::kHandwritten);
  storage::EncodedDeviceColumn column;
  if (encoding == storage::Encoding::kRle) {
    std::vector<int32_t> keys = UniformInts(n, static_cast<int32_t>(n / 4));
    std::sort(keys.begin(), keys.end());
    column = UploadEncoded(*backend, keys, encoding);
  } else {
    std::vector<double> prices = UniformDoubles(n, 64.0);
    for (double& p : prices) p = static_cast<int32_t>(p) * 0.25;
    column = UploadEncoded(*backend, prices, encoding);
  }
  std::vector<int32_t> rows(n / 2);
  for (size_t i = 0; i < rows.size(); ++i) {
    rows[i] = static_cast<int32_t>(2 * i);
  }
  const storage::DeviceColumn ids = Upload(*backend, rows);

  gpusim::Device& device = backend->stream().device();
  const auto start = device.Snapshot();
  for (auto _ : state) {
    benchmark::DoNotOptimize(backend->GatherDecode(column, ids).size());
  }
  ReportPoolCounters(state, device.Snapshot().Delta(start), rows.size());
}

enum class AfExpr { kQ1Revenue, kKeyEq };

/// One fused ArrayFire JIT tree built and evaluated per iteration: Q1's
/// `price * (1 - disc) * (1 + tax)` over f64 columns, or the `key == k`
/// over an int32 column that the nested-loops join evaluates per outer row.
void AfJitEvalWallClockBench(benchmark::State& state, AfExpr expr) {
  const size_t n = static_cast<size_t>(state.range(0));
  const afsim::array price = afsim::from_vector(UniformDoubles(n, 1e5, 1));
  const afsim::array disc = afsim::from_vector(UniformDoubles(n, 0.1, 2));
  const afsim::array tax = afsim::from_vector(UniformDoubles(n, 0.08, 3));
  const afsim::array key =
      afsim::from_vector(UniformInts(n, static_cast<int32_t>(n)));

  gpusim::Device& device = afsim::default_stream().device();
  const auto start = device.Snapshot();
  for (auto _ : state) {
    const afsim::array out = expr == AfExpr::kQ1Revenue
                                 ? price * (1.0 - disc) * (1.0 + tax)
                                 : key == 42.0;
    benchmark::DoNotOptimize(out.eval().device_ptr());
    benchmark::ClobberMemory();
  }
  ReportPoolCounters(state, device.Snapshot().Delta(start), n);
}

/// ArrayFire's nested-loops join of 1,500 x 5,700 int32 keys: one where()
/// of a fused `right == key` per left row.
void AfNestedLoopsJoinWallClockBench(benchmark::State& state) {
  auto backend = core::BackendRegistry::Instance().Create(backends::kArrayFire);
  const storage::DeviceColumn left =
      Upload(*backend, UniformInts(1500, 6000, 1));
  const storage::DeviceColumn right =
      Upload(*backend, UniformInts(5700, 6000, 2));

  gpusim::Device& device = backend->stream().device();
  const auto start = device.Snapshot();
  for (auto _ : state) {
    benchmark::DoNotOptimize(backend->NestedLoopsJoin(left, right).count);
  }
  ReportPoolCounters(state, device.Snapshot().Delta(start), 1500);
}

void RegisterBenchmarks() {
  for (const HotPath path :
       {HotPath::kReduce, HotPath::kScan, HotPath::kSort, HotPath::kCompact,
        HotPath::kAllocFree}) {
    auto* b = benchmark::RegisterBenchmark(
        (std::string("WallClock/") + HotPathName(path)).c_str(),
        [path](benchmark::State& s) { WallClockBench(s, path); });
    for (const int64_t n : {1 << 14, 1 << 20}) b->Arg(n);
  }
  for (const GroupPath path :
       {GroupPath::kHashGroupByReduce, GroupPath::kReduceByKey}) {
    auto* b = benchmark::RegisterBenchmark(
        path == GroupPath::kHashGroupByReduce ? "WallClock/HashGroupByReduce"
                                              : "WallClock/ReduceByKey",
        [path](benchmark::State& s) { GroupByWallClockBench(s, path); });
    for (const int64_t groups : {4, 1 << 18}) b->Args({1 << 20, groups});
  }
  benchmark::RegisterBenchmark("WallClock/SelectConjunctiveEncoded",
                               SelectEncodedWallClockBench)
      ->Arg(1 << 20);
  for (const storage::Encoding e :
       {storage::Encoding::kRle, storage::Encoding::kDictionary}) {
    benchmark::RegisterBenchmark(
        (std::string("WallClock/GatherDecode/") + storage::EncodingName(e))
            .c_str(),
        [e](benchmark::State& s) { GatherDecodeWallClockBench(s, e); })
        ->Arg(1 << 20);
  }
  for (const AfExpr expr : {AfExpr::kQ1Revenue, AfExpr::kKeyEq}) {
    auto* b = benchmark::RegisterBenchmark(
        expr == AfExpr::kQ1Revenue ? "WallClock/AfJitEval/Q1Revenue"
                                   : "WallClock/AfJitEval/KeyEq",
        [expr](benchmark::State& s) { AfJitEvalWallClockBench(s, expr); });
    for (const int64_t n : {5700, 1 << 20}) b->Arg(n);
  }
  benchmark::RegisterBenchmark("WallClock/AfNestedLoopsJoin",
                               AfNestedLoopsJoinWallClockBench)
      ->Unit(benchmark::kMillisecond);
}

}  // namespace bench

BENCH_MAIN()
