// Answers and simulated time must not depend on the size of the host thread
// pool that runs a device's kernels. The grouped combines (ReduceByKey, the
// handwritten hash aggregations and the dense-code aggregation) are where
// host threads could reorder float additions, so each runs here on pools of
// 1, 2, 3 and 8 host threads, at sizes that spread its grid over many tiles,
// with few groups and with many. Then every TPC-H query runs on every
// library, raw and encoded, on the same pools; the prepared (served) path
// answers each of them too, and must match the one-shot run bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "backends/backends.h"
#include "core/backend.h"
#include "core/registry.h"
#include "gpusim/algorithms.h"
#include "gpusim/device.h"
#include "gpusim/memory.h"
#include "gpusim/stream.h"
#include "handwritten/handwritten.h"
#include "plan/partition.h"
#include "plan/prepared.h"
#include "storage/device_column.h"
#include "storage/encoded_column.h"
#include "storage/encoding.h"
#include "tpch/datagen.h"
#include "tpch_answer_testing.h"

namespace {

using plan::TpchQuery;

constexpr unsigned kPoolSizes[] = {1, 2, 3, 8};
constexpr size_t kRows = 300'000;
constexpr int32_t kFewGroups = 4;
constexpr int32_t kManyGroups = 100'000;

/// What one grouped primitive returned, as bits: groups in output order,
/// float aggregates as their bit patterns, and the simulated ns of the
/// fresh stream it ran on.
struct GroupedRun {
  std::vector<int32_t> keys;
  std::vector<uint64_t> values;
  std::vector<uint64_t> counts;
  uint64_t ns = 0;
};

template <typename T>
std::vector<uint64_t> Bits(const std::vector<T>& v) {
  std::vector<uint64_t> out;
  out.reserve(v.size());
  for (const T x : v) {
    if constexpr (std::is_same_v<T, double>) {
      out.push_back(std::bit_cast<uint64_t>(x));
    } else {
      out.push_back(static_cast<uint64_t>(x));
    }
  }
  return out;
}

/// Runs `run` on a fresh device per pool size and expects every run to
/// return what the 1-thread pool returned, bit for bit.
template <typename Run>
void ExpectSameOnEveryPool(Run run) {
  GroupedRun want;
  for (const unsigned threads : kPoolSizes) {
    SCOPED_TRACE(testing::Message() << threads << " host thread(s)");
    gpusim::Device device(gpusim::DeviceProperties(), threads);
    GroupedRun got = run(device);
    if (threads == kPoolSizes[0]) {
      ASSERT_FALSE(got.keys.empty());
      want = std::move(got);
      continue;
    }
    EXPECT_EQ(got.keys, want.keys);
    EXPECT_EQ(got.values, want.values);
    EXPECT_EQ(got.counts, want.counts);
    EXPECT_EQ(got.ns, want.ns);
  }
}

struct Input {
  std::vector<int32_t> keys;
  std::vector<double> values;
};

/// `kRows` rows over exactly `groups` keys, shuffled unless `sorted`, with
/// values spread over ten orders of magnitude and both signs, so any change
/// of summation order shows.
Input MakeInput(int32_t groups, bool sorted) {
  std::mt19937_64 rng(static_cast<uint64_t>(groups) * 7919 + sorted);
  std::uniform_real_distribution<double> mantissa(-1.0, 1.0);
  Input in;
  in.keys.resize(kRows);
  in.values.resize(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    in.keys[i] = static_cast<int32_t>(i % static_cast<size_t>(groups));
    in.values[i] = mantissa(rng) * std::pow(10.0, static_cast<int>(rng() % 10));
  }
  if (sorted) {
    std::sort(in.keys.begin(), in.keys.end());
  } else {
    std::shuffle(in.keys.begin(), in.keys.end(), rng);
  }
  return in;
}

void ExpectReduceByKeyRepeats(int32_t groups) {
  const Input in = MakeInput(groups, /*sorted=*/true);
  ExpectSameOnEveryPool([&](gpusim::Device& device) {
    gpusim::Stream stream(device, gpusim::ApiProfile::Cuda());
    auto keys = gpusim::ToDevice(stream, in.keys, device);
    auto vals = gpusim::ToDevice(stream, in.values, device);
    gpusim::DeviceArray<int32_t> out_keys(kRows, device);
    gpusim::DeviceArray<double> out_vals(kRows, device);
    const size_t segments = gpusim::ReduceByKey(
        stream, keys.data(), vals.data(), kRows, out_keys.data(),
        out_vals.data(), [](double a, double b) { return a + b; });
    EXPECT_EQ(segments, static_cast<size_t>(groups));
    GroupedRun run;
    run.keys = gpusim::ToHost(stream, out_keys);
    run.keys.resize(segments);
    std::vector<double> sums = gpusim::ToHost(stream, out_vals);
    sums.resize(segments);
    run.values = Bits(sums);
    run.ns = stream.now_ns();
    return run;
  });
}

TEST(PoolSizeInvarianceTest, ReduceByKeyRepeatsOnEveryPool) {
  ExpectReduceByKeyRepeats(kFewGroups);
  ExpectReduceByKeyRepeats(kManyGroups);
}

TEST(PoolSizeInvarianceTest, HashGroupBySumRepeatsOnEveryPool) {
  for (const int32_t groups : {kFewGroups, kManyGroups}) {
    SCOPED_TRACE(testing::Message() << groups << " groups");
    const Input in = MakeInput(groups, /*sorted=*/false);
    ExpectSameOnEveryPool([&](gpusim::Device& device) {
      gpusim::Stream stream(device, gpusim::ApiProfile::Cuda());
      auto keys = gpusim::ToDevice(stream, in.keys, device);
      auto vals = gpusim::ToDevice(stream, in.values, device);
      auto grouped = handwritten::HashGroupBySum(stream, keys.data(),
                                                 vals.data(), kRows);
      EXPECT_EQ(grouped.num_groups, static_cast<size_t>(groups));
      GroupedRun run;
      run.keys = gpusim::ToHost(stream, grouped.keys);
      run.keys.resize(grouped.num_groups);
      std::vector<double> sums = gpusim::ToHost(stream, grouped.sums);
      sums.resize(grouped.num_groups);
      run.values = Bits(sums);
      run.counts = gpusim::ToHost(stream, grouped.counts);
      run.counts.resize(grouped.num_groups);
      run.ns = stream.now_ns();
      return run;
    });
  }
}

TEST(PoolSizeInvarianceTest, HashGroupByReduceRepeatsOnEveryPool) {
  // The four aggregates HandwrittenBackend::GroupByAggregate runs through
  // HashGroupByReduce; count folds a column of ones.
  enum class Agg { kSum, kMin, kMax, kCount };
  for (const int32_t groups : {kFewGroups, kManyGroups}) {
    const Input in = MakeInput(groups, /*sorted=*/false);
    for (const Agg agg : {Agg::kSum, Agg::kMin, Agg::kMax, Agg::kCount}) {
      SCOPED_TRACE(testing::Message() << groups << " groups, aggregate "
                                      << static_cast<int>(agg));
      ExpectSameOnEveryPool([&](gpusim::Device& device) {
        gpusim::Stream stream(device, gpusim::ApiProfile::Cuda());
        auto keys = gpusim::ToDevice(stream, in.keys, device);
        GroupedRun run;
        if (agg == Agg::kCount) {
          auto ones = gpusim::ToDevice(
              stream, std::vector<int64_t>(kRows, 1), device);
          auto grouped = handwritten::HashGroupByReduce(
              stream, keys.data(), ones.data(), kRows, int64_t{0},
              [](int64_t a, int64_t b) { return a + b; });
          run.keys = gpusim::ToHost(stream, grouped.keys);
          run.keys.resize(grouped.num_groups);
          run.counts = Bits(gpusim::ToHost(stream, grouped.sums));
          run.counts.resize(grouped.num_groups);
          run.ns = stream.now_ns();
          return run;
        }
        auto vals = gpusim::ToDevice(stream, in.values, device);
        double identity = 0.0;
        if (agg == Agg::kMin) identity = std::numeric_limits<double>::max();
        if (agg == Agg::kMax) identity = std::numeric_limits<double>::lowest();
        auto grouped = handwritten::HashGroupByReduce(
            stream, keys.data(), vals.data(), kRows, identity,
            [agg](double a, double b) {
              switch (agg) {
                case Agg::kMin: return b < a ? b : a;
                case Agg::kMax: return a < b ? b : a;
                default: return a + b;
              }
            });
        EXPECT_EQ(grouped.num_groups, static_cast<size_t>(groups));
        run.keys = gpusim::ToHost(stream, grouped.keys);
        run.keys.resize(grouped.num_groups);
        std::vector<double> v = gpusim::ToHost(stream, grouped.sums);
        v.resize(grouped.num_groups);
        run.values = Bits(v);
        run.ns = stream.now_ns();
        return run;
      });
    }
  }
}

TEST(PoolSizeInvarianceTest, DenseCodeAggregationRepeatsOnEveryPool) {
  // HandwrittenBackend::GroupByAggregateEncoded over bit-packed keys, at
  // the smallest domain Q1 uses and at the largest the dense path takes;
  // the count and the sum/min/max kernels are separate.
  core::RegisterBuiltinBackends();
  for (const unsigned bits : {2u, 12u}) {
    const int32_t domain = int32_t{1} << bits;
    const Input in = MakeInput(domain, /*sorted=*/false);
    // Every third row survives the selection the aggregation reads through.
    std::vector<int32_t> row_ids;
    std::vector<double> values;
    for (size_t i = 0; i < kRows; i += 3) {
      row_ids.push_back(static_cast<int32_t>(i));
      values.push_back(in.values[i]);
    }
    storage::EncodingChoice choice;
    choice.encoding = storage::Encoding::kBitPack;
    choice.bit_width = bits;
    const storage::EncodedColumn encoded = storage::EncodeColumn(
        storage::Column(std::vector<int32_t>(in.keys)), choice);
    for (const core::AggOp op : {core::AggOp::kSum, core::AggOp::kMin,
                                 core::AggOp::kMax, core::AggOp::kCount}) {
      SCOPED_TRACE(testing::Message() << "domain " << domain << ", "
                                      << core::AggOpName(op));
      ExpectSameOnEveryPool([&](gpusim::Device& device) {
        gpusim::Device::DeviceGuard guard(device);
        const std::unique_ptr<core::Backend> backend =
            core::BackendRegistry::Instance().Create(backends::kHandwritten);
        gpusim::Stream& s = backend->stream();
        const storage::EncodedDeviceColumn keys =
            storage::UploadColumnEncoded(s, encoded);
        core::SelectionResult rows;
        rows.row_ids = storage::UploadColumn(
            s, storage::Column(std::vector<int32_t>(row_ids)));
        rows.count = row_ids.size();
        const storage::DeviceColumn vals = storage::UploadColumn(
            s, storage::Column(std::vector<double>(values)));
        const core::GroupByResult result =
            backend->GroupByAggregateEncoded(keys, rows, vals, op);
        GroupedRun run;
        run.keys = result.keys.ToHost(s).values<int32_t>();
        const storage::Column agg = result.aggregate.ToHost(s);
        if (op == core::AggOp::kCount) {
          run.counts = Bits(agg.values<int64_t>());
        } else {
          run.values = Bits(agg.values<double>());
        }
        run.ns = s.now_ns();
        return run;
      });
    }
  }
}

// ---------------------------------------------------------------------------
// Whole queries: 5 queries x {raw, encoded} on one library per test, one-shot
// on every pool and prepared on the first. Each library's stream must be on
// the pool's device, and none of its work may land on the default device.

const plan::TpchHostTables& Tables() {
  static const auto* tables = [] {
    tpch::Config config;
    config.scale_factor = 0.01;
    static const storage::Table lineitem = tpch::GenerateLineitem(config);
    static const storage::Table orders = tpch::GenerateOrders(config);
    static const storage::Table customer = tpch::GenerateCustomer(config);
    static const storage::Table part = tpch::GeneratePart(config);
    auto* t = new plan::TpchHostTables;
    t->lineitem = &lineitem;
    t->orders = &orders;
    t->customer = &customer;
    t->part = &part;
    return t;
  }();
  return *tables;
}

void ExpectQueriesRepeatOnEveryPool(const char* backend_name) {
  core::RegisterBuiltinBackends();
  for (const TpchQuery q : {TpchQuery::kQ1, TpchQuery::kQ3, TpchQuery::kQ4,
                            TpchQuery::kQ6, TpchQuery::kQ14}) {
    for (const bool encoded : {false, true}) {
      SCOPED_TRACE(std::string(plan::TpchQueryName(q)) +
                   (encoded ? " encoded" : " raw"));
      plan::TpchQueryResult want;
      uint64_t want_ns = 0;
      for (const unsigned threads : kPoolSizes) {
        SCOPED_TRACE(testing::Message() << threads << " host thread(s)");
        gpusim::Device device(gpusim::DeviceProperties(), threads);
        gpusim::Device::DeviceGuard guard(device);
        const std::unique_ptr<core::Backend> backend =
            core::BackendRegistry::Instance().Create(backend_name);
        ASSERT_EQ(&backend->stream().device(), &device);
        const gpusim::CounterSnapshot default_before =
            gpusim::Device::Default().Snapshot();
        plan::GovernedQueryOptions options;
        options.force_partitions = 1;
        options.use_encoding = encoded;
        plan::GovernedRunStats stats;
        const plan::TpchQueryResult got =
            plan::RunGoverned(q, Tables(), *backend, options, &stats);
        if (threads == kPoolSizes[0]) {
          want = got;
          want_ns = stats.simulated_ns;
          // The prepared path runs the same plan as one slice over resident
          // tables.
          plan::QueryShape shape;
          shape.query = q;
          shape.use_encoding = encoded;
          const auto prepared = plan::PrepareTpchQuery(
              shape, plan::MakeResident(backend->stream(), Tables(), encoded),
              backend_name);
          SCOPED_TRACE("prepared");
          tpch_testing::ExpectSameAnswer(q, want, prepared->Run(*backend));
        } else {
          tpch_testing::ExpectSameAnswer(q, want, got);
          EXPECT_EQ(stats.simulated_ns, want_ns);
        }
        const gpusim::CounterSnapshot on_default =
            gpusim::Device::Default().Snapshot().Delta(default_before);
        EXPECT_EQ(on_default.kernels_launched, 0u);
        EXPECT_EQ(on_default.transfers, 0u);
      }
    }
  }
}

TEST(PoolSizeInvarianceTest, HandwrittenQueriesRepeatOnEveryPool) {
  ExpectQueriesRepeatOnEveryPool(backends::kHandwritten);
}

TEST(PoolSizeInvarianceTest, ThrustQueriesRepeatOnEveryPool) {
  ExpectQueriesRepeatOnEveryPool(backends::kThrust);
}

TEST(PoolSizeInvarianceTest, BoostComputeQueriesRepeatOnEveryPool) {
  ExpectQueriesRepeatOnEveryPool(backends::kBoostCompute);
}

TEST(PoolSizeInvarianceTest, ArrayFireQueriesRepeatOnEveryPool) {
  ExpectQueriesRepeatOnEveryPool(backends::kArrayFire);
}

}  // namespace
