// Edge-case suite: empty relations, degenerate distributions, and boundary
// sizes, across the algorithm layer and all four backends.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "backends/backends.h"
#include "core/registry.h"
#include "gpusim/algorithms.h"
#include "handwritten/handwritten.h"
#include "plan/tpch_plans.h"
#include "storage/device_column.h"
#include "tpch/queries.h"
#include "tpch_answer_testing.h"

namespace {

using core::AggOp;
using core::CompareOp;
using core::Predicate;
using storage::Column;
using storage::DeviceColumn;

// ---------------------------------------------------------------------------
// Algorithm-layer degenerate inputs
// ---------------------------------------------------------------------------

class AlgorithmEdgeTest : public ::testing::Test {
 protected:
  AlgorithmEdgeTest()
      : stream_(gpusim::Device::Default(), gpusim::ApiProfile::Cuda()) {}
  gpusim::Stream stream_;
};

TEST_F(AlgorithmEdgeTest, SortAllEqualKeysIsStable) {
  const size_t n = 5000;
  std::vector<int32_t> keys(n, 7);
  std::vector<uint32_t> vals(n);
  for (size_t i = 0; i < n; ++i) vals[i] = static_cast<uint32_t>(i);
  auto dk = gpusim::ToDevice(stream_, keys);
  auto dv = gpusim::ToDevice(stream_, vals);
  gpusim::RadixSortPairs(stream_, dk.data(), dv.data(), n);
  const auto gv = gpusim::ToHost(stream_, dv);
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(gv[i], i);
}

TEST_F(AlgorithmEdgeTest, SortAlreadySortedAndReversed) {
  std::vector<int32_t> asc(3000), desc(3000);
  for (int i = 0; i < 3000; ++i) {
    asc[i] = i;
    desc[i] = 3000 - i;
  }
  auto da = gpusim::ToDevice(stream_, asc);
  gpusim::RadixSortKeys(stream_, da.data(), asc.size());
  EXPECT_EQ(gpusim::ToHost(stream_, da), asc);
  auto dd = gpusim::ToDevice(stream_, desc);
  gpusim::RadixSortKeys(stream_, dd.data(), desc.size());
  std::sort(desc.begin(), desc.end());
  EXPECT_EQ(gpusim::ToHost(stream_, dd), desc);
}

TEST_F(AlgorithmEdgeTest, CopyIfAllTrueAndAllFalse) {
  std::vector<int32_t> host(2048, 1);
  auto in = gpusim::ToDevice(stream_, host);
  gpusim::DeviceArray<int32_t> out(host.size(), stream_.device());
  EXPECT_EQ(gpusim::CopyIf(stream_, in.data(), host.size(), out.data(),
                           [](int32_t) { return true; }),
            host.size());
  EXPECT_EQ(gpusim::CopyIf(stream_, in.data(), host.size(), out.data(),
                           [](int32_t) { return false; }),
            0u);
}

TEST_F(AlgorithmEdgeTest, ReduceByKeySingleGroupAndAllDistinct) {
  const size_t n = 1500;
  std::vector<int32_t> one_key(n, 3);
  std::vector<int64_t> vals(n, 2);
  auto dk = gpusim::ToDevice(stream_, one_key);
  auto dv = gpusim::ToDevice(stream_, vals);
  gpusim::DeviceArray<int32_t> ok(n, stream_.device());
  gpusim::DeviceArray<int64_t> ov(n, stream_.device());
  EXPECT_EQ(gpusim::ReduceByKey(stream_, dk.data(), dv.data(), n, ok.data(),
                                ov.data(),
                                [](int64_t a, int64_t b) { return a + b; }),
            1u);
  int64_t total = 0;
  gpusim::CopyDeviceToHost(stream_, &total, ov.data(), sizeof(total));
  EXPECT_EQ(total, 2 * static_cast<int64_t>(n));

  std::vector<int32_t> distinct(n);
  for (size_t i = 0; i < n; ++i) distinct[i] = static_cast<int32_t>(i);
  auto dd = gpusim::ToDevice(stream_, distinct);
  EXPECT_EQ(gpusim::ReduceByKey(stream_, dd.data(), dv.data(), n, ok.data(),
                                ov.data(),
                                [](int64_t a, int64_t b) { return a + b; }),
            n);
}

TEST_F(AlgorithmEdgeTest, NestedLoopsJoinEmptySides) {
  std::vector<int32_t> keys{1, 2, 3};
  auto dk = gpusim::ToDevice(stream_, keys);
  gpusim::DeviceArray<uint32_t> a, b;
  EXPECT_EQ(handwritten::NestedLoopsJoin(stream_, dk.data(), size_t{0},
                                         dk.data(), keys.size(), &a, &b),
            0u);
  EXPECT_EQ(handwritten::NestedLoopsJoin(stream_, dk.data(), keys.size(),
                                         dk.data(), size_t{0}, &a, &b),
            0u);
}

TEST_F(AlgorithmEdgeTest, UniqueOnAllEqualInput) {
  std::vector<int32_t> host(4000, 9);
  auto in = gpusim::ToDevice(stream_, host);
  gpusim::DeviceArray<int32_t> out(host.size(), stream_.device());
  EXPECT_EQ(gpusim::UniqueSorted(stream_, in.data(), host.size(), out.data()),
            1u);
}

// ---------------------------------------------------------------------------
// Backend degenerate relations
// ---------------------------------------------------------------------------

class BackendEdgeTest : public ::testing::TestWithParam<std::string> {
 protected:
  static void SetUpTestSuite() { core::RegisterBuiltinBackends(); }
  void SetUp() override {
    backend_ = core::BackendRegistry::Instance().Create(GetParam());
  }
  std::unique_ptr<core::Backend> backend_;
};

INSTANTIATE_TEST_SUITE_P(
    AllBackends, BackendEdgeTest,
    ::testing::Values(backends::kThrust, backends::kBoostCompute,
                      backends::kArrayFire, backends::kHandwritten),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      name.erase(std::remove_if(name.begin(), name.end(),
                                [](char c) { return !isalnum(c); }),
                 name.end());
      return name;
    });

TEST_P(BackendEdgeTest, SingleRowOperations) {
  const auto col =
      storage::UploadColumn(backend_->stream(), Column(std::vector<int32_t>{5}));
  const auto sel =
      backend_->Select(col, Predicate::Make("x", CompareOp::kEq, 5.0));
  EXPECT_EQ(sel.count, 1u);
  EXPECT_EQ(backend_->Sort(col).ToHost(backend_->stream()).values<int32_t>(),
            (std::vector<int32_t>{5}));
  EXPECT_DOUBLE_EQ(backend_->ReduceColumn(col, AggOp::kSum), 5.0);
}

TEST_P(BackendEdgeTest, GroupByWithSingleGroup) {
  const auto keys = storage::UploadColumn(
      backend_->stream(), Column(std::vector<int32_t>(1000, 42)));
  const auto vals = storage::UploadColumn(
      backend_->stream(), Column(std::vector<double>(1000, 0.5)));
  const auto grouped = backend_->GroupByAggregate(keys, vals, AggOp::kSum);
  ASSERT_EQ(grouped.num_groups, 1u);
  EXPECT_EQ(grouped.keys.ToHost(backend_->stream()).values<int32_t>()[0], 42);
  EXPECT_NEAR(
      grouped.aggregate.ToHost(backend_->stream()).values<double>()[0], 500.0,
      1e-9);
}

TEST_P(BackendEdgeTest, GroupByAllDistinctKeys) {
  std::vector<int32_t> keys(2000);
  for (size_t i = 0; i < keys.size(); ++i) keys[i] = static_cast<int32_t>(i);
  const auto k = storage::UploadColumn(backend_->stream(), Column(keys));
  const auto v = storage::UploadColumn(
      backend_->stream(), Column(std::vector<double>(keys.size(), 1.0)));
  const auto grouped = backend_->GroupByAggregate(k, v, AggOp::kCount);
  EXPECT_EQ(grouped.num_groups, keys.size());
}

TEST_P(BackendEdgeTest, JoinWithNoMatches) {
  const auto l = storage::UploadColumn(backend_->stream(),
                                       Column(std::vector<int32_t>{1, 2, 3}));
  const auto r = storage::UploadColumn(
      backend_->stream(), Column(std::vector<int32_t>{10, 20, 30, 40}));
  const auto join = backend_->NestedLoopsJoin(l, r);
  EXPECT_EQ(join.count, 0u);
}

TEST_P(BackendEdgeTest, GatherWithEmptyIndexList) {
  const auto src = storage::UploadColumn(
      backend_->stream(), Column(std::vector<double>{1.0, 2.0}));
  const auto idx = storage::UploadColumn(backend_->stream(),
                                         Column(std::vector<int32_t>{}));
  const auto out = backend_->Gather(src, idx);
  EXPECT_EQ(out.size(), 0u);
}

TEST_P(BackendEdgeTest, UniqueOfSingletonAndAllEqual) {
  const auto one = storage::UploadColumn(backend_->stream(),
                                         Column(std::vector<int32_t>{4}));
  EXPECT_EQ(backend_->Unique(one).size(), 1u);
  const auto same = storage::UploadColumn(
      backend_->stream(), Column(std::vector<int32_t>(512, 8)));
  const auto uniq = backend_->Unique(same);
  ASSERT_EQ(uniq.size(), 1u);
  EXPECT_EQ(uniq.ToHost(backend_->stream()).values<int32_t>()[0], 8);
}

/// A copy of `table` whose column `name` holds `value` on every row.
template <typename T>
storage::Table WithColumnSetTo(const storage::Table& table,
                               const std::string& name, T value) {
  storage::Table out(table.name());
  for (const std::string& c : table.column_names()) {
    out.AddColumn(c, c == name ? Column(std::vector<T>(table.num_rows(), value))
                               : table.column(c));
  }
  return out;
}

// The plans run an empty selection through every operator after it.

TEST_P(BackendEdgeTest, Q6WithZeroSelectivityReturnsZero) {
  tpch::Config config;
  config.scale_factor = 0.001;
  // No row has l_quantity below the bound.
  const storage::Table lineitem =
      WithColumnSetTo(tpch::GenerateLineitem(config), "l_quantity",
                      tpch::Q6Params().quantity_hi);
  EXPECT_DOUBLE_EQ(
      tpch_testing::RunQuery(plan::TpchQuery::kQ6, *backend_, {&lineitem})
          .scalar,
      0.0);
}

TEST_P(BackendEdgeTest, Q1WithCutoffBeforeAllDatesIsEmpty) {
  tpch::Config config;
  config.scale_factor = 0.001;
  // Every row ships after the cutoff.
  const storage::Table lineitem =
      WithColumnSetTo(tpch::GenerateLineitem(config), "l_shipdate",
                      tpch::Q1Params().CutoffDays() + 1);
  EXPECT_TRUE(
      tpch_testing::RunQuery(plan::TpchQuery::kQ1, *backend_, {&lineitem})
          .q1.empty());
}

}  // namespace
