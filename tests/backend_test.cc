// Cross-backend conformance suite: every registered backend must produce
// identical relational results (up to row order where the realization is
// unordered), parameterized over the four library bindings. Each case runs
// on a device of its own, and no operator's work may land on the default
// device: a leaf made off the backend's stream would show there.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <vector>

#include "backends/backends.h"
#include "core/backend.h"
#include "core/registry.h"
#include "gpusim/device.h"
#include "storage/device_column.h"

namespace {

using core::AggOp;
using core::Backend;
using core::CompareOp;
using core::Predicate;
using storage::Column;
using storage::DataType;
using storage::DeviceColumn;

class BackendTest : public ::testing::TestWithParam<std::string> {
 protected:
  static void SetUpTestSuite() { core::RegisterBuiltinBackends(); }

  void SetUp() override {
    backend_ = core::BackendRegistry::Instance().Create(GetParam());
    ASSERT_EQ(&backend_->stream().device(), &device_);
    default_before_ = gpusim::Device::Default().Snapshot();
  }

  void TearDown() override {
    const gpusim::CounterSnapshot on_default =
        gpusim::Device::Default().Snapshot().Delta(default_before_);
    EXPECT_EQ(on_default.kernels_launched, 0u);
    EXPECT_EQ(on_default.transfers, 0u);
  }

  DeviceColumn Upload(const std::vector<int32_t>& v) {
    return storage::UploadColumn(backend_->stream(), Column(v));
  }
  DeviceColumn Upload(const std::vector<double>& v) {
    return storage::UploadColumn(backend_->stream(), Column(v));
  }
  DeviceColumn Upload(const std::vector<int64_t>& v) {
    return storage::UploadColumn(backend_->stream(), Column(v));
  }
  DeviceColumn Upload(const std::vector<float>& v) {
    return storage::UploadColumn(backend_->stream(), Column(v));
  }

  template <typename T>
  std::vector<T> Download(const DeviceColumn& c) {
    return c.ToHost(backend_->stream()).values<T>();
  }

  /// Selection results may be unordered (handwritten backend); sort row ids.
  std::vector<int32_t> SortedRowIds(const core::SelectionResult& sel) {
    auto ids = Download<int32_t>(sel.row_ids);
    ids.resize(sel.count);
    std::sort(ids.begin(), ids.end());
    return ids;
  }

  gpusim::Device device_{gpusim::DeviceProperties(), 2};
  gpusim::Device::DeviceGuard guard_{device_};
  gpusim::CounterSnapshot default_before_;
  std::unique_ptr<Backend> backend_;
};

INSTANTIATE_TEST_SUITE_P(
    AllBackends, BackendTest,
    ::testing::Values(backends::kThrust, backends::kBoostCompute,
                      backends::kArrayFire, backends::kHandwritten),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      name.erase(std::remove_if(name.begin(), name.end(),
                                [](char c) { return !isalnum(c); }),
                 name.end());
      return name;
    });

TEST_P(BackendTest, SelectEveryCompareOp) {
  const std::vector<int32_t> data{5, 1, 7, 5, -3, 9};
  DeviceColumn col = Upload(data);
  const struct {
    CompareOp op;
    std::vector<int32_t> expected;
  } cases[] = {
      {CompareOp::kLt, {1, 4}},        // < 5
      {CompareOp::kLe, {0, 1, 3, 4}},  // <= 5
      {CompareOp::kGt, {2, 5}},        // > 5
      {CompareOp::kGe, {0, 2, 3, 5}},  // >= 5
      {CompareOp::kEq, {0, 3}},        // == 5
      {CompareOp::kNe, {1, 2, 4, 5}},  // != 5
  };
  for (const auto& c : cases) {
    const auto sel =
        backend_->Select(col, Predicate::Make("x", c.op, 5.0));
    EXPECT_EQ(SortedRowIds(sel), c.expected)
        << "op " << static_cast<int>(c.op);
  }
}

TEST_P(BackendTest, SelectOnFloatColumn) {
  const std::vector<double> data{0.05, 0.07, 0.01, 0.06};
  DeviceColumn col = Upload(data);
  const auto sel =
      backend_->Select(col, Predicate::Make("d", CompareOp::kGe, 0.06));
  EXPECT_EQ(SortedRowIds(sel), (std::vector<int32_t>{1, 3}));
}

TEST_P(BackendTest, SelectEmptyResult) {
  DeviceColumn col = Upload(std::vector<int32_t>{1, 2, 3});
  const auto sel =
      backend_->Select(col, Predicate::Make("x", CompareOp::kGt, 100.0));
  EXPECT_EQ(sel.count, 0u);
}

TEST_P(BackendTest, SelectivitySweepMatchesReference) {
  std::mt19937 rng(99);
  std::vector<int32_t> data(50000);
  for (auto& v : data) v = static_cast<int32_t>(rng() % 1000);
  DeviceColumn col = Upload(data);
  for (const int32_t cut : {0, 10, 500, 990, 1000}) {
    const auto sel = backend_->Select(
        col, Predicate::Make("x", CompareOp::kLt, cut));
    std::vector<int32_t> expected;
    for (int32_t i = 0; i < static_cast<int32_t>(data.size()); ++i) {
      if (data[i] < cut) expected.push_back(i);
    }
    EXPECT_EQ(SortedRowIds(sel), expected) << "cut " << cut;
  }
}

TEST_P(BackendTest, ConjunctiveSelection) {
  const std::vector<int32_t> a{1, 5, 8, 2, 9, 5};
  const std::vector<double> b{0.9, 0.1, 0.2, 0.3, 0.15, 0.8};
  DeviceColumn ca = Upload(a);
  DeviceColumn cb = Upload(b);
  const auto sel = backend_->SelectConjunctive(
      {&ca, &cb}, {Predicate::Make("a", CompareOp::kGe, 5.0),
                   Predicate::Make("b", CompareOp::kLt, 0.5)});
  // rows where a>=5 and b<0.5: rows 1, 2, 4.
  EXPECT_EQ(SortedRowIds(sel), (std::vector<int32_t>{1, 2, 4}));
}

TEST_P(BackendTest, ConjunctiveSelectionThreePredicates) {
  std::mt19937 rng(7);
  const size_t n = 20000;
  std::vector<int32_t> a(n), b(n);
  std::vector<double> c(n);
  for (size_t i = 0; i < n; ++i) {
    a[i] = static_cast<int32_t>(rng() % 100);
    b[i] = static_cast<int32_t>(rng() % 100);
    c[i] = (rng() % 100) / 100.0;
  }
  DeviceColumn ca = Upload(a), cb = Upload(b), cc = Upload(c);
  const auto sel = backend_->SelectConjunctive(
      {&ca, &cb, &cc}, {Predicate::Make("a", CompareOp::kLt, 50.0),
                        Predicate::Make("b", CompareOp::kGe, 20.0),
                        Predicate::Make("c", CompareOp::kLe, 0.5)});
  std::vector<int32_t> expected;
  for (size_t i = 0; i < n; ++i) {
    if (a[i] < 50 && b[i] >= 20 && c[i] <= 0.5) {
      expected.push_back(static_cast<int32_t>(i));
    }
  }
  EXPECT_EQ(SortedRowIds(sel), expected);
}

TEST_P(BackendTest, DisjunctiveSelection) {
  const std::vector<int32_t> a{1, 5, 8, 2, 9, 5};
  const std::vector<int32_t> b{0, 0, 0, 7, 0, 0};
  DeviceColumn ca = Upload(a);
  DeviceColumn cb = Upload(b);
  const auto sel = backend_->SelectDisjunctive(
      {&ca, &cb}, {Predicate::Make("a", CompareOp::kGt, 7.0),
                   Predicate::Make("b", CompareOp::kGt, 0.0)});
  // rows where a>7 or b>0: rows 2, 3, 4.
  EXPECT_EQ(SortedRowIds(sel), (std::vector<int32_t>{2, 3, 4}));
}

TEST_P(BackendTest, SelectCompareColumns) {
  const std::vector<int32_t> a{1, 5, 3, 9, 2};
  const std::vector<int32_t> b{2, 5, 1, 10, 2};
  DeviceColumn ca = Upload(a), cb = Upload(b);
  const auto lt =
      backend_->SelectCompareColumns(ca, CompareOp::kLt, cb);
  EXPECT_EQ(SortedRowIds(lt), (std::vector<int32_t>{0, 3}));
  const auto eq =
      backend_->SelectCompareColumns(ca, CompareOp::kEq, cb);
  EXPECT_EQ(SortedRowIds(eq), (std::vector<int32_t>{1, 4}));
  const auto ge =
      backend_->SelectCompareColumns(ca, CompareOp::kGe, cb);
  EXPECT_EQ(SortedRowIds(ge), (std::vector<int32_t>{1, 2, 4}));
}

TEST_P(BackendTest, SelectCompareColumnsOnDoubles) {
  std::mt19937 rng(77);
  const size_t n = 20000;
  std::vector<double> a(n), b(n);
  for (size_t i = 0; i < n; ++i) {
    a[i] = (rng() % 1000) / 10.0;
    b[i] = (rng() % 1000) / 10.0;
  }
  const auto sel = backend_->SelectCompareColumns(
      Upload(a), CompareOp::kLt, Upload(b));
  std::vector<int32_t> expected;
  for (size_t i = 0; i < n; ++i) {
    if (a[i] < b[i]) expected.push_back(static_cast<int32_t>(i));
  }
  EXPECT_EQ(SortedRowIds(sel), expected);
}

TEST_P(BackendTest, UniqueDeduplicatesAndSorts) {
  const std::vector<int32_t> data{5, 1, 5, 3, 1, 1, 9, 3};
  const auto got = Download<int32_t>(backend_->Unique(Upload(data)));
  EXPECT_EQ(got, (std::vector<int32_t>{1, 3, 5, 9}));
}

TEST_P(BackendTest, UniqueLargeMatchesReference) {
  std::mt19937 rng(41);
  std::vector<int32_t> data(30000);
  for (auto& v : data) v = static_cast<int32_t>(rng() % 500);
  const auto got = Download<int32_t>(backend_->Unique(Upload(data)));
  std::set<int32_t> expected_set(data.begin(), data.end());
  const std::vector<int32_t> expected(expected_set.begin(),
                                      expected_set.end());
  EXPECT_EQ(got, expected);
}

TEST_P(BackendTest, NestedLoopsJoinPkFk) {
  // Unique build keys, FK probe side with misses and repeats.
  const std::vector<int32_t> left{10, 20, 30, 40};
  const std::vector<int32_t> right{20, 99, 10, 20, 40};
  DeviceColumn cl = Upload(left);
  DeviceColumn cr = Upload(right);
  const auto join = backend_->NestedLoopsJoin(cl, cr);
  ASSERT_EQ(join.count, 4u);
  auto lr = Download<int32_t>(join.left_rows);
  auto rr = Download<int32_t>(join.right_rows);
  lr.resize(join.count);
  rr.resize(join.count);
  std::vector<std::pair<int32_t, int32_t>> got;
  for (size_t i = 0; i < join.count; ++i) got.push_back({lr[i], rr[i]});
  std::sort(got.begin(), got.end());
  const std::vector<std::pair<int32_t, int32_t>> expected{
      {0, 2}, {1, 0}, {1, 3}, {3, 4}};
  EXPECT_EQ(got, expected);
}

TEST_P(BackendTest, HashJoinOnlySupportedByHandwritten) {
  const std::vector<int32_t> left{1, 2, 3};
  const std::vector<int32_t> right{2, 3, 4};
  DeviceColumn cl = Upload(left);
  DeviceColumn cr = Upload(right);
  if (GetParam() == backends::kHandwritten) {
    const auto join = backend_->HashJoin(cl, cr);
    EXPECT_EQ(join.count, 2u);
  } else {
    EXPECT_THROW(backend_->HashJoin(cl, cr), core::UnsupportedOperator);
  }
}

TEST_P(BackendTest, MergeJoinUnsupportedEverywhere) {
  DeviceColumn cl = Upload(std::vector<int32_t>{1});
  DeviceColumn cr = Upload(std::vector<int32_t>{1});
  EXPECT_THROW(backend_->MergeJoin(cl, cr), core::UnsupportedOperator);
}

TEST_P(BackendTest, GroupBySumMatchesReference) {
  std::mt19937 rng(31);
  const size_t n = 30000;
  std::vector<int32_t> keys(n);
  std::vector<double> vals(n);
  std::map<int32_t, double> ref;
  for (size_t i = 0; i < n; ++i) {
    keys[i] = static_cast<int32_t>(rng() % 50);
    vals[i] = static_cast<double>(rng() % 100);
    ref[keys[i]] += vals[i];
  }
  DeviceColumn ck = Upload(keys);
  DeviceColumn cv = Upload(vals);
  const auto result = backend_->GroupByAggregate(ck, cv, AggOp::kSum);
  ASSERT_EQ(result.num_groups, ref.size());
  const auto gk = Download<int32_t>(result.keys);
  const auto gv = Download<double>(result.aggregate);
  for (size_t i = 0; i < result.num_groups; ++i) {
    ASSERT_TRUE(ref.count(gk[i]));
    EXPECT_DOUBLE_EQ(gv[i], ref[gk[i]]) << "key " << gk[i];
  }
}

TEST_P(BackendTest, GroupByCountMinMax) {
  const std::vector<int32_t> keys{7, 3, 7, 3, 7};
  const std::vector<double> vals{1.0, 9.0, -2.0, 4.0, 5.5};
  DeviceColumn ck = Upload(keys);
  DeviceColumn cv = Upload(vals);

  const auto count = backend_->GroupByAggregate(ck, cv, AggOp::kCount);
  ASSERT_EQ(count.num_groups, 2u);
  EXPECT_EQ(count.aggregate.type(), DataType::kInt64);
  std::map<int32_t, int64_t> counts;
  {
    const auto gk = Download<int32_t>(count.keys);
    const auto gc = Download<int64_t>(count.aggregate);
    for (size_t i = 0; i < 2; ++i) counts[gk[i]] = gc[i];
  }
  EXPECT_EQ(counts[7], 3);
  EXPECT_EQ(counts[3], 2);

  const auto mins = backend_->GroupByAggregate(ck, cv, AggOp::kMin);
  std::map<int32_t, double> min_by;
  {
    const auto gk = Download<int32_t>(mins.keys);
    const auto gv = Download<double>(mins.aggregate);
    for (size_t i = 0; i < 2; ++i) min_by[gk[i]] = gv[i];
  }
  EXPECT_DOUBLE_EQ(min_by[7], -2.0);
  EXPECT_DOUBLE_EQ(min_by[3], 4.0);

  const auto maxs = backend_->GroupByAggregate(ck, cv, AggOp::kMax);
  std::map<int32_t, double> max_by;
  {
    const auto gk = Download<int32_t>(maxs.keys);
    const auto gv = Download<double>(maxs.aggregate);
    for (size_t i = 0; i < 2; ++i) max_by[gk[i]] = gv[i];
  }
  EXPECT_DOUBLE_EQ(max_by[7], 5.5);
  EXPECT_DOUBLE_EQ(max_by[3], 9.0);
}

TEST_P(BackendTest, ReduceColumnAllOps) {
  const std::vector<double> vals{3.5, -1.5, 10.0, 2.0};
  DeviceColumn cv = Upload(vals);
  EXPECT_DOUBLE_EQ(backend_->ReduceColumn(cv, AggOp::kSum), 14.0);
  EXPECT_DOUBLE_EQ(backend_->ReduceColumn(cv, AggOp::kMin), -1.5);
  EXPECT_DOUBLE_EQ(backend_->ReduceColumn(cv, AggOp::kMax), 10.0);
  EXPECT_DOUBLE_EQ(backend_->ReduceColumn(cv, AggOp::kCount), 4.0);
}

TEST_P(BackendTest, ReduceIntColumns) {
  DeviceColumn c32 = Upload(std::vector<int32_t>{1, 2, 3});
  EXPECT_DOUBLE_EQ(backend_->ReduceColumn(c32, AggOp::kSum), 6.0);
  DeviceColumn c64 = Upload(std::vector<int64_t>{10, 20});
  EXPECT_DOUBLE_EQ(backend_->ReduceColumn(c64, AggOp::kMax), 20.0);
}

TEST_P(BackendTest, SortAllColumnTypes) {
  std::mt19937 rng(5);
  std::vector<int32_t> i32(10000);
  for (auto& v : i32) v = static_cast<int32_t>(rng()) % 100000;
  DeviceColumn c = Upload(i32);
  const auto sorted = Download<int32_t>(backend_->Sort(c));
  auto expected = i32;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(sorted, expected);
  // Input untouched.
  EXPECT_EQ(Download<int32_t>(c), i32);

  std::vector<double> f64{2.5, -1.0, 0.0, 99.0, -7.5};
  const auto sorted_d = Download<double>(backend_->Sort(Upload(f64)));
  std::sort(f64.begin(), f64.end());
  EXPECT_EQ(sorted_d, f64);
}

TEST_P(BackendTest, SortByKeyReordersValues) {
  const std::vector<int32_t> keys{30, 10, 20};
  const std::vector<double> vals{3.0, 1.0, 2.0};
  auto [sk, sv] = backend_->SortByKey(Upload(keys), Upload(vals));
  EXPECT_EQ(Download<int32_t>(sk), (std::vector<int32_t>{10, 20, 30}));
  EXPECT_EQ(Download<double>(sv), (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST_P(BackendTest, SortByKeyAllColumnTypeCombinations) {
  // Keys and values in every storage type pairing must stay associated.
  const std::vector<int32_t> k32{30, 10, 20};
  const std::vector<int64_t> k64{30, 10, 20};
  const std::vector<double> kf{30.0, 10.0, 20.0};
  const std::vector<int32_t> v32{3, 1, 2};
  const std::vector<int64_t> v64{3, 1, 2};
  const std::vector<double> vf{3.0, 1.0, 2.0};

  auto check = [&](const DeviceColumn& keys, const DeviceColumn& values) {
    auto [sk, sv] = backend_->SortByKey(keys, values);
    // After sorting, values must equal {1, 2, 3} in their own type.
    switch (sv.type()) {
      case DataType::kInt32:
        EXPECT_EQ(Download<int32_t>(sv), (std::vector<int32_t>{1, 2, 3}));
        break;
      case DataType::kInt64:
        EXPECT_EQ(Download<int64_t>(sv), (std::vector<int64_t>{1, 2, 3}));
        break;
      case DataType::kFloat64:
        EXPECT_EQ(Download<double>(sv), (std::vector<double>{1, 2, 3}));
        break;
      case DataType::kFloat32:
        EXPECT_EQ(Download<float>(sv), (std::vector<float>{1, 2, 3}));
        break;
    }
  };
  // ArrayFire's sort-by-key supports the value types its real API exposes
  // for this use (s32/u32/s64/f64 payloads); all combos below are in-range.
  check(Upload(k32), Upload(v32));
  check(Upload(k32), Upload(v64));
  check(Upload(k32), Upload(vf));
  check(Upload(k64), Upload(v32));
  check(Upload(k64), Upload(vf));
  check(Upload(kf), Upload(v32));
  check(Upload(kf), Upload(vf));
}

TEST_P(BackendTest, OperationsDoNotMutateInputs) {
  const std::vector<int32_t> keys{3, 1, 2};
  const std::vector<double> vals{0.3, 0.1, 0.2};
  DeviceColumn ck = Upload(keys), cv = Upload(vals);
  backend_->Sort(ck);
  backend_->SortByKey(ck, cv);
  backend_->GroupByAggregate(ck, cv, AggOp::kSum);
  backend_->Unique(ck);
  backend_->PrefixSum(ck);
  EXPECT_EQ(Download<int32_t>(ck), keys);
  EXPECT_EQ(Download<double>(cv), vals);
}

TEST_P(BackendTest, Float32ColumnsWorkAcrossOperators) {
  const std::vector<float> vals{2.5f, -1.0f, 4.0f, 0.5f};
  DeviceColumn col = Upload(vals);
  EXPECT_EQ(col.type(), DataType::kFloat32);

  const auto sel =
      backend_->Select(col, Predicate::Make("f", CompareOp::kGt, 0.0));
  EXPECT_EQ(SortedRowIds(sel), (std::vector<int32_t>{0, 2, 3}));

  EXPECT_DOUBLE_EQ(backend_->ReduceColumn(col, AggOp::kSum), 6.0);
  EXPECT_DOUBLE_EQ(backend_->ReduceColumn(col, AggOp::kMin), -1.0);

  const auto sorted = Download<float>(backend_->Sort(col));
  EXPECT_EQ(sorted, (std::vector<float>{-1.0f, 0.5f, 2.5f, 4.0f}));

  const auto product = Download<float>(backend_->Product(col, col));
  EXPECT_EQ(product, (std::vector<float>{6.25f, 1.0f, 16.0f, 0.25f}));

  const std::vector<int32_t> keys{1, 2, 1, 2};
  const auto grouped =
      backend_->GroupByAggregate(Upload(keys), col, AggOp::kSum);
  ASSERT_EQ(grouped.num_groups, 2u);
  const auto gk = Download<int32_t>(grouped.keys);
  const auto gv = Download<double>(grouped.aggregate);
  std::map<int32_t, double> m;
  for (size_t i = 0; i < 2; ++i) m[gk[i]] = gv[i];
  EXPECT_FLOAT_EQ(m[1], 6.5f);
  EXPECT_FLOAT_EQ(m[2], -0.5f);
}

TEST_P(BackendTest, PrefixSumIsExclusive) {
  const std::vector<int32_t> in{5, 3, 2, 7};
  const auto got = Download<int32_t>(backend_->PrefixSum(Upload(in)));
  EXPECT_EQ(got, (std::vector<int32_t>{0, 5, 8, 10}));
}

TEST_P(BackendTest, PrefixSumLargeMatchesReference) {
  std::mt19937 rng(13);
  std::vector<int64_t> in(30000);
  for (auto& v : in) v = static_cast<int64_t>(rng() % 100);
  const auto got = Download<int64_t>(backend_->PrefixSum(Upload(in)));
  int64_t acc = 0;
  for (size_t i = 0; i < in.size(); ++i) {
    ASSERT_EQ(got[i], acc) << "at " << i;
    acc += in[i];
  }
}

TEST_P(BackendTest, GatherAndScatter) {
  const std::vector<double> src{10, 20, 30, 40};
  const std::vector<int32_t> idx{3, 1};
  const auto gathered =
      Download<double>(backend_->Gather(Upload(src), Upload(idx)));
  EXPECT_EQ(gathered, (std::vector<double>{40, 20}));

  const std::vector<double> vals{7.5, 8.5};
  const auto scattered =
      Download<double>(backend_->Scatter(Upload(vals), Upload(idx), 5));
  EXPECT_EQ(scattered, (std::vector<double>{0, 8.5, 0, 7.5, 0}));
}

TEST_P(BackendTest, ProductAndScalarArithmetic) {
  const std::vector<double> a{1.5, 2.0, -3.0};
  const std::vector<double> b{2.0, 0.5, 4.0};
  EXPECT_EQ(Download<double>(backend_->Product(Upload(a), Upload(b))),
            (std::vector<double>{3.0, 1.0, -12.0}));
  EXPECT_EQ(Download<double>(backend_->AddScalar(Upload(a), 1.0)),
            (std::vector<double>{2.5, 3.0, -2.0}));
  EXPECT_EQ(Download<double>(backend_->SubtractFromScalar(1.0, Upload(a))),
            (std::vector<double>{-0.5, -1.0, 4.0}));
}

TEST_P(BackendTest, ProductOnIntColumns) {
  const std::vector<int32_t> a{2, 3};
  const std::vector<int32_t> b{10, -1};
  EXPECT_EQ(Download<int32_t>(backend_->Product(Upload(a), Upload(b))),
            (std::vector<int32_t>{20, -3}));
}

TEST_P(BackendTest, RealizationConsistentWithBehaviour) {
  // Table II invariants: no library supports merge join; hash join only in
  // the handwritten backend; everything else has at least partial support.
  EXPECT_EQ(backend_->Realization(core::DbOperator::kMergeJoin).level,
            core::SupportLevel::kNone);
  const auto hash = backend_->Realization(core::DbOperator::kHashJoin);
  if (GetParam() == backends::kHandwritten) {
    EXPECT_EQ(hash.level, core::SupportLevel::kFull);
  } else {
    EXPECT_EQ(hash.level, core::SupportLevel::kNone);
  }
  for (const auto op :
       {core::DbOperator::kSelection, core::DbOperator::kSort,
        core::DbOperator::kGroupedAggregation, core::DbOperator::kReduction,
        core::DbOperator::kPrefixSum, core::DbOperator::kProduct}) {
    EXPECT_NE(backend_->Realization(op).level, core::SupportLevel::kNone)
        << core::DbOperatorName(op);
  }
}

TEST_P(BackendTest, StreamAdvancesWithWork) {
  DeviceColumn c = Upload(std::vector<int32_t>(10000, 1));
  const uint64_t before = backend_->stream().now_ns();
  backend_->Sort(c);
  EXPECT_GT(backend_->stream().now_ns(), before);
}

}  // namespace
