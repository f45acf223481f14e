// TPC-H generator and query tests: schema shapes, value domains, and
// plan-vs-reference equality for the five queries across all four backends.
#include "tpch/queries.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "backends/backends.h"
#include "core/registry.h"
#include "plan/executor.h"
#include "plan/optimizer.h"
#include "plan/tpch_plans.h"
#include "tpch_answer_testing.h"

namespace {

using tpch::Config;

/// Optimizes `bundle` pinned to `backend`, runs it there and finalizes it.
plan::TpchQueryResult RunPinnedBundle(plan::TpchQuery q,
                                      const plan::QueryPlanBundle& bundle,
                                      core::Backend& backend) {
  plan::OptimizerOptions opts;
  opts.pin_backend = backend.name();
  return plan::FinalizeRun(
      q, bundle,
      plan::RunPinned(plan::Optimize(bundle.plan, opts), backend));
}

/// The Q6 plan over `lineitem`.
plan::QueryPlanBundle Q6Plan(const storage::DeviceTable& lineitem) {
  plan::TpchDeviceTables tables;
  tables.lineitem = &lineitem;
  return plan::BuildTpchPlan(plan::TpchQuery::kQ6, tables);
}

/// `bundle` optimized hybrid over the handwritten backend alone: Q6's whole
/// body collapses into one fused filter+multiply+sum kernel.
plan::PhysicalPlan FuseOnHandwritten(const plan::QueryPlanBundle& bundle) {
  plan::OptimizerOptions opts;
  opts.candidates = {backends::kHandwritten};
  return plan::Optimize(bundle.plan, opts);
}

TEST(TpchDateTest, DaysFromDateAnchorsAndArithmetic) {
  EXPECT_EQ(tpch::DaysFromDate(1992, 1, 1), 0);
  EXPECT_EQ(tpch::DaysFromDate(1992, 1, 2), 1);
  EXPECT_EQ(tpch::DaysFromDate(1992, 2, 1), 31);
  EXPECT_EQ(tpch::DaysFromDate(1993, 1, 1), 366);  // 1992 is a leap year
  EXPECT_EQ(tpch::DaysFromDate(1994, 1, 1), 731);
  EXPECT_EQ(tpch::DaysFromDate(1998, 12, 1),
            tpch::DaysFromDate(1998, 11, 30) + 1);
}

TEST(TpchDatagenTest, LineitemShapeAndDomains) {
  Config config;
  config.scale_factor = 0.002;
  const storage::Table t = tpch::GenerateLineitem(config);
  ASSERT_GT(t.num_rows(), 0u);
  // Average 4 lines per order.
  const size_t orders = tpch::NumOrders(config);
  EXPECT_GT(t.num_rows(), 2 * orders);
  EXPECT_LT(t.num_rows(), 7 * orders);

  const auto& qty = t.column("l_quantity").values<double>();
  const auto& disc = t.column("l_discount").values<double>();
  const auto& tax = t.column("l_tax").values<double>();
  const auto& price = t.column("l_extendedprice").values<double>();
  const auto& shipdate = t.column("l_shipdate").values<int32_t>();
  const auto& rf = t.column("l_returnflag").values<int32_t>();
  const auto& ls = t.column("l_linestatus").values<int32_t>();
  const auto& rfls = t.column("l_rfls").values<int32_t>();
  for (size_t i = 0; i < t.num_rows(); ++i) {
    EXPECT_GE(qty[i], 1.0);
    EXPECT_LE(qty[i], 50.0);
    EXPECT_GE(disc[i], 0.0);
    EXPECT_LE(disc[i], 0.10);
    EXPECT_GE(tax[i], 0.0);
    EXPECT_LE(tax[i], 0.08);
    EXPECT_GT(price[i], 0.0);
    EXPECT_GE(shipdate[i], tpch::DaysFromDate(1992, 1, 2));
    EXPECT_LE(shipdate[i], tpch::DaysFromDate(1998, 12, 1));
    EXPECT_GE(rf[i], 0);
    EXPECT_LE(rf[i], 2);
    EXPECT_GE(ls[i], 0);
    EXPECT_LE(ls[i], 1);
    EXPECT_EQ(rfls[i], rf[i] * 2 + ls[i]);
  }
}

TEST(TpchDatagenTest, DeterministicForSameSeed) {
  Config config;
  config.scale_factor = 0.001;
  const storage::Table a = tpch::GenerateLineitem(config);
  const storage::Table b = tpch::GenerateLineitem(config);
  EXPECT_EQ(a.num_rows(), b.num_rows());
  EXPECT_EQ(a.column("l_extendedprice").values<double>(),
            b.column("l_extendedprice").values<double>());
  config.seed = 43;
  const storage::Table c = tpch::GenerateLineitem(config);
  EXPECT_NE(a.column("l_extendedprice").values<double>(),
            c.column("l_extendedprice").values<double>());
}

TEST(TpchDatagenTest, OrdersHaveUniqueKeys) {
  Config config;
  config.scale_factor = 0.001;
  const storage::Table t = tpch::GenerateOrders(config);
  EXPECT_EQ(t.num_rows(), tpch::NumOrders(config));
  const auto& keys = t.column("o_orderkey").values<int32_t>();
  std::set<int32_t> unique(keys.begin(), keys.end());
  EXPECT_EQ(unique.size(), keys.size());
}

TEST(TpchDatagenTest, DimensionTables) {
  Config config;
  config.scale_factor = 0.001;
  EXPECT_GT(tpch::GenerateCustomer(config).num_rows(), 100u);
  EXPECT_GT(tpch::GeneratePart(config).num_rows(), 100u);
  EXPECT_GT(tpch::GenerateSupplier(config).num_rows(), 5u);
  EXPECT_EQ(tpch::GenerateNation().num_rows(), 25u);
  EXPECT_EQ(tpch::GenerateRegion().num_rows(), 5u);
}

TEST(TpchQ6FusedTest, FusedHandwrittenMatchesReference) {
  Config config;
  config.scale_factor = 0.002;
  const storage::Table lineitem = tpch::GenerateLineitem(config);
  core::RegisterBuiltinBackends();
  auto backend = core::BackendRegistry::Instance().Create("Handwritten");
  const auto dev = storage::UploadTable(backend->stream(), lineitem);
  const plan::QueryPlanBundle bundle = Q6Plan(dev);
  const plan::PhysicalPlan fused = FuseOnHandwritten(bundle);
  size_t live = 0;
  for (const plan::PlanNode& node : fused.plan.nodes) {
    if (node.dead || node.kind == plan::NodeKind::kScan) continue;
    ++live;
    EXPECT_EQ(node.kind, plan::NodeKind::kFusedFilterSum);
  }
  EXPECT_EQ(live, 1u);
  tpch_testing::ExpectReferenceAnswer(
      plan::TpchQuery::kQ6,
      plan::FinalizeRun(plan::TpchQuery::kQ6, bundle,
                        plan::RunPinned(fused, *backend)),
      {&lineitem});
}

TEST(TpchQ6FusedTest, FusedVariantUsesFarFewerKernels) {
  Config config;
  config.scale_factor = 0.002;
  const storage::Table lineitem = tpch::GenerateLineitem(config);
  core::RegisterBuiltinBackends();
  auto backend = core::BackendRegistry::Instance().Create("Handwritten");
  const auto dev = storage::UploadTable(backend->stream(), lineitem);

  const plan::QueryPlanBundle bundle = Q6Plan(dev);
  auto before = gpusim::Device::Default().Snapshot();
  RunPinnedBundle(plan::TpchQuery::kQ6, bundle, *backend);
  const auto op_chain = gpusim::Device::Default().Snapshot().Delta(before);

  before = gpusim::Device::Default().Snapshot();
  plan::RunPinned(FuseOnHandwritten(bundle), *backend);
  const auto fused = gpusim::Device::Default().Snapshot().Delta(before);

  EXPECT_LT(fused.kernels_launched, op_chain.kernels_launched);
  EXPECT_LT(fused.bytes_read, op_chain.bytes_read);
}

TEST(TpchQ3ReferenceTest, LimitAndOrdering) {
  Config config;
  config.scale_factor = 0.002;
  const storage::Table lineitem = tpch::GenerateLineitem(config);
  const storage::Table orders = tpch::GenerateOrders(config);
  const storage::Table customer = tpch::GenerateCustomer(config);
  const auto rows = tpch::ReferenceQ3(customer, orders, lineitem);
  EXPECT_LE(rows.size(), 10u);
  EXPECT_GT(rows.size(), 0u);
  for (size_t i = 1; i < rows.size(); ++i) {
    EXPECT_GE(rows[i - 1].revenue, rows[i].revenue);
  }
}

TEST(TpchQ4ReferenceTest, CountsAllPriorities) {
  Config config;
  config.scale_factor = 0.002;
  const storage::Table lineitem = tpch::GenerateLineitem(config);
  const storage::Table orders = tpch::GenerateOrders(config);
  const auto rows = tpch::ReferenceQ4(orders, lineitem);
  // Priorities 1..5 all occur at this scale; counts are positive.
  EXPECT_EQ(rows.size(), 5u);
  for (const auto& row : rows) {
    EXPECT_GE(row.orderpriority, 1);
    EXPECT_LE(row.orderpriority, 5);
    EXPECT_GT(row.order_count, 0);
  }
}

TEST(TpchQ6ReferenceTest, SelectsExpectedFraction) {
  Config config;
  config.scale_factor = 0.005;
  const storage::Table lineitem = tpch::GenerateLineitem(config);
  const double revenue = tpch::ReferenceQ6(lineitem);
  // ~1/7 of the date range * 3/11 discounts * ~1/2 quantities match; the
  // revenue must be positive and well below the full-table product sum.
  EXPECT_GT(revenue, 0.0);
  double total = 0.0;
  const auto& price = lineitem.column("l_extendedprice").values<double>();
  const auto& disc = lineitem.column("l_discount").values<double>();
  for (size_t i = 0; i < price.size(); ++i) total += price[i] * disc[i];
  EXPECT_LT(revenue, total * 0.15);
}

class TpchQueryTest : public ::testing::TestWithParam<std::string> {
 protected:
  static void SetUpTestSuite() {
    core::RegisterBuiltinBackends();
    Config config;
    config.scale_factor = 0.002;
    lineitem_ = new storage::Table(tpch::GenerateLineitem(config));
    orders_ = new storage::Table(tpch::GenerateOrders(config));
    customer_ = new storage::Table(tpch::GenerateCustomer(config));
    part_ = new storage::Table(tpch::GeneratePart(config));
  }
  static void TearDownTestSuite() {
    delete lineitem_;
    delete orders_;
    delete customer_;
    delete part_;
    lineitem_ = orders_ = customer_ = part_ = nullptr;
  }

  static plan::TpchHostTables Tables() {
    return {lineitem_, orders_, customer_, part_};
  }

  /// Runs `q`'s plan on a fresh backend and EXPECTs the host reference's
  /// answer; returns the plan's answer.
  static plan::TpchQueryResult ExpectMatchesReference(plan::TpchQuery q) {
    auto backend = core::BackendRegistry::Instance().Create(GetParam());
    const plan::TpchQueryResult got =
        tpch_testing::RunQuery(q, *backend, Tables());
    tpch_testing::ExpectReferenceAnswer(q, got, Tables());
    return got;
  }

  static storage::Table* lineitem_;
  static storage::Table* orders_;
  static storage::Table* customer_;
  static storage::Table* part_;
};

storage::Table* TpchQueryTest::lineitem_ = nullptr;
storage::Table* TpchQueryTest::orders_ = nullptr;
storage::Table* TpchQueryTest::customer_ = nullptr;
storage::Table* TpchQueryTest::part_ = nullptr;

INSTANTIATE_TEST_SUITE_P(
    AllBackends, TpchQueryTest,
    ::testing::Values(backends::kThrust, backends::kBoostCompute,
                      backends::kArrayFire, backends::kHandwritten),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      name.erase(std::remove_if(name.begin(), name.end(),
                                [](char c) { return !isalnum(c); }),
                 name.end());
      return name;
    });

TEST_P(TpchQueryTest, Q6MatchesReference) {
  ExpectMatchesReference(plan::TpchQuery::kQ6);
}

TEST_P(TpchQueryTest, Q1MatchesReference) {
  ExpectMatchesReference(plan::TpchQuery::kQ1);
}

TEST_P(TpchQueryTest, Q3MatchesReference) {
  ExpectMatchesReference(plan::TpchQuery::kQ3);
}

TEST_P(TpchQueryTest, Q3ForcedNestedLoopsAgreesWithAuto) {
  auto backend = core::BackendRegistry::Instance().Create(GetParam());
  const auto resident =
      plan::MakeResident(backend->stream(), Tables(), /*use_encoding=*/false);
  plan::QueryPlanBundle bundle =
      plan::BuildTpchPlan(plan::TpchQuery::kQ3, resident->view());
  const auto auto_join =
      RunPinnedBundle(plan::TpchQuery::kQ3, bundle, *backend).q3;
  bundle.plan.SetJoinAlgo(plan::JoinAlgo::kNestedLoops);
  const auto nlj = RunPinnedBundle(plan::TpchQuery::kQ3, bundle, *backend).q3;
  ASSERT_EQ(nlj.size(), auto_join.size());
  for (size_t i = 0; i < nlj.size(); ++i) {
    EXPECT_EQ(nlj[i].orderkey, auto_join[i].orderkey);
  }
}

TEST_P(TpchQueryTest, Q4MatchesReference) {
  ExpectMatchesReference(plan::TpchQuery::kQ4);
}

TEST_P(TpchQueryTest, Q14MatchesReference) {
  // Library NLJ over the full part table is O(|part| * |lineitem'|); the
  // small scale factor keeps the ArrayFire per-row where() variant
  // affordable.
  const double got = ExpectMatchesReference(plan::TpchQuery::kQ14).scalar;
  EXPECT_GT(got, 0.0);
  EXPECT_LT(got, 100.0);
}

TEST_P(TpchQueryTest, Q6SelectivityParametersMatter) {
  // The plan's predicate constants decide the answer: widening every Q6
  // predicate to admit all rows raises the revenue to the wide reference.
  tpch::Q6Params wide;
  wide.date_lo = tpch::DaysFromDate(1992, 1, 1);
  wide.date_hi = tpch::DaysFromDate(1999, 12, 31);
  wide.discount_lo = 0.0;
  wide.discount_hi = 1.0;
  wide.quantity_hi = 100.0;
  auto backend = core::BackendRegistry::Instance().Create(GetParam());
  const auto resident =
      plan::MakeResident(backend->stream(), Tables(), /*use_encoding=*/false);
  plan::QueryPlanBundle bundle =
      plan::BuildTpchPlan(plan::TpchQuery::kQ6, resident->view());
  const double narrow =
      RunPinnedBundle(plan::TpchQuery::kQ6, bundle, *backend).scalar;
  for (plan::PlanNode& node : bundle.plan.nodes) {
    for (core::Predicate& p : node.preds) {
      const bool lower = p.op == core::CompareOp::kGe;
      const double value =
          p.column == "l_shipdate"
              ? (lower ? wide.date_lo : wide.date_hi)
              : p.column == "l_discount"
                    ? (lower ? wide.discount_lo : wide.discount_hi)
                    : wide.quantity_hi;
      p = core::Predicate::Make(p.column, p.op, value);
    }
  }
  const double everything =
      RunPinnedBundle(plan::TpchQuery::kQ6, bundle, *backend).scalar;
  EXPECT_GT(everything, narrow);
  EXPECT_NEAR(everything, tpch::ReferenceQ6(*lineitem_, wide),
              std::abs(everything) * 1e-9 + 1e-6);
}

}  // namespace
