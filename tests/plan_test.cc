// Plan IR, optimizer, and executor tests.
//
// Covers the optimizer's rewrite rules (filter-chain merging, fusion,
// join-algorithm selection), deterministic cost-based dispatch, the query
// table's partial merging and Q3 finalize, and the hybrid plan's promises:
// it answers like the host reference and is never slower than the best
// single backend (strictly faster on a join query). That a pinned plan
// replays the hand-coded chain is plan_golden_test.cc's.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/registry.h"
#include "core/scheduler.h"
#include "gpusim/device.h"
#include "gpusim/fault.h"
#include "plan/executor.h"
#include "plan/optimizer.h"
#include "plan/tpch_plans.h"
#include "storage/device_column.h"
#include "tpch/datagen.h"
#include "tpch/queries.h"
#include "tpch_answer_testing.h"

namespace {

class PlanTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    core::RegisterBuiltinBackends();
    tpch::Config config;
    config.scale_factor = 0.01;
    host_lineitem_ = new storage::Table(tpch::GenerateLineitem(config));
    host_orders_ = new storage::Table(tpch::GenerateOrders(config));
    host_customer_ = new storage::Table(tpch::GenerateCustomer(config));
    host_part_ = new storage::Table(tpch::GeneratePart(config));
    setup_ = new gpusim::Stream(gpusim::Device::Default(),
                                gpusim::ApiProfile::Cuda());
    lineitem_ = new storage::DeviceTable(
        storage::UploadTable(*setup_, *host_lineitem_));
    orders_ = new storage::DeviceTable(
        storage::UploadTable(*setup_, *host_orders_));
    customer_ = new storage::DeviceTable(
        storage::UploadTable(*setup_, *host_customer_));
    part_ = new storage::DeviceTable(
        storage::UploadTable(*setup_, *host_part_));
  }

  static void TearDownTestSuite() {
    delete lineitem_;
    delete orders_;
    delete customer_;
    delete part_;
    delete setup_;
    delete host_lineitem_;
    delete host_orders_;
    delete host_customer_;
    delete host_part_;
    lineitem_ = orders_ = customer_ = part_ = nullptr;
    host_lineitem_ = host_orders_ = host_customer_ = host_part_ = nullptr;
    setup_ = nullptr;
  }

  static plan::TpchHostTables Host() {
    return {host_lineitem_, host_orders_, host_customer_, host_part_};
  }

  static plan::QueryPlanBundle Build(plan::TpchQuery q) {
    plan::TpchDeviceTables tables;
    tables.lineitem = lineitem_;
    tables.orders = orders_;
    tables.customer = customer_;
    tables.part = part_;
    return plan::BuildTpchPlan(q, tables);
  }

  static size_t LiveCount(const plan::Plan& p, plan::NodeKind kind) {
    size_t n = 0;
    for (const plan::PlanNode& node : p.nodes) {
      if (!node.dead && node.kind == kind) ++n;
    }
    return n;
  }

  static const plan::PlanNode* FirstLive(const plan::Plan& p,
                                         plan::NodeKind kind) {
    for (const plan::PlanNode& node : p.nodes) {
      if (!node.dead && node.kind == kind) return &node;
    }
    return nullptr;
  }

  static gpusim::Stream* setup_;
  static storage::Table* host_lineitem_;
  static storage::Table* host_orders_;
  static storage::Table* host_customer_;
  static storage::Table* host_part_;
  static storage::DeviceTable* lineitem_;
  static storage::DeviceTable* orders_;
  static storage::DeviceTable* customer_;
  static storage::DeviceTable* part_;
};

gpusim::Stream* PlanTest::setup_ = nullptr;
storage::Table* PlanTest::host_lineitem_ = nullptr;
storage::Table* PlanTest::host_orders_ = nullptr;
storage::Table* PlanTest::host_customer_ = nullptr;
storage::Table* PlanTest::host_part_ = nullptr;
storage::DeviceTable* PlanTest::lineitem_ = nullptr;
storage::DeviceTable* PlanTest::orders_ = nullptr;
storage::DeviceTable* PlanTest::customer_ = nullptr;
storage::DeviceTable* PlanTest::part_ = nullptr;

// ---------------------------------------------------------------------------
// Rewrite rules
// ---------------------------------------------------------------------------

TEST_F(PlanTest, FilterChainMergesIntoOneConjunctiveNode) {
  // Q6's five single-predicate sigmas must fold into ONE conjunctive
  // selection with the predicates in chain order.
  const plan::QueryPlanBundle bundle = Build(plan::TpchQuery::kQ6);
  plan::OptimizerOptions opts;
  opts.pin_backend = "Thrust";
  const plan::PhysicalPlan phys = plan::Optimize(bundle.plan, opts);

  EXPECT_EQ(LiveCount(phys.plan, plan::NodeKind::kFilter), 1u);
  const plan::PlanNode* filter = FirstLive(phys.plan, plan::NodeKind::kFilter);
  ASSERT_NE(filter, nullptr);
  EXPECT_TRUE(filter->conjunctive);
  ASSERT_EQ(filter->preds.size(), 5u);
  EXPECT_EQ(filter->preds[0].column, "l_shipdate");
  EXPECT_EQ(filter->preds[1].column, "l_shipdate");
  EXPECT_EQ(filter->preds[2].column, "l_discount");
  EXPECT_EQ(filter->preds[3].column, "l_discount");
  EXPECT_EQ(filter->preds[4].column, "l_quantity");
  EXPECT_EQ(filter->filter_source, -1);
}

TEST_F(PlanTest, DisjunctiveChainIsNotMergedAndExecutorRefusesIt) {
  plan::Plan p;
  const int scan =
      p.Scan("lineitem", "l_quantity", lineitem_->column("l_quantity"));
  const int f1 =
      p.Filter({scan, plan::Part::kValue},
               core::Predicate::Make("l_quantity", core::CompareOp::kLt, 24.0));
  const int f2 =
      p.Filter({scan, plan::Part::kValue},
               core::Predicate::Make("l_quantity", core::CompareOp::kGe, 1.0),
               /*source=*/f1);
  p.nodes[f2].conjunctive = false;  // an OR-refinement cannot be folded

  plan::OptimizerOptions opts;
  opts.pin_backend = "Thrust";
  const plan::PhysicalPlan phys = plan::Optimize(p, opts);
  EXPECT_EQ(LiveCount(phys.plan, plan::NodeKind::kFilter), 2u);

  auto backend = core::BackendRegistry::Instance().Create("Thrust");
  EXPECT_THROW(plan::RunPinned(phys, *backend), std::logic_error);
}

TEST_F(PlanTest, JoinAlgoFollowsBackendCapability) {
  const plan::QueryPlanBundle bundle = Build(plan::TpchQuery::kQ14);

  plan::OptimizerOptions thrust_pin;
  thrust_pin.pin_backend = "Thrust";
  const plan::PhysicalPlan on_thrust = plan::Optimize(bundle.plan, thrust_pin);
  const plan::PlanNode* join = FirstLive(on_thrust.plan, plan::NodeKind::kJoin);
  ASSERT_NE(join, nullptr);
  EXPECT_EQ(join->join_algo, plan::JoinAlgo::kNestedLoops);

  plan::OptimizerOptions hw_pin;
  hw_pin.pin_backend = "Handwritten";
  const plan::PhysicalPlan on_hw = plan::Optimize(bundle.plan, hw_pin);
  join = FirstLive(on_hw.plan, plan::NodeKind::kJoin);
  ASSERT_NE(join, nullptr);
  EXPECT_EQ(join->join_algo, plan::JoinAlgo::kHash);

  // Hybrid dispatch must route the join to a hash-capable backend.
  const plan::PhysicalPlan hybrid =
      plan::Optimize(bundle.plan, plan::OptimizerOptions());
  for (size_t i = 0; i < hybrid.plan.nodes.size(); ++i) {
    const plan::PlanNode& node = hybrid.plan.nodes[i];
    if (node.dead || node.kind != plan::NodeKind::kJoin) continue;
    if (node.join_algo == plan::JoinAlgo::kHash) {
      EXPECT_EQ(hybrid.node_backend[i], "Handwritten");
    }
  }
}

TEST_F(PlanTest, FusionOnlyInHybridPlans) {
  // Q6 hybrid collapses filter+gather+product+sum into one fused pass.
  const plan::QueryPlanBundle q6 = Build(plan::TpchQuery::kQ6);
  const plan::PhysicalPlan q6_hybrid =
      plan::Optimize(q6.plan, plan::OptimizerOptions());
  EXPECT_EQ(LiveCount(q6_hybrid.plan, plan::NodeKind::kFusedFilterSum), 1u);

  plan::OptimizerOptions pin;
  pin.pin_backend = "Thrust";
  const plan::PhysicalPlan q6_pinned = plan::Optimize(q6.plan, pin);
  EXPECT_EQ(LiveCount(q6_pinned.plan, plan::NodeKind::kFusedFilterSum), 0u);
  EXPECT_EQ(LiveCount(q6_pinned.plan, plan::NodeKind::kFusedMap), 0u);

  // Q1's disc_price and charge expressions each fuse into one kernel.
  const plan::QueryPlanBundle q1 = Build(plan::TpchQuery::kQ1);
  const plan::PhysicalPlan q1_hybrid =
      plan::Optimize(q1.plan, plan::OptimizerOptions());
  EXPECT_EQ(LiveCount(q1_hybrid.plan, plan::NodeKind::kFusedMap), 2u);

  // Q4 has no fusible chain (no arithmetic feeding a reduction).
  const plan::QueryPlanBundle q4 = Build(plan::TpchQuery::kQ4);
  const plan::PhysicalPlan q4_hybrid =
      plan::Optimize(q4.plan, plan::OptimizerOptions());
  EXPECT_EQ(LiveCount(q4_hybrid.plan, plan::NodeKind::kFusedFilterSum), 0u);
  EXPECT_EQ(LiveCount(q4_hybrid.plan, plan::NodeKind::kFusedMap), 0u);
}

TEST_F(PlanTest, DispatchIsDeterministic) {
  const plan::QueryPlanBundle bundle = Build(plan::TpchQuery::kQ3);
  const plan::PhysicalPlan a =
      plan::Optimize(bundle.plan, plan::OptimizerOptions());
  const plan::PhysicalPlan b =
      plan::Optimize(bundle.plan, plan::OptimizerOptions());
  EXPECT_EQ(a.node_backend, b.node_backend);
  EXPECT_EQ(a.est_ns, b.est_ns);
  EXPECT_EQ(a.est_rows, b.est_rows);
}

TEST_F(PlanTest, OptimizeCreatesNoStream) {
  // Whether a backend can hash-join is read from one instance per registry
  // name, kept for the process: the first lookup may create it, later
  // Optimize calls create no backend and so no stream.
  const plan::QueryPlanBundle bundle = Build(plan::TpchQuery::kQ3);
  plan::OptimizerOptions pinned;
  pinned.pin_backend = "Handwritten";
  for (const plan::OptimizerOptions& opts :
       {pinned, plan::OptimizerOptions()}) {
    SCOPED_TRACE(opts.pin_backend.empty() ? "hybrid" : opts.pin_backend);
    plan::Optimize(bundle.plan, opts);
    gpusim::Device& device = gpusim::Device::Current();
    const uint64_t before =
        gpusim::Stream(device, gpusim::ApiProfile::Cuda()).id();
    plan::Optimize(bundle.plan, opts);
    plan::Optimize(bundle.plan, opts);
    const uint64_t after =
        gpusim::Stream(device, gpusim::ApiProfile::Cuda()).id();
    EXPECT_EQ(after - before, 1u);
  }
}

TEST_F(PlanTest, UnknownBackendNameThrows) {
  const plan::QueryPlanBundle bundle = Build(plan::TpchQuery::kQ6);
  plan::OptimizerOptions opts;
  opts.pin_backend = "NoSuchBackend";
  EXPECT_THROW(plan::Optimize(bundle.plan, opts), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Query table: partials merge by marked-node kind; finalize
// ---------------------------------------------------------------------------

/// A partial holding one marked node of `kind` named `name`.
plan::Partials OneMark(const std::string& name, plan::NodeKind kind) {
  plan::Partials p;
  p.marks[name].kind = kind;
  return p;
}

TEST(QueryTableTest, PartialsMergeByMarkedNodeKind) {
  plan::Partials a = OneMark("g", plan::NodeKind::kFetchGroups);
  a.marks["g"].groups = {{1, 2.0}, {3, 4.0}};
  a.marks["s"].scalar = 1.5;
  a.marks["p"].kind = plan::NodeKind::kFetchPair;
  a.marks["p"].pairs = {{9.0, 7}};
  plan::Partials b = OneMark("g", plan::NodeKind::kFetchGroups);
  b.marks["g"].groups = {{3, 10.0}, {5, 1.0}};
  b.marks["s"].scalar = 2.5;
  b.marks["p"].kind = plan::NodeKind::kFetchPair;
  b.marks["p"].pairs = {{8.0, 2}};

  plan::Partials merged;
  merged.Merge(a);
  merged.Merge(b);
  // Groups add per key, scalars add, pairs concatenate in merge order.
  EXPECT_EQ(merged.marks["g"].groups,
            (std::map<int32_t, double>{{1, 2.0}, {3, 14.0}, {5, 1.0}}));
  EXPECT_EQ(merged.marks["s"].scalar, 4.0);
  EXPECT_EQ(merged.marks["p"].pairs,
            (std::vector<std::pair<double, int32_t>>{{9.0, 7}, {8.0, 2}}));
  // 3 keys x 4 B + 3 aggregates x 8 B + 2 pairs x 16 B + 1 scalar x 8 B.
  EXPECT_EQ(merged.bytes(), 12u + 24u + 32u + 8u);
}

TEST_F(PlanTest, Q3FinalizeOrdersTiedRevenuesLikeTheReference) {
  // Two slices' (revenue, orderkey) groups with revenue ties, one of them
  // across the top-10 cut. tpch::ReferenceQ3 sorts revenue descending and
  // equal revenues by ascending orderkey; the finalize must do the same.
  const plan::QueryPlanBundle bundle = Build(plan::TpchQuery::kQ3);
  ASSERT_EQ(bundle.marks.size(), 1u);
  const std::string mark = bundle.marks.begin()->first;
  const auto slice = [&](std::vector<std::pair<double, int32_t>> pairs) {
    plan::Partials p = OneMark(mark, plan::NodeKind::kFetchPair);
    p.marks[mark].pairs = std::move(pairs);
    return p;
  };
  plan::Partials merged;
  merged.Merge(slice({{100.0, 7}, {250.0, 9}, {100.0, 3}, {75.0, 11},
                      {75.0, 2}, {10.0, 4}}));
  merged.Merge(slice({{100.0, 5}, {75.0, 8}, {300.0, 12}, {10.0, 1},
                      {10.0, 6}, {5.0, 10}}));

  const std::vector<tpch::Q3Row> got =
      plan::QueryDef(plan::TpchQuery::kQ3).finalize(merged).q3;
  const std::vector<tpch::Q3Row> want = {
      {12, 300.0}, {9, 250.0}, {3, 100.0}, {5, 100.0}, {7, 100.0},
      {2, 75.0},   {8, 75.0},  {11, 75.0}, {1, 10.0},  {4, 10.0}};
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].orderkey, want[i].orderkey) << "row " << i;
    EXPECT_EQ(got[i].revenue, want[i].revenue) << "row " << i;
  }
}

// ---------------------------------------------------------------------------
// Hybrid dispatch
// ---------------------------------------------------------------------------

TEST_F(PlanTest, HybridIsNeverSlowerThanBestSingleBackend) {
  auto& registry = core::BackendRegistry::Instance();
  const std::vector<std::string> singles = {"Handwritten", "Thrust"};

  struct QueryCase {
    const char* name;
    plan::QueryPlanBundle bundle;
    bool join_query;
  };
  std::vector<QueryCase> cases;
  cases.push_back({"q1", Build(plan::TpchQuery::kQ1), false});
  cases.push_back({"q6", Build(plan::TpchQuery::kQ6), false});
  cases.push_back({"q4", Build(plan::TpchQuery::kQ4), true});
  cases.push_back({"q14", Build(plan::TpchQuery::kQ14), true});

  bool join_strict_win = false;
  for (const QueryCase& c : cases) {
    SCOPED_TRACE(c.name);
    uint64_t best = UINT64_MAX;
    for (const std::string& name : singles) {
      plan::OptimizerOptions opts;
      opts.pin_backend = name;
      const plan::PhysicalPlan phys = plan::Optimize(c.bundle.plan, opts);
      auto backend = registry.Create(name);
      best = std::min(best, plan::RunPinned(phys, *backend).total_ns);
    }
    const plan::PhysicalPlan hybrid =
        plan::Optimize(c.bundle.plan, plan::OptimizerOptions());
    const uint64_t hybrid_ns = plan::RunHybrid(hybrid).total_ns;
    EXPECT_LE(hybrid_ns, best);
    if (c.join_query && hybrid_ns < best) join_strict_win = true;
  }
  EXPECT_TRUE(join_strict_win)
      << "hybrid should beat the best single backend outright on at least "
         "one join query";
}

TEST_F(PlanTest, HybridQ6MatchesReferenceAnswer) {
  const plan::QueryPlanBundle bundle = Build(plan::TpchQuery::kQ6);
  const plan::PhysicalPlan phys =
      plan::Optimize(bundle.plan, plan::OptimizerOptions());
  EXPECT_TRUE(phys.hybrid);
  const plan::ExecutionResult res = plan::RunHybrid(phys);

  tpch_testing::ExpectReferenceAnswer(
      plan::TpchQuery::kQ6,
      plan::FinalizeRun(plan::TpchQuery::kQ6, bundle, res), Host());
}

TEST_F(PlanTest, HybridQ3MatchesReferenceAnswer) {
  const plan::QueryPlanBundle bundle = Build(plan::TpchQuery::kQ3);
  const plan::ExecutionResult res =
      plan::RunHybrid(plan::Optimize(bundle.plan, plan::OptimizerOptions()));

  tpch_testing::ExpectReferenceAnswer(
      plan::TpchQuery::kQ3,
      plan::FinalizeRun(plan::TpchQuery::kQ3, bundle, res), Host());
}

// ---------------------------------------------------------------------------
// Scheduler integration
// ---------------------------------------------------------------------------

TEST_F(PlanTest, PlanQueryRunsThroughScheduler) {
  const plan::QueryPlanBundle bundle = Build(plan::TpchQuery::kQ6);
  plan::OptimizerOptions opts;
  opts.pin_backend = "Thrust";
  auto phys = std::make_shared<const plan::PhysicalPlan>(
      plan::Optimize(bundle.plan, opts));

  auto backend = core::BackendRegistry::Instance().Create("Thrust");
  const uint64_t direct_ns = plan::RunPinned(*phys, *backend).total_ns;

  core::SchedulerOptions sched_opts;
  sched_opts.backend_name = "Thrust";
  sched_opts.num_clients = 2;
  core::QueryScheduler scheduler(sched_opts);
  for (int i = 0; i < 4; ++i) {
    scheduler.Submit("plan/q6", [phys](core::Backend& client) {
      plan::RunPinned(*phys, client);
    });
  }
  scheduler.Drain();

  const auto& records = scheduler.Records();
  ASSERT_EQ(records.size(), 4u);
  for (const core::QueryRecord& r : records) {
    EXPECT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.simulated_ns, direct_ns);
  }
}

// ---------------------------------------------------------------------------
// Resilience: fallback execution
// ---------------------------------------------------------------------------

/// Detaches the injector on every exit path so a failing assertion cannot
/// poison the other plan tests.
class PlanResilienceTest : public PlanTest {
 protected:
  void SetUp() override {
    gpusim::Device::Default().set_fault_injector(nullptr);
  }
  void TearDown() override {
    gpusim::Device::Default().set_fault_injector(nullptr);
  }
};

TEST_F(PlanResilienceTest, ExecutorFallsBackWhenABackendDiesMidPlan) {
  const plan::QueryPlanBundle bundle = Build(plan::TpchQuery::kQ6);
  const plan::PhysicalPlan phys =
      plan::Optimize(bundle.plan, plan::OptimizerOptions());
  ASSERT_TRUE(phys.hybrid);
  ASSERT_FALSE(phys.candidates.empty());


  // Kill the dominant backend: every node dispatched there loses its device
  // on the first kernel and must fall back to the next candidate.
  gpusim::FaultInjector injector(17);
  gpusim::FaultRule rule;
  rule.site = gpusim::FaultSite::kKernel;
  rule.kind = gpusim::FaultKind::kDeviceLost;
  rule.stream_label = "Handwritten";
  rule.at_call = 1;
  injector.AddRule(rule);
  gpusim::Device::Default().set_fault_injector(&injector);

  // Every run re-routes on its own: no run remembers an earlier one's
  // failures, so each pays at least one fallback.
  for (int round = 0; round < 3; ++round) {
    const plan::ExecutionResult res = plan::RunHybrid(phys);
    tpch_testing::ExpectReferenceAnswer(
        plan::TpchQuery::kQ6,
        plan::FinalizeRun(plan::TpchQuery::kQ6, bundle, res), Host());
    uint32_t reroutes = 0;
    for (const plan::NodeValue& v : res.values) reroutes += v.reroutes;
    EXPECT_GE(reroutes, 1u) << "round " << round;
  }
  gpusim::Device::Default().set_fault_injector(nullptr);
  EXPECT_GT(injector.stats().injected_device_lost, 0u);
}

}  // namespace
