// Golden equivalence: a plan pinned to one backend replays the hand-coded
// operator chain of its query.
//
// The paper measures each library by running a TPC-H query as a chain of
// that library's operator calls, every intermediate materialized. The query
// table (plan/tpch_plans.h) is the only definition of a query outside this
// file; here the same queries are written once more as those hand-coded
// chains, and they are the oracle: for every case, the pinned plan must
// return the chain's answer bit for bit and charge a bit-identical simulated
// timeline. The check is of the call sequence itself, so it holds whatever
// the cost model's constants are.
//
// Cases: the five queries over raw uploads on every library, Q1 and Q6 over
// encoded uploads on every library, and Q3, Q4 and Q14 with the handwritten
// backend forced onto nested-loops joins.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "backends/backends.h"
#include "core/registry.h"
#include "gpusim/device.h"
#include "plan/executor.h"
#include "plan/optimizer.h"
#include "plan/tpch_plans.h"
#include "storage/device_column.h"
#include "tpch/datagen.h"
#include "tpch/queries.h"
#include "tpch_answer_testing.h"

namespace {

using core::AggOp;
using core::CompareOp;
using core::Predicate;
using storage::DeviceColumn;
using storage::DeviceTable;

// ---------------------------------------------------------------------------
// The oracle: each query as a hand-coded chain of Backend calls
// ---------------------------------------------------------------------------

/// Gathers the selected rows of `name`, decoding late when it is encoded.
DeviceColumn GatherColumn(core::Backend& backend, const DeviceTable& table,
                          const char* name, const DeviceColumn& rows) {
  return table.HasEncoded(name)
             ? backend.GatherDecode(table.encoded(name), rows)
             : backend.Gather(table.column(name), rows);
}

/// A PK-FK equi-join: hash join where the backend has one, unless nested
/// loops are forced.
core::JoinResult Join(core::Backend& backend, const DeviceColumn& pk_keys,
                      const DeviceColumn& fk_keys, bool nested_loops) {
  const bool hash =
      !nested_loops && backend.Realization(core::DbOperator::kHashJoin)
                               .level != core::SupportLevel::kNone;
  return hash ? backend.HashJoin(pk_keys, fk_keys)
              : backend.NestedLoopsJoin(pk_keys, fk_keys);
}

/// Downloads a grouped-aggregation result into key -> value on the host.
std::map<int32_t, double> DownloadGroups(core::Backend& backend,
                                         const core::GroupByResult& result) {
  std::map<int32_t, double> out;
  const storage::Column keys = result.keys.ToHost(backend.stream());
  const storage::Column vals = result.aggregate.ToHost(backend.stream());
  const auto& k = keys.values<int32_t>();
  if (result.aggregate.type() == storage::DataType::kInt64) {
    const auto& v = vals.values<int64_t>();
    for (size_t i = 0; i < k.size(); ++i) out[k[i]] = static_cast<double>(v[i]);
  } else {
    const auto& v = vals.values<double>();
    for (size_t i = 0; i < k.size(); ++i) out[k[i]] = v[i];
  }
  return out;
}

/// Q1: selection, gathers, projection arithmetic, six grouped aggregations.
/// Over an encoded upload the shipdate predicate folds into code space and
/// the group keys never decode (GroupByAggregateEncoded).
std::vector<tpch::Q1Row> RunQ1(core::Backend& backend,
                               const DeviceTable& lineitem) {
  const Predicate ship_pred =
      Predicate::Make("l_shipdate", CompareOp::kLe,
                      static_cast<double>(tpch::Q1Params().CutoffDays()));
  const core::SelectionResult sel =
      lineitem.HasEncoded("l_shipdate")
          ? backend.SelectConjunctiveEncoded(
                {core::ScanColumnRef::Encoded(lineitem.encoded("l_shipdate"))},
                {ship_pred})
          : backend.Select(lineitem.column("l_shipdate"), ship_pred);

  const bool encoded_keys = lineitem.HasEncoded("l_rfls");
  const DeviceColumn key =
      encoded_keys ? DeviceColumn()
                   : GatherColumn(backend, lineitem, "l_rfls", sel.row_ids);
  const auto group_by = [&](const DeviceColumn& vals, AggOp op) {
    return encoded_keys ? backend.GroupByAggregateEncoded(
                              lineitem.encoded("l_rfls"), sel, vals, op)
                        : backend.GroupByAggregate(key, vals, op);
  };

  const auto gather = [&](const char* name) {
    return GatherColumn(backend, lineitem, name, sel.row_ids);
  };
  const DeviceColumn qty = gather("l_quantity");
  const DeviceColumn price = gather("l_extendedprice");
  const DeviceColumn disc = gather("l_discount");
  const DeviceColumn tax = gather("l_tax");

  const DeviceColumn one_minus_disc = backend.SubtractFromScalar(1.0, disc);
  const DeviceColumn disc_price = backend.Product(price, one_minus_disc);
  const DeviceColumn one_plus_tax = backend.AddScalar(tax, 1.0);
  const DeviceColumn charge = backend.Product(disc_price, one_plus_tax);

  auto sum_qty = DownloadGroups(backend, group_by(qty, AggOp::kSum));
  auto sum_price = DownloadGroups(backend, group_by(price, AggOp::kSum));
  auto sum_disc_price =
      DownloadGroups(backend, group_by(disc_price, AggOp::kSum));
  auto sum_charge = DownloadGroups(backend, group_by(charge, AggOp::kSum));
  auto sum_disc = DownloadGroups(backend, group_by(disc, AggOp::kSum));
  auto counts = DownloadGroups(backend, group_by(qty, AggOp::kCount));

  std::vector<tpch::Q1Row> rows;
  for (const auto& [k, count] : counts) {
    if (count == 0) continue;  // dense encoded keys report empty groups
    tpch::Q1Row row;
    row.returnflag = k / 2;
    row.linestatus = k % 2;
    row.count_order = static_cast<int64_t>(count);
    row.sum_qty = sum_qty[k];
    row.sum_base_price = sum_price[k];
    row.sum_disc_price = sum_disc_price[k];
    row.sum_charge = sum_charge[k];
    row.avg_qty = row.sum_qty / count;
    row.avg_price = row.sum_base_price / count;
    row.avg_disc = sum_disc[k] / count;
    rows.push_back(row);
  }
  std::sort(rows.begin(), rows.end(),
            [](const tpch::Q1Row& a, const tpch::Q1Row& b) {
              return std::pair(a.returnflag, a.linestatus) <
                     std::pair(b.returnflag, b.linestatus);
            });
  return rows;
}

/// Q6: a five-predicate conjunctive selection (in code space when any
/// column is encoded), two gathers, a product and a reduction.
double RunQ6(core::Backend& backend, const DeviceTable& lineitem) {
  const tpch::Q6Params params;
  const std::vector<Predicate> preds = {
      Predicate::Make("l_shipdate", CompareOp::kGe,
                      static_cast<double>(params.date_lo)),
      Predicate::Make("l_shipdate", CompareOp::kLt,
                      static_cast<double>(params.date_hi)),
      Predicate::Make("l_discount", CompareOp::kGe, params.discount_lo),
      Predicate::Make("l_discount", CompareOp::kLe, params.discount_hi),
      Predicate::Make("l_quantity", CompareOp::kLt, params.quantity_hi),
  };
  const std::vector<const char*> names = {"l_shipdate", "l_shipdate",
                                          "l_discount", "l_discount",
                                          "l_quantity"};
  core::SelectionResult sel;
  if (lineitem.HasEncoded("l_shipdate") || lineitem.HasEncoded("l_discount") ||
      lineitem.HasEncoded("l_quantity")) {
    std::vector<core::ScanColumnRef> columns;
    for (const char* name : names) {
      columns.push_back(
          lineitem.HasEncoded(name)
              ? core::ScanColumnRef::Encoded(lineitem.encoded(name))
              : core::ScanColumnRef::Raw(lineitem.column(name)));
    }
    sel = backend.SelectConjunctiveEncoded(columns, preds);
  } else {
    std::vector<const DeviceColumn*> columns;
    for (const char* name : names) columns.push_back(&lineitem.column(name));
    sel = backend.SelectConjunctive(columns, preds);
  }
  const DeviceColumn price =
      GatherColumn(backend, lineitem, "l_extendedprice", sel.row_ids);
  const DeviceColumn disc =
      GatherColumn(backend, lineitem, "l_discount", sel.row_ids);
  return backend.ReduceColumn(backend.Product(price, disc), AggOp::kSum);
}

/// Q3: two selections, a customer-orders join, an orders-lineitem join,
/// projection arithmetic, grouped aggregation and a sort for the top-k.
std::vector<tpch::Q3Row> RunQ3(core::Backend& backend,
                               const DeviceTable& customer,
                               const DeviceTable& orders,
                               const DeviceTable& lineitem,
                               bool nested_loops) {
  const tpch::Q3Params params;
  const auto sel_cust = backend.Select(
      customer.column("c_mktsegment"),
      Predicate::Make("c_mktsegment", CompareOp::kEq,
                      static_cast<double>(params.segment)));
  const auto cust_keys =
      backend.Gather(customer.column("c_custkey"), sel_cust.row_ids);

  const auto sel_ord = backend.Select(
      orders.column("o_orderdate"),
      Predicate::Make("o_orderdate", CompareOp::kLt,
                      static_cast<double>(params.date)));
  const auto ord_keys =
      backend.Gather(orders.column("o_orderkey"), sel_ord.row_ids);
  const auto ord_cust =
      backend.Gather(orders.column("o_custkey"), sel_ord.row_ids);

  const auto join_co = Join(backend, cust_keys, ord_cust, nested_loops);
  const auto surv_ord_keys = backend.Gather(ord_keys, join_co.right_rows);

  const auto sel_li = backend.Select(
      lineitem.column("l_shipdate"),
      Predicate::Make("l_shipdate", CompareOp::kGt,
                      static_cast<double>(params.date)));
  const auto li_keys =
      backend.Gather(lineitem.column("l_orderkey"), sel_li.row_ids);
  const auto li_price =
      backend.Gather(lineitem.column("l_extendedprice"), sel_li.row_ids);
  const auto li_disc =
      backend.Gather(lineitem.column("l_discount"), sel_li.row_ids);

  const auto join_ol = Join(backend, surv_ord_keys, li_keys, nested_loops);
  const auto keys = backend.Gather(li_keys, join_ol.right_rows);
  const auto price = backend.Gather(li_price, join_ol.right_rows);
  const auto disc = backend.Gather(li_disc, join_ol.right_rows);
  const auto revenue =
      backend.Product(price, backend.SubtractFromScalar(1.0, disc));
  const auto grouped = backend.GroupByAggregate(keys, revenue, AggOp::kSum);

  std::vector<tpch::Q3Row> rows;
  if (grouped.num_groups > 0) {
    auto [sorted_rev, sorted_keys] =
        backend.SortByKey(grouped.aggregate, grouped.keys);
    const auto rev = sorted_rev.ToHost(backend.stream()).values<double>();
    const auto key = sorted_keys.ToHost(backend.stream()).values<int32_t>();
    const size_t k = std::min(params.limit, rev.size());
    for (size_t i = 0; i < k; ++i) {
      const size_t j = rev.size() - 1 - i;
      rows.push_back(tpch::Q3Row{key[j], rev[j]});
    }
  }
  return rows;
}

/// Q4: a column-column selection, key deduplication (the semi-join build
/// side), a join against the filtered orders and a grouped count.
std::vector<tpch::Q4Row> RunQ4(core::Backend& backend,
                               const DeviceTable& orders,
                               const DeviceTable& lineitem,
                               bool nested_loops) {
  const tpch::Q4Params params;
  const auto late = backend.SelectCompareColumns(
      lineitem.column("l_commitdate"), CompareOp::kLt,
      lineitem.column("l_receiptdate"));
  const auto late_keys =
      backend.Gather(lineitem.column("l_orderkey"), late.row_ids);
  const auto distinct_late = backend.Unique(late_keys);

  const DeviceColumn& odate = orders.column("o_orderdate");
  const auto sel_ord = backend.SelectConjunctive(
      {&odate, &odate},
      {Predicate::Make("o_orderdate", CompareOp::kGe,
                       static_cast<double>(params.date_lo)),
       Predicate::Make("o_orderdate", CompareOp::kLt,
                       static_cast<double>(params.date_hi))});
  const auto ord_keys =
      backend.Gather(orders.column("o_orderkey"), sel_ord.row_ids);
  const auto ord_prio =
      backend.Gather(orders.column("o_orderpriority"), sel_ord.row_ids);

  const auto join = Join(backend, ord_keys, distinct_late, nested_loops);
  const auto prio = backend.Gather(ord_prio, join.left_rows);
  const auto grouped = backend.GroupByAggregate(prio, prio, AggOp::kCount);

  std::vector<tpch::Q4Row> rows;
  for (const auto& [priority, count] : DownloadGroups(backend, grouped)) {
    rows.push_back(tpch::Q4Row{priority, static_cast<int64_t>(count)});
  }
  return rows;
}

/// Q14: a date selection, a part-lineitem join, and the CASE-WHEN promo
/// revenue share realized as a second selection over the joined rows.
double RunQ14(core::Backend& backend, const DeviceTable& part,
              const DeviceTable& lineitem, bool nested_loops) {
  const tpch::Q14Params params;
  const DeviceColumn& shipdate = lineitem.column("l_shipdate");
  const auto sel = backend.SelectConjunctive(
      {&shipdate, &shipdate},
      {Predicate::Make("l_shipdate", CompareOp::kGe,
                       static_cast<double>(params.date_lo)),
       Predicate::Make("l_shipdate", CompareOp::kLt,
                       static_cast<double>(params.date_hi))});
  const auto li_part =
      backend.Gather(lineitem.column("l_partkey"), sel.row_ids);
  const auto li_price =
      backend.Gather(lineitem.column("l_extendedprice"), sel.row_ids);
  const auto li_disc =
      backend.Gather(lineitem.column("l_discount"), sel.row_ids);
  const auto revenue =
      backend.Product(li_price, backend.SubtractFromScalar(1.0, li_disc));

  const auto join =
      Join(backend, part.column("p_partkey"), li_part, nested_loops);
  const auto promo_flags =
      backend.Gather(part.column("p_promo"), join.left_rows);
  const auto rev_matched = backend.Gather(revenue, join.right_rows);
  const double total = backend.ReduceColumn(rev_matched, AggOp::kSum);
  if (total == 0.0) return 0.0;

  const auto promo_sel = backend.Select(
      promo_flags, Predicate::Make("p_promo", CompareOp::kEq, 1.0));
  const auto rev_promo = backend.Gather(rev_matched, promo_sel.row_ids);
  const double promo = backend.ReduceColumn(rev_promo, AggOp::kSum);
  return 100.0 * promo / total;
}

plan::TpchQueryResult RunChain(plan::TpchQuery query, core::Backend& backend,
                               const plan::TpchDeviceTables& t,
                               bool nested_loops) {
  plan::TpchQueryResult r;
  switch (query) {
    case plan::TpchQuery::kQ1:
      r.q1 = RunQ1(backend, *t.lineitem);
      break;
    case plan::TpchQuery::kQ3:
      r.q3 = RunQ3(backend, *t.customer, *t.orders, *t.lineitem,
                   nested_loops);
      break;
    case plan::TpchQuery::kQ4:
      r.q4 = RunQ4(backend, *t.orders, *t.lineitem, nested_loops);
      break;
    case plan::TpchQuery::kQ6:
      r.scalar = RunQ6(backend, *t.lineitem);
      break;
    case plan::TpchQuery::kQ14:
      r.scalar = RunQ14(backend, *t.part, *t.lineitem, nested_loops);
      break;
  }
  return r;
}

// ---------------------------------------------------------------------------
// The golden test
// ---------------------------------------------------------------------------

struct GoldenCase {
  plan::TpchQuery query;
  bool encoded = false;
  bool nested_loops = false;
};

std::vector<GoldenCase> CasesFor(const std::string& backend) {
  std::vector<GoldenCase> cases;
  for (const plan::TpchQuery q :
       {plan::TpchQuery::kQ1, plan::TpchQuery::kQ3, plan::TpchQuery::kQ4,
        plan::TpchQuery::kQ6, plan::TpchQuery::kQ14}) {
    cases.push_back({q});
  }
  for (const plan::TpchQuery q : {plan::TpchQuery::kQ1, plan::TpchQuery::kQ6}) {
    cases.push_back({q, /*encoded=*/true});
  }
  if (backend == backends::kHandwritten) {
    for (const plan::TpchQuery q : {plan::TpchQuery::kQ3, plan::TpchQuery::kQ4,
                                    plan::TpchQuery::kQ14}) {
      cases.push_back({q, /*encoded=*/false, /*nested_loops=*/true});
    }
  }
  return cases;
}

class PlanGoldenTest : public ::testing::TestWithParam<const char*> {
 protected:
  static void SetUpTestSuite() {
    core::RegisterBuiltinBackends();
    tpch::Config config;
    config.scale_factor = 0.01;
    host_lineitem_ = new storage::Table(tpch::GenerateLineitem(config));
    host_orders_ = new storage::Table(tpch::GenerateOrders(config));
    host_customer_ = new storage::Table(tpch::GenerateCustomer(config));
    host_part_ = new storage::Table(tpch::GeneratePart(config));
    // Uploads run on their own stream, so no measured timeline includes
    // them.
    setup_ = new gpusim::Stream(gpusim::Device::Default(),
                                gpusim::ApiProfile::Cuda());
    for (const bool encoded : {false, true}) {
      const auto upload = [&](const storage::Table& t) {
        return new DeviceTable(encoded
                                   ? storage::UploadTableEncoded(*setup_, t)
                                   : storage::UploadTable(*setup_, t));
      };
      plan::TpchDeviceTables& tables = encoded ? encoded_ : raw_;
      tables.lineitem = upload(*host_lineitem_);
      tables.orders = upload(*host_orders_);
      tables.customer = upload(*host_customer_);
      tables.part = upload(*host_part_);
    }
  }

  static void TearDownTestSuite() {
    for (plan::TpchDeviceTables* tables : {&raw_, &encoded_}) {
      delete tables->lineitem;
      delete tables->orders;
      delete tables->customer;
      delete tables->part;
      *tables = plan::TpchDeviceTables();
    }
    delete setup_;
    delete host_lineitem_;
    delete host_orders_;
    delete host_customer_;
    delete host_part_;
    setup_ = nullptr;
    host_lineitem_ = host_orders_ = host_customer_ = host_part_ = nullptr;
  }

  static gpusim::Stream* setup_;
  static storage::Table* host_lineitem_;
  static storage::Table* host_orders_;
  static storage::Table* host_customer_;
  static storage::Table* host_part_;
  static plan::TpchDeviceTables raw_;
  static plan::TpchDeviceTables encoded_;
};

gpusim::Stream* PlanGoldenTest::setup_ = nullptr;
storage::Table* PlanGoldenTest::host_lineitem_ = nullptr;
storage::Table* PlanGoldenTest::host_orders_ = nullptr;
storage::Table* PlanGoldenTest::host_customer_ = nullptr;
storage::Table* PlanGoldenTest::host_part_ = nullptr;
plan::TpchDeviceTables PlanGoldenTest::raw_;
plan::TpchDeviceTables PlanGoldenTest::encoded_;

TEST_P(PlanGoldenTest, PinnedPlanReproducesHandCodedResultsAndTimeline) {
  const std::string backend_name = GetParam();
  auto& registry = core::BackendRegistry::Instance();
  for (const GoldenCase& c : CasesFor(backend_name)) {
    SCOPED_TRACE(std::string(plan::TpchQueryName(c.query)) +
                 (c.encoded ? " encoded" : " raw") +
                 (c.nested_loops ? " nested-loops" : ""));
    const plan::TpchDeviceTables& tables = c.encoded ? encoded_ : raw_;

    // The chain and the plan each run on a fresh backend, so one-time costs
    // (program compiles) are charged the same way in both.
    auto chain_backend = registry.Create(backend_name);
    const uint64_t t0 = chain_backend->stream().now_ns();
    const plan::TpchQueryResult expected =
        RunChain(c.query, *chain_backend, tables, c.nested_loops);
    const uint64_t chain_ns = chain_backend->stream().now_ns() - t0;

    plan::QueryPlanBundle bundle = plan::BuildTpchPlan(c.query, tables);
    if (c.nested_loops) bundle.plan.SetJoinAlgo(plan::JoinAlgo::kNestedLoops);
    plan::OptimizerOptions opts;
    opts.pin_backend = backend_name;
    const plan::PhysicalPlan phys = plan::Optimize(bundle.plan, opts);
    auto plan_backend = registry.Create(backend_name);
    const uint64_t s0 = plan_backend->stream().now_ns();
    const plan::ExecutionResult res = plan::RunPinned(phys, *plan_backend);
    const uint64_t stream_ns = plan_backend->stream().now_ns() - s0;

    tpch_testing::ExpectSameAnswer(c.query, expected,
                                   plan::FinalizeRun(c.query, bundle, res));
    // Bit-identical simulated time, not just "close"; and the per-node
    // accounting agrees with the stream's own clock.
    EXPECT_EQ(res.total_ns, chain_ns);
    EXPECT_EQ(stream_ns, res.total_ns);
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, PlanGoldenTest,
                         ::testing::Values(backends::kThrust,
                                           backends::kHandwritten,
                                           backends::kArrayFire,
                                           backends::kBoostCompute),
                         [](const auto& info) {
                           std::string name = info.param;
                           name.erase(std::remove(name.begin(), name.end(),
                                                  '.'),
                                      name.end());
                           return name;
                         });

}  // namespace
