#include "plan/tpch_plans.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <utility>

namespace plan {
namespace {

using core::AggOp;
using core::CompareOp;
using core::Predicate;

NodeInput V(int node) { return NodeInput{node, Part::kValue}; }
NodeInput Rows(int node) { return NodeInput{node, Part::kRowIds}; }

/// The merged entry of mark `name`; empty when no slice ran.
const Partials::Mark& MarkOf(const Partials& partials,
                             const std::string& name) {
  static const Partials::Mark kEmpty;
  const auto it = partials.marks.find(name);
  return it == partials.marks.end() ? kEmpty : it->second;
}

/// Map lookup defaulting to 0 (a group missing from one partial sum).
double Lookup(const std::map<int32_t, double>& m, int32_t key) {
  const auto it = m.find(key);
  return it == m.end() ? 0.0 : it->second;
}

QueryPlanBundle BuildQ1(const TpchDeviceTables& tables) {
  const storage::DeviceTable& lineitem = *tables.lineitem;
  const tpch::Q1Params params;
  QueryPlanBundle b;
  Plan& p = b.plan;
  const int s_ship = p.Scan("lineitem", "l_shipdate", lineitem);
  const int s_rfls = p.Scan("lineitem", "l_rfls", lineitem);
  const int s_qty = p.Scan("lineitem", "l_quantity", lineitem);
  const int s_price = p.Scan("lineitem", "l_extendedprice", lineitem);
  const int s_disc = p.Scan("lineitem", "l_discount", lineitem);
  const int s_tax = p.Scan("lineitem", "l_tax", lineitem);

  const int f = p.Filter(
      V(s_ship), Predicate::Make("l_shipdate", CompareOp::kLe,
                                 static_cast<double>(params.CutoffDays())));
  // Group keys that went up dictionary- or bit-packed stay encoded: each
  // GroupBy reads the packed codes of the selected rows, with no key gather
  // and no decode. Raw keys materialize through an ordinary gather.
  const bool encoded_keys = lineitem.HasEncoded("l_rfls");
  const int g_key =
      encoded_keys ? -1 : p.Gather(V(s_rfls), Rows(f), "l_rfls[sel]");
  const int g_qty = p.Gather(V(s_qty), Rows(f), "l_quantity[sel]");
  const int g_price = p.Gather(V(s_price), Rows(f), "l_extendedprice[sel]");
  const int g_disc = p.Gather(V(s_disc), Rows(f), "l_discount[sel]");
  const int g_tax = p.Gather(V(s_tax), Rows(f), "l_tax[sel]");

  const int m1 = p.Map(MapOp::kSubFromScalar, V(g_disc), NodeInput{}, 1.0,
                       "1-disc");
  const int m2 = p.Map(MapOp::kMul, V(g_price), V(m1), 0.0, "disc_price");
  const int m3 = p.Map(MapOp::kAddScalar, V(g_tax), NodeInput{}, 1.0,
                       "1+tax");
  const int m4 = p.Map(MapOp::kMul, V(m2), V(m3), 0.0, "charge");

  auto grouped = [&](NodeInput values, AggOp agg, const std::string& name) {
    const int gb = encoded_keys
                       ? p.GroupBy(V(s_rfls), values, agg, name, Rows(f))
                       : p.GroupBy(V(g_key), values, agg, name);
    b.marks[name] = p.FetchGroups(gb);
  };
  grouped(V(g_qty), AggOp::kSum, "sum_qty");
  grouped(V(g_price), AggOp::kSum, "sum_base_price");
  grouped(V(m2), AggOp::kSum, "sum_disc_price");
  grouped(V(m4), AggOp::kSum, "sum_charge");
  grouped(V(g_disc), AggOp::kSum, "sum_disc");
  grouped(V(g_qty), AggOp::kCount, "count_order");
  return b;
}

/// Averages from the per-group sums, rows sorted by (returnflag,
/// linestatus).
TpchQueryResult FinalizeQ1(const Partials& merged) {
  const auto sum = [&](const char* mark, int32_t key) {
    return Lookup(MarkOf(merged, mark).groups, key);
  };
  TpchQueryResult r;
  for (const auto& [k, count] : MarkOf(merged, "count_order").groups) {
    // Dense encoded-key realizations report every key code, including codes
    // no selected row carries: an empty group is the same as an absent one.
    if (count == 0) continue;
    tpch::Q1Row row;
    row.returnflag = k / 2;
    row.linestatus = k % 2;
    row.count_order = static_cast<int64_t>(count);
    row.sum_qty = sum("sum_qty", k);
    row.sum_base_price = sum("sum_base_price", k);
    row.sum_disc_price = sum("sum_disc_price", k);
    row.sum_charge = sum("sum_charge", k);
    row.avg_qty = row.sum_qty / count;
    row.avg_price = row.sum_base_price / count;
    row.avg_disc = sum("sum_disc", k) / count;
    r.q1.push_back(row);
  }
  std::sort(r.q1.begin(), r.q1.end(),
            [](const tpch::Q1Row& a, const tpch::Q1Row& b) {
              return std::pair(a.returnflag, a.linestatus) <
                     std::pair(b.returnflag, b.linestatus);
            });
  return r;
}

QueryPlanBundle BuildQ6(const TpchDeviceTables& tables) {
  const storage::DeviceTable& lineitem = *tables.lineitem;
  const tpch::Q6Params params;
  QueryPlanBundle b;
  Plan& p = b.plan;
  const int s_ship = p.Scan("lineitem", "l_shipdate", lineitem);
  const int s_disc = p.Scan("lineitem", "l_discount", lineitem);
  const int s_qty = p.Scan("lineitem", "l_quantity", lineitem);
  const int s_price = p.Scan("lineitem", "l_extendedprice", lineitem);

  // Five chained single-predicate sigmas; the optimizer folds them into one
  // SelectConjunctive, in the chain's column/predicate order.
  const int f1 = p.Filter(
      V(s_ship), Predicate::Make("l_shipdate", CompareOp::kGe,
                                 static_cast<double>(params.date_lo)));
  const int f2 = p.Filter(
      V(s_ship), Predicate::Make("l_shipdate", CompareOp::kLt,
                                 static_cast<double>(params.date_hi)),
      f1);
  const int f3 = p.Filter(
      V(s_disc),
      Predicate::Make("l_discount", CompareOp::kGe, params.discount_lo), f2);
  const int f4 = p.Filter(
      V(s_disc),
      Predicate::Make("l_discount", CompareOp::kLe, params.discount_hi), f3);
  const int f5 = p.Filter(
      V(s_qty),
      Predicate::Make("l_quantity", CompareOp::kLt, params.quantity_hi), f4);

  const int g_price = p.Gather(V(s_price), Rows(f5), "l_extendedprice[sel]");
  const int g_disc = p.Gather(V(s_disc), Rows(f5), "l_discount[sel]");
  const int m = p.Map(MapOp::kMul, V(g_price), V(g_disc), 0.0, "revenue");
  b.marks["revenue"] = p.Reduce(V(m), AggOp::kSum, "sum(revenue)");
  return b;
}

TpchQueryResult FinalizeQ6(const Partials& merged) {
  TpchQueryResult r;
  r.scalar = MarkOf(merged, "revenue").scalar;
  return r;
}

QueryPlanBundle BuildQ3(const TpchDeviceTables& tables) {
  const storage::DeviceTable& customer = *tables.customer;
  const storage::DeviceTable& orders = *tables.orders;
  const storage::DeviceTable& lineitem = *tables.lineitem;
  const tpch::Q3Params params;
  QueryPlanBundle b;
  Plan& p = b.plan;
  const int s_cseg = p.Scan("customer", "c_mktsegment", customer);
  const int s_ckey = p.Scan("customer", "c_custkey", customer);
  const int s_odate = p.Scan("orders", "o_orderdate", orders);
  const int s_okey = p.Scan("orders", "o_orderkey", orders);
  const int s_ocust = p.Scan("orders", "o_custkey", orders);
  const int s_lship = p.Scan("lineitem", "l_shipdate", lineitem);
  const int s_lkey = p.Scan("lineitem", "l_orderkey", lineitem);
  const int s_lprice = p.Scan("lineitem", "l_extendedprice", lineitem);
  const int s_ldisc = p.Scan("lineitem", "l_discount", lineitem);

  const int f_cust = p.Filter(
      V(s_cseg), Predicate::Make("c_mktsegment", CompareOp::kEq,
                                 static_cast<double>(params.segment)));
  const int g_ckey = p.Gather(V(s_ckey), Rows(f_cust), "c_custkey[sel]");

  const int f_ord = p.Filter(
      V(s_odate), Predicate::Make("o_orderdate", CompareOp::kLt,
                                  static_cast<double>(params.date)));
  const int g_okey = p.Gather(V(s_okey), Rows(f_ord), "o_orderkey[sel]");
  const int g_ocust = p.Gather(V(s_ocust), Rows(f_ord), "o_custkey[sel]");

  const int j1 = p.Join(V(g_ckey), V(g_ocust), "customer|X|orders");
  const int g_surv = p.Gather(V(g_okey),
                              NodeInput{j1, Part::kRightRows},
                              "o_orderkey[join]");

  const int f_li = p.Filter(
      V(s_lship), Predicate::Make("l_shipdate", CompareOp::kGt,
                                  static_cast<double>(params.date)));
  const int g_lkey = p.Gather(V(s_lkey), Rows(f_li), "l_orderkey[sel]");
  const int g_lprice = p.Gather(V(s_lprice), Rows(f_li),
                                "l_extendedprice[sel]");
  const int g_ldisc = p.Gather(V(s_ldisc), Rows(f_li), "l_discount[sel]");

  const int j2 = p.Join(V(g_surv), V(g_lkey), "orders|X|lineitem");
  const int g_keys = p.Gather(V(g_lkey), NodeInput{j2, Part::kRightRows},
                              "l_orderkey[join]");
  const int g_price = p.Gather(V(g_lprice), NodeInput{j2, Part::kRightRows},
                               "l_extendedprice[join]");
  const int g_disc = p.Gather(V(g_ldisc), NodeInput{j2, Part::kRightRows},
                              "l_discount[join]");
  const int m1 = p.Map(MapOp::kSubFromScalar, V(g_disc), NodeInput{}, 1.0,
                       "1-disc");
  const int m2 = p.Map(MapOp::kMul, V(g_price), V(m1), 0.0, "revenue");
  const int gb = p.GroupBy(V(g_keys), V(m2), AggOp::kSum,
                           "revenue by orderkey");
  const int sbk = p.SortByKey(NodeInput{gb, Part::kGroupAggregate},
                              NodeInput{gb, Part::kGroupKeys},
                              "sort by revenue", /*guard=*/gb);
  b.marks["fetch"] = p.FetchPair(sbk);
  return b;
}

/// Top-k of every slice's (revenue, orderkey) groups, in tpch::ReferenceQ3's
/// order: revenue descending, equal revenues by ascending orderkey.
TpchQueryResult FinalizeQ3(const Partials& merged) {
  TpchQueryResult r;
  for (const auto& [revenue, orderkey] : MarkOf(merged, "fetch").pairs) {
    r.q3.push_back(tpch::Q3Row{orderkey, revenue});
  }
  const size_t k = std::min(tpch::Q3Params().limit, r.q3.size());
  std::partial_sort(r.q3.begin(), r.q3.begin() + k, r.q3.end(),
                    [](const tpch::Q3Row& a, const tpch::Q3Row& b) {
                      if (a.revenue != b.revenue) return a.revenue > b.revenue;
                      return a.orderkey < b.orderkey;
                    });
  r.q3.resize(k);
  return r;
}

QueryPlanBundle BuildQ4(const TpchDeviceTables& tables) {
  const storage::DeviceTable& orders = *tables.orders;
  const storage::DeviceTable& lineitem = *tables.lineitem;
  const tpch::Q4Params params;
  QueryPlanBundle b;
  Plan& p = b.plan;
  const int s_commit = p.Scan("lineitem", "l_commitdate", lineitem);
  const int s_receipt = p.Scan("lineitem", "l_receiptdate", lineitem);
  const int s_lkey = p.Scan("lineitem", "l_orderkey", lineitem);
  const int s_odate = p.Scan("orders", "o_orderdate", orders);
  const int s_okey = p.Scan("orders", "o_orderkey", orders);
  const int s_oprio = p.Scan("orders", "o_orderpriority", orders);

  const int late = p.FilterCompare(V(s_commit), CompareOp::kLt, V(s_receipt),
                                   "commit<receipt");
  const int g_late = p.Gather(V(s_lkey), Rows(late), "l_orderkey[late]");
  const int distinct = p.Unique(V(g_late), "distinct late keys");

  const int f1 = p.Filter(
      V(s_odate), Predicate::Make("o_orderdate", CompareOp::kGe,
                                  static_cast<double>(params.date_lo)));
  const int f2 = p.Filter(
      V(s_odate), Predicate::Make("o_orderdate", CompareOp::kLt,
                                  static_cast<double>(params.date_hi)),
      f1);
  const int g_okey = p.Gather(V(s_okey), Rows(f2), "o_orderkey[sel]");
  const int g_oprio = p.Gather(V(s_oprio), Rows(f2), "o_orderpriority[sel]");

  const int j = p.Join(V(g_okey), V(distinct), "orders|X|late");
  const int g_prio = p.Gather(V(g_oprio), NodeInput{j, Part::kLeftRows},
                              "priority[join]");
  const int gb = p.GroupBy(V(g_prio), V(g_prio), AggOp::kCount,
                           "count by priority");
  b.marks["fetch"] = p.FetchGroups(gb);
  return b;
}

/// One row per priority, in priority order.
TpchQueryResult FinalizeQ4(const Partials& merged) {
  TpchQueryResult r;
  for (const auto& [priority, count] : MarkOf(merged, "fetch").groups) {
    r.q4.push_back(tpch::Q4Row{priority, static_cast<int64_t>(count)});
  }
  return r;
}

QueryPlanBundle BuildQ14(const TpchDeviceTables& tables) {
  const storage::DeviceTable& part = *tables.part;
  const storage::DeviceTable& lineitem = *tables.lineitem;
  const tpch::Q14Params params;
  QueryPlanBundle b;
  Plan& p = b.plan;
  const int s_ship = p.Scan("lineitem", "l_shipdate", lineitem);
  const int s_lpart = p.Scan("lineitem", "l_partkey", lineitem);
  const int s_price = p.Scan("lineitem", "l_extendedprice", lineitem);
  const int s_disc = p.Scan("lineitem", "l_discount", lineitem);
  const int s_pkey = p.Scan("part", "p_partkey", part);
  const int s_promo = p.Scan("part", "p_promo", part);

  const int f1 = p.Filter(
      V(s_ship), Predicate::Make("l_shipdate", CompareOp::kGe,
                                 static_cast<double>(params.date_lo)));
  const int f2 = p.Filter(
      V(s_ship), Predicate::Make("l_shipdate", CompareOp::kLt,
                                 static_cast<double>(params.date_hi)),
      f1);
  const int g_part = p.Gather(V(s_lpart), Rows(f2), "l_partkey[sel]");
  const int g_price = p.Gather(V(s_price), Rows(f2), "l_extendedprice[sel]");
  const int g_disc = p.Gather(V(s_disc), Rows(f2), "l_discount[sel]");
  const int m1 = p.Map(MapOp::kSubFromScalar, V(g_disc), NodeInput{}, 1.0,
                       "1-disc");
  const int m2 = p.Map(MapOp::kMul, V(g_price), V(m1), 0.0, "revenue");

  const int j = p.Join(V(s_pkey), V(g_part), "part|X|lineitem");
  const int g_promo = p.Gather(V(s_promo), NodeInput{j, Part::kLeftRows},
                               "p_promo[join]");
  const int g_revm = p.Gather(V(m2), NodeInput{j, Part::kRightRows},
                              "revenue[join]");
  const int r_total = p.Reduce(V(g_revm), AggOp::kSum, "total revenue");

  const int f_promo = p.Filter(
      V(g_promo), Predicate::Make("p_promo", CompareOp::kEq, 1.0));
  p.nodes[f_promo].guard = r_total;  // a chain's if (total == 0) return 0
  const int g_revp = p.Gather(V(g_revm), Rows(f_promo), "revenue[promo]");
  b.marks["total"] = r_total;
  b.marks["promo"] = p.Reduce(V(g_revp), AggOp::kSum, "promo revenue");
  return b;
}

TpchQueryResult FinalizeQ14(const Partials& merged) {
  const double total = MarkOf(merged, "total").scalar;
  TpchQueryResult r;
  r.scalar =
      total == 0.0 ? 0.0 : 100.0 * MarkOf(merged, "promo").scalar / total;
  return r;
}

}  // namespace

const std::vector<TpchQueryDef>& QueryTable() {
  static const std::vector<TpchQueryDef> table = {
      {.query = TpchQuery::kQ1,
       .name = "q1",
       .build_tables = {},
       .align_orderkey = false,
       .build = BuildQ1,
       .finalize = FinalizeQ1,
       // Groups on two flag columns: four combinations.
       .partial_rows = [](size_t) -> size_t { return 4; },
       .reference = [](const TpchHostTables& t) {
         TpchQueryResult r;
         r.q1 = tpch::ReferenceQ1(*t.lineitem);
         return r;
       }},
      {.query = TpchQuery::kQ3,
       .name = "q3",
       .build_tables = {TpchTable::kOrders, TpchTable::kCustomer},
       .align_orderkey = true,
       .build = BuildQ3,
       .finalize = FinalizeQ3,
       // One group per surviving order: a small fraction of the shard.
       .partial_rows = [](size_t shard_rows) -> size_t {
         return std::max<size_t>(shard_rows / 50, 1);
       },
       .reference = [](const TpchHostTables& t) {
         TpchQueryResult r;
         r.q3 = tpch::ReferenceQ3(*t.customer, *t.orders, *t.lineitem);
         return r;
       }},
      {.query = TpchQuery::kQ4,
       .name = "q4",
       .build_tables = {TpchTable::kOrders},
       .align_orderkey = true,
       .build = BuildQ4,
       .finalize = FinalizeQ4,
       // One group per order priority.
       .partial_rows = [](size_t) -> size_t { return 5; },
       .reference = [](const TpchHostTables& t) {
         TpchQueryResult r;
         r.q4 = tpch::ReferenceQ4(*t.orders, *t.lineitem);
         return r;
       }},
      {.query = TpchQuery::kQ6,
       .name = "q6",
       .build_tables = {},
       .align_orderkey = false,
       .build = BuildQ6,
       .finalize = FinalizeQ6,
       // A scalar: nothing is fetched by rows.
       .partial_rows = [](size_t) -> size_t { return 0; },
       .reference = [](const TpchHostTables& t) {
         TpchQueryResult r;
         r.scalar = tpch::ReferenceQ6(*t.lineitem);
         return r;
       }},
      {.query = TpchQuery::kQ14,
       .name = "q14",
       .build_tables = {TpchTable::kPart},
       .align_orderkey = false,
       .build = BuildQ14,
       .finalize = FinalizeQ14,
       .partial_rows = [](size_t) -> size_t { return 0; },
       .reference = [](const TpchHostTables& t) {
         TpchQueryResult r;
         r.scalar = tpch::ReferenceQ14(*t.part, *t.lineitem);
         return r;
       }},
  };
  return table;
}

const TpchQueryDef& QueryDef(TpchQuery query) {
  for (const TpchQueryDef& def : QueryTable()) {
    if (def.query == query) return def;
  }
  throw std::logic_error("TpchQuery missing from the query table");
}

const char* TpchQueryName(TpchQuery query) { return QueryDef(query).name; }

TpchQuery ParseTpchQuery(const std::string& name) {
  std::string expected;
  for (const TpchQueryDef& def : QueryTable()) {
    if (name == def.name) return def.query;
    if (!expected.empty()) expected += '|';
    expected += def.name;
  }
  throw std::invalid_argument("unknown TPC-H query '" + name +
                              "' (expected " + expected + ")");
}

const char* TpchTableName(TpchTable table) {
  switch (table) {
    case TpchTable::kOrders: return "orders";
    case TpchTable::kCustomer: return "customer";
    case TpchTable::kPart: return "part";
  }
  return "?";
}

void Partials::Merge(const Partials& other) {
  for (const auto& [name, from] : other.marks) {
    Mark& into = marks[name];
    into.kind = from.kind;
    for (const auto& [key, value] : from.groups) into.groups[key] += value;
    into.pairs.insert(into.pairs.end(), from.pairs.begin(), from.pairs.end());
    into.scalar += from.scalar;
  }
}

uint64_t Partials::bytes() const {
  std::set<int32_t> keys;
  uint64_t bytes = 0;
  for (const auto& [name, m] : marks) {
    for (const auto& group : m.groups) keys.insert(group.first);
    bytes += m.groups.size() * sizeof(double) +
             m.pairs.size() * sizeof(std::pair<double, int32_t>);
    if (m.kind == NodeKind::kReduce) bytes += sizeof(double);
  }
  return bytes + keys.size() * sizeof(int32_t);
}

Partials ExtractPartials(const QueryPlanBundle& bundle,
                         const ExecutionResult& result) {
  Partials p;
  for (const auto& [name, node] : bundle.marks) {
    const NodeValue& v = result.values[node];
    Partials::Mark& m = p.marks[name];
    m.kind = bundle.plan.nodes[node].kind;
    if (!v.computed) continue;
    switch (m.kind) {
      case NodeKind::kFetchGroups:
        for (size_t i = 0; i < v.host_keys.size(); ++i) {
          m.groups[v.host_keys[i]] =
              v.host_vals_f.empty() ? static_cast<double>(v.host_vals_i[i])
                                    : v.host_vals_f[i];
        }
        break;
      case NodeKind::kFetchPair:
        for (size_t i = 0; i < v.host_first.size(); ++i) {
          m.pairs.emplace_back(v.host_first[i], v.host_second[i]);
        }
        break;
      case NodeKind::kReduce:
        m.scalar = v.scalar;
        break;
      default:
        throw std::logic_error("mark '" + name +
                               "' is not a fetch or reduce node");
    }
  }
  return p;
}

QueryPlanBundle BuildTpchPlan(TpchQuery query,
                              const TpchDeviceTables& tables) {
  RequireTables(query, tables);
  return QueryDef(query).build(tables);
}

TpchQueryResult FinalizeRun(TpchQuery query, const QueryPlanBundle& bundle,
                            const ExecutionResult& result) {
  Partials merged;
  merged.Merge(ExtractPartials(bundle, result));
  return QueryDef(query).finalize(merged);
}

TpchQueryResult ReferenceAnswer(TpchQuery query,
                                const TpchHostTables& tables) {
  RequireTables(query, tables);
  return QueryDef(query).reference(tables);
}

std::map<TpchQuery, TpchQueryResult> ReferenceAnswers(
    const TpchHostTables& tables) {
  std::map<TpchQuery, TpchQueryResult> answers;
  for (const TpchQueryDef& def : QueryTable()) {
    answers[def.query] = ReferenceAnswer(def.query, tables);
  }
  return answers;
}

bool SameAnswer(TpchQuery query, const TpchQueryResult& got,
                const TpchQueryResult& want, std::string* why,
                double abs_slack) {
  const auto near = [abs_slack](double g, double w) {
    return std::abs(g - w) <= std::abs(w) * 1e-9 + abs_slack;
  };
  const auto differ = [&](std::string what) {
    if (why != nullptr) {
      *why = std::string(TpchQueryName(query)) + " " + std::move(what);
    }
    return false;
  };
  const auto row_count = [&](size_t g, size_t w) {
    return differ("has " + std::to_string(g) + " rows, expected " +
                  std::to_string(w));
  };
  switch (query) {
    case TpchQuery::kQ1:
      if (got.q1.size() != want.q1.size()) {
        return row_count(got.q1.size(), want.q1.size());
      }
      for (size_t i = 0; i < want.q1.size(); ++i) {
        const tpch::Q1Row& g = got.q1[i];
        const tpch::Q1Row& w = want.q1[i];
        if (g.returnflag != w.returnflag || g.linestatus != w.linestatus ||
            g.count_order != w.count_order || !near(g.sum_qty, w.sum_qty) ||
            !near(g.sum_base_price, w.sum_base_price) ||
            !near(g.sum_disc_price, w.sum_disc_price) ||
            !near(g.sum_charge, w.sum_charge) ||
            !near(g.avg_qty, w.avg_qty) || !near(g.avg_price, w.avg_price) ||
            !near(g.avg_disc, w.avg_disc)) {
          return differ("row " + std::to_string(i) + " differs");
        }
      }
      return true;
    case TpchQuery::kQ3:
      if (got.q3.size() != want.q3.size()) {
        return row_count(got.q3.size(), want.q3.size());
      }
      for (size_t i = 0; i < want.q3.size(); ++i) {
        if (got.q3[i].orderkey != want.q3[i].orderkey ||
            !near(got.q3[i].revenue, want.q3[i].revenue)) {
          return differ("row " + std::to_string(i) + " differs");
        }
      }
      return true;
    case TpchQuery::kQ4:
      if (got.q4.size() != want.q4.size()) {
        return row_count(got.q4.size(), want.q4.size());
      }
      for (size_t i = 0; i < want.q4.size(); ++i) {
        if (got.q4[i].orderpriority != want.q4[i].orderpriority ||
            got.q4[i].order_count != want.q4[i].order_count) {
          return differ("row " + std::to_string(i) + " differs");
        }
      }
      return true;
    case TpchQuery::kQ6:
    case TpchQuery::kQ14:
      if (!near(got.scalar, want.scalar)) {
        return differ("scalar " + std::to_string(got.scalar) +
                      ", expected " + std::to_string(want.scalar));
      }
      return true;
  }
  return differ("is not in the query table");
}

}  // namespace plan
