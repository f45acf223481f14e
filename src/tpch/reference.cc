// Host (scalar) reference answers of the five TPC-H queries.
#include <algorithm>
#include <map>
#include <set>

#include "tpch/queries.h"

namespace tpch {

std::vector<Q1Row> ReferenceQ1(const storage::Table& lineitem,
                               const Q1Params& params) {
  const auto& shipdate = lineitem.column("l_shipdate").values<int32_t>();
  const auto& rfls = lineitem.column("l_rfls").values<int32_t>();
  const auto& qty = lineitem.column("l_quantity").values<double>();
  const auto& price = lineitem.column("l_extendedprice").values<double>();
  const auto& disc = lineitem.column("l_discount").values<double>();
  const auto& tax = lineitem.column("l_tax").values<double>();
  const int32_t cutoff = params.CutoffDays();

  std::map<int32_t, Q1Row> groups;
  for (size_t i = 0; i < shipdate.size(); ++i) {
    if (shipdate[i] > cutoff) continue;
    Q1Row& row = groups[rfls[i]];
    row.returnflag = rfls[i] / 2;
    row.linestatus = rfls[i] % 2;
    row.sum_qty += qty[i];
    row.sum_base_price += price[i];
    const double disc_price = price[i] * (1.0 - disc[i]);
    row.sum_disc_price += disc_price;
    row.sum_charge += disc_price * (1.0 + tax[i]);
    row.avg_disc += disc[i];  // running sum; divided below
    ++row.count_order;
  }
  std::vector<Q1Row> rows;
  for (auto& [k, row] : groups) {
    (void)k;
    row.avg_qty = row.sum_qty / row.count_order;
    row.avg_price = row.sum_base_price / row.count_order;
    row.avg_disc = row.avg_disc / row.count_order;
    rows.push_back(row);
  }
  return rows;
}

double ReferenceQ6(const storage::Table& lineitem, const Q6Params& params) {
  const auto& shipdate = lineitem.column("l_shipdate").values<int32_t>();
  const auto& discount = lineitem.column("l_discount").values<double>();
  const auto& quantity = lineitem.column("l_quantity").values<double>();
  const auto& price = lineitem.column("l_extendedprice").values<double>();

  double revenue = 0.0;
  for (size_t i = 0; i < shipdate.size(); ++i) {
    if (shipdate[i] >= params.date_lo && shipdate[i] < params.date_hi &&
        discount[i] >= params.discount_lo &&
        discount[i] <= params.discount_hi &&
        quantity[i] < params.quantity_hi) {
      revenue += price[i] * discount[i];
    }
  }
  return revenue;
}

std::vector<Q3Row> ReferenceQ3(const storage::Table& customer,
                               const storage::Table& orders,
                               const storage::Table& lineitem,
                               const Q3Params& params) {
  const auto& c_key = customer.column("c_custkey").values<int32_t>();
  const auto& c_seg = customer.column("c_mktsegment").values<int32_t>();
  const auto& o_key = orders.column("o_orderkey").values<int32_t>();
  const auto& o_cust = orders.column("o_custkey").values<int32_t>();
  const auto& o_date = orders.column("o_orderdate").values<int32_t>();
  const auto& l_key = lineitem.column("l_orderkey").values<int32_t>();
  const auto& l_ship = lineitem.column("l_shipdate").values<int32_t>();
  const auto& l_price = lineitem.column("l_extendedprice").values<double>();
  const auto& l_disc = lineitem.column("l_discount").values<double>();

  std::map<int32_t, bool> building_customer;
  for (size_t i = 0; i < c_key.size(); ++i) {
    if (c_seg[i] == params.segment) building_customer[c_key[i]] = true;
  }
  std::map<int32_t, bool> qualifying_order;
  for (size_t i = 0; i < o_key.size(); ++i) {
    if (o_date[i] < params.date && building_customer.count(o_cust[i])) {
      qualifying_order[o_key[i]] = true;
    }
  }
  std::map<int32_t, double> revenue;
  for (size_t i = 0; i < l_key.size(); ++i) {
    if (l_ship[i] > params.date && qualifying_order.count(l_key[i])) {
      revenue[l_key[i]] += l_price[i] * (1.0 - l_disc[i]);
    }
  }
  std::vector<Q3Row> rows;
  for (const auto& [key, rev] : revenue) rows.push_back(Q3Row{key, rev});
  std::sort(rows.begin(), rows.end(), [](const Q3Row& a, const Q3Row& b) {
    if (a.revenue != b.revenue) return a.revenue > b.revenue;
    return a.orderkey < b.orderkey;
  });
  if (rows.size() > params.limit) rows.resize(params.limit);
  return rows;
}

std::vector<Q4Row> ReferenceQ4(const storage::Table& orders,
                               const storage::Table& lineitem,
                               const Q4Params& params) {
  const auto& l_key = lineitem.column("l_orderkey").values<int32_t>();
  const auto& l_commit = lineitem.column("l_commitdate").values<int32_t>();
  const auto& l_receipt = lineitem.column("l_receiptdate").values<int32_t>();
  const auto& o_key = orders.column("o_orderkey").values<int32_t>();
  const auto& o_date = orders.column("o_orderdate").values<int32_t>();
  const auto& o_prio = orders.column("o_orderpriority").values<int32_t>();

  std::set<int32_t> late_orders;
  for (size_t i = 0; i < l_key.size(); ++i) {
    if (l_commit[i] < l_receipt[i]) late_orders.insert(l_key[i]);
  }
  std::map<int32_t, int64_t> counts;
  for (size_t i = 0; i < o_key.size(); ++i) {
    if (o_date[i] >= params.date_lo && o_date[i] < params.date_hi &&
        late_orders.count(o_key[i])) {
      ++counts[o_prio[i]];
    }
  }
  std::vector<Q4Row> rows;
  for (const auto& [prio, count] : counts) rows.push_back(Q4Row{prio, count});
  return rows;
}

double ReferenceQ14(const storage::Table& part,
                    const storage::Table& lineitem, const Q14Params& params) {
  const auto& p_key = part.column("p_partkey").values<int32_t>();
  const auto& p_promo = part.column("p_promo").values<int32_t>();
  const auto& l_part = lineitem.column("l_partkey").values<int32_t>();
  const auto& l_ship = lineitem.column("l_shipdate").values<int32_t>();
  const auto& l_price = lineitem.column("l_extendedprice").values<double>();
  const auto& l_disc = lineitem.column("l_discount").values<double>();

  std::vector<int32_t> promo_by_key(p_key.size() + 1, 0);
  for (size_t i = 0; i < p_key.size(); ++i) {
    promo_by_key[static_cast<size_t>(p_key[i])] = p_promo[i];
  }
  double total = 0.0, promo = 0.0;
  for (size_t i = 0; i < l_part.size(); ++i) {
    if (l_ship[i] < params.date_lo || l_ship[i] >= params.date_hi) continue;
    const double rev = l_price[i] * (1.0 - l_disc[i]);
    total += rev;
    if (promo_by_key[static_cast<size_t>(l_part[i])]) promo += rev;
  }
  return total == 0.0 ? 0.0 : 100.0 * promo / total;
}

}  // namespace tpch
