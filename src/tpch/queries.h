// TPC-H query parameters, result rows and host reference answers.
//
// Each query is defined once, as a logical plan in the query table
// (plan/tpch_plans.h); every bench, tool and example runs that plan. This
// header holds what the plans and their checks share: the parameters the
// plans bind (TPC-H defaults), the row types their answers come back in,
// and host (scalar) reference implementations that answers are checked
// against.
#ifndef TPCH_QUERIES_H_
#define TPCH_QUERIES_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "storage/table.h"
#include "tpch/datagen.h"

namespace tpch {

// ---------------------------------------------------------------------------
// Q1: pricing summary report
// ---------------------------------------------------------------------------

/// One result row of Q1, keyed by (l_returnflag, l_linestatus).
struct Q1Row {
  int32_t returnflag = 0;
  int32_t linestatus = 0;
  double sum_qty = 0;
  double sum_base_price = 0;
  double sum_disc_price = 0;
  double sum_charge = 0;
  double avg_qty = 0;
  double avg_price = 0;
  double avg_disc = 0;
  int64_t count_order = 0;
};

/// Q1 parameters: shipdate <= 1998-12-01 - delta days (TPC-H delta=90).
struct Q1Params {
  int32_t delta_days = 90;
  int32_t CutoffDays() const {
    return DaysFromDate(1998, 12, 1) - delta_days;
  }
};

/// Host reference implementation; rows sorted by (returnflag, linestatus).
std::vector<Q1Row> ReferenceQ1(const storage::Table& lineitem,
                               const Q1Params& params = Q1Params());

// ---------------------------------------------------------------------------
// Q6: forecasting revenue change
// ---------------------------------------------------------------------------

/// Q6 parameters (TPC-H defaults: 1994, discount 0.06 +- 0.01, qty < 24).
struct Q6Params {
  int32_t date_lo = DaysFromDate(1994, 1, 1);
  int32_t date_hi = DaysFromDate(1995, 1, 1);
  double discount_lo = 0.05;
  double discount_hi = 0.07;
  double quantity_hi = 24.0;
};

/// Host reference implementation: the revenue sum.
double ReferenceQ6(const storage::Table& lineitem,
                   const Q6Params& params = Q6Params());

// ---------------------------------------------------------------------------
// Q3: shipping priority (join-heavy)
// ---------------------------------------------------------------------------

/// One result row of Q3 (simplified: grouped by l_orderkey only; o_orderdate
/// and o_shippriority are functionally dependent on it and omitted).
struct Q3Row {
  int32_t orderkey = 0;
  double revenue = 0;
};

/// Q3 parameters (TPC-H defaults: segment BUILDING, date 1995-03-15).
struct Q3Params {
  int32_t segment = 0;  ///< c_mktsegment code
  int32_t date = DaysFromDate(1995, 3, 15);
  size_t limit = 10;
};

/// Host reference implementation: the top `limit` orders by revenue
/// descending, equal revenues by ascending orderkey.
std::vector<Q3Row> ReferenceQ3(const storage::Table& customer,
                               const storage::Table& orders,
                               const storage::Table& lineitem,
                               const Q3Params& params = Q3Params());

// ---------------------------------------------------------------------------
// Q4: order priority checking (semi-join / EXISTS)
// ---------------------------------------------------------------------------

/// One result row of Q4.
struct Q4Row {
  int32_t orderpriority = 0;
  int64_t order_count = 0;
};

/// Q4 parameters (TPC-H defaults: quarter starting 1993-07-01).
struct Q4Params {
  int32_t date_lo = DaysFromDate(1993, 7, 1);
  int32_t date_hi = DaysFromDate(1993, 10, 1);
};

/// Host reference implementation; rows sorted by priority.
std::vector<Q4Row> ReferenceQ4(const storage::Table& orders,
                               const storage::Table& lineitem,
                               const Q4Params& params = Q4Params());

// ---------------------------------------------------------------------------
// Q14: promotion effect (join + conditional aggregation)
// ---------------------------------------------------------------------------

/// Q14 parameters (TPC-H defaults: month starting 1995-09-01).
struct Q14Params {
  int32_t date_lo = DaysFromDate(1995, 9, 1);
  int32_t date_hi = DaysFromDate(1995, 10, 1);
};

/// Host reference implementation: promo_revenue in percent.
double ReferenceQ14(const storage::Table& part,
                    const storage::Table& lineitem,
                    const Q14Params& params = Q14Params());

}  // namespace tpch

#endif  // TPCH_QUERIES_H_
