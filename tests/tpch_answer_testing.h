// Field-by-field equality of two answers to one TPC-H query, for the tests
// that assert an answer does not depend on where or how the query ran
// (device count, slice placement, recovery path, host pool size).
#ifndef TESTS_TPCH_ANSWER_TESTING_H_
#define TESTS_TPCH_ANSWER_TESTING_H_

#include <gtest/gtest.h>

#include <cstddef>

#include "plan/partition.h"

namespace tpch_testing {

/// EXPECT_EQ on every row and field of the answer to `q`, floats included.
inline void ExpectSameAnswer(plan::TpchQuery q,
                             const plan::TpchQueryResult& want,
                             const plan::TpchQueryResult& got) {
  switch (q) {
    case plan::TpchQuery::kQ1:
      ASSERT_EQ(got.q1.size(), want.q1.size());
      for (size_t i = 0; i < want.q1.size(); ++i) {
        SCOPED_TRACE(testing::Message() << "row " << i);
        EXPECT_EQ(got.q1[i].returnflag, want.q1[i].returnflag);
        EXPECT_EQ(got.q1[i].linestatus, want.q1[i].linestatus);
        EXPECT_EQ(got.q1[i].sum_qty, want.q1[i].sum_qty);
        EXPECT_EQ(got.q1[i].sum_base_price, want.q1[i].sum_base_price);
        EXPECT_EQ(got.q1[i].sum_disc_price, want.q1[i].sum_disc_price);
        EXPECT_EQ(got.q1[i].sum_charge, want.q1[i].sum_charge);
        EXPECT_EQ(got.q1[i].avg_qty, want.q1[i].avg_qty);
        EXPECT_EQ(got.q1[i].avg_price, want.q1[i].avg_price);
        EXPECT_EQ(got.q1[i].avg_disc, want.q1[i].avg_disc);
        EXPECT_EQ(got.q1[i].count_order, want.q1[i].count_order);
      }
      break;
    case plan::TpchQuery::kQ3:
      ASSERT_EQ(got.q3.size(), want.q3.size());
      for (size_t i = 0; i < want.q3.size(); ++i) {
        EXPECT_EQ(got.q3[i].orderkey, want.q3[i].orderkey) << "row " << i;
        EXPECT_EQ(got.q3[i].revenue, want.q3[i].revenue) << "row " << i;
      }
      break;
    case plan::TpchQuery::kQ4:
      ASSERT_EQ(got.q4.size(), want.q4.size());
      for (size_t i = 0; i < want.q4.size(); ++i) {
        EXPECT_EQ(got.q4[i].orderpriority, want.q4[i].orderpriority);
        EXPECT_EQ(got.q4[i].order_count, want.q4[i].order_count);
      }
      break;
    case plan::TpchQuery::kQ6:
    case plan::TpchQuery::kQ14:
      EXPECT_EQ(got.scalar, want.scalar);
      break;
  }
}

}  // namespace tpch_testing

#endif  // TESTS_TPCH_ANSWER_TESTING_H_
