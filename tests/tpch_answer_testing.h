// Answer checks for the TPC-H query tests: field-by-field equality of two
// answers to one query, for the tests that assert an answer does not depend
// on where or how the query ran (device count, slice placement, recovery
// path, host pool size); the one check against the host reference; and the
// one call the query tests run a query's plan with.
#ifndef TESTS_TPCH_ANSWER_TESTING_H_
#define TESTS_TPCH_ANSWER_TESTING_H_

#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "core/backend.h"
#include "plan/partition.h"
#include "plan/prepared.h"
#include "plan/tpch_plans.h"

namespace tpch_testing {

/// Uploads the tables `q` reads out of `host` on the backend's stream
/// (encoded when `encoded`) and runs `q`'s plan from the query table pinned
/// to the backend.
inline plan::TpchQueryResult RunQuery(plan::TpchQuery q,
                                      core::Backend& backend,
                                      const plan::TpchHostTables& host,
                                      bool encoded = false) {
  return plan::PrepareTpchQuery({q, encoded},
                                plan::MakeResident(backend.stream(),
                                                   plan::QueryTables(q, host),
                                                   encoded),
                                backend.name())
      ->Run(backend);
}

/// EXPECTs that `got` answers `q` as `want` does: rows, keys and counts
/// equal, every float within a relative 1e-9 and no absolute slack.
inline void ExpectNearAnswer(plan::TpchQuery q,
                             const plan::TpchQueryResult& got,
                             const plan::TpchQueryResult& want) {
  std::string why;
  EXPECT_TRUE(plan::SameAnswer(q, got, want, &why, /*abs_slack=*/0.0))
      << why;
}

/// ExpectNearAnswer against the host reference answer of `q` over `host`.
inline void ExpectReferenceAnswer(plan::TpchQuery q,
                                  const plan::TpchQueryResult& got,
                                  const plan::TpchHostTables& host) {
  ExpectNearAnswer(q, got, plan::ReferenceAnswer(q, host));
}

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
