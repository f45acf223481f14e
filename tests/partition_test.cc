// Governed / partitioned query execution tests (plan/partition.h):
// differential correctness of the spill path against the host references for
// all five TPC-H queries at forced partition counts, equivalence of the K==1
// path with the ordinary whole-table run, automatic degradation under a
// constrained capacity, footprint-estimator sanity, and the timing-invariance
// golden for a partitioned plan.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "backends/backends.h"
#include "core/registry.h"
#include "gpusim/device.h"
#include "plan/partition.h"
#include "tpch/datagen.h"
#include "tpch_answer_testing.h"

namespace plan {
namespace {

/// Restores the default device's capacity (and empties the pool) on exit, so
/// a failing capacity test cannot poison later tests in the binary.
class CapacityGuard {
 public:
  CapacityGuard() : saved_(gpusim::Device::Default().memory_capacity()) {}
  ~CapacityGuard() {
    gpusim::Device::Default().set_memory_capacity(saved_);
    gpusim::Device::Default().TrimPool();
  }

 private:
  size_t saved_;
};

class PartitionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    core::RegisterBuiltinBackends();
    tpch::Config config;
    config.scale_factor = 0.01;
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

  static TpchHostTables Tables() {
    TpchHostTables t;
    t.lineitem = lineitem_;
    t.orders = orders_;
    t.customer = customer_;
    t.part = part_;
    return t;
  }

  static std::unique_ptr<core::Backend> MakeBackend() {
    return core::BackendRegistry::Instance().Create(backends::kHandwritten);
  }

  static TpchQueryResult RunForced(TpchQuery query, size_t k,
                                   GovernedRunStats* stats = nullptr) {
    auto backend = MakeBackend();
    GovernedQueryOptions options;
    options.force_partitions = k;
    return RunGoverned(query, Tables(), *backend, options, stats);
  }

  static storage::Table* lineitem_;
  static storage::Table* orders_;
  static storage::Table* customer_;
  static storage::Table* part_;
};

storage::Table* PartitionTest::lineitem_ = nullptr;
storage::Table* PartitionTest::orders_ = nullptr;
storage::Table* PartitionTest::customer_ = nullptr;
storage::Table* PartitionTest::part_ = nullptr;

TEST_F(PartitionTest, Q1PartitionedMatchesReference) {
  GovernedRunStats stats;
  const TpchQueryResult result = RunForced(TpchQuery::kQ1, 4, &stats);
  EXPECT_EQ(stats.partitions, 4u);
  EXPECT_GT(stats.spill_h2d_bytes, 0u);
  tpch_testing::ExpectReferenceAnswer(TpchQuery::kQ1, result, Tables());
}

TEST_F(PartitionTest, Q3PartitionedMatchesReference) {
  const TpchQueryResult result = RunForced(TpchQuery::kQ3, 4);
  tpch_testing::ExpectReferenceAnswer(TpchQuery::kQ3, result, Tables());
}

TEST_F(PartitionTest, Q4PartitionedMatchesReference) {
  const TpchQueryResult result = RunForced(TpchQuery::kQ4, 4);
  tpch_testing::ExpectReferenceAnswer(TpchQuery::kQ4, result, Tables());
}

TEST_F(PartitionTest, Q6PartitionedMatchesReference) {
  const TpchQueryResult result = RunForced(TpchQuery::kQ6, 4);
  tpch_testing::ExpectReferenceAnswer(TpchQuery::kQ6, result, Tables());
}

TEST_F(PartitionTest, Q14PartitionedMatchesReference) {
  const TpchQueryResult result = RunForced(TpchQuery::kQ14, 4);
  tpch_testing::ExpectReferenceAnswer(TpchQuery::kQ14, result, Tables());
}

TEST_F(PartitionTest, DeepPartitioningStaysCorrect) {
  // 16 slices of a 60K-row lineitem: boundary handling (orderkey-aligned
  // snapping for Q3, empty-range skipping) gets real exercise.
  const TpchQueryResult result = RunForced(TpchQuery::kQ3, 16);
  tpch_testing::ExpectReferenceAnswer(TpchQuery::kQ3, result, Tables());
}

TEST_F(PartitionTest, UnconstrainedRunUsesOnePartition) {
  GovernedRunStats stats;
  const TpchQueryResult result = RunForced(TpchQuery::kQ6, 0, &stats);
  EXPECT_EQ(stats.partitions, 1u);
  EXPECT_EQ(stats.oom_fallbacks, 0u);
  // The unpartitioned path spills nothing: no extra transfers to account.
  EXPECT_EQ(stats.spill_h2d_bytes, 0u);
  EXPECT_EQ(stats.spill_d2h_bytes, 0u);
  tpch_testing::ExpectReferenceAnswer(TpchQuery::kQ6, result, Tables());
}

TEST_F(PartitionTest, ConstrainedCapacityTriggersAutomaticPartitioning) {
  CapacityGuard guard;
  gpusim::Device& device = gpusim::Device::Default();
  device.TrimPool();
  const uint64_t footprint =
      EstimateQueryFootprint(TpchQuery::kQ6, Tables(), backends::kHandwritten);
  device.set_memory_capacity(footprint / 4);
  GovernedRunStats stats;
  auto backend = MakeBackend();
  std::vector<PressureEvent> events;
  GovernedQueryOptions options;
  options.on_event = [&](const PressureEvent& e) { events.push_back(e); };
  const TpchQueryResult result =
      RunGoverned(TpchQuery::kQ6, Tables(), *backend, options, &stats);
  EXPECT_GT(stats.partitions, 1u);
  EXPECT_GT(stats.spill_h2d_bytes, 0u);
  tpch_testing::ExpectReferenceAnswer(TpchQuery::kQ6, result, Tables());
  // The event stream narrates the degradation: an admission estimate, the
  // partition decision, one spill event per executed slice.
  ASSERT_GE(events.size(), 2u);
  EXPECT_EQ(events[0].kind, PressureEvent::Kind::kAdmission);
  EXPECT_EQ(events[1].kind, PressureEvent::Kind::kPartition);
  EXPECT_EQ(events[1].partitions, stats.partitions);
}

TEST_F(PartitionTest, FootprintEstimateShrinksWithPartitionsAndIsDeterministic) {
  const TpchHostTables tables = Tables();
  for (const TpchQuery q : {TpchQuery::kQ1, TpchQuery::kQ3, TpchQuery::kQ4,
                            TpchQuery::kQ6, TpchQuery::kQ14}) {
    const uint64_t whole =
        EstimateQueryFootprint(q, tables, backends::kHandwritten);
    const uint64_t quartered =
        EstimateQueryFootprint(q, tables, backends::kHandwritten, 4);
    EXPECT_GT(whole, 0u) << TpchQueryName(q);
    EXPECT_LT(quartered, whole) << TpchQueryName(q);
    EXPECT_EQ(whole, EstimateQueryFootprint(q, tables, backends::kHandwritten))
        << TpchQueryName(q);
  }
}

// Timing-invariance golden for the spill path: simulated time is a pure
// function of the commands charged, so the same partitioned plan on a fresh
// stream replays to bit-identical simulated nanoseconds.
TEST_F(PartitionTest, PartitionedRunSimulatedTimeIsBitIdentical) {
  GovernedRunStats first, second;
  const TpchQueryResult r1 = RunForced(TpchQuery::kQ6, 4, &first);
  const TpchQueryResult r2 = RunForced(TpchQuery::kQ6, 4, &second);
  EXPECT_GT(first.simulated_ns, 0u);
  EXPECT_EQ(first.simulated_ns, second.simulated_ns);
  EXPECT_EQ(first.spill_h2d_bytes, second.spill_h2d_bytes);
  EXPECT_EQ(first.spill_d2h_bytes, second.spill_d2h_bytes);
  EXPECT_EQ(r1.scalar, r2.scalar);
}

TEST_F(PartitionTest, ParseTpchQueryRoundTripsAndRejectsUnknown) {
  for (const TpchQuery q : {TpchQuery::kQ1, TpchQuery::kQ3, TpchQuery::kQ4,
                            TpchQuery::kQ6, TpchQuery::kQ14}) {
    EXPECT_EQ(ParseTpchQuery(TpchQueryName(q)), q);
  }
  EXPECT_THROW(ParseTpchQuery("q99"), std::invalid_argument);
}

}  // namespace
}  // namespace plan
