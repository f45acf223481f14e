// The determinism contract in one suite: a TPC-H query's answer must not
// depend on how the simulator scheduled its work, and neither may its
// simulated ns wherever runs charge the same device commands. Every query
// runs on every library, raw and encoded, in the two shapes the benchmark
// spends its time in:
//  * OneSlice, as queries are served, at sf 0.01: RunGoverned at one
//    partition on devices whose pools have 1, 2, 3 and 8 host threads (grids
//    this size split into host chunks, so the pool varies the schedule); then
//    each plan prepared once over resident tables, run directly and by
//    QueryScheduler clients, 1 and then 4 at a time.
//  * EightSlices, as cold_libraries runs them, at sf 0.002: RunGoverned at
//    eight partitions, RunSharded over eight shards on 1, 2, 3 and 4 devices
//    (4 twice), and on 4 devices with device 1 lost at its second kernel.
// Within a test every answer to a query must equal its first one field by
// field, and no run may put a kernel or transfer on Device::Default().
// Built into concurrency_tests, which CI also runs under TSan and ASan.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "backends/backends.h"
#include "core/registry.h"
#include "core/scheduler.h"
#include "gpusim/counters.h"
#include "gpusim/device.h"
#include "gpusim/device_group.h"
#include "gpusim/fault.h"
#include "plan/exchange.h"
#include "plan/partition.h"
#include "plan/prepared.h"
#include "tpch/datagen.h"
#include "tpch_answer_testing.h"

namespace {

using plan::TpchQuery;

constexpr TpchQuery kQueries[] = {TpchQuery::kQ1, TpchQuery::kQ3,
                                  TpchQuery::kQ4, TpchQuery::kQ6,
                                  TpchQuery::kQ14};

/// The four tables the queries read, at one scale factor.
struct HostTables {
  explicit HostTables(double sf)
      : lineitem(tpch::GenerateLineitem({sf})),
        orders(tpch::GenerateOrders({sf})),
        customer(tpch::GenerateCustomer({sf})),
        part(tpch::GeneratePart({sf})) {}
  plan::TpchHostTables view() const {
    return {&lineitem, &orders, &customer, &part};
  }
  storage::Table lineitem, orders, customer, part;
};

/// Parameterized by library and by whether tables upload encoded.
class DeterminismTest
    : public testing::TestWithParam<std::tuple<std::string, bool>> {
 protected:
  static void SetUpTestSuite() { core::RegisterBuiltinBackends(); }
  void SetUp() override { on_default_ = gpusim::Device::Default().Snapshot(); }
  void TearDown() override {
    const gpusim::CounterSnapshot d =
        gpusim::Device::Default().Snapshot().Delta(on_default_);
    EXPECT_EQ(d.kernels_launched, 0u) << "kernels on Device::Default()";
    EXPECT_EQ(d.transfers, 0u) << "transfers on Device::Default()";
  }

  const std::string& library() const { return std::get<0>(GetParam()); }
  bool encoded() const { return std::get<1>(GetParam()); }
  std::unique_ptr<core::Backend> MakeBackend() const {
    return core::BackendRegistry::Instance().Create(library());
  }

  /// Expects `got` to answer `q` as this test's first run of `q` did and,
  /// when `timeline` names runs that charge the same device commands, `ns`
  /// to equal the first ns of `q` among them.
  void Expect(TpchQuery q, const std::string& run,
              const plan::TpchQueryResult& got, const char* timeline = nullptr,
              uint64_t ns = 0) {
    SCOPED_TRACE(std::string(plan::TpchQueryName(q)) + ", " + run);
    if (const auto [first, fresh] = answers_.emplace(q, got); !fresh) {
      tpch_testing::ExpectSameAnswer(q, first->second, got);
    }
    if (timeline == nullptr) return;
    if (const auto [first, fresh] = ns_.emplace(std::pair(timeline, q), ns);
        !fresh) {
      EXPECT_EQ(ns, first->second) << timeline << " simulated ns";
    }
  }

 private:
  gpusim::CounterSnapshot on_default_;
  std::map<TpchQuery, plan::TpchQueryResult> answers_;
  std::map<std::pair<std::string, TpchQuery>, uint64_t> ns_;
};

TEST_P(DeterminismTest, OneSlice) {
  static const HostTables host(0.01);
  const plan::TpchHostTables tables = host.view();
  plan::GovernedQueryOptions governed;
  governed.force_partitions = 1;
  governed.use_encoding = encoded();
  for (const unsigned threads : {1u, 2u, 3u, 8u}) {
    const std::string pool = std::to_string(threads) + " host thread(s)";
    gpusim::Device device(gpusim::DeviceProperties(), threads);
    gpusim::Device::DeviceGuard guard(device);
    const std::unique_ptr<core::Backend> backend = MakeBackend();
    ASSERT_EQ(&backend->stream().device(), &device);
    for (const TpchQuery q : kQueries) {
      plan::GovernedRunStats stats;
      const plan::TpchQueryResult got =
          plan::RunGoverned(q, tables, *backend, governed, &stats);
      Expect(q, "governed on " + pool, got, "governed", stats.simulated_ns);
    }
  }

  // Boost.Compute compiles its programs once per backend instance, so a
  // client's first run of a query costs more than its later ones: only its
  // answers are compared.
  const char* timeline =
      library() == backends::kBoostCompute ? nullptr : "prepared";
  gpusim::Device device(gpusim::DeviceProperties(), 8);
  gpusim::Device::DeviceGuard guard(device);
  const std::unique_ptr<core::Backend> backend = MakeBackend();
  const auto resident =
      plan::MakeResident(backend->stream(), tables, encoded());
  std::vector<std::shared_ptr<const plan::PreparedTpchQuery>> prepared;
  for (const TpchQuery q : kQueries) {
    prepared.push_back(plan::PrepareTpchQuery({q, encoded()}, resident,
                                              library()));
    const uint64_t start = backend->stream().now_ns();
    const plan::TpchQueryResult got = prepared.back()->Run(*backend);
    Expect(q, "prepared", got, timeline, backend->stream().now_ns() - start);
  }
  for (const unsigned clients : {1u, 4u}) {
    const std::string run = std::to_string(clients) + " client(s)";
    core::SchedulerOptions options;
    options.backend_name = library();
    options.num_clients = clients;
    core::QueryScheduler scheduler(options);
    // Each client's worth of queries: every prepared plan once.
    std::vector<plan::TpchQueryResult> answers(clients * prepared.size());
    for (size_t i = 0; i < answers.size(); ++i) {
      const auto& p = prepared[i % prepared.size()];
      scheduler.Submit(plan::TpchQueryName(p->shape().query),
                       [p, out = &answers[i]](core::Backend& b) {
                         *out = p->Run(b);
                       });
    }
    scheduler.Drain();
    ASSERT_EQ(scheduler.Records().size(), answers.size()) << run;
    for (const core::QueryRecord& r : scheduler.Records()) {
      ASSERT_TRUE(r.ok) << run << ", " << r.label << ": " << r.error;
      Expect(plan::ParseTpchQuery(r.label), run, answers[r.id], timeline,
             r.simulated_ns);
    }
  }
}

TEST_P(DeterminismTest, EightSlices) {
  static const HostTables host(0.002);
  const plan::TpchHostTables tables = host.view();
  plan::GovernedQueryOptions governed;
  governed.force_partitions = 8;
  governed.use_encoding = encoded();
  plan::ShardedQueryOptions sharded;
  sharded.force_shards = 8;
  sharded.use_encoding = encoded();
  // Fault-free layouts by device count, and the runs each must repeat the
  // timeline of: one device charges what the governed run does, and the
  // second 4-device run what the first did.
  const std::pair<int, const char*> layouts[] = {{1, "one device"},
                                                 {2, nullptr},
                                                 {3, nullptr},
                                                 {4, "four devices"},
                                                 {4, "four devices"}};
  for (const TpchQuery q : kQueries) {
    {
      gpusim::DeviceGroup group(1);
      gpusim::Device::DeviceGuard guard(group.device(0));
      plan::GovernedRunStats stats;
      const plan::TpchQueryResult got =
          plan::RunGoverned(q, tables, *MakeBackend(), governed, &stats);
      Expect(q, "governed", got, "one device", stats.simulated_ns);
    }
    for (const auto& [devices, timeline] : layouts) {
      gpusim::DeviceGroup group(devices);
      plan::ShardedRunStats stats;
      const plan::TpchQueryResult got =
          plan::RunSharded(q, tables, group, library(), sharded, &stats);
      Expect(q, std::to_string(devices) + " device(s)", got, timeline,
             stats.simulated_ns);
    }
    gpusim::DeviceGroup group(4);
    gpusim::FaultRule kill;
    kill.site = gpusim::FaultSite::kKernel;
    kill.kind = gpusim::FaultKind::kDeviceLost;
    kill.at_call = 2;
    kill.max_fires = 1;
    group.ArmFaultInjector(/*device=*/1, /*seed=*/17).AddRule(kill);
    plan::ShardedRunStats stats;
    Expect(q, "device 1 lost",
           plan::RunSharded(q, tables, group, library(), sharded, &stats));
    EXPECT_EQ(stats.devices_lost, 1);
  }
}

INSTANTIATE_TEST_SUITE_P(
    , DeterminismTest,
    testing::Combine(testing::Values(std::string(backends::kHandwritten),
                                     std::string(backends::kThrust),
                                     std::string(backends::kBoostCompute),
                                     std::string(backends::kArrayFire)),
                     testing::Bool()),
    [](const testing::TestParamInfo<DeterminismTest::ParamType>& info) {
      std::string name = std::get<0>(info.param);
      std::erase(name, '.');
      return name + (std::get<1>(info.param) ? "_encoded" : "_raw");
    });

}  // namespace
