// QueryScheduler tests: admission of N genuinely concurrent clients,
// bounded-queue backpressure, error isolation between clients, clients
// running on the device current at construction, and the
// serial-vs-concurrent golden check — the same queries produce bit-identical
// answers and per-stream simulated time at any client count and
// interleaving. Built into the concurrency_tests binary, which CI also runs
// under ThreadSanitizer.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "backends/backends.h"
#include "core/registry.h"
#include "core/scheduler.h"
#include "gpusim/counters.h"
#include "gpusim/device.h"
#include "plan/prepared.h"
#include "storage/column.h"
#include "storage/device_column.h"
#include "tpch/datagen.h"
#include "tpch_answer_testing.h"

namespace core {
namespace {

class SchedulerTest : public ::testing::Test {
 protected:
  void SetUp() override { RegisterBuiltinBackends(); }

  SchedulerOptions Opts(unsigned clients, size_t capacity = 16,
                        const std::string& backend = backends::kHandwritten) {
    SchedulerOptions o;
    o.backend_name = backend;
    o.num_clients = clients;
    o.queue_capacity = capacity;
    return o;
  }
};

TEST_F(SchedulerTest, RunsEverySubmittedQueryOnceAndRecordsIt) {
  QueryScheduler scheduler(Opts(3));
  std::atomic<int> runs{0};
  const int kQueries = 24;
  for (int i = 0; i < kQueries; ++i) {
    scheduler.Submit("query-" + std::to_string(i),
                     [&](Backend&) { runs.fetch_add(1); });
  }
  scheduler.Drain();
  EXPECT_EQ(runs.load(), kQueries);

  const auto records = scheduler.Records();
  ASSERT_EQ(records.size(), static_cast<size_t>(kQueries));
  for (int i = 0; i < kQueries; ++i) {
    EXPECT_EQ(records[i].id, static_cast<uint64_t>(i));
    EXPECT_EQ(records[i].label, "query-" + std::to_string(i));
    EXPECT_TRUE(records[i].ok);
    EXPECT_LT(records[i].client, 3u);
  }
  const auto report = scheduler.Report();
  EXPECT_EQ(report.completed, static_cast<size_t>(kQueries));
  EXPECT_EQ(report.failed, 0u);
  EXPECT_GT(report.queries_per_sec, 0.0);
  EXPECT_EQ(report.client_simulated_ns.size(), 3u);
}

TEST_F(SchedulerTest, AdmitsNClientsRunningConcurrently) {
  // N rendezvous queries that each wait until all N are running can only
  // complete if the scheduler truly admits N clients at once.
  const unsigned kClients = 4;
  QueryScheduler scheduler(Opts(kClients));

  std::mutex mu;
  std::condition_variable cv;
  unsigned arrived = 0;
  for (unsigned i = 0; i < kClients; ++i) {
    scheduler.Submit("rendezvous", [&](Backend&) {
      std::unique_lock<std::mutex> lock(mu);
      ++arrived;
      cv.notify_all();
      cv.wait(lock, [&] { return arrived == kClients; });
    });
  }
  scheduler.Drain();

  const auto records = scheduler.Records();
  ASSERT_EQ(records.size(), kClients);
  std::vector<bool> used(kClients, false);
  for (const auto& r : records) {
    EXPECT_TRUE(r.ok);
    used[r.client] = true;
  }
  for (unsigned i = 0; i < kClients; ++i) {
    EXPECT_TRUE(used[i]) << "client " << i << " never ran a query";
  }
}

TEST_F(SchedulerTest, BoundedQueueAppliesBackpressure) {
  QueryScheduler scheduler(Opts(1, /*capacity=*/2));

  // Block the only client, then fill the queue to its bound.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  bool started = false;
  scheduler.Submit("blocker", [&](Backend&) {
    std::unique_lock<std::mutex> lock(mu);
    started = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return started; });
  }
  EXPECT_TRUE(scheduler.TrySubmit("q1", [](Backend&) {}));
  EXPECT_TRUE(scheduler.TrySubmit("q2", [](Backend&) {}));
  // Queue is at capacity and the client is busy: admission must refuse.
  EXPECT_FALSE(scheduler.TrySubmit("q3", [](Backend&) {}));
  EXPECT_EQ(scheduler.queue_depth(), 2u);

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  scheduler.Drain();
  EXPECT_EQ(scheduler.queue_depth(), 0u);
  // Capacity frees up once the backlog drains.
  EXPECT_TRUE(scheduler.TrySubmit("q4", [](Backend&) {}));
  scheduler.Drain();
  EXPECT_EQ(scheduler.Records().size(), 4u);
}

TEST_F(SchedulerTest, AFailingQueryIsIsolatedFromOtherClients) {
  QueryScheduler scheduler(Opts(3));
  const int kQueries = 30;
  std::atomic<int> good_runs{0};
  for (int i = 0; i < kQueries; ++i) {
    if (i % 5 == 0) {
      scheduler.Submit("bad-" + std::to_string(i), [](Backend&) -> void {
        throw std::runtime_error("injected failure");
      });
    } else {
      scheduler.Submit("good-" + std::to_string(i),
                       [&](Backend&) { good_runs.fetch_add(1); });
    }
  }
  scheduler.Drain();

  EXPECT_EQ(good_runs.load(), kQueries - kQueries / 5);
  const auto report = scheduler.Report();
  EXPECT_EQ(report.completed, static_cast<size_t>(kQueries));
  EXPECT_EQ(report.failed, static_cast<size_t>(kQueries / 5));
  for (const auto& r : scheduler.Records()) {
    if (r.label.rfind("bad-", 0) == 0) {
      EXPECT_FALSE(r.ok);
      EXPECT_EQ(r.error, "injected failure");
    } else {
      EXPECT_TRUE(r.ok) << r.label << ": " << r.error;
    }
  }
  // The scheduler stays serviceable after failures.
  scheduler.Submit("after", [](Backend&) {});
  scheduler.Drain();
  EXPECT_EQ(scheduler.Records().size(), static_cast<size_t>(kQueries) + 1);
}

TEST_F(SchedulerTest, UnknownBackendThrowsOnConstruction) {
  EXPECT_THROW(QueryScheduler scheduler(Opts(1, 16, "NoSuchLibrary")),
               std::out_of_range);
}

TEST_F(SchedulerTest, ClientsRunOnTheDeviceCurrentAtConstruction) {
  gpusim::Device device(gpusim::DeviceProperties(), /*host_threads=*/2);
  const gpusim::CounterSnapshot device_before = device.Snapshot();
  const gpusim::CounterSnapshot default_before =
      gpusim::Device::Default().Snapshot();
  const gpusim::Device* ran_on = nullptr;
  double sum = 0;
  {
    gpusim::Device::DeviceGuard guard(device);
    QueryScheduler scheduler(Opts(1, 16, backends::kThrust));
    scheduler.Submit("sum", [&](Backend& backend) {
      ran_on = &backend.stream().device();
      const storage::DeviceColumn column = storage::UploadColumn(
          backend.stream(),
          storage::Column(std::vector<double>{1.0, 2.0, 3.5}));
      sum = backend.ReduceColumn(column, AggOp::kSum);
    });
    scheduler.Drain();
    ASSERT_EQ(scheduler.Records().size(), 1u);
    EXPECT_TRUE(scheduler.Records()[0].ok);
  }
  EXPECT_EQ(ran_on, &device);
  EXPECT_EQ(sum, 6.5);
  EXPECT_GT(device.Snapshot().Delta(device_before).kernels_launched, 0u);
  EXPECT_EQ(gpusim::Device::Default()
                .Snapshot()
                .Delta(default_before)
                .kernels_launched,
            0u);
}

// ---------------------------------------------------------------------------
// The golden invariant: per-query simulated time is independent of host
// scheduling. Running the same TPC-H queries serially (1 client) and
// concurrently (4 clients) must charge bit-identical simulated ns to each
// query, and return bit-identical answers, on every backend.
// ---------------------------------------------------------------------------

class SchedulerTimingGoldenTest : public SchedulerTest {};

TEST_F(SchedulerTimingGoldenTest, SerialAndConcurrentSimulatedTimeIdentical) {
  tpch::Config config;
  config.scale_factor = 0.002;  // tiny: keeps the TSan run fast
  const storage::Table lineitem = tpch::GenerateLineitem(config);
  const storage::Table part = tpch::GeneratePart(config);
  gpusim::Stream setup(gpusim::Device::Default(), gpusim::ApiProfile::Cuda());
  const auto resident = plan::MakeResident(
      setup, {&lineitem, nullptr, nullptr, &part}, /*use_encoding=*/false);

  // Thrust, ArrayFire and Handwritten charge no per-instance JIT warmup, so
  // every instance of a query kind must cost identical simulated ns.
  for (const char* backend :
       {backends::kHandwritten, backends::kThrust, backends::kArrayFire}) {
    std::vector<std::shared_ptr<const plan::PreparedTpchQuery>> mix;
    for (const plan::TpchQuery q : {plan::TpchQuery::kQ1, plan::TpchQuery::kQ6,
                                    plan::TpchQuery::kQ14}) {
      mix.push_back(plan::PrepareTpchQuery({q}, resident, backend));
    }
    // Copy c of mix entry m writes its answer to answers[c * mix.size() + m].
    const auto submit_mix = [&](QueryScheduler& scheduler, int copies,
                                std::vector<plan::TpchQueryResult>& answers) {
      answers.resize(static_cast<size_t>(copies) * mix.size());
      for (size_t i = 0; i < answers.size(); ++i) {
        const auto& prepared = mix[i % mix.size()];
        plan::TpchQueryResult* answer = &answers[i];
        scheduler.Submit(
            plan::TpchQueryName(prepared->shape().query),
            [prepared, answer](Backend& b) { *answer = prepared->Run(b); });
      }
    };
    std::map<std::string, uint64_t> golden;
    std::vector<plan::TpchQueryResult> serial_answers;
    {
      QueryScheduler serial(Opts(1, 16, backend));
      submit_mix(serial, 2, serial_answers);
      serial.Drain();
      for (const auto& r : serial.Records()) {
        ASSERT_TRUE(r.ok) << backend << "/" << r.label << ": " << r.error;
        const auto [it, inserted] = golden.emplace(r.label, r.simulated_ns);
        EXPECT_EQ(it->second, r.simulated_ns)
            << backend << ": repeated serial runs of " << r.label
            << " disagree" << (inserted ? " (impossible)" : "");
      }
    }
    std::vector<plan::TpchQueryResult> concurrent_answers;
    {
      QueryScheduler concurrent(Opts(4, 16, backend));
      submit_mix(concurrent, 4, concurrent_answers);
      concurrent.Drain();
      const auto records = concurrent.Records();
      ASSERT_EQ(records.size(), 12u);
      for (const auto& r : records) {
        ASSERT_TRUE(r.ok) << backend << "/" << r.label << ": " << r.error;
        EXPECT_EQ(golden.at(r.label), r.simulated_ns)
            << backend << ": " << r.label
            << " charged different simulated time under concurrency";
      }
    }
    for (size_t i = 0; i < concurrent_answers.size(); ++i) {
      const plan::TpchQuery q = mix[i % mix.size()]->shape().query;
      SCOPED_TRACE(std::string(backend) + " " + plan::TpchQueryName(q));
      tpch_testing::ExpectSameAnswer(q, serial_answers[i % mix.size()],
                                     concurrent_answers[i]);
    }
  }
}

}  // namespace
}  // namespace core
