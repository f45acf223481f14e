// Serving-tier tests: the shared percentile helper, prepared-plan reuse
// (one prepare per query and catalog snapshot, even under concurrent first
// requests; a refresh retires every plan), drain-free catalog refreshes,
// stale-plan lifetime safety, one device and one breaker per server, tenant
// QoS dequeue (weighted fair share + aging) on the scheduler, admission
// fields on rejected records, and the socket server end to end.
// Built into the concurrency_tests binary, which CI also runs under
// ThreadSanitizer.
#include <dirent.h>
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <future>
#include <map>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "backends/backends.h"
#include "core/governor.h"
#include "core/resilience.h"
#include "core/metrics.h"
#include "core/registry.h"
#include "core/scheduler.h"
#include "gpusim/device.h"
#include "gpusim/fault.h"
#include "plan/prepared.h"
#include "plan/tpch_plans.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/tenant.h"
#include "tpch/datagen.h"
#include "tpch_answer_testing.h"

namespace serve {
namespace {

constexpr uint64_t kMiB = uint64_t{1} << 20;

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override { core::RegisterBuiltinBackends(); }
};

// --------------------------------------------------------------------------
// core/metrics.h: the shared nearest-rank percentile helper
// --------------------------------------------------------------------------

TEST(MetricsTest, NearestRankPercentiles) {
  EXPECT_EQ(core::PercentileOfSorted({}, 0.5), 0.0);
  EXPECT_EQ(core::PercentileOfSorted({7.0}, 0.5), 7.0);
  const std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
  EXPECT_EQ(core::PercentileOfSorted(v, 0.0), 1.0);
  EXPECT_EQ(core::PercentileOfSorted(v, 0.50), 2.0);  // ceil(.5*4) = rank 2
  EXPECT_EQ(core::PercentileOfSorted(v, 0.75), 3.0);
  EXPECT_EQ(core::PercentileOfSorted(v, 0.99), 4.0);
  EXPECT_EQ(core::PercentileOfSorted(v, 1.0), 4.0);
}

TEST(MetricsTest, SummarizeLatenciesSortsItsInput) {
  const core::LatencySummary s = core::SummarizeLatencies({4.0, 1.0, 3.0, 2.0});
  EXPECT_EQ(s.p50, 2.0);
  EXPECT_EQ(s.p95, 4.0);
  EXPECT_EQ(s.p99, 4.0);
  EXPECT_EQ(s.max, 4.0);
}

// --------------------------------------------------------------------------
// serve/session.h: a snapshot's plan slots
// --------------------------------------------------------------------------

TEST_F(ServeTest, PrepareThatThrowsLeavesItsSlotEmpty) {
  auto backend = core::BackendRegistry::Instance().Create(
      backends::kHandwritten);
  tpch::Config config;
  config.scale_factor = 0.002;
  const storage::Table lineitem = tpch::GenerateLineitem(config);
  plan::TpchHostTables host;
  host.lineitem = &lineitem;
  PlanSlots slots(plan::MakeResident(backend->stream(), host,
                                     /*use_encoding=*/false),
                  backends::kHandwritten);

  // q3 reads orders and customer, which this residency lacks: its prepare
  // throws each time, so the slot stays empty and every call tries again.
  for (int attempt = 0; attempt < 2; ++attempt) {
    bool prepared = true;
    EXPECT_THROW(slots.Get(plan::TpchQuery::kQ3, &prepared),
                 std::invalid_argument);
    EXPECT_FALSE(prepared);
  }
  EXPECT_EQ(slots.size(), 0u);

  bool prepared = false;
  const auto q6 = slots.Get(plan::TpchQuery::kQ6, &prepared);
  EXPECT_TRUE(prepared);
  EXPECT_EQ(slots.Get(plan::TpchQuery::kQ6, &prepared), q6);
  EXPECT_FALSE(prepared) << "a filled slot is never prepared again";
  EXPECT_EQ(slots.size(), 1u);
}

// --------------------------------------------------------------------------
// The server: reload invalidation, stale-plan safety, socket end to end
// --------------------------------------------------------------------------

TEST_F(ServeTest, ReloadInvalidatesPlanCacheAndServesNewData) {
  ServerOptions options;  // empty socket path: in-process only
  options.catalog.scale_factor = 0.004;
  options.num_clients = 2;
  QueryServer server(options);
  server.Start();
  const Session session =
      server.OpenSession("tenant-a", TenantClass::kInteractive);

  const QueryReply first = server.Execute(session, "q6");
  EXPECT_FALSE(first.cache_hit);
  EXPECT_FALSE(first.rejected);
  tpch_testing::ExpectReferenceAnswer(plan::TpchQuery::kQ6, first.result,
                                      server.catalog().host());

  const QueryReply second = server.Execute(session, "q6");
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.result.scalar, first.result.scalar);
  // Timing determinism: replaying the cached plan charges the same
  // simulated work, so the simulated latency is bit-identical.
  EXPECT_EQ(second.simulated_ns, first.simulated_ns);

  // Reload at a different scale factor: the new snapshot starts with empty
  // plan slots, so the plan prepared against the old residency can never be
  // served again.
  server.ReloadCatalog(0.008);
  const QueryReply third = server.Execute(session, "q6");
  EXPECT_FALSE(third.cache_hit) << "a reloaded catalog must miss";
  tpch_testing::ExpectReferenceAnswer(plan::TpchQuery::kQ6, third.result,
                                      server.catalog().host());
  EXPECT_NE(third.result.scalar, first.result.scalar)
      << "reloaded catalog should produce a different answer";

  const StatsReply stats = server.Stats();
  EXPECT_EQ(stats.queries, 3u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 2u);
  EXPECT_EQ(stats.catalog_generation, 1u);
}

TEST_F(ServeTest, TwoServersInOneProcessShareNoBreakers) {
  // Each server gates admission through its own breaker: tripping A's
  // breaker sheds A's next query and leaves B serving.
  ServerOptions options;  // in-process only
  options.catalog.scale_factor = 0.002;
  QueryServer a(options);
  QueryServer b(options);
  a.Start();
  b.Start();
  const Session on_a = a.OpenSession("tenant", TenantClass::kInteractive);
  const Session on_b = b.OpenSession("tenant", TenantClass::kInteractive);

  for (int i = 0; i < 3; ++i) a.breaker().RecordFailure();
  EXPECT_THROW(a.Execute(on_a, "q6"), Overloaded);
  const QueryReply reply = b.Execute(on_b, "q6");
  tpch_testing::ExpectReferenceAnswer(plan::TpchQuery::kQ6, reply.result,
                                      b.catalog().host());

  EXPECT_EQ(a.Stats().overloaded, 1u);
  EXPECT_EQ(b.Stats().overloaded, 0u);
  EXPECT_NE(a.breaker().state(), core::CircuitBreaker::State::kClosed);
  EXPECT_EQ(b.breaker().state(), core::CircuitBreaker::State::kClosed);
}

TEST_F(ServeTest, ServerGovernsTheDeviceItWasBuiltOn) {
  // A server built under a guard serves from that device alone: the
  // catalog, the scheduler's clients and the governor's grants all land
  // there, and the default device sees none of it.
  gpusim::Device device(gpusim::DeviceProperties(), 2);
  gpusim::Device::DeviceGuard guard(device);
  gpusim::Device& fallback = gpusim::Device::Default();
  const uint64_t fallback_kernels = fallback.Snapshot().kernels_launched;
  const uint64_t fallback_peak = fallback.peak_bytes();

  ServerOptions options;  // in-process only
  options.catalog.scale_factor = 0.004;
  QueryServer server(options);
  server.Start();
  const Session session =
      server.OpenSession("tenant-a", TenantClass::kInteractive);
  const QueryReply reply = server.Execute(session, "q6");
  ASSERT_FALSE(reply.rejected);
  tpch_testing::ExpectReferenceAnswer(plan::TpchQuery::kQ6, reply.result,
                                      server.catalog().host());

  const std::vector<core::QueryRecord> records = server.scheduler().Records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_GT(records[0].granted_bytes, 0u);
  EXPECT_GE(device.peak_bytes(), records[0].granted_bytes)
      << "the grant must be reserved on the server's device";
  EXPECT_GT(device.Snapshot().kernels_launched, 0u);
  EXPECT_EQ(fallback.Snapshot().kernels_launched, fallback_kernels);
  EXPECT_EQ(fallback.peak_bytes(), fallback_peak);
}

TEST_F(ServeTest, LateInsertAgainstARetiredResidencyIsNeverServed) {
  // A request that read the catalog just before a refresh's swap can
  // prepare its plan just after it. It can only fill the slot of the
  // snapshot it read, so that plan is never served against the new tables.
  ServerOptions options;  // in-process only
  options.catalog.scale_factor = 0.004;
  QueryServer server(options);
  server.Start();
  const Session session =
      server.OpenSession("tenant-a", TenantClass::kInteractive);

  // The late request's view: the generation-0 snapshot.
  const CatalogSnapshot old = server.catalog().snapshot();
  server.ReloadCatalog(0.008);
  bool prepared = false;
  const auto late = old.plans->Get(plan::TpchQuery::kQ6, &prepared);
  ASSERT_TRUE(prepared);
  ASSERT_EQ(late->tables(), old.resident);

  const QueryReply reply = server.Execute(session, "q6");
  EXPECT_FALSE(reply.cache_hit)
      << "a plan bound to the retired residency must not be served";
  tpch_testing::ExpectReferenceAnswer(plan::TpchQuery::kQ6, reply.result,
                                      server.catalog().host());
  EXPECT_FALSE(plan::SameAnswer(
      plan::TpchQuery::kQ6, reply.result,
      plan::ReferenceAnswer(plan::TpchQuery::kQ6, old.host->view())))
      << "the answer must come from the reloaded tables";
  EXPECT_EQ(server.Stats().cache_size, 1u)
      << "the current snapshot holds only the plan the request prepared";
}

TEST_F(ServeTest, ConcurrentFirstRequestsShareOnePrepare) {
  ServerOptions options;  // in-process only
  options.catalog.scale_factor = 0.004;
  QueryServer server(options);
  server.Start();

  // Eight sessions send the server's first q1 at once: one prepares the
  // plan and the other seven wait for it instead of preparing their own.
  constexpr int kThreads = 8;
  std::vector<QueryReply> replies(kThreads);
  std::atomic<int> ready{0};
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      const Session session = server.OpenSession(
          "tenant-" + std::to_string(i), TenantClass::kInteractive);
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      try {
        replies[i] = server.Execute(session, "q1");
      } catch (const std::exception&) {
        errors.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_EQ(errors.load(), 0);

  const StatsReply stats = server.Stats();
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_hits, 7u);
  EXPECT_EQ(stats.cache_size, 1u);
  int misses = 0;
  for (const QueryReply& reply : replies) {
    misses += reply.cache_hit ? 0 : 1;
    EXPECT_FALSE(reply.rejected);
    EXPECT_EQ(reply.simulated_ns, replies[0].simulated_ns);
    tpch_testing::ExpectSameAnswer(plan::TpchQuery::kQ1, replies[0].result,
                                   reply.result);
  }
  EXPECT_EQ(misses, 1);
  tpch_testing::ExpectReferenceAnswer(plan::TpchQuery::kQ1, replies[0].result,
                                      server.catalog().host());
}

TEST_F(ServeTest, DifferentQueriesNeverShareAPlan) {
  ServerOptions options;  // in-process only
  options.catalog.scale_factor = 0.004;
  QueryServer server(options);
  server.Start();
  const Session session =
      server.OpenSession("tenant-a", TenantClass::kInteractive);

  EXPECT_FALSE(server.Execute(session, "q6").cache_hit);
  const QueryReply q1 = server.Execute(session, "q1");
  EXPECT_FALSE(q1.cache_hit) << "q1 must not reuse q6's plan";
  tpch_testing::ExpectReferenceAnswer(plan::TpchQuery::kQ1, q1.result,
                                      server.catalog().host());

  const StatsReply stats = server.Stats();
  EXPECT_EQ(stats.cache_misses, 2u);
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_size, 2u);
}

TEST_F(ServeTest, StalePreparedPlanKeepsItsResidencySnapshotAlive) {
  ServerOptions options;
  options.catalog.scale_factor = 0.004;
  QueryServer server(options);
  server.Start();

  // Prepare a plan against the current residency, then reload the catalog
  // out from under it. The plan co-owns its snapshot, so running it is safe
  // by construction and still answers from the OLD data.
  plan::QueryShape shape;
  shape.query = plan::TpchQuery::kQ6;
  shape.use_encoding = options.catalog.use_encoding;
  auto stale = plan::PrepareTpchQuery(shape, server.catalog().resident(),
                                      backends::kHandwritten);
  const plan::TpchQueryResult old_ref =
      plan::ReferenceAnswer(plan::TpchQuery::kQ6, server.catalog().host());

  server.ReloadCatalog(0.008);
  ASSERT_FALSE(plan::SameAnswer(
      plan::TpchQuery::kQ6, old_ref,
      plan::ReferenceAnswer(plan::TpchQuery::kQ6, server.catalog().host())));

  auto backend = core::BackendRegistry::Instance().Create(
      backends::kHandwritten);
  const plan::TpchQueryResult result = stale->Run(*backend);
  tpch_testing::ExpectNearAnswer(plan::TpchQuery::kQ6, result, old_ref);
}

TEST_F(ServeTest, SocketServerEndToEnd) {
  ServerOptions options;
  options.socket_path =
      "/tmp/serve_test_" + std::to_string(::getpid()) + ".sock";
  options.catalog.scale_factor = 0.004;
  options.num_clients = 2;
  QueryServer server(options);
  server.Start();

  Client client(options.socket_path, "socket-tenant",
                TenantClass::kInteractive);
  EXPECT_EQ(client.hello().scale_factor, 0.004);
  EXPECT_EQ(client.hello().backend, backends::kHandwritten);
  EXPECT_TRUE(client.hello().encoded);

  const QueryReply first = client.Query("q6");
  EXPECT_FALSE(first.cache_hit);
  tpch_testing::ExpectReferenceAnswer(plan::TpchQuery::kQ6, first.result,
                                      server.catalog().host());
  const QueryReply second = client.Query("q6");
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.result.scalar, first.result.scalar);

  // A bad query name comes back as an error reply; the connection (and the
  // session) keep working afterwards.
  EXPECT_THROW(client.Query("q99"), std::runtime_error);
  const QueryReply q1 = client.Query("q1");
  tpch_testing::ExpectReferenceAnswer(plan::TpchQuery::kQ1, q1.result,
                                      server.catalog().host());

  const StatsReply stats = client.Stats();
  EXPECT_EQ(stats.queries, 3u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 2u);

  client.Shutdown();
  server.WaitForShutdown();
  server.Stop();
}

// --------------------------------------------------------------------------
// Tenant policy and registry
// --------------------------------------------------------------------------

TEST(TenantTest, PolicyOrdersClassesAndParsesNames) {
  const TenantPolicy interactive = PolicyFor(TenantClass::kInteractive);
  const TenantPolicy batch = PolicyFor(TenantClass::kBatch);
  const TenantPolicy best_effort = PolicyFor(TenantClass::kBestEffort);
  EXPECT_GT(interactive.weight, batch.weight);
  EXPECT_GT(batch.weight, best_effort.weight);
  // Lower-priority classes tolerate longer waits before the aging boost.
  EXPECT_LT(interactive.starvation_bound_ms, batch.starvation_bound_ms);
  EXPECT_LT(batch.starvation_bound_ms, best_effort.starvation_bound_ms);

  EXPECT_EQ(ParseTenantClass("interactive"), TenantClass::kInteractive);
  EXPECT_EQ(ParseTenantClass("batch"), TenantClass::kBatch);
  EXPECT_EQ(ParseTenantClass("besteffort"), TenantClass::kBestEffort);
  EXPECT_EQ(ParseTenantClass("best-effort"), TenantClass::kBestEffort);
  EXPECT_THROW(ParseTenantClass("realtime"), std::invalid_argument);
}

TEST(TenantTest, RegistryAssignsStableIdsPerName) {
  TenantRegistry registry;
  const core::TenantSpec a1 =
      registry.Register("alice", TenantClass::kInteractive);
  const core::TenantSpec a2 =
      registry.Register("alice", TenantClass::kInteractive);
  const core::TenantSpec b = registry.Register("bob", TenantClass::kBatch);
  EXPECT_EQ(a1.id, a2.id) << "sessions of one tenant share an account";
  EXPECT_NE(a1.id, b.id);
  EXPECT_GT(a1.weight, b.weight);
  EXPECT_EQ(a1.name, "alice");
}

// --------------------------------------------------------------------------
// core/scheduler.h: tenant-weighted dequeue, aging, rejected-record fields
// --------------------------------------------------------------------------

class QosSchedulerTest : public ::testing::Test {
 protected:
  void SetUp() override { core::RegisterBuiltinBackends(); }

  core::SchedulerOptions Opts(unsigned clients, size_t capacity = 32) {
    core::SchedulerOptions o;
    o.backend_name = backends::kHandwritten;
    o.num_clients = clients;
    o.queue_capacity = capacity;
    return o;
  }

  /// Blocks the (single) client until Release(), so a batch of submissions
  /// queues up and the dequeue order is decided in one deterministic pass.
  core::QueryFn Gate() {
    return [this](core::Backend&) {
      std::unique_lock<std::mutex> lock(gate_mu_);
      gate_running_ = true;
      gate_cv_.notify_all();
      gate_cv_.wait(lock, [&] { return gate_open_; });
    };
  }
  void AwaitGateRunning() {
    std::unique_lock<std::mutex> lock(gate_mu_);
    gate_cv_.wait(lock, [&] { return gate_running_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(gate_mu_);
    gate_open_ = true;
    gate_cv_.notify_all();
  }

  /// Query fn that appends its label to the shared execution-order log.
  core::QueryFn Logged(const std::string& label) {
    return [this, label](core::Backend&) {
      std::lock_guard<std::mutex> lock(order_mu_);
      order_.push_back(label);
    };
  }
  std::vector<std::string> Order() {
    std::lock_guard<std::mutex> lock(order_mu_);
    return order_;
  }

 private:
  std::mutex gate_mu_;
  std::condition_variable gate_cv_;
  bool gate_running_ = false;
  bool gate_open_ = false;
  std::mutex order_mu_;
  std::vector<std::string> order_;
};

TEST_F(QosSchedulerTest, WeightedFairShareInterleavesByWeight) {
  core::QueryScheduler scheduler(Opts(1));
  scheduler.Submit("gate", Gate());
  AwaitGateRunning();

  core::TenantSpec heavy{0, "heavy", 4.0, 0};
  core::TenantSpec light{1, "light", 1.0, 0};
  const auto submit = [&](const std::string& label,
                          const core::TenantSpec& tenant) {
    core::SubmitOptions submit_opts;
    submit_opts.tenant = tenant;
    scheduler.Submit(label, Logged(label), submit_opts);
  };
  // Interleaved submission order; fair share must reorder it 4:1.
  submit("A0", heavy);
  submit("B0", light);
  submit("A1", heavy);
  submit("B1", light);
  submit("A2", heavy);
  submit("B2", light);
  submit("A3", heavy);
  submit("B3", light);
  Release();
  scheduler.Drain();

  // Start-time fair queuing with weights 4:1: A pays 0.25 virtual service
  // per query, B pays 1.0, ties go to the earlier submission.
  const std::vector<std::string> expected = {"A0", "B0", "A1", "A2",
                                             "A3", "B1", "B2", "B3"};
  EXPECT_EQ(Order(), expected);

  // Tenant identity lands on the records.
  for (const core::QueryRecord& r : scheduler.Records()) {
    if (r.label == "gate") continue;
    EXPECT_EQ(r.tenant, r.label[0] == 'A' ? "heavy" : "light");
    EXPECT_GE(r.queue_wait_ms, 0.0);
  }
}

TEST_F(QosSchedulerTest, AgingBoundsStarvationOfALowWeightTenant) {
  core::QueryScheduler scheduler(Opts(1));

  // Phase 1: the starved tenant runs once at a tiny weight, pushing its
  // virtual service far ahead — pure fair share would now park it behind
  // any fresh tenant for a long time.
  core::TenantSpec starved{7, "starved", 0.001, 60};
  {
    core::SubmitOptions submit_opts;
    submit_opts.tenant = starved;
    scheduler.Submit("warmup", Logged("warmup"), submit_opts);
  }
  scheduler.Drain();

  // Phase 2: queue one starved-tenant query behind a fresh tenant's burst
  // and let it sit past its starvation bound before the queue drains.
  scheduler.Submit("gate", Gate());
  AwaitGateRunning();
  core::TenantSpec fresh{8, "fresh", 1.0, 0};
  {
    core::SubmitOptions submit_opts;
    submit_opts.tenant = starved;
    scheduler.Submit("L", Logged("L"), submit_opts);
  }
  for (int i = 0; i < 4; ++i) {
    core::SubmitOptions submit_opts;
    submit_opts.tenant = fresh;
    scheduler.Submit("H" + std::to_string(i), Logged("H" + std::to_string(i)),
                     submit_opts);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  Release();
  scheduler.Drain();

  // The aging rule must pull L to the very front despite its huge virtual
  // service debt.
  const std::vector<std::string> order = Order();
  ASSERT_EQ(order.size(), 6u);  // warmup + L + 4x H
  EXPECT_EQ(order[1], "L") << "aged query must preempt fair-share order";

  for (const core::QueryRecord& r : scheduler.Records()) {
    if (r.label == "L") {
      EXPECT_TRUE(r.aged);
      EXPECT_GT(r.queue_wait_ms, 60.0);
    } else {
      EXPECT_FALSE(r.aged);
    }
  }
}

TEST_F(QosSchedulerTest, RejectedAdmissionPopulatesRecordAndCallback) {
  // Private governed device so this test cannot disturb (or be disturbed
  // by) the default device other tests upload to.
  gpusim::DeviceProperties props;
  props.global_memory_bytes = kMiB;
  gpusim::Device device(props);
  core::GovernorOptions governor_opts;
  governor_opts.device = &device;
  governor_opts.queue_timeout_ms = 50;
  core::MemoryGovernor governor(governor_opts);

  core::SchedulerOptions opts = Opts(2);
  opts.governor = &governor;
  opts.retry.max_attempts = 1;
  core::QueryScheduler scheduler(opts);

  // The hog is granted the whole device and sits on it past the victim's
  // admission timeout.
  std::atomic<bool> hog_running{false};
  core::SubmitOptions hog_submit;
  hog_submit.footprint_bytes = kMiB;
  scheduler.Submit(
      "hog",
      [&](core::Backend&) {
        hog_running.store(true);
        std::this_thread::sleep_for(std::chrono::milliseconds(400));
      },
      hog_submit);
  while (!hog_running.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  std::promise<core::QueryRecord> done;
  std::atomic<bool> victim_ran{false};
  core::SubmitOptions victim_submit;
  victim_submit.footprint_bytes = kMiB;
  victim_submit.tenant = core::TenantSpec{3, "victim-tenant", 2.0, 0};
  victim_submit.on_complete = [&](const core::QueryRecord& r) {
    done.set_value(r);
  };
  scheduler.Submit("victim", [&](core::Backend&) { victim_ran.store(true); },
                   victim_submit);

  // The completion callback fires even though the query never executed, and
  // the record carries the full admission/governor story.
  const core::QueryRecord record = done.get_future().get();
  EXPECT_FALSE(record.ok);
  EXPECT_TRUE(record.admission_rejected);
  EXPECT_TRUE(record.admission_queued)
      << "a queued-then-timed-out rejection must report that it waited";
  EXPECT_EQ(record.footprint_bytes, kMiB);
  EXPECT_EQ(record.granted_bytes, 0u);
  EXPECT_GT(record.admission_wait_ms, 0.0);
  EXPECT_EQ(record.tenant_id, 3);
  EXPECT_EQ(record.tenant, "victim-tenant");
  EXPECT_FALSE(victim_ran.load()) << "rejected query must never execute";
  scheduler.Drain();
}

// --------------------------------------------------------------------------
// Server hardening: malformed frames, client disconnects, load shedding
// --------------------------------------------------------------------------

std::string TestSocketPath(const std::string& tag) {
  return "/tmp/serve_test_" + tag + "_" + std::to_string(::getpid()) +
         ".sock";
}

/// Connects to the server socket without speaking the protocol — the
/// adversarial client's entry point.
int RawConnect(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

void SendRaw(int fd, const std::vector<uint8_t>& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    // MSG_NOSIGNAL: the peer may hang up first; the test only cares the
    // bytes were offered, not that anyone read them.
    const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off,
                             MSG_NOSIGNAL);
    if (n <= 0) return;
    off += static_cast<size_t>(n);
  }
}

size_t OpenFdCount() {
  size_t n = 0;
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return 0;
  while (::readdir(dir) != nullptr) ++n;
  ::closedir(dir);
  return n;
}

bool WaitForActiveConnections(const QueryServer& server, size_t want) {
  for (int i = 0; i < 2000; ++i) {
    if (server.ActiveConnections() == want) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

TEST_F(ServeTest, MalformedFramesGetTypedErrorsAndNeverKillTheServer) {
  ServerOptions options;
  options.socket_path = TestSocketPath("malformed");
  options.catalog.scale_factor = 0.002;
  QueryServer server(options);
  server.Start();

  // Oversized length prefix: rejected before any allocation, answered with
  // a typed error, session ended (the stream is desynchronized).
  {
    const int fd = RawConnect(options.socket_path);
    ASSERT_GE(fd, 0);
    Writer w;
    w.U32(kMaxFrameBytes + 1);
    w.U8(static_cast<uint8_t>(MsgType::kHello));
    SendRaw(fd, w.bytes());
    MsgType type;
    std::vector<uint8_t> payload;
    ASSERT_TRUE(ReadFrame(fd, &type, &payload));
    EXPECT_EQ(type, MsgType::kError);
    ::close(fd);
  }

  // Truncated header: two bytes then EOF. Nothing to reply to; the server
  // counts it and moves on.
  {
    const int fd = RawConnect(options.socket_path);
    ASSERT_GE(fd, 0);
    SendRaw(fd, {0xde, 0xad});
    ::close(fd);
  }

  // Well-framed but short payload for its type: typed error, and the
  // connection KEEPS WORKING — a proper hello on the same socket succeeds.
  {
    const int fd = RawConnect(options.socket_path);
    ASSERT_GE(fd, 0);
    WriteFrame(fd, MsgType::kHello, {0x01, 0x02});
    MsgType type;
    std::vector<uint8_t> payload;
    ASSERT_TRUE(ReadFrame(fd, &type, &payload));
    EXPECT_EQ(type, MsgType::kError);

    HelloRequest req;
    req.tenant = "recovered";
    Writer w;
    Encode(req, w);
    WriteFrame(fd, MsgType::kHello, w.bytes());
    ASSERT_TRUE(ReadFrame(fd, &type, &payload));
    EXPECT_EQ(type, MsgType::kHelloOk);
    ::close(fd);
  }

  // Unknown message type: typed error, connection stays up.
  {
    const int fd = RawConnect(options.socket_path);
    ASSERT_GE(fd, 0);
    WriteFrame(fd, static_cast<MsgType>(0x7f), {});
    MsgType type;
    std::vector<uint8_t> payload;
    ASSERT_TRUE(ReadFrame(fd, &type, &payload));
    EXPECT_EQ(type, MsgType::kError);
    ::close(fd);
  }

  // Seeded fuzz: random byte blobs. The server may answer or hang up, but
  // it must never crash and must keep accepting real clients.
  std::mt19937_64 rng(20260808);
  for (int i = 0; i < 32; ++i) {
    const int fd = RawConnect(options.socket_path);
    ASSERT_GE(fd, 0);
    std::vector<uint8_t> blob(1 + rng() % 64);
    for (uint8_t& b : blob) b = static_cast<uint8_t>(rng());
    // Keep a random frame from spelling a legitimate kShutdown request.
    if (blob.size() >= 5 &&
        blob[4] == static_cast<uint8_t>(MsgType::kShutdown)) {
      blob[4] = 0x7f;
    }
    SendRaw(fd, blob);
    ::close(fd);
  }

  // The server survived all of it: a fresh session still gets answers.
  Client client(options.socket_path, "survivor", TenantClass::kInteractive);
  const QueryReply reply = client.Query("q6");
  tpch_testing::ExpectReferenceAnswer(plan::TpchQuery::kQ6, reply.result,
                                      server.catalog().host());
  const StatsReply stats = client.Stats();
  EXPECT_GE(stats.malformed, 4u);

  client.Shutdown();
  server.WaitForShutdown();
  server.Stop();
}

TEST_F(ServeTest, ClientDisconnectMidQueryLeaksNothing) {
  ServerOptions options;
  options.socket_path = TestSocketPath("disconnect");
  options.catalog.scale_factor = 0.002;
  QueryServer server(options);
  server.Start();

  const size_t fds_before = OpenFdCount();

  // 100 connect-kill cycles: handshake, fire a query, vanish without
  // reading the reply. Every cycle's thread and fd must be reclaimed by the
  // accept loop's reaping, not pile up until Stop().
  for (int cycle = 0; cycle < 100; ++cycle) {
    const int fd = RawConnect(options.socket_path);
    ASSERT_GE(fd, 0) << "cycle " << cycle;
    HelloRequest hello;
    hello.tenant = "ghost";
    Writer w;
    Encode(hello, w);
    WriteFrame(fd, MsgType::kHello, w.bytes());
    MsgType type;
    std::vector<uint8_t> payload;
    ASSERT_TRUE(ReadFrame(fd, &type, &payload));
    ASSERT_EQ(type, MsgType::kHelloOk);

    QueryRequest q;
    q.query = "q6";
    Writer qw;
    Encode(q, qw);
    WriteFrame(fd, MsgType::kQuery, qw.bytes());
    ::close(fd);  // gone before the reply
  }

  // A well-behaved session still works afterwards, and once its accept has
  // reaped the corpses it is the only live connection.
  {
    Client client(options.socket_path, "alive", TenantClass::kInteractive);
    const QueryReply reply = client.Query("q6");
    tpch_testing::ExpectReferenceAnswer(plan::TpchQuery::kQ6, reply.result,
                                        server.catalog().host());
    EXPECT_TRUE(WaitForActiveConnections(server, 1))
        << "ghost connections never drained; active="
        << server.ActiveConnections();
    client.Shutdown();
  }
  server.WaitForShutdown();
  server.Stop();
  EXPECT_TRUE(WaitForActiveConnections(server, 0));

  // All sockets handed back: within a small slack of the baseline (the
  // listener itself is gone after Stop()).
  const size_t fds_after = OpenFdCount();
  EXPECT_LE(fds_after, fds_before + 2)
      << "fd leak across connect-kill cycles";
}

TEST_F(ServeTest, ConnectionCapShedsWithTypedOverloadReply) {
  ServerOptions options;
  options.socket_path = TestSocketPath("cap");
  options.catalog.scale_factor = 0.002;
  options.max_connections = 1;
  options.retry_after_ms = 75;
  QueryServer server(options);
  server.Start();

  Client first(options.socket_path, "holder", TenantClass::kInteractive);

  // The second connection is shed at accept with the typed reply and the
  // server's retry-after hint — visible on a raw socket...
  {
    const int fd = RawConnect(options.socket_path);
    ASSERT_GE(fd, 0);
    MsgType type;
    std::vector<uint8_t> payload;
    ASSERT_TRUE(ReadFrame(fd, &type, &payload));
    ASSERT_EQ(type, MsgType::kOverloaded);
    Reader r(payload);
    const OverloadReply shed = DecodeOverloadReply(r);
    EXPECT_EQ(shed.retry_after_ms, 75u);
    EXPECT_NE(shed.reason.find("connection limit"), std::string::npos);
    ::close(fd);
  }
  // ...and surfaced as a typed throw through the client library.
  EXPECT_THROW(Client(options.socket_path, "late", TenantClass::kBatch),
               std::runtime_error);

  const StatsReply stats = first.Stats();
  EXPECT_GE(stats.overloaded, 2u);

  first.Shutdown();
  server.WaitForShutdown();
  server.Stop();
}

TEST_F(ServeTest, OpenBreakerShedsQueriesUntilTheProbeHeals) {
  ServerOptions options;
  options.socket_path = TestSocketPath("breaker");
  options.catalog.scale_factor = 0.002;
  QueryServer server(options);
  server.Start();

  Client client(options.socket_path, "tenant", TenantClass::kInteractive);
  EXPECT_FALSE(client.Query("q6").overloaded);

  // Trip the server's breaker — what a run of real execution failures
  // would do — and watch admission shed.
  server.breaker().RecordFailure();
  server.breaker().RecordFailure();
  server.breaker().RecordFailure();
  const QueryReply shed = client.Query("q6");
  EXPECT_TRUE(shed.overloaded);
  EXPECT_EQ(shed.retry_after_ms, options.retry_after_ms);

  // Each shed admission advances the breaker cooldown; eventually one query
  // is admitted as the half-open probe, succeeds, and closes the breaker.
  bool healed = false;
  for (int i = 0; i < 64 && !healed; ++i) {
    healed = !client.Query("q6").overloaded;
  }
  EXPECT_TRUE(healed) << "probe never admitted";
  EXPECT_FALSE(client.Query("q6").overloaded) << "breaker should be closed";

  const StatsReply stats = client.Stats();
  EXPECT_GT(stats.overloaded, 0u);

  client.Shutdown();
  server.WaitForShutdown();
  server.Stop();
}

// --------------------------------------------------------------------------
// Per-tenant shed priorities and the client's seeded retry helper.
// --------------------------------------------------------------------------

TEST_F(ServeTest, TenantClassesShedInPriorityOrderWithScaledRetryAfter) {
  ServerOptions options;  // in-process only
  options.catalog.scale_factor = 0.002;
  options.num_clients = 1;
  options.shed_queue_depth = 2;  // besteffort+batch shed at depth 1 of 2
  QueryServer server(options);
  server.Start();

  // Pin the scheduler at queue depth 1: the lone client thread parks on the
  // blocker while one no-op waits in the queue.
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::promise<void> started;
  server.scheduler().Submit("blocker", [&started, released](core::Backend&) {
    started.set_value();
    released.wait();
  });
  started.get_future().wait();  // the client thread holds the blocker...
  server.scheduler().Submit("noop", [](core::Backend&) {});
  while (server.scheduler().queue_depth() != 1) {  // ...and the noop queues
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  const Session be = server.OpenSession("t-be", TenantClass::kBestEffort);
  const Session batch = server.OpenSession("t-b", TenantClass::kBatch);
  const Session inter = server.OpenSession("t-i", TenantClass::kInteractive);

  // At the same depth, best-effort and batch shed — with their own scaled
  // retry-after hints — while interactive is still admitted.
  try {
    server.Execute(be, "q6");
    FAIL() << "best-effort must shed at half the bound";
  } catch (const Overloaded& e) {
    EXPECT_EQ(e.retry_after_ms, options.retry_after_ms * 5);
    EXPECT_NE(std::string(e.what()).find("besteffort"), std::string::npos);
  }
  try {
    server.Execute(batch, "q6");
    FAIL() << "batch must shed at three quarters of the bound";
  } catch (const Overloaded& e) {
    EXPECT_EQ(e.retry_after_ms, options.retry_after_ms * 2);
    EXPECT_NE(std::string(e.what()).find("batch"), std::string::npos);
  }

  std::thread releaser([&release] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    release.set_value();
  });
  const QueryReply reply = server.Execute(inter, "q6");
  releaser.join();
  EXPECT_FALSE(reply.rejected);
  tpch_testing::ExpectReferenceAnswer(plan::TpchQuery::kQ6, reply.result,
                                      server.catalog().host());
  EXPECT_EQ(server.Stats().overloaded, 2u);
}

TEST_F(ServeTest, QueryWithRetrySleepsThroughShedsUntilTheBreakerHeals) {
  ServerOptions options;
  options.socket_path = TestSocketPath("retry");
  options.catalog.scale_factor = 0.002;
  options.retry_after_ms = 1;  // keep the test's real sleeps tiny
  QueryServer server(options);
  server.Start();

  Client client(options.socket_path, "tenant", TenantClass::kInteractive);

  server.breaker().RecordFailure();
  server.breaker().RecordFailure();
  server.breaker().RecordFailure();

  // Each shed attempt advances the breaker cooldown, so a generous budget
  // always reaches the half-open probe; the helper sleeps the hints out
  // instead of surfacing every shed to the caller.
  RetryOptions retry;
  retry.max_attempts = 64;
  retry.seed = 9;
  retry.max_backoff_ms = 4;
  const QueryReply reply = client.QueryWithRetry("q6", retry);
  EXPECT_FALSE(reply.overloaded) << "the budget must outlast the cooldown";
  tpch_testing::ExpectReferenceAnswer(plan::TpchQuery::kQ6, reply.result,
                                      server.catalog().host());
  EXPECT_GT(client.retries(), 0u);

  client.Shutdown();
  server.WaitForShutdown();
  server.Stop();
}

// --------------------------------------------------------------------------
// Drain-free catalog refresh: a reload swaps the snapshot while queries run,
// and queries keep the snapshot they prepared against.
// --------------------------------------------------------------------------

TEST_F(ServeTest, ReloadCatalogReturnsWhileAQueryIsHeld) {
  ServerOptions options;  // in-process only
  options.catalog.scale_factor = 0.004;
  options.num_clients = 2;
  QueryServer server(options);
  server.Start();

  // One client thread parks on the held query until the latch opens.
  std::promise<void> latch;
  std::shared_future<void> opened = latch.get_future().share();
  std::promise<void> started;
  ASSERT_EQ(server.scheduler().Submit("held",
                                      [&started, opened](core::Backend&) {
                                        started.set_value();
                                        opened.wait();
                                      }),
            core::ScheduledQueryStatus::kAccepted);
  started.get_future().wait();

  std::future<void> reload = std::async(std::launch::async, [&server] {
    server.ReloadCatalog(0.008);
  });
  const bool returned = reload.wait_for(std::chrono::seconds(30)) ==
                        std::future_status::ready;
  EXPECT_TRUE(returned) << "ReloadCatalog waited for the held query";
  if (returned) {
    // The other client thread already serves the reloaded tables.
    const Session session =
        server.OpenSession("tenant-a", TenantClass::kInteractive);
    EXPECT_EQ(server.catalog().snapshot().host->scale_factor, 0.008);
    tpch_testing::ExpectReferenceAnswer(plan::TpchQuery::kQ6,
                                        server.Execute(session, "q6").result,
                                        server.catalog().host());
  }
  latch.set_value();
  reload.get();
  EXPECT_EQ(server.Stats().catalog_generation, 1u);
}

TEST_F(ServeTest, ReloadUnderConcurrentStreamsAnswersFromOneGeneration) {
  constexpr double kScaleFactors[2] = {0.002, 0.004};
  const std::vector<std::string> names = {"q1", "q6", "q14"};
  constexpr int kStreams = 4;
  constexpr int kReloads = 6;

  ServerOptions options;  // in-process only
  options.catalog.scale_factor = kScaleFactors[1];
  options.num_clients = kStreams;
  QueryServer server(options);
  server.Start();

  // Host references for both scale factors, from tables generated apart
  // from the server's.
  std::map<plan::TpchQuery, plan::TpchQueryResult> refs[2];
  for (int i = 0; i < 2; ++i) {
    refs[i] = plan::ReferenceAnswers(
        GenerateHostTables(kScaleFactors[i], options.catalog.seed)->view());
  }

  struct Answer {
    plan::TpchQuery query;
    plan::TpchQueryResult result;
    bool after_last_reload = false;
  };
  std::vector<std::vector<Answer>> answers(kStreams);
  std::atomic<bool> reloads_done{false};
  std::atomic<uint64_t> completed{0};
  std::atomic<uint64_t> errors{0};
  std::vector<std::thread> streams;
  for (int s = 0; s < kStreams; ++s) {
    streams.emplace_back([&, s] {
      const Session session = server.OpenSession(
          "stream-" + std::to_string(s), TenantClass::kInteractive);
      // Every stream stops after three requests issued once the last
      // reload has returned.
      for (size_t i = s, after = 0; after < 3; ++i) {
        const bool after_last_reload = reloads_done.load();
        const std::string& name = names[i % names.size()];
        try {
          QueryReply reply = server.Execute(session, name);
          if (reply.rejected) {
            errors.fetch_add(1);
          } else {
            answers[s].push_back({plan::ParseTpchQuery(name),
                                  std::move(reply.result),
                                  after_last_reload});
          }
        } catch (const std::exception&) {
          errors.fetch_add(1);  // failed or shed
        }
        completed.fetch_add(1);
        if (after_last_reload) ++after;
      }
    });
  }
  for (int r = 0; r < kReloads; ++r) {
    // Let a few requests complete between reloads, so each reload lands
    // among running queries.
    const uint64_t seen = completed.load();
    while (completed.load() < seen + kStreams) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    server.ReloadCatalog(kScaleFactors[r % 2]);
  }
  const int last = (kReloads - 1) % 2;
  reloads_done.store(true);
  for (std::thread& t : streams) t.join();

  EXPECT_EQ(errors.load(), 0u) << "no request may fail, be shed or rejected";
  for (const std::vector<Answer>& stream : answers) {
    for (const Answer& a : stream) {
      const plan::TpchQueryResult& want_last = refs[last].at(a.query);
      if (a.after_last_reload) {
        std::string why;
        EXPECT_TRUE(plan::SameAnswer(a.query, a.result, want_last, &why, 0.0))
            << "a request issued after the last reload: " << why;
      } else {
        EXPECT_TRUE(
            plan::SameAnswer(a.query, a.result, refs[0].at(a.query), nullptr,
                             0.0) ||
            plan::SameAnswer(a.query, a.result, refs[1].at(a.query), nullptr,
                             0.0))
            << "an answer matches neither scale factor's reference";
      }
    }
  }
  const StatsReply stats = server.Stats();
  EXPECT_EQ(stats.catalog_generation, static_cast<uint64_t>(kReloads));
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.overloaded, 0u);
  EXPECT_EQ(stats.rejected, 0u);
}

TEST_F(ServeTest, ReloadWhoseUploadFailsChangesNothing) {
  // Refresh swaps only after a whole upload: a reload whose upload faults
  // throws and leaves the old snapshot serving, and the next reload
  // succeeds. The server runs on a private device, so the fault touches no
  // other test's device.
  gpusim::FaultInjector injector(11);
  gpusim::Device device(gpusim::DeviceProperties(), 2);
  gpusim::Device::DeviceGuard guard(device);
  ServerOptions options;  // in-process only
  options.catalog.scale_factor = 0.004;
  QueryServer server(options);
  server.Start();
  const Session session =
      server.OpenSession("tenant-a", TenantClass::kInteractive);
  const plan::TpchQueryResult ref =
      plan::ReferenceAnswer(plan::TpchQuery::kQ6, server.catalog().host());

  gpusim::FaultRule rule;
  rule.site = gpusim::FaultSite::kTransfer;
  rule.kind = gpusim::FaultKind::kTransfer;
  rule.at_call = 1;
  rule.max_fires = 1;
  injector.AddRule(rule);
  device.set_fault_injector(&injector);

  EXPECT_THROW(server.ReloadCatalog(0.008), gpusim::TransferFault);
  EXPECT_EQ(server.catalog().generation(), 0u) << "the catalog is unchanged";
  EXPECT_EQ(server.catalog().snapshot().host->scale_factor, 0.004);
  tpch_testing::ExpectNearAnswer(plan::TpchQuery::kQ6,
                                 server.Execute(session, "q6").result, ref);

  server.ReloadCatalog(0.008);
  device.set_fault_injector(nullptr);
  EXPECT_EQ(server.catalog().generation(), 1u);
  EXPECT_EQ(injector.stats().injected_transfer, 1u);
  tpch_testing::ExpectReferenceAnswer(plan::TpchQuery::kQ6,
                                      server.Execute(session, "q6").result,
                                      server.catalog().host());
}

TEST_F(ServeTest, ReloadCatalogUpdatesTheHelloScaleFactor) {
  ServerOptions options;
  options.socket_path = TestSocketPath("hello");
  options.catalog.scale_factor = 0.004;
  QueryServer server(options);
  server.Start();

  server.ReloadCatalog(0.008);
  Client client(options.socket_path, "late", TenantClass::kInteractive);
  EXPECT_EQ(client.hello().scale_factor, 0.008);
  // A client that verifies answers against tables it generates from the
  // Hello parameters (bench_serving --connect) sees the reloaded data.
  const std::shared_ptr<const HostTables> tables =
      GenerateHostTables(client.hello().scale_factor, client.hello().seed);
  tpch_testing::ExpectReferenceAnswer(
      plan::TpchQuery::kQ6, client.Query("q6").result, tables->view());

  client.Shutdown();
  server.WaitForShutdown();
  server.Stop();
}

}  // namespace
}  // namespace serve
