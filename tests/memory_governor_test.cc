// MemoryGovernor tests: immediate/queued/rejected admission, the strict-FIFO
// no-overtake guarantee, partial grants above the single-grant cap, shutdown
// semantics, and the QueryScheduler integration (admission fields on records,
// rejection as a resource failure, and the OOM-reclaim livelock regression).
// Built into the concurrency_tests binary, which CI also runs under
// ThreadSanitizer.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "backends/backends.h"
#include "core/governor.h"
#include "core/registry.h"
#include "core/scheduler.h"
#include "gpusim/device.h"
#include "gpusim/fault.h"

namespace core {
namespace {

constexpr size_t kMiB = size_t{1} << 20;

class MemoryGovernorTest : public ::testing::Test {
 protected:
  MemoryGovernorTest() : device_(SmallDevice()) {}

  static gpusim::DeviceProperties SmallDevice() {
    gpusim::DeviceProperties props;
    props.global_memory_bytes = kMiB;
    return props;
  }

  GovernorOptions Opts(uint64_t timeout_ms = 30'000,
                       double max_grant_fraction = 1.0) {
    GovernorOptions o;
    o.device = &device_;
    o.queue_timeout_ms = timeout_ms;
    o.max_grant_fraction = max_grant_fraction;
    return o;
  }

  gpusim::Device device_;
};

TEST_F(MemoryGovernorTest, ImmediateGrantReservesAndReleaseReturns) {
  MemoryGovernor governor(Opts());
  const AdmissionTicket t = governor.Admit(/*stream_id=*/1, 512 * 1024);
  EXPECT_EQ(t.decision, AdmissionDecision::kGranted);
  EXPECT_TRUE(t.admitted());
  EXPECT_FALSE(t.partial());
  EXPECT_EQ(t.granted_bytes, 512u * 1024u);
  EXPECT_EQ(device_.reserved_bytes(), 512u * 1024u);
  governor.Release(1);
  EXPECT_EQ(device_.reserved_bytes(), 0u);
  const GovernorStats stats = governor.Stats();
  EXPECT_EQ(stats.granted, 1u);
  EXPECT_EQ(stats.queued, 0u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.released, 1u);
}

TEST_F(MemoryGovernorTest, GrantCapForcesPartialGrant) {
  MemoryGovernor governor(Opts(30'000, /*max_grant_fraction=*/0.5));
  const AdmissionTicket t = governor.Admit(1, 800 * 1024);
  EXPECT_TRUE(t.admitted());
  EXPECT_TRUE(t.partial());
  EXPECT_EQ(t.granted_bytes, kMiB / 2);  // capped at 0.5 x capacity
  EXPECT_EQ(governor.Stats().partial_grants, 1u);
  governor.Release(1);
}

TEST_F(MemoryGovernorTest, FootprintAboveCapacityIsPartiallyGrantedNotRejected) {
  MemoryGovernor governor(Opts());
  // Twice the device: instead of refusing outright, the governor grants the
  // cap and the caller degrades to partitioned execution.
  const AdmissionTicket t = governor.Admit(1, 2 * kMiB);
  EXPECT_TRUE(t.admitted());
  EXPECT_TRUE(t.partial());
  EXPECT_EQ(t.granted_bytes, kMiB);
  governor.Release(1);
}

TEST_F(MemoryGovernorTest, QueueIsStrictFifoEvenWhenALaterRequestWouldFit) {
  MemoryGovernor governor(Opts());
  // Holder takes half the device; 512 KiB stays free.
  ASSERT_TRUE(governor.Admit(/*stream_id=*/10, 512 * 1024).admitted());

  AdmissionTicket ticket_a, ticket_b;
  // Waiter A wants 768 KiB: does not fit next to the holder, so it queues.
  std::thread waiter_a(
      [&] { ticket_a = governor.Admit(/*stream_id=*/11, 768 * 1024); });
  // Wait until A is really registered in the FIFO queue (thread start-up can
  // be arbitrarily slow, e.g. under TSan) before letting B arrive.
  while (governor.queue_depth() < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Waiter B wants 512 KiB: it WOULD fit in the free 512 KiB right now, but
  // strict FIFO forbids overtaking waiter A.
  std::thread waiter_b(
      [&] { ticket_b = governor.Admit(/*stream_id=*/12, 512 * 1024); });
  while (governor.queue_depth() < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(governor.Stats().granted, 1u)
      << "a queued request overtook the FIFO head";

  // Frees 512 KiB: A (head) takes 768 KiB, leaving 256 KiB — B's 512 KiB
  // still cannot fit, so the grant order is enforced by memory, not by host
  // scheduling.
  governor.Release(10);
  waiter_a.join();
  EXPECT_EQ(ticket_a.decision, AdmissionDecision::kQueuedThenGranted);
  EXPECT_EQ(ticket_a.granted_bytes, 768u * 1024u);
  EXPECT_EQ(governor.queue_depth(), 1u);  // B still waiting behind A's grant
  governor.Release(11);
  waiter_b.join();
  EXPECT_EQ(ticket_b.decision, AdmissionDecision::kQueuedThenGranted);
  governor.Release(12);
  const GovernorStats stats = governor.Stats();
  EXPECT_EQ(stats.queued, 2u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_GT(stats.wait_max_ms, 0.0);
}

TEST_F(MemoryGovernorTest, QueueTimeoutRejectsAndQueueRecovers) {
  MemoryGovernor governor(Opts());
  ASSERT_TRUE(governor.Admit(1, kMiB).admitted());  // device full
  const AdmissionTicket t = governor.Admit(2, 512 * 1024, /*timeout_ms=*/50);
  EXPECT_EQ(t.decision, AdmissionDecision::kRejected);
  EXPECT_FALSE(t.admitted());
  EXPECT_EQ(t.granted_bytes, 0u);
  EXPECT_EQ(governor.Stats().rejected, 1u);
  // The abandoned queue slot must not wedge later admissions.
  governor.Release(1);
  const AdmissionTicket t2 = governor.Admit(3, 512 * 1024);
  EXPECT_TRUE(t2.admitted());
  governor.Release(3);
}

TEST_F(MemoryGovernorTest, ShutdownRejectsWaitersAndLaterAdmits) {
  MemoryGovernor governor(Opts());
  ASSERT_TRUE(governor.Admit(1, kMiB).admitted());
  AdmissionTicket waiter_ticket;
  std::thread waiter(
      [&] { waiter_ticket = governor.Admit(2, 512 * 1024); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  governor.Shutdown();
  waiter.join();
  EXPECT_EQ(waiter_ticket.decision, AdmissionDecision::kRejected);
  EXPECT_EQ(governor.Admit(3, 1024).decision, AdmissionDecision::kRejected);
  governor.Release(1);
}

TEST_F(MemoryGovernorTest, DecisionSequenceIsDeterministic) {
  // The same submission script replays to the same decisions and grants —
  // admission is a pure function of arrival order and byte amounts.
  const auto run_script = [this] {
    MemoryGovernor governor(Opts(/*timeout_ms=*/20, 0.75));
    std::vector<AdmissionTicket> tickets;
    tickets.push_back(governor.Admit(1, 600 * 1024));
    tickets.push_back(governor.Admit(2, 900 * 1024));  // partial (cap 768K)
    tickets.push_back(governor.Admit(3, 512 * 1024));  // full -> times out
    governor.Release(1);
    tickets.push_back(governor.Admit(4, 256 * 1024));
    governor.Release(2);
    governor.Release(4);
    return tickets;
  };
  const std::vector<AdmissionTicket> a = run_script();
  const std::vector<AdmissionTicket> b = run_script();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].decision, b[i].decision) << "ticket " << i;
    EXPECT_EQ(a[i].granted_bytes, b[i].granted_bytes) << "ticket " << i;
  }
}

// ---------------------------------------------------------------------------
// Scheduler integration
// ---------------------------------------------------------------------------

class GovernedSchedulerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    RegisterBuiltinBackends();
    saved_capacity_ = gpusim::Device::Default().memory_capacity();
  }
  void TearDown() override {
    gpusim::Device::Default().set_fault_injector(nullptr);
    gpusim::Device::Default().set_memory_capacity(saved_capacity_);
    gpusim::Device::Default().TrimPool();
  }

  size_t saved_capacity_ = 0;
};

TEST_F(GovernedSchedulerTest, GovernedSubmitRecordsAdmissionAndReleases) {
  GovernorOptions gopts;
  MemoryGovernor governor(gopts);  // Device::Default()
  SchedulerOptions opts;
  opts.backend_name = backends::kHandwritten;
  opts.num_clients = 2;
  opts.governor = &governor;
  QueryScheduler scheduler(opts);
  SubmitOptions submit;
  submit.footprint_bytes = 128 * 1024;
  for (int i = 0; i < 4; ++i) {
    scheduler.Submit(
        "alloc",
        [](Backend& b) {
          gpusim::Device& d = b.stream().device();
          void* p = d.Allocate(64 * 1024);
          d.Free(p);
        },
        submit);
  }
  scheduler.Drain();
  const auto records = scheduler.Records();
  ASSERT_EQ(records.size(), 4u);
  for (const QueryRecord& r : records) {
    EXPECT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.footprint_bytes, 128u * 1024u);
    EXPECT_EQ(r.granted_bytes, 128u * 1024u);
    EXPECT_FALSE(r.admission_rejected);
  }
  const SchedulerReport report = scheduler.Report();
  EXPECT_EQ(report.governor.granted + report.governor.queued, 4u);
  EXPECT_EQ(report.governor.released, 4u);
  EXPECT_GT(report.device_peak_bytes, 0u);
  // Every grant was released: no reservation bytes leak past the report.
  EXPECT_EQ(report.device_reserved_bytes, 0u);
  EXPECT_EQ(gpusim::Device::Default().reserved_bytes(), 0u);
}

TEST_F(GovernedSchedulerTest, AdmissionRejectionFailsQueryWithoutRunningIt) {
  gpusim::Device& device = gpusim::Device::Default();
  device.set_memory_capacity(1 * kMiB);
  GovernorOptions gopts;
  gopts.queue_timeout_ms = 50;
  MemoryGovernor governor(gopts);
  SchedulerOptions opts;
  opts.backend_name = backends::kHandwritten;
  opts.num_clients = 2;
  opts.governor = &governor;
  QueryScheduler scheduler(opts);

  std::atomic<bool> hog_running{false};
  std::atomic<bool> victim_ran{false};
  // The hog is granted the whole device and sits on it past the victim's
  // admission timeout.
  SubmitOptions whole_device;
  whole_device.footprint_bytes = kMiB;
  scheduler.Submit(
      "hog",
      [&](Backend&) {
        hog_running.store(true);
        std::this_thread::sleep_for(std::chrono::milliseconds(400));
      },
      whole_device);
  while (!hog_running.load()) std::this_thread::sleep_for(
      std::chrono::milliseconds(1));
  scheduler.Submit(
      "victim", [&](Backend&) { victim_ran.store(true); }, whole_device);
  scheduler.Drain();

  const auto records = scheduler.Records();
  ASSERT_EQ(records.size(), 2u);
  const QueryRecord& victim = records[1];
  EXPECT_FALSE(victim.ok);
  EXPECT_TRUE(victim.admission_rejected);
  EXPECT_EQ(victim.error_class, ErrorClass::kResource);
  EXPECT_FALSE(victim_ran.load()) << "rejected query must never execute";
  EXPECT_TRUE(records[0].ok);
  EXPECT_EQ(governor.Stats().rejected, 1u);
}

// Regression for the OOM-reclaim livelock: under *persistent* OOM (every
// allocation fails), TrimPool frees nothing, so repeating the
// reclaim-then-retry cycle can never help. The scheduler must stop after the
// first reclaim instead of re-running the query over and over.
TEST_F(GovernedSchedulerTest, PersistentOomStopsAfterOneReclaimNotLivelock) {
  gpusim::FaultInjector injector(42);
  gpusim::FaultRule rule;
  rule.site = gpusim::FaultSite::kMalloc;
  rule.kind = gpusim::FaultKind::kOutOfMemory;
  rule.probability = 1.0;  // every allocation OOMs, forever
  injector.AddRule(rule);
  gpusim::Device::Default().set_fault_injector(&injector);

  SchedulerOptions opts;
  opts.backend_name = backends::kHandwritten;
  opts.num_clients = 1;
  QueryScheduler scheduler(opts);
  std::atomic<int> executions{0};
  scheduler.Submit("oom", [&](Backend& b) {
    executions.fetch_add(1);
    void* p = b.stream().device().Allocate(4096);
    b.stream().device().Free(p);
  });
  scheduler.Drain();
  const auto records = scheduler.Records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_FALSE(records[0].ok);
  EXPECT_EQ(records[0].error_class, ErrorClass::kResource);
  // First OOM earns exactly one reclaim (the pool might have hidden the
  // bytes); the second OOM fails the query.
  EXPECT_EQ(records[0].oom_reclaims, 1);
  EXPECT_EQ(executions.load(), 2);
}

}  // namespace
}  // namespace core
