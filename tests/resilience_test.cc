// Resilience-layer tests: retry/backoff policy math, the circuit-breaker
// state machine, fault-injector determinism, the error taxonomy, the
// scheduler's recovery behavior (transient retry, OOM reclaim, deadlines,
// typed shutdown status), and how often one persistent fault fires under
// the nested runners (one retry owner per fault class). Built into the
// concurrency_tests binary, which CI also runs under ThreadSanitizer — the
// multi-client chaos sweep is the data-race canary for the whole fault path.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "backends/backends.h"
#include "core/error.h"
#include "core/registry.h"
#include "core/resilience.h"
#include "core/scheduler.h"
#include "gpusim/device.h"
#include "gpusim/fault.h"
#include "gpusim/stream.h"
#include "plan/partition.h"
#include "plan/prepared.h"
#include "storage/device_column.h"
#include "tpch/datagen.h"

namespace core {
namespace {

using gpusim::Device;
using gpusim::FaultInjector;
using gpusim::FaultKind;
using gpusim::FaultRule;
using gpusim::FaultSite;

/// Detaches the injector on every exit path, so a failing assertion cannot
/// poison later tests.
class ResilienceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    RegisterBuiltinBackends();
    Device::Default().set_fault_injector(nullptr);
  }

  void TearDown() override { Device::Default().set_fault_injector(nullptr); }
};

// ---------------------------------------------------------------------------
// Policy math
// ---------------------------------------------------------------------------

TEST_F(ResilienceTest, RetryPolicyBackoffDoublesUpToCap) {
  RetryPolicy p;  // base 1 ms, cap 8 ms
  EXPECT_EQ(p.BackoffNs(0), 0u);
  EXPECT_EQ(p.BackoffNs(1), 1'000'000u);
  EXPECT_EQ(p.BackoffNs(2), 2'000'000u);
  EXPECT_EQ(p.BackoffNs(3), 4'000'000u);
  EXPECT_EQ(p.BackoffNs(4), 8'000'000u);
  EXPECT_EQ(p.BackoffNs(20), 8'000'000u);  // capped, no overflow
  p.backoff_base_ns = 0;
  EXPECT_EQ(p.BackoffNs(3), 0u);
}

TEST_F(ResilienceTest, CircuitBreakerOpensProbesAndRecovers) {
  CircuitBreakerOptions opts;
  opts.failure_threshold = 2;
  opts.open_cooldown_checks = 3;
  CircuitBreaker b(opts);

  EXPECT_EQ(b.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(b.Allow());
  b.RecordFailure();
  EXPECT_EQ(b.state(), CircuitBreaker::State::kClosed);
  b.RecordFailure();
  EXPECT_EQ(b.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(b.opens(), 1u);

  // Two denials, then the exhausting call is admitted as the probe.
  EXPECT_FALSE(b.Allow());
  EXPECT_FALSE(b.Allow());
  EXPECT_TRUE(b.Allow());
  EXPECT_EQ(b.state(), CircuitBreaker::State::kHalfOpen);

  // A failing probe re-opens.
  b.RecordFailure();
  EXPECT_EQ(b.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(b.opens(), 2u);

  // Half-open admits every call until a result is recorded, not just the
  // first; a succeeding probe closes.
  EXPECT_FALSE(b.Allow());
  EXPECT_FALSE(b.Allow());
  EXPECT_TRUE(b.Allow());
  EXPECT_TRUE(b.Allow());
  EXPECT_EQ(b.state(), CircuitBreaker::State::kHalfOpen);
  b.RecordSuccess();
  EXPECT_EQ(b.state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(b.closes(), 1u);
  EXPECT_EQ(b.half_opens(), 2u);
  EXPECT_TRUE(b.Allow());
}

TEST_F(ResilienceTest, SuccessResetsConsecutiveFailureCount) {
  CircuitBreakerOptions opts;
  opts.failure_threshold = 3;
  CircuitBreaker b(opts);
  for (int round = 0; round < 5; ++round) {
    b.RecordFailure();
    b.RecordFailure();
    b.RecordSuccess();  // never three in a row
  }
  EXPECT_EQ(b.state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(b.opens(), 0u);
}

TEST_F(ResilienceTest, ClassifyMapsTheFaultTaxonomy) {
  EXPECT_EQ(Classify(std::make_exception_ptr(
                gpusim::TransientKernelFault("k"))),
            ErrorClass::kTransient);
  EXPECT_EQ(Classify(std::make_exception_ptr(gpusim::TransferFault("t"))),
            ErrorClass::kTransient);
  EXPECT_EQ(Classify(std::make_exception_ptr(gpusim::OutOfDeviceMemory("o"))),
            ErrorClass::kResource);
  EXPECT_EQ(Classify(std::make_exception_ptr(gpusim::DeviceLost("d"))),
            ErrorClass::kFatal);
  EXPECT_EQ(Classify(std::make_exception_ptr(std::runtime_error("x"))),
            ErrorClass::kFatal);
  EXPECT_EQ(Classify(std::make_exception_ptr(
                BackendError(ErrorClass::kResource, "capacity"))),
            ErrorClass::kResource);
}

// ---------------------------------------------------------------------------
// Fault injector
// ---------------------------------------------------------------------------

TEST_F(ResilienceTest, InjectorCountTriggersFireExactly) {
  FaultInjector inj(1);
  FaultRule at3;
  at3.site = FaultSite::kKernel;
  at3.kind = FaultKind::kTransientKernel;
  at3.at_call = 3;
  inj.AddRule(at3);
  FaultRule every2;
  every2.site = FaultSite::kTransfer;
  every2.kind = FaultKind::kTransfer;
  every2.every_calls = 2;
  every2.max_fires = 2;
  inj.AddRule(every2);

  std::vector<FaultKind> kernel_fires;
  for (int i = 0; i < 6; ++i) {
    kernel_fires.push_back(inj.Check(FaultSite::kKernel, 1, "s"));
  }
  EXPECT_EQ(kernel_fires, (std::vector<FaultKind>{
                              FaultKind::kNone, FaultKind::kNone,
                              FaultKind::kTransientKernel, FaultKind::kNone,
                              FaultKind::kNone, FaultKind::kNone}));

  // every_calls fires on calls 2 and 4, then max_fires stops it.
  std::vector<FaultKind> transfer_fires;
  for (int i = 0; i < 8; ++i) {
    transfer_fires.push_back(inj.Check(FaultSite::kTransfer, 1, "s"));
  }
  EXPECT_EQ(transfer_fires[1], FaultKind::kTransfer);
  EXPECT_EQ(transfer_fires[3], FaultKind::kTransfer);
  for (size_t i : {0u, 2u, 4u, 5u, 6u, 7u}) {
    EXPECT_EQ(transfer_fires[i], FaultKind::kNone) << i;
  }

  const gpusim::FaultInjectorStats s = inj.stats();
  EXPECT_EQ(s.injected_kernel, 1u);
  EXPECT_EQ(s.injected_transfer, 2u);
  EXPECT_EQ(s.injected_total(), 3u);
  EXPECT_EQ(s.checks, 14u);
  ASSERT_EQ(inj.log().size(), 3u);
  EXPECT_EQ(inj.log()[0].rule, 0u);
  EXPECT_EQ(inj.log()[0].call_index, 3u);

  // Counts are per stream: a different stream id starts fresh.
  EXPECT_EQ(inj.Check(FaultSite::kKernel, 2, "s"), FaultKind::kNone);

  // Reset clears trigger state but keeps the rules.
  inj.Reset();
  EXPECT_EQ(inj.stats().injected_total(), 0u);
  EXPECT_EQ(inj.log().size(), 0u);
  inj.Check(FaultSite::kKernel, 1, "s");
  inj.Check(FaultSite::kKernel, 1, "s");
  EXPECT_EQ(inj.Check(FaultSite::kKernel, 1, "s"),
            FaultKind::kTransientKernel);
}

TEST_F(ResilienceTest, InjectorProbabilityIsAPureFunctionOfSeedAndStream) {
  const auto draw = [](uint64_t seed, uint64_t stream_id) {
    FaultInjector inj(seed);
    FaultRule r;
    r.site = FaultSite::kKernel;
    r.kind = FaultKind::kTransientKernel;
    r.probability = 0.3;
    inj.AddRule(r);
    std::vector<bool> fires;
    for (int i = 0; i < 200; ++i) {
      fires.push_back(inj.Check(FaultSite::kKernel, stream_id, "") !=
                      FaultKind::kNone);
    }
    return fires;
  };
  const std::vector<bool> a = draw(7, 1);
  EXPECT_EQ(a, draw(7, 1));       // same seed+stream: identical schedule
  EXPECT_NE(a, draw(8, 1));       // seed changes the schedule
  EXPECT_NE(a, draw(7, 2));       // so does the stream identity
  const size_t fired = std::count(a.begin(), a.end(), true);
  EXPECT_GT(fired, 20u);  // ~60 expected of 200
  EXPECT_LT(fired, 140u);
}

TEST_F(ResilienceTest, StickyDeviceLostIsScopedToTheLabel) {
  FaultInjector inj(3);
  FaultRule r;
  r.site = FaultSite::kKernel;
  r.kind = FaultKind::kDeviceLost;
  r.stream_label = "victim";
  r.at_call = 2;
  inj.AddRule(r);

  EXPECT_EQ(inj.Check(FaultSite::kKernel, 1, "victim"), FaultKind::kNone);
  EXPECT_EQ(inj.Check(FaultSite::kKernel, 1, "victim"),
            FaultKind::kDeviceLost);
  EXPECT_TRUE(inj.IsLost("victim"));
  EXPECT_FALSE(inj.IsLost("healthy"));
  // Sticky: every later check from the label replays the loss, at any site.
  EXPECT_EQ(inj.Check(FaultSite::kTransfer, 9, "victim"),
            FaultKind::kDeviceLost);
  EXPECT_GT(inj.stats().sticky_replays, 0u);
  // Other labels keep working.
  EXPECT_EQ(inj.Check(FaultSite::kKernel, 1, "healthy"), FaultKind::kNone);
  inj.Reset();
  EXPECT_FALSE(inj.IsLost("victim"));
}

TEST_F(ResilienceTest, InjectedMallocOomIsIndistinguishableFromCapacityMiss) {
  Device device;
  FaultInjector inj(5);
  FaultRule r;
  r.site = FaultSite::kMalloc;
  r.kind = FaultKind::kOutOfMemory;
  r.at_call = 1;
  inj.AddRule(r);
  device.set_fault_injector(&inj);
  EXPECT_THROW(device.Allocate(256), gpusim::OutOfDeviceMemory);
  device.set_fault_injector(nullptr);
  // The faulted call left no accounting residue.
  EXPECT_EQ(device.bytes_in_use(), 0u);
  void* p = device.Allocate(256);
  EXPECT_NE(p, nullptr);
  device.Free(p);
}

// ---------------------------------------------------------------------------
// Scheduler recovery
// ---------------------------------------------------------------------------

class SchedulerRecoveryTest : public ResilienceTest {
 protected:
  void SetUp() override {
    ResilienceTest::SetUp();
    gpusim::Stream setup(Device::Default(), gpusim::ApiProfile::Cuda());
    std::vector<double> host(4096);
    std::iota(host.begin(), host.end(), 0.0);
    expected_sum_ = std::accumulate(host.begin(), host.end(), 0.0) +
                    static_cast<double>(host.size());
    col_ = storage::UploadColumn(setup, storage::Column(host));
  }

  void TearDown() override {
    col_ = storage::DeviceColumn();
    ResilienceTest::TearDown();
  }

  /// Idempotent small query: sum(col + 1), checked against the host.
  QueryFn SumQuery(std::atomic<int>* wrong) {
    return [this, wrong](Backend& b) {
      const storage::DeviceColumn shifted = b.AddScalar(col_, 1.0);
      const double sum = b.ReduceColumn(shifted, AggOp::kSum);
      if (sum != expected_sum_) wrong->fetch_add(1);
    };
  }

  storage::DeviceColumn col_;
  double expected_sum_ = 0;
};

TEST_F(SchedulerRecoveryTest, TransientKernelFaultIsRetriedToSuccess) {
  FaultInjector inj(11);
  FaultRule r;
  r.site = FaultSite::kKernel;
  r.kind = FaultKind::kTransientKernel;
  r.at_call = 1;  // first kernel of the first query on the client stream
  inj.AddRule(r);
  Device::Default().set_fault_injector(&inj);

  SchedulerOptions opts;
  opts.backend_name = backends::kHandwritten;
  opts.num_clients = 1;
  std::atomic<int> wrong{0};
  {
    QueryScheduler scheduler(opts);
    EXPECT_EQ(scheduler.Submit("sum", SumQuery(&wrong)),
              ScheduledQueryStatus::kAccepted);
    scheduler.Drain();
    const auto records = scheduler.Records();
    ASSERT_EQ(records.size(), 1u);
    EXPECT_TRUE(records[0].ok) << records[0].error;
    EXPECT_EQ(records[0].attempts, 2);
    EXPECT_GT(records[0].backoff_ns, 0u);
    const SchedulerReport report = scheduler.Report();
    EXPECT_GE(report.resilience.retries, 1u);
    EXPECT_GE(report.resilience.faults_seen, 1u);
    EXPECT_EQ(report.resilience.permanent_failures, 0u);
  }
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(inj.stats().injected_kernel, 1u);
}

TEST_F(SchedulerRecoveryTest, InjectedOomIsAbsorbedByAPoolReclaim) {
  FaultInjector inj(12);
  FaultRule r;
  r.site = FaultSite::kMalloc;
  r.kind = FaultKind::kOutOfMemory;
  r.at_call = 1;
  inj.AddRule(r);
  Device::Default().set_fault_injector(&inj);

  SchedulerOptions opts;
  opts.backend_name = backends::kHandwritten;
  opts.num_clients = 1;
  std::atomic<int> wrong{0};
  QueryScheduler scheduler(opts);
  scheduler.Submit("sum", SumQuery(&wrong));
  scheduler.Drain();
  const auto records = scheduler.Records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_TRUE(records[0].ok) << records[0].error;
  EXPECT_EQ(records[0].oom_reclaims, 1);
  EXPECT_GE(scheduler.Report().resilience.oom_reclaims, 1u);
  EXPECT_EQ(wrong.load(), 0);
}

TEST_F(SchedulerRecoveryTest, OomReclaimLeavesTheTransientBudgetWhole) {
  // One OOM, then two transient faults, then success. The reclaim's re-run
  // is not a transient attempt, so a budget of three attempts suffices.
  SchedulerOptions opts;
  opts.backend_name = backends::kHandwritten;
  opts.num_clients = 1;
  opts.retry.max_attempts = 3;
  opts.retry.backoff_base_ns = 1000;  // keep the test fast
  std::atomic<int> runs{0};
  QueryScheduler scheduler(opts);
  scheduler.Submit("oom-then-transient", [&runs](Backend&) {
    const int run = runs.fetch_add(1);
    if (run == 0) throw gpusim::OutOfDeviceMemory("injected oom");
    if (run <= 2) throw gpusim::TransientKernelFault("injected transient");
  });
  scheduler.Drain();
  const auto records = scheduler.Records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_TRUE(records[0].ok) << records[0].error;
  EXPECT_EQ(records[0].oom_reclaims, 1);
  EXPECT_EQ(records[0].attempts, 4);
  EXPECT_EQ(runs.load(), 4);
}

TEST_F(SchedulerRecoveryTest, PermanentFailureAfterRetryBudgetExhausts) {
  SchedulerOptions opts;
  opts.backend_name = backends::kHandwritten;
  opts.num_clients = 1;
  opts.retry.max_attempts = 3;
  opts.retry.backoff_base_ns = 1000;  // keep the test fast
  QueryScheduler scheduler(opts);
  scheduler.Submit("always-transient", [](Backend&) {
    throw gpusim::TransientKernelFault("injected forever");
  });
  scheduler.Drain();
  const auto records = scheduler.Records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_FALSE(records[0].ok);
  EXPECT_EQ(records[0].attempts, 3);
  EXPECT_EQ(records[0].error_class, ErrorClass::kTransient);
  EXPECT_GE(scheduler.Report().resilience.permanent_failures, 1u);
}

TEST_F(SchedulerRecoveryTest, FatalErrorsAreNotRetried) {
  SchedulerOptions opts;
  opts.backend_name = backends::kHandwritten;
  opts.num_clients = 1;
  QueryScheduler scheduler(opts);
  scheduler.Submit("fatal", [](Backend&) {
    throw std::logic_error("plan bug");
  });
  scheduler.Drain();
  const auto records = scheduler.Records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_FALSE(records[0].ok);
  EXPECT_EQ(records[0].attempts, 1);
  EXPECT_EQ(records[0].error_class, ErrorClass::kFatal);
}

TEST_F(SchedulerRecoveryTest, DeadlineStopsRetryAndFlagsTheRecord) {
  SchedulerOptions opts;
  opts.backend_name = backends::kHandwritten;
  opts.num_clients = 1;
  opts.retry.max_attempts = 5;
  QueryScheduler scheduler(opts);
  SubmitOptions submit;
  submit.deadline_ms = 1;
  scheduler.Submit(
      "slow-then-faulty",
      [](Backend&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        throw gpusim::TransientKernelFault("too late to matter");
      },
      submit);
  scheduler.Drain();
  const auto records = scheduler.Records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_FALSE(records[0].ok);
  EXPECT_EQ(records[0].attempts, 1);  // no retry past the deadline
  EXPECT_TRUE(records[0].deadline_exceeded);
  EXPECT_GE(scheduler.Report().resilience.deadline_misses, 1u);
}

TEST_F(SchedulerRecoveryTest, LateSuccessKeepsOkButFlagsDeadline) {
  SchedulerOptions opts;
  opts.backend_name = backends::kHandwritten;
  opts.num_clients = 1;
  QueryScheduler scheduler(opts);
  SubmitOptions submit;
  submit.deadline_ms = 1;
  scheduler.Submit(
      "slow-but-fine",
      [](Backend&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      },
      submit);
  scheduler.Drain();
  const auto records = scheduler.Records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_TRUE(records[0].ok);
  EXPECT_TRUE(records[0].deadline_exceeded);
}

TEST_F(SchedulerRecoveryTest, SubmitAfterShutdownReturnsTypedStatus) {
  SchedulerOptions opts;
  opts.backend_name = backends::kHandwritten;
  opts.num_clients = 1;
  QueryScheduler scheduler(opts);
  uint64_t id = 123;
  EXPECT_EQ(scheduler.Submit("ok", [](Backend&) {}, &id),
            ScheduledQueryStatus::kAccepted);
  EXPECT_EQ(id, 0u);
  scheduler.Shutdown();
  EXPECT_EQ(scheduler.Submit("rejected", [](Backend&) {}),
            ScheduledQueryStatus::kShutDown);
  EXPECT_FALSE(scheduler.TrySubmit("rejected", [](Backend&) {}));
  EXPECT_EQ(scheduler.Records().size(), 1u);
}

// ---------------------------------------------------------------------------
// Injector timing + chaos sweep
// ---------------------------------------------------------------------------

TEST_F(SchedulerRecoveryTest, AttachedInjectorWithoutRulesIsTimingInvisible) {
  const auto measure = [&] {
    auto backend = BackendRegistry::Instance().Create(backends::kThrust);
    const uint64_t t0 = backend->stream().now_ns();
    const storage::DeviceColumn shifted = backend->AddScalar(col_, 1.0);
    backend->ReduceColumn(shifted, AggOp::kSum);
    return backend->stream().now_ns() - t0;
  };
  const uint64_t detached_ns = measure();
  FaultInjector inj(99);  // no rules
  Device::Default().set_fault_injector(&inj);
  const uint64_t attached_ns = measure();
  Device::Default().set_fault_injector(nullptr);
  EXPECT_EQ(attached_ns, detached_ns);
  EXPECT_GT(inj.stats().checks, 0u);
}

TEST_F(SchedulerRecoveryTest, EightClientChaosSweepRecoversEveryQuery) {
  // Transient-only fault budget far below the retry budget: every query
  // must complete correctly. Run under TSan in CI, this is the data-race
  // canary for the injector + breaker + scheduler recovery path.
  FaultInjector inj(31);
  FaultRule kernel;
  kernel.site = FaultSite::kKernel;
  kernel.kind = FaultKind::kTransientKernel;
  kernel.probability = 0.01;
  kernel.max_fires = 12;
  inj.AddRule(kernel);
  FaultRule transfer;
  transfer.site = FaultSite::kTransfer;
  transfer.kind = FaultKind::kTransfer;
  transfer.probability = 0.01;
  transfer.max_fires = 6;
  inj.AddRule(transfer);
  FaultRule oom;
  oom.site = FaultSite::kMalloc;
  oom.kind = FaultKind::kOutOfMemory;
  oom.at_call = 20;
  oom.max_fires = 1;
  inj.AddRule(oom);
  Device::Default().set_fault_injector(&inj);

  SchedulerOptions opts;
  opts.backend_name = backends::kHandwritten;
  opts.num_clients = 8;
  opts.queue_capacity = 16;
  opts.retry.max_attempts = 24;
  opts.retry.backoff_base_ns = 10'000;  // keep the storm fast
  std::atomic<int> wrong{0};
  {
    QueryScheduler scheduler(opts);
    for (int i = 0; i < 48; ++i) {
      scheduler.Submit("chaos/" + std::to_string(i), SumQuery(&wrong));
    }
    scheduler.Drain();
    for (const QueryRecord& q : scheduler.Records()) {
      EXPECT_TRUE(q.ok) << q.label << ": " << q.error;
    }
    EXPECT_EQ(scheduler.Report().resilience.permanent_failures, 0u);
  }
  Device::Default().set_fault_injector(nullptr);
  EXPECT_EQ(wrong.load(), 0);
}

// ---------------------------------------------------------------------------
// Retry amplification: one owner per fault class
// ---------------------------------------------------------------------------

/// Q6 at sf 0.002 on a one-client Handwritten scheduler under one persistent
/// fault. Each case pins how often the fault fires before the query fails:
/// a recovery layer nested inside another multiplies the count. The last
/// case pins the other end: one one-shot fault is one replay, counted by
/// the runner that replays it.
class RetryAmplificationTest : public ResilienceTest {
 protected:
  void SetUp() override {
    ResilienceTest::SetUp();
    tpch::Config config;
    config.scale_factor = 0.002;
    lineitem_ = tpch::GenerateLineitem(config);
    tables_.lineitem = &lineitem_;
  }

  /// Runs `query` once with every call at `site` failing with `kind`, and
  /// returns its record.
  QueryRecord RunUnder(FaultSite site, FaultKind kind, QueryFn query) {
    FaultRule rule;
    rule.site = site;
    rule.kind = kind;
    rule.probability = 1.0;
    injector_.AddRule(rule);
    SchedulerOptions opts;
    opts.backend_name = backends::kHandwritten;
    opts.num_clients = 1;
    QueryScheduler scheduler(opts);
    Device::Default().set_fault_injector(&injector_);
    scheduler.Submit("q6", std::move(query));
    scheduler.Drain();
    Device::Default().set_fault_injector(nullptr);
    const std::vector<QueryRecord> records = scheduler.Records();
    EXPECT_EQ(records.size(), 1u);
    return records.empty() ? QueryRecord() : records[0];
  }

  QueryFn Governed() {
    return plan::MakeGovernedQuery(plan::TpchQuery::kQ6, tables_);
  }

  storage::Table lineitem_;
  plan::TpchHostTables tables_;
  FaultInjector injector_{7};
};

TEST_F(RetryAmplificationTest, ServedQueryKernelFaultIsReplayedByTheScheduler) {
  auto backend = BackendRegistry::Instance().Create(backends::kHandwritten);
  plan::QueryShape shape;
  shape.query = plan::TpchQuery::kQ6;
  const auto prepared = plan::PrepareTpchQuery(
      shape, plan::MakeResident(backend->stream(), tables_, false),
      backends::kHandwritten);
  const QueryRecord r =
      RunUnder(FaultSite::kKernel, FaultKind::kTransientKernel,
               [prepared](Backend& b) { (void)prepared->Run(b); });
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.attempts, 3);
  EXPECT_EQ(r.error_class, ErrorClass::kTransient);
  EXPECT_EQ(injector_.stats().injected_total(), 3u);
}

TEST_F(RetryAmplificationTest, GovernedTransferFaultSpendsOneSliceBudget) {
  const QueryRecord r =
      RunUnder(FaultSite::kTransfer, FaultKind::kTransfer, Governed());
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.attempts, 1);
  EXPECT_EQ(r.error_class, ErrorClass::kFatal);
  EXPECT_NE(r.error.find("injected transfer fault"), std::string::npos)
      << r.error;
  EXPECT_EQ(injector_.stats().injected_total(), 4u);
}

TEST_F(RetryAmplificationTest, GovernedOomClimbsTheLadderOnce) {
  const QueryRecord r =
      RunUnder(FaultSite::kMalloc, FaultKind::kOutOfMemory, Governed());
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.oom_reclaims, 0);
  EXPECT_EQ(r.attempts, 1);
  EXPECT_EQ(r.error_class, ErrorClass::kFatal);
  // One fault per rung: 1, 2, 4, ..., 256 partitions.
  EXPECT_EQ(injector_.stats().injected_total(), 9u);
}

TEST_F(RetryAmplificationTest, GovernedKernelFaultSpendsOneSliceBudget) {
  const QueryRecord r = RunUnder(FaultSite::kKernel,
                                 FaultKind::kTransientKernel, Governed());
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.attempts, 1);
  EXPECT_EQ(r.error_class, ErrorClass::kFatal);
  EXPECT_EQ(injector_.stats().injected_total(), 4u);
}

TEST_F(RetryAmplificationTest, GovernedOneShotKernelFaultIsOneSliceReplay) {
  FaultRule rule;
  rule.site = FaultSite::kKernel;
  rule.kind = FaultKind::kTransientKernel;
  rule.at_call = 1;
  rule.max_fires = 1;
  injector_.AddRule(rule);
  const auto backend =
      BackendRegistry::Instance().Create(backends::kHandwritten);
  Device::Default().set_fault_injector(&injector_);
  plan::GovernedRunStats stats;
  const plan::TpchQueryResult result = plan::RunGoverned(
      plan::TpchQuery::kQ6, tables_, *backend, {}, &stats);
  Device::Default().set_fault_injector(nullptr);
  EXPECT_EQ(injector_.stats().injected_total(), 1u);
  EXPECT_EQ(stats.slice_replays, 1u);
  EXPECT_TRUE(plan::SameAnswer(plan::TpchQuery::kQ6, result,
                               plan::ReferenceAnswer(plan::TpchQuery::kQ6,
                                                     tables_)));
}

}  // namespace
}  // namespace core
