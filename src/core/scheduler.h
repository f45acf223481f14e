// Multi-client query scheduler.
//
// The paper measures one operator or one query at a time; a serving system
// runs many concurrent clients against the same device. QueryScheduler
// models that setting: N client threads, each owning a private Backend
// instance (and therefore a private gpusim::Stream with its own simulated
// timeline), drain a bounded submission queue of query functors. Submit()
// blocks while the queue is full — backpressure toward the producers — and
// every completed query yields a QueryRecord with wall-clock and simulated
// latency. Report() aggregates throughput (queries/sec) and latency
// percentiles. A query's memory footprint, wall-clock deadline and tenant
// come with its submission (SubmitOptions).
//
// Each scheduler keeps the retry, reclaim and deadline counters of the
// queries it ran (ResilienceStats, in its SchedulerReport). It holds no
// circuit breaker: whoever serves through it (serve::QueryServer) owns one.
//
// Invariants:
//  * Error isolation: an exception thrown by one query marks only that
//    query's record as failed; the client thread keeps serving.
//  * Timing invariance: per-stream simulated time is a pure function of the
//    commands charged to the stream, so a query's simulated_ns is
//    bit-identical whether it ran alone or next to seven concurrent clients
//    (the cost model never observes host scheduling). tests/scheduler_test.cc
//    pins this golden property.
#ifndef CORE_SCHEDULER_H_
#define CORE_SCHEDULER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/backend.h"
#include "core/error.h"
#include "core/governor.h"
#include "core/metrics.h"
#include "core/resilience.h"
#include "gpusim/counters.h"

namespace core {

/// A unit of client work: runs against the client's private backend. The
/// functor must not retain the Backend& beyond the call. Queries may be
/// re-run after a transient or resource fault, so they must be idempotent
/// (recompute from their inputs; all TPC-H query fns are).
using QueryFn = std::function<void(Backend&)>;

struct SchedulerOptions {
  std::string backend_name;      ///< registry name (core/registry.h)
  unsigned num_clients = 1;      ///< concurrent clients, each with own stream
  size_t queue_capacity = 16;    ///< bound on queued (not yet running) queries
  RetryPolicy retry;             ///< transient-retry budget and backoff
  /// Memory admission control; nullptr = none (queries run unconditionally).
  /// Queries submitted with a footprint pass through MemoryGovernor::Admit
  /// on their client thread before executing, and the grant is released when
  /// they finish. Must outlive the scheduler.
  MemoryGovernor* governor = nullptr;
};

/// Outcome of Submit(): whether the query was admitted.
enum class ScheduledQueryStatus : uint8_t {
  kAccepted = 0,
  kShutDown = 1,  ///< scheduler stopped admitting; query was not enqueued
};

/// The tenant a query is submitted on behalf of (serving tier). Untagged
/// queries (id < 0) keep the legacy strict-FIFO behavior; tagged queries are
/// dequeued by weighted fair share: each tenant accrues 1/weight of virtual
/// service per executed query and the tenant furthest behind goes next, so a
/// weight-8 interactive tenant receives 4x the slots of a weight-2 batch
/// tenant under contention while an uncontended queue drains FIFO.
///
/// Starvation is bounded by an aging rule: a query queued longer than
/// `starvation_bound_ms` (when non-zero) jumps ahead of fair-share order —
/// oldest aged query first — so even a weight-1 best-effort tenant's wait is
/// bounded by its aging horizon, not by the flood's length.
struct TenantSpec {
  int id = -1;        ///< stable tenant key; < 0 = untagged (plain FIFO)
  std::string name;   ///< label carried into QueryRecord for reporting
  double weight = 1.0;             ///< fair-share weight, > 0
  uint64_t starvation_bound_ms = 0;  ///< aging horizon; 0 = no aging boost
};


/// Outcome of one query.
struct QueryRecord {
  uint64_t id = 0;           ///< submission order, starting at 0
  std::string label;
  unsigned client = 0;       ///< index of the client that ran it
  bool ok = false;
  std::string error;         ///< exception message when !ok
  uint64_t simulated_ns = 0; ///< stream-timeline delta of the query
  double wall_ms = 0;        ///< host wall-clock latency
  int attempts = 1;          ///< executions, > 1 when retried
  ErrorClass error_class = ErrorClass::kFatal;  ///< of last failure, when !ok
  uint64_t backoff_ns = 0;   ///< total backoff slept before retries
  int oom_reclaims = 0;      ///< TrimPool-then-retry recoveries
  bool deadline_exceeded = false;  ///< wall latency passed the deadline
  uint64_t footprint_bytes = 0;    ///< declared estimate (0 = ungoverned)
  uint64_t granted_bytes = 0;      ///< admission grant (may be partial)
  double admission_wait_ms = 0;    ///< time queued for admission
  bool admission_queued = false;   ///< waited in the governor's FIFO queue
  bool admission_rejected = false; ///< rejected: query never ran
  int tenant_id = -1;              ///< TenantSpec::id (-1 = untagged)
  std::string tenant;              ///< TenantSpec::name
  double queue_wait_ms = 0;        ///< submit -> dequeue (scheduler queue)
  bool aged = false;               ///< dequeued via the starvation aging rule
};

/// Per-submission options. Zero-initialized fields reproduce the plain
/// Submit exactly.
struct SubmitOptions {
  uint64_t footprint_bytes = 0;  ///< memory-admission estimate; 0 = ungoverned
  /// Wall-clock budget of the query, 0 = none. A query past its deadline
  /// gets no further retry attempts and its record is flagged; a query that
  /// finishes late but ok keeps ok = true.
  uint64_t deadline_ms = 0;
  TenantSpec tenant;
  /// Invoked on the client thread with the finalized record — including
  /// admission rejections, which never execute. Runs after the record is
  /// visible in Records(). Must not call back into the scheduler.
  std::function<void(const QueryRecord&)> on_complete;
};

struct SchedulerReport {
  size_t completed = 0;   ///< queries that ran (ok or failed)
  size_t failed = 0;
  double wall_seconds = 0;        ///< first Submit -> last completion
  double queries_per_sec = 0;     ///< completed / wall_seconds
  LatencySummary wall_ms;         ///< percentiles over wall-clock latency
  LatencySummary simulated_ms;    ///< percentiles over simulated latency
  std::vector<uint64_t> client_simulated_ns;  ///< per-client timeline totals
  ResilienceStats resilience;     ///< retry/reclaim/deadline counters
  uint64_t device_peak_bytes = 0;      ///< high-water of live+reserved bytes
  uint64_t device_reserved_bytes = 0;  ///< reservation gauge at report time
  uint64_t bytes_h2d_encoded = 0;   ///< h2d bytes that crossed compressed
  uint64_t bytes_saved_vs_raw = 0;  ///< transfer bytes encoding saved
  GovernorStats governor;  ///< admission stats (zeros without a governor)
};

/// Admits queries from any number of producer threads and executes them on
/// `num_clients` concurrent client threads. Thread-safe.
class QueryScheduler {
 public:
  /// Spawns the client threads, each bound to the calling thread's current
  /// device (gpusim::Device::Current()), so every client's backend runs
  /// there. Throws std::out_of_range for an unknown backend.
  explicit QueryScheduler(SchedulerOptions options);

  /// Drains outstanding work and joins the clients.
  ~QueryScheduler();

  QueryScheduler(const QueryScheduler&) = delete;
  QueryScheduler& operator=(const QueryScheduler&) = delete;

  /// Enqueues a query, blocking while the queue is at capacity
  /// (backpressure). Returns kAccepted and (optionally) the assigned id, or
  /// kShutDown when the scheduler has stopped admitting — a typed status, so
  /// producers racing Shutdown() can tell "queue closed" from a failure.
  ScheduledQueryStatus Submit(std::string label, QueryFn query,
                              uint64_t* id = nullptr);

  /// Full-control Submit: memory footprint, per-query deadline, tenant
  /// fair-share tag, and a completion callback (see SubmitOptions). Tagged
  /// queries are dequeued by weighted fair share with aging instead of FIFO.
  ScheduledQueryStatus Submit(std::string label, QueryFn query,
                              SubmitOptions submit, uint64_t* id = nullptr);

  /// Non-blocking Submit: returns false (and does not enqueue) when the
  /// queue is full or the scheduler is shut down.
  bool TrySubmit(std::string label, QueryFn query, uint64_t* id = nullptr);

  /// Blocks until the queue is empty and no query is in flight.
  void Drain();

  /// Stops admission, drains outstanding queries, and joins the client
  /// threads. Idempotent; called by the destructor.
  void Shutdown();

  /// Number of queries currently queued (not yet picked up by a client).
  size_t queue_depth() const;

  /// Completed-query records in submission-id order.
  std::vector<QueryRecord> Records() const;

  /// Aggregate throughput/latency over everything completed so far.
  SchedulerReport Report() const;

  unsigned num_clients() const { return options_.num_clients; }
  const SchedulerOptions& options() const { return options_; }

 private:
  struct Item {
    uint64_t id = 0;
    std::string label;
    QueryFn fn;
    uint64_t footprint_bytes = 0;
    uint64_t deadline_ms = 0;  ///< 0 = none
    TenantSpec tenant;
    std::function<void(const QueryRecord&)> on_complete;
    std::chrono::steady_clock::time_point enqueued;
  };

  /// Picks the queue index to dequeue next (guarded by mu_): aged queries
  /// first (oldest submission id), then the tagged/untagged item whose
  /// tenant trails in virtual service, FIFO within a tenant and on ties.
  size_t PickIndexLocked(std::chrono::steady_clock::time_point now);

  void ClientLoop(unsigned client_index);

  SchedulerOptions options_;
  gpusim::Device* device_ = nullptr;  ///< where every client runs

  // The ResilienceStats counters, bumped by the client threads.
  std::atomic<uint64_t> faults_seen_{0};
  std::atomic<uint64_t> retries_{0};
  std::atomic<uint64_t> backoff_ns_{0};
  std::atomic<uint64_t> oom_reclaims_{0};
  std::atomic<uint64_t> deadline_misses_{0};
  std::atomic<uint64_t> permanent_failures_{0};

  mutable std::mutex mu_;  ///< guards queue_, in_flight_, stop_, timestamps
  std::condition_variable queue_not_full_;
  std::condition_variable queue_not_empty_;
  std::condition_variable drained_;
  std::deque<Item> queue_;
  size_t in_flight_ = 0;
  bool stop_ = false;
  uint64_t next_id_ = 0;
  /// Weighted fair share state (guarded by mu_): virtual service consumed
  /// per tenant id, and the service level of the most recent dequeue. A
  /// tenant going from idle to backlogged is clamped up to virtual_time_ so
  /// idle periods bank no credit (start-time fair queuing).
  std::unordered_map<int, double> tenant_service_;
  std::unordered_map<int, size_t> tenant_queued_;  ///< queued items per tenant
  double virtual_time_ = 0;
  bool saw_submit_ = false;
  std::chrono::steady_clock::time_point first_submit_;
  std::chrono::steady_clock::time_point last_complete_;

  mutable std::mutex records_mu_;
  std::vector<QueryRecord> records_;

  /// Per-client simulated-timeline totals, padded against false sharing
  /// (clients bump their own cell after every query).
  std::vector<std::unique_ptr<gpusim::PaddedCounter>> client_sim_ns_;

  std::vector<std::thread> clients_;
};

}  // namespace core

#endif  // CORE_SCHEDULER_H_
