// Device-memory admission control.
//
// The paper's whole-query evaluation assumes every working set fits in GPU
// memory; a serving system cannot. MemoryGovernor sits between query
// submission and execution: a query declares its estimated footprint (from
// the plan cost estimator's materialization sizes), and the governor grants
// admission immediately, queues it FIFO until memory frees up, or rejects it
// when the deadline-aware timeout expires. A grant is backed by a
// gpusim::Device per-stream reservation, so an admitted query's memory
// cannot be claimed by a concurrent client between admission and
// allocation.
//
// Admission state machine (one query):
//
//   Admit(footprint) ──grantable now──────────────▶ kGranted
//        │
//        └─not grantable──▶ [FIFO queue] ──memory released──▶
//                               │            kQueuedThenGranted
//                               └─timeout / shutdown─▶ kRejected
//
// A footprint larger than the single-query cap (max_grant_fraction x
// capacity) receives a *partial* grant of the cap: the caller is expected to
// degrade to partitioned execution within the granted budget
// (plan/partition.h) rather than be refused outright.
//
// Determinism: the queue is strict FIFO — only the head waiter may try to
// reserve, so later arrivals can never overtake — which makes the sequence
// of admission decisions a pure function of the submission order and the
// byte amounts involved (wait *times* vary with host scheduling; decisions
// do not).
#ifndef CORE_GOVERNOR_H_
#define CORE_GOVERNOR_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <unordered_set>
#include <vector>

#include "gpusim/device.h"

namespace core {

struct GovernorOptions {
  /// Device whose capacity is governed; nullptr = gpusim::Device::Default().
  gpusim::Device* device = nullptr;
  /// Upper bound on time spent queued before rejection. A query with a
  /// tighter deadline passes the remaining budget to Admit() instead.
  uint64_t queue_timeout_ms = 30'000;
  /// Cap on a single grant as a fraction of device capacity. Queries with
  /// larger footprints get a partial grant and must partition.
  double max_grant_fraction = 1.0;
};

enum class AdmissionDecision : uint8_t {
  kGranted = 0,         ///< memory reserved without queuing
  kQueuedThenGranted,   ///< waited in the FIFO queue, then reserved
  kRejected,            ///< timed out (or shut down) while queued
};

/// Outcome of one Admit() call.
struct AdmissionTicket {
  AdmissionDecision decision = AdmissionDecision::kRejected;
  uint64_t requested_bytes = 0;
  /// Reserved bytes; < requested when the single-grant cap forced a partial
  /// grant (the query must partition to fit). 0 when rejected.
  uint64_t granted_bytes = 0;
  double wait_ms = 0;  ///< time spent queued (0 for immediate grants)
  /// True whenever the request entered the FIFO queue — including requests
  /// that were later rejected, so rejection reports can tell "queued then
  /// timed out" from "refused at shutdown".
  bool queued = false;

  bool admitted() const { return decision != AdmissionDecision::kRejected; }
  bool partial() const {
    return admitted() && granted_bytes < requested_bytes;
  }
};

/// Aggregate admission statistics.
struct GovernorStats {
  uint64_t granted = 0;          ///< immediate grants
  uint64_t queued = 0;           ///< grants that waited in the queue
  uint64_t rejected = 0;         ///< queue timeouts
  uint64_t partial_grants = 0;   ///< grants capped below the request
  uint64_t released = 0;         ///< Release() calls
  double wait_p50_ms = 0;        ///< over queued-then-granted waits
  double wait_p95_ms = 0;
  double wait_max_ms = 0;
};

/// Grants device-memory admission to queries. Thread-safe.
class MemoryGovernor {
 public:
  explicit MemoryGovernor(GovernorOptions options = {});
  ~MemoryGovernor();

  MemoryGovernor(const MemoryGovernor&) = delete;
  MemoryGovernor& operator=(const MemoryGovernor&) = delete;

  /// Requests admission for a query running on `stream_id` with an estimated
  /// footprint. Blocks (FIFO) until the reservation succeeds or the timeout
  /// expires. `timeout_ms` of 0 uses options.queue_timeout_ms; a query with
  /// a deadline passes its remaining budget. On success the device carries a
  /// reservation for `stream_id` that the query's allocations draw from
  /// (gpusim::Device::ReservationScope).
  AdmissionTicket Admit(uint64_t stream_id, uint64_t footprint_bytes,
                        uint64_t timeout_ms = 0);

  /// Releases the stream's reservation and wakes queued waiters. Must be
  /// called exactly once per admitted ticket.
  void Release(uint64_t stream_id);

  /// Stops admitting: queued waiters are rejected, later Admit() calls
  /// reject immediately. Used by scheduler shutdown.
  void Shutdown();

  GovernorStats Stats() const;

  /// Number of requests currently waiting in the FIFO queue.
  size_t queue_depth() const;

  gpusim::Device& device() const { return *device_; }

 private:
  gpusim::Device* device_;
  GovernorOptions options_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  uint64_t next_ticket_ = 0;  ///< FIFO order: next queue position to issue
  uint64_t head_ticket_ = 0;  ///< position currently allowed to reserve
  /// Tickets whose waiters timed out before reaching the head; head
  /// advancement skips them so the queue cannot stall on a ghost.
  std::unordered_set<uint64_t> abandoned_;
  bool shutdown_ = false;

  // Stats (guarded by mu_).
  uint64_t granted_ = 0;
  uint64_t queued_ = 0;
  uint64_t rejected_ = 0;
  uint64_t partial_grants_ = 0;
  uint64_t released_ = 0;
  std::vector<double> wait_samples_ms_;
};

}  // namespace core

#endif  // CORE_GOVERNOR_H_
