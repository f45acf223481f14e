// Recovery policies of the scheduler and the serving tier. DESIGN.md §7
// names the one owner of each fault class; these are its budgets, its
// breaker and its counters.
//
// RetryPolicy      the scheduler's whole-query retry budget and capped
//                  exponential backoff for transient faults.
// CircuitBreaker   a health gate: N consecutive failures open the circuit;
//                  after a cooldown counted in *denied calls* (not wall
//                  time, so runs stay deterministic) the circuit turns
//                  half-open and admits every call until the first recorded
//                  result closes or re-opens it. Each serve::QueryServer
//                  owns one, for the one backend on the one device it
//                  serves from.
// ResilienceStats  the recovery counters a core::QueryScheduler keeps for
//                  the queries it ran and reports in its SchedulerReport.
#ifndef CORE_RESILIENCE_H_
#define CORE_RESILIENCE_H_

#include <cstdint>
#include <mutex>

namespace core {

/// Retry budget + backoff curve for one scheduled query.
struct RetryPolicy {
  /// Total attempts including the first; 1 disables retry.
  int max_attempts = 3;
  /// Backoff before retry k (1-based) is min(base << (k-1), cap).
  uint64_t backoff_base_ns = 1'000'000;  // 1 ms
  uint64_t backoff_cap_ns = 8'000'000;   // 8 ms

  /// Backoff to sleep after the `failed_attempts`-th failed attempt.
  uint64_t BackoffNs(int failed_attempts) const {
    if (failed_attempts < 1 || backoff_base_ns == 0) return 0;
    uint64_t backoff = backoff_base_ns;
    for (int i = 1; i < failed_attempts && backoff < backoff_cap_ns; ++i) {
      backoff <<= 1;
    }
    return backoff < backoff_cap_ns ? backoff : backoff_cap_ns;
  }
};

struct CircuitBreakerOptions {
  /// Consecutive failures that open the circuit.
  int failure_threshold = 3;
  /// Denied Allow() calls before the circuit turns half-open. Counted in
  /// calls rather than wall time so chaos runs are deterministic.
  int open_cooldown_checks = 16;
};

/// Health gate for one backend on one device. Thread-safe.
class CircuitBreaker {
 public:
  enum class State : uint8_t { kClosed = 0, kOpen = 1, kHalfOpen = 2 };

  explicit CircuitBreaker(CircuitBreakerOptions options = {})
      : options_(options) {}

  /// True if a call may be routed to this backend right now. While open,
  /// each denial counts toward the cooldown; the call that exhausts it turns
  /// the circuit half-open and is admitted. While half-open every call is
  /// admitted until RecordSuccess or RecordFailure settles the circuit.
  bool Allow();

  void RecordSuccess();
  void RecordFailure();

  State state() const;
  uint64_t opens() const;
  uint64_t half_opens() const;
  uint64_t closes() const;

 private:
  mutable std::mutex mu_;
  CircuitBreakerOptions options_;
  State state_ = State::kClosed;
  int consecutive_failures_ = 0;
  int denied_ = 0;
  uint64_t opens_ = 0;
  uint64_t half_opens_ = 0;
  uint64_t closes_ = 0;
};

/// A scheduler's recovery counters (plain values, safe to copy around).
struct ResilienceStats {
  uint64_t faults_seen = 0;      ///< exceptions caught at a resilience boundary
  uint64_t retries = 0;          ///< replays after a transient fault
  uint64_t backoff_ns = 0;       ///< total backoff slept before retries
  uint64_t oom_reclaims = 0;     ///< TrimPool-then-retry recoveries
  uint64_t deadline_misses = 0;  ///< queries past their deadline
  uint64_t permanent_failures = 0;  ///< queries failed after all recovery
};

}  // namespace core

#endif  // CORE_RESILIENCE_H_
