// Recovery policies of the scheduler and the serving tier. DESIGN.md §7
// names the one owner of each fault class; these are the budgets, breakers
// and counters the scheduler owns.
//
// RetryPolicy      the scheduler's whole-query retry budget and capped
//                  exponential backoff for transient faults.
// CircuitBreaker   per-backend health gate: N consecutive failures open the
//                  circuit; after a cooldown counted in *denied calls* (not
//                  wall time, so runs stay deterministic) the circuit turns
//                  half-open and admits every call until the first recorded
//                  result closes or re-opens it.
// ResilienceManager one breaker per (backend name, device ordinal) plus
//                  ResilienceStats counters. Each core::QueryScheduler owns
//                  one and reports it in its SchedulerReport; a
//                  serve::QueryServer gates admission through its
//                  scheduler's. Keying by device ordinal means one device's
//                  sticky DeviceLost opens only that device's breaker.
#ifndef CORE_RESILIENCE_H_
#define CORE_RESILIENCE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

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

/// Health gate for one backend. Thread-safe.
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

  /// Applies the outcome of an *external* health probe (the DeviceGroup's
  /// Probe kernel) as if it were this breaker's own half-open probe: success
  /// closes the circuit from any non-closed state (counted as a half-open
  /// then a close, so the stats read like the breaker's own probe cycle);
  /// failure re-opens it with a fresh cooldown. Closed circuits are
  /// untouched on success.
  void OnProbe(bool success);

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

const char* CircuitStateName(CircuitBreaker::State state);

/// Aggregate resilience counters (plain values, safe to copy around).
struct ResilienceStats {
  uint64_t faults_seen = 0;      ///< exceptions caught at a resilience boundary
  uint64_t retries = 0;          ///< replays after a transient fault
  uint64_t backoff_ns = 0;       ///< total backoff slept before retries
  uint64_t oom_reclaims = 0;     ///< TrimPool-then-retry recoveries
  uint64_t deadline_misses = 0;  ///< queries past their deadline
  uint64_t permanent_failures = 0;  ///< queries failed after all recovery
  uint64_t breaker_opens = 0;
  uint64_t breaker_half_opens = 0;
  uint64_t breaker_closes = 0;
  /// Circuits not closed right now, as "backend@ordinal" keys.
  std::vector<std::string> open_backends;
};

/// One CircuitBreaker per (backend name, device ordinal) + ResilienceStats
/// counters. Thread-safe; breakers are created on first touch.
class ResilienceManager {
 public:
  explicit ResilienceManager(CircuitBreakerOptions breaker_options = {})
      : breaker_options_(breaker_options) {}

  /// The breaker of `backend` on device ordinal `device`.
  bool Allow(const std::string& backend, int device);
  void RecordSuccess(const std::string& backend, int device);
  void RecordFailure(const std::string& backend, int device);
  CircuitBreaker::State StateOf(const std::string& backend, int device);

  /// Propagates a DeviceGroup probe outcome to EVERY breaker keyed to that
  /// ordinal ("*@device"): a healed device heals all its backends' breakers
  /// at once, a failed probe re-opens them. Returns the number of breakers
  /// touched. Breakers are only created by traffic, so a device nobody has
  /// used has none to sync — that is fine.
  size_t SyncDeviceProbe(int device, bool success);

  void NoteFaultSeen() { faults_seen_.fetch_add(1, relaxed); }
  void NoteRetry(uint64_t backoff_ns) {
    retries_.fetch_add(1, relaxed);
    backoff_ns_.fetch_add(backoff_ns, relaxed);
  }
  void NoteOomReclaim() { oom_reclaims_.fetch_add(1, relaxed); }
  void NoteDeadlineMiss() { deadline_misses_.fetch_add(1, relaxed); }
  void NotePermanentFailure() { permanent_failures_.fetch_add(1, relaxed); }

  ResilienceStats Snapshot() const;

 private:
  static constexpr std::memory_order relaxed = std::memory_order_relaxed;

  /// Composes the breaker key "backend@ordinal".
  static std::string Key(const std::string& backend, int device);

  CircuitBreaker& BreakerFor(const std::string& backend, int device);

  CircuitBreakerOptions breaker_options_;
  mutable std::mutex mu_;  // guards breakers_ (map shape only)
  std::unordered_map<std::string, std::unique_ptr<CircuitBreaker>> breakers_;
  std::atomic<uint64_t> faults_seen_{0};
  std::atomic<uint64_t> retries_{0};
  std::atomic<uint64_t> backoff_ns_{0};
  std::atomic<uint64_t> oom_reclaims_{0};
  std::atomic<uint64_t> deadline_misses_{0};
  std::atomic<uint64_t> permanent_failures_{0};
};

}  // namespace core

#endif  // CORE_RESILIENCE_H_
