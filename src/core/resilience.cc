#include "core/resilience.h"

namespace core {

const char* CircuitStateName(CircuitBreaker::State state) {
  switch (state) {
    case CircuitBreaker::State::kClosed:
      return "closed";
    case CircuitBreaker::State::kOpen:
      return "open";
    case CircuitBreaker::State::kHalfOpen:
      return "half_open";
  }
  return "unknown";
}

bool CircuitBreaker::Allow() {
  std::lock_guard<std::mutex> lock(mu_);
  switch (state_) {
    case State::kClosed:
    case State::kHalfOpen:
      return true;
    case State::kOpen:
      if (++denied_ >= options_.open_cooldown_checks) {
        state_ = State::kHalfOpen;
        ++half_opens_;
        return true;  // this call is the probe
      }
      return false;
  }
  return true;
}

void CircuitBreaker::RecordSuccess() {
  std::lock_guard<std::mutex> lock(mu_);
  consecutive_failures_ = 0;
  if (state_ == State::kHalfOpen) {
    state_ = State::kClosed;
    ++closes_;
  }
}

void CircuitBreaker::RecordFailure() {
  std::lock_guard<std::mutex> lock(mu_);
  switch (state_) {
    case State::kClosed:
      if (++consecutive_failures_ >= options_.failure_threshold) {
        state_ = State::kOpen;
        denied_ = 0;
        ++opens_;
      }
      break;
    case State::kHalfOpen:
      // Probe failed: back to open for a fresh cooldown.
      state_ = State::kOpen;
      denied_ = 0;
      ++opens_;
      break;
    case State::kOpen:
      // In-flight work failing while open neither extends nor shortens the
      // cooldown.
      break;
  }
}

void CircuitBreaker::OnProbe(bool success) {
  std::lock_guard<std::mutex> lock(mu_);
  if (success) {
    if (state_ != State::kClosed) {
      // Count the external probe like the breaker's own half-open cycle so
      // Snapshot()'s half_opens/closes stay an honest probe ledger.
      if (state_ == State::kOpen) ++half_opens_;
      state_ = State::kClosed;
      ++closes_;
    }
    consecutive_failures_ = 0;
  } else if (state_ != State::kOpen) {
    state_ = State::kOpen;
    denied_ = 0;
    ++opens_;
  }
}

CircuitBreaker::State CircuitBreaker::state() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_;
}

uint64_t CircuitBreaker::opens() const {
  std::lock_guard<std::mutex> lock(mu_);
  return opens_;
}

uint64_t CircuitBreaker::half_opens() const {
  std::lock_guard<std::mutex> lock(mu_);
  return half_opens_;
}

uint64_t CircuitBreaker::closes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closes_;
}

std::string ResilienceManager::Key(const std::string& backend, int device) {
  return backend + "@" + std::to_string(device);
}

CircuitBreaker& ResilienceManager::BreakerFor(const std::string& backend,
                                              int device) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = breakers_[Key(backend, device)];
  if (!slot) slot = std::make_unique<CircuitBreaker>(breaker_options_);
  return *slot;
}

bool ResilienceManager::Allow(const std::string& backend, int device) {
  return BreakerFor(backend, device).Allow();
}

void ResilienceManager::RecordSuccess(const std::string& backend, int device) {
  BreakerFor(backend, device).RecordSuccess();
}

void ResilienceManager::RecordFailure(const std::string& backend, int device) {
  BreakerFor(backend, device).RecordFailure();
}

CircuitBreaker::State ResilienceManager::StateOf(const std::string& backend,
                                                 int device) {
  return BreakerFor(backend, device).state();
}

size_t ResilienceManager::SyncDeviceProbe(int device, bool success) {
  std::string suffix = "@";
  suffix += std::to_string(device);
  std::vector<CircuitBreaker*> matched;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [key, breaker] : breakers_) {
      if (key.size() > suffix.size() &&
          key.compare(key.size() - suffix.size(), suffix.size(), suffix) ==
              0) {
        matched.push_back(breaker.get());
      }
    }
  }
  for (CircuitBreaker* breaker : matched) breaker->OnProbe(success);
  return matched.size();
}

ResilienceStats ResilienceManager::Snapshot() const {
  ResilienceStats stats;
  stats.faults_seen = faults_seen_.load(relaxed);
  stats.retries = retries_.load(relaxed);
  stats.backoff_ns = backoff_ns_.load(relaxed);
  stats.oom_reclaims = oom_reclaims_.load(relaxed);
  stats.deadline_misses = deadline_misses_.load(relaxed);
  stats.permanent_failures = permanent_failures_.load(relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, breaker] : breakers_) {
    stats.breaker_opens += breaker->opens();
    stats.breaker_half_opens += breaker->half_opens();
    stats.breaker_closes += breaker->closes();
    if (breaker->state() != CircuitBreaker::State::kClosed) {
      stats.open_backends.push_back(name);
    }
  }
  return stats;
}

}  // namespace core
