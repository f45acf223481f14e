#include "core/resilience.h"

namespace core {

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

}  // namespace core
