#include "core/governor.h"

#include <algorithm>
#include <chrono>

#include "core/metrics.h"

namespace core {

MemoryGovernor::MemoryGovernor(GovernorOptions options)
    : device_(options.device != nullptr ? options.device
                                        : &gpusim::Device::Default()),
      options_(options) {}

MemoryGovernor::~MemoryGovernor() { Shutdown(); }

AdmissionTicket MemoryGovernor::Admit(uint64_t stream_id,
                                      uint64_t footprint_bytes,
                                      uint64_t timeout_ms) {
  AdmissionTicket ticket;
  ticket.requested_bytes = footprint_bytes;

  // Single-grant cap: an oversized footprint gets the cap and must
  // partition; recomputed per call because capacity is settable.
  const double cap_f = options_.max_grant_fraction *
                       static_cast<double>(device_->memory_capacity());
  const uint64_t cap = static_cast<uint64_t>(std::max(0.0, cap_f));
  const uint64_t want = std::min<uint64_t>(footprint_bytes, cap);

  const auto start = std::chrono::steady_clock::now();
  std::unique_lock<std::mutex> lock(mu_);
  if (shutdown_) {
    ++rejected_;
    return ticket;
  }

  // Fast path: nobody queued ahead of us and the reservation fits now.
  // TryReserve is called under mu_ — the device never calls back into the
  // governor, so there is no lock cycle, and holding mu_ keeps the FIFO
  // decision sequence deterministic for a fixed submission order.
  if (next_ticket_ == head_ticket_ &&
      device_->TryReserve(stream_id, want)) {
    ticket.decision = AdmissionDecision::kGranted;
    ticket.granted_bytes = want;
    ++granted_;
    if (ticket.partial()) ++partial_grants_;
    return ticket;
  }

  // Queue: strict FIFO — only the head waiter may try to reserve, so later
  // arrivals can never overtake an earlier one into a freshly-freed gap.
  ticket.queued = true;
  const uint64_t my = next_ticket_++;
  const uint64_t budget_ms =
      timeout_ms != 0 ? timeout_ms : options_.queue_timeout_ms;
  const auto deadline = start + std::chrono::milliseconds(budget_ms);

  const auto advance_head = [&] {
    ++head_ticket_;
    while (abandoned_.erase(head_ticket_) != 0) ++head_ticket_;
    cv_.notify_all();
  };

  bool admitted = false;
  for (;;) {
    if (shutdown_) break;
    if (head_ticket_ == my && device_->TryReserve(stream_id, want)) {
      admitted = true;
      break;
    }
    if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
      // One last attempt if memory freed up exactly at the deadline.
      if (!shutdown_ && head_ticket_ == my &&
          device_->TryReserve(stream_id, want)) {
        admitted = true;
      }
      break;
    }
  }

  const double waited_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  if (admitted) {
    advance_head();
    ticket.decision = AdmissionDecision::kQueuedThenGranted;
    ticket.granted_bytes = want;
    ticket.wait_ms = waited_ms;
    ++queued_;
    if (ticket.partial()) ++partial_grants_;
    wait_samples_ms_.push_back(waited_ms);
  } else {
    if (head_ticket_ == my) {
      advance_head();
    } else {
      abandoned_.insert(my);
    }
    ticket.wait_ms = waited_ms;
    ++rejected_;
  }
  return ticket;
}

void MemoryGovernor::Release(uint64_t stream_id) {
  device_->ReleaseReservation(stream_id);
  std::lock_guard<std::mutex> lock(mu_);
  ++released_;
  cv_.notify_all();
}

void MemoryGovernor::Shutdown() {
  std::lock_guard<std::mutex> lock(mu_);
  shutdown_ = true;
  cv_.notify_all();
}

size_t MemoryGovernor::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<size_t>(next_ticket_ - head_ticket_) - abandoned_.size();
}

GovernorStats MemoryGovernor::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  GovernorStats s;
  s.granted = granted_;
  s.queued = queued_;
  s.rejected = rejected_;
  s.partial_grants = partial_grants_;
  s.released = released_;
  std::vector<double> sorted = wait_samples_ms_;
  std::sort(sorted.begin(), sorted.end());
  s.wait_p50_ms = PercentileOfSorted(sorted, 0.50);
  s.wait_p95_ms = PercentileOfSorted(sorted, 0.95);
  s.wait_max_ms = sorted.empty() ? 0 : sorted.back();
  return s;
}

}  // namespace core
