#include "core/scheduler.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "core/metrics.h"
#include "core/registry.h"
#include "gpusim/device.h"

namespace core {
namespace {

/// TrimPool-and-re-run recoveries one query gets for OutOfDeviceMemory.
constexpr int kOomReclaimsPerQuery = 1;

}  // namespace

QueryScheduler::QueryScheduler(SchedulerOptions options)
    : options_(std::move(options)) {
  if (options_.num_clients == 0) options_.num_clients = 1;
  if (options_.queue_capacity == 0) options_.queue_capacity = 1;

  // Probe the backend on the construction thread: surfaces unknown-name
  // errors eagerly and finds the device the clients' backends land on.
  auto probe = BackendRegistry::Instance().Create(options_.backend_name);
  device_ = &probe->stream().device();

  client_sim_ns_.reserve(options_.num_clients);
  for (unsigned i = 0; i < options_.num_clients; ++i) {
    client_sim_ns_.push_back(std::make_unique<gpusim::PaddedCounter>());
  }
  clients_.reserve(options_.num_clients);
  for (unsigned i = 0; i < options_.num_clients; ++i) {
    clients_.emplace_back([this, i] { ClientLoop(i); });
  }
}

QueryScheduler::~QueryScheduler() { Shutdown(); }

ScheduledQueryStatus QueryScheduler::Submit(std::string label, QueryFn query,
                                            uint64_t* id) {
  return Submit(std::move(label), std::move(query), SubmitOptions{}, id);
}

ScheduledQueryStatus QueryScheduler::Submit(std::string label, QueryFn query,
                                            SubmitOptions submit,
                                            uint64_t* id) {
  std::unique_lock<std::mutex> lock(mu_);
  queue_not_full_.wait(lock, [&] {
    return stop_ || queue_.size() < options_.queue_capacity;
  });
  if (stop_) return ScheduledQueryStatus::kShutDown;
  if (!saw_submit_) {
    saw_submit_ = true;
    first_submit_ = std::chrono::steady_clock::now();
  }
  const uint64_t assigned = next_id_++;
  if (id != nullptr) *id = assigned;
  Item item;
  item.id = assigned;
  item.label = std::move(label);
  item.fn = std::move(query);
  item.footprint_bytes = submit.footprint_bytes;
  item.deadline_ms = submit.deadline_ms;
  item.tenant = std::move(submit.tenant);
  item.on_complete = std::move(submit.on_complete);
  item.enqueued = std::chrono::steady_clock::now();
  if (item.tenant.id >= 0 && item.tenant.weight <= 0) item.tenant.weight = 1;
  // A tenant entering (or re-entering) the backlog starts at the current
  // virtual time: idle periods bank no credit with which to flood later. A
  // tenant that already has queued work keeps its (lagging) service level —
  // that lag is exactly its earned share.
  if (item.tenant.id >= 0) {
    auto [it, inserted] =
        tenant_service_.try_emplace(item.tenant.id, virtual_time_);
    if (!inserted && tenant_queued_[item.tenant.id] == 0) {
      it->second = std::max(it->second, virtual_time_);
    }
    ++tenant_queued_[item.tenant.id];
  }
  queue_.push_back(std::move(item));
  queue_not_empty_.notify_one();
  return ScheduledQueryStatus::kAccepted;
}

bool QueryScheduler::TrySubmit(std::string label, QueryFn query,
                               uint64_t* id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (stop_ || queue_.size() >= options_.queue_capacity) return false;
  if (!saw_submit_) {
    saw_submit_ = true;
    first_submit_ = std::chrono::steady_clock::now();
  }
  const uint64_t assigned = next_id_++;
  if (id != nullptr) *id = assigned;
  Item item;
  item.id = assigned;
  item.label = std::move(label);
  item.fn = std::move(query);
  item.enqueued = std::chrono::steady_clock::now();
  queue_.push_back(std::move(item));
  queue_not_empty_.notify_one();
  return true;
}

size_t QueryScheduler::PickIndexLocked(
    std::chrono::steady_clock::time_point now) {
  // Aging first: any tagged query past its starvation bound wins outright,
  // oldest submission first, so a flood can delay a low-weight tenant by at
  // most its aging horizon plus one in-flight query.
  size_t aged = queue_.size();
  for (size_t i = 0; i < queue_.size(); ++i) {
    const Item& it = queue_[i];
    if (it.tenant.id < 0 || it.tenant.starvation_bound_ms == 0) continue;
    const double waited_ms =
        std::chrono::duration<double, std::milli>(now - it.enqueued).count();
    if (waited_ms <= static_cast<double>(it.tenant.starvation_bound_ms)) {
      continue;
    }
    if (aged == queue_.size() || it.id < queue_[aged].id) aged = i;
  }
  if (aged < queue_.size()) return aged;

  // Weighted fair share: the queued tenant with the least virtual service
  // goes next; untagged queries ride along as a shared weight-1 tenant.
  // Within a tenant — and on exact service ties — the lowest submission id
  // wins, which degenerates to strict FIFO when everything is untagged.
  size_t best = 0;
  double best_service = 0;
  for (size_t i = 0; i < queue_.size(); ++i) {
    const Item& it = queue_[i];
    const auto found = tenant_service_.find(it.tenant.id);
    const double service =
        found != tenant_service_.end() ? found->second : virtual_time_;
    if (i == 0 || service < best_service ||
        (service == best_service && it.id < queue_[best].id)) {
      best = i;
      best_service = service;
    }
  }
  return best;
}

void QueryScheduler::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  drained_.wait(lock, [&] { return queue_.empty() && in_flight_ == 0; });
}

void QueryScheduler::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_ && clients_.empty()) return;
    stop_ = true;
  }
  queue_not_empty_.notify_all();
  queue_not_full_.notify_all();
  for (auto& t : clients_) t.join();
  clients_.clear();
}

size_t QueryScheduler::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

std::vector<QueryRecord> QueryScheduler::Records() const {
  std::vector<QueryRecord> out;
  {
    std::lock_guard<std::mutex> lock(records_mu_);
    out = records_;
  }
  std::sort(out.begin(), out.end(),
            [](const QueryRecord& a, const QueryRecord& b) {
              return a.id < b.id;
            });
  return out;
}

SchedulerReport QueryScheduler::Report() const {
  SchedulerReport r;
  std::vector<double> wall, sim;
  {
    std::lock_guard<std::mutex> lock(records_mu_);
    r.completed = records_.size();
    wall.reserve(records_.size());
    sim.reserve(records_.size());
    for (const QueryRecord& q : records_) {
      if (!q.ok) ++r.failed;
      wall.push_back(q.wall_ms);
      sim.push_back(static_cast<double>(q.simulated_ns) / 1e6);
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (saw_submit_ && r.completed > 0) {
      r.wall_seconds =
          std::chrono::duration<double>(last_complete_ - first_submit_)
              .count();
    }
  }
  if (r.wall_seconds > 0) {
    r.queries_per_sec = static_cast<double>(r.completed) / r.wall_seconds;
  }
  r.wall_ms = SummarizeLatencies(std::move(wall));
  r.simulated_ms = SummarizeLatencies(std::move(sim));
  r.client_simulated_ns.reserve(client_sim_ns_.size());
  for (const auto& c : client_sim_ns_) {
    r.client_simulated_ns.push_back(c->load());
  }
  r.resilience.faults_seen = faults_seen_.load();
  r.resilience.retries = retries_.load();
  r.resilience.backoff_ns = backoff_ns_.load();
  r.resilience.oom_reclaims = oom_reclaims_.load();
  r.resilience.deadline_misses = deadline_misses_.load();
  r.resilience.permanent_failures = permanent_failures_.load();
  if (device_ != nullptr) {
    r.device_peak_bytes = device_->peak_bytes();
    r.device_reserved_bytes = device_->reserved_bytes();
    const gpusim::CounterSnapshot counters = device_->Snapshot();
    r.bytes_h2d_encoded = counters.bytes_h2d_encoded;
    r.bytes_saved_vs_raw = counters.bytes_saved_vs_raw;
  }
  if (options_.governor != nullptr) r.governor = options_.governor->Stats();
  return r;
}

void QueryScheduler::ClientLoop(unsigned client_index) {
  // Each client owns a full backend instance — and with it a private Stream
  // whose simulated timeline is independent of every other client's — on
  // the device the probe found: the one current where the scheduler was
  // built. The guard binds this thread to it for the thread's lifetime.
  gpusim::Device::DeviceGuard guard(*device_);
  std::unique_ptr<Backend> backend =
      BackendRegistry::Instance().Create(options_.backend_name);

  for (;;) {
    Item item;
    double queue_wait_ms = 0;
    bool aged = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_not_empty_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to serve
      const auto now = std::chrono::steady_clock::now();
      const size_t pick = PickIndexLocked(now);
      item = std::move(queue_[pick]);
      queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(pick));
      queue_wait_ms =
          std::chrono::duration<double, std::milli>(now - item.enqueued)
              .count();
      aged = item.tenant.id >= 0 && item.tenant.starvation_bound_ms > 0 &&
             queue_wait_ms > static_cast<double>(item.tenant.starvation_bound_ms);
      if (item.tenant.id >= 0) {
        // Charge 1/weight of virtual service for this slot and advance the
        // global virtual time to the service level being served (start-time
        // fair queuing): newly backlogged tenants join at this level.
        auto queued_it = tenant_queued_.find(item.tenant.id);
        if (queued_it != tenant_queued_.end() && queued_it->second > 0) {
          --queued_it->second;
        }
        double& service = tenant_service_[item.tenant.id];
        virtual_time_ = std::max(virtual_time_, service);
        service += 1.0 / item.tenant.weight;
      }
      ++in_flight_;
      queue_not_full_.notify_one();
    }

    QueryRecord record;
    record.id = item.id;
    record.label = std::move(item.label);
    record.client = client_index;
    record.tenant_id = item.tenant.id;
    record.tenant = item.tenant.name;
    record.queue_wait_ms = queue_wait_ms;
    record.aged = aged;
    record.footprint_bytes = item.footprint_bytes;
    const uint64_t deadline_ms = item.deadline_ms;
    const RetryPolicy& retry = options_.retry;
    const uint64_t sim_start = backend->stream().now_ns();
    const auto wall_start = std::chrono::steady_clock::now();

    // Memory admission: footprint-declaring queries pass through the
    // governor on this thread before they run; a rejected query fails as a
    // resource error without ever executing. The grant lives on the client's
    // stream as a device reservation until the query finishes.
    MemoryGovernor* governor =
        item.footprint_bytes > 0 ? options_.governor : nullptr;
    bool admitted = true;
    if (governor != nullptr) {
      const AdmissionTicket ticket = governor->Admit(
          backend->stream().id(), item.footprint_bytes, deadline_ms);
      record.granted_bytes = ticket.granted_bytes;
      record.admission_wait_ms = ticket.wait_ms;
      record.admission_queued = ticket.queued;
      if (!ticket.admitted()) {
        admitted = false;
        record.ok = false;
        record.admission_rejected = true;
        record.error = "memory admission rejected (queue timeout)";
        record.error_class = ErrorClass::kResource;
        ++permanent_failures_;
      }
    }

    // Recovery loop: transient faults retry with capped exponential backoff,
    // OutOfDeviceMemory gets one TrimPool + re-run, fatal errors fail the
    // query immediately. Queries are idempotent (QueryFn contract), so a
    // replay recomputes from its inputs. Runners that own a fault class
    // themselves (DESIGN.md §7) throw kFatal once their budget is spent, so
    // nothing here replays their faults again. `attempt` counts what the
    // transient budget pays for; the reclaim's re-run is not one of them.
    int executions = 0;
    for (int attempt = 1; admitted;) {
      record.attempts = ++executions;
      try {
        item.fn(*backend);
        record.ok = true;
        record.error.clear();
        break;
      } catch (...) {
        const std::exception_ptr error = std::current_exception();
        const ErrorClass cls = Classify(error);
        ++faults_seen_;
        record.error = ErrorMessage(error);
        record.error_class = cls;
        const double elapsed_ms = std::chrono::duration<double, std::milli>(
                                      std::chrono::steady_clock::now() -
                                      wall_start)
                                      .count();
        const bool within_deadline =
            deadline_ms == 0 || elapsed_ms < static_cast<double>(deadline_ms);
        // The first OOM gets one reclaim: the pool may hide exactly the
        // bytes needed, and an injected one-shot OOM is indistinguishable
        // from that. A second OOM fails the query; under persistent
        // pressure reclaiming again frees nothing. Queries built for
        // degradation absorb recurring OOM themselves by partitioning
        // (plan/partition.h).
        if (within_deadline && cls == ErrorClass::kResource &&
            record.oom_reclaims < kOomReclaimsPerQuery) {
          backend->stream().device().TrimPool();
          ++record.oom_reclaims;
          ++oom_reclaims_;
          continue;
        }
        if (within_deadline && cls == ErrorClass::kTransient &&
            attempt < retry.max_attempts) {
          const uint64_t backoff = retry.BackoffNs(attempt);
          record.backoff_ns += backoff;
          ++retries_;
          backoff_ns_ += backoff;
          if (backoff > 0) {
            std::this_thread::sleep_for(std::chrono::nanoseconds(backoff));
          }
          ++attempt;
          continue;
        }
        if (!within_deadline) {
          record.deadline_exceeded = true;
          ++deadline_misses_;
        }
        ++permanent_failures_;
        break;
      }
    }
    if (governor != nullptr && admitted) {
      governor->Release(backend->stream().id());
    }
    const auto wall_end = std::chrono::steady_clock::now();
    record.simulated_ns = backend->stream().now_ns() - sim_start;
    record.wall_ms =
        std::chrono::duration<double, std::milli>(wall_end - wall_start)
            .count();
    if (record.ok && deadline_ms != 0 &&
        record.wall_ms > static_cast<double>(deadline_ms)) {
      record.deadline_exceeded = true;
      ++deadline_misses_;
    }
    client_sim_ns_[client_index]->fetch_add(record.simulated_ns);

    {
      std::lock_guard<std::mutex> lock(records_mu_);
      records_.push_back(record);
    }
    if (item.on_complete) item.on_complete(record);
    {
      std::lock_guard<std::mutex> lock(mu_);
      last_complete_ = wall_end;
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) drained_.notify_all();
    }
  }
}

}  // namespace core
