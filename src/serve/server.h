// The resident query server.
//
// QueryServer ties the serving tier together: a ResidentCatalog (tables
// uploaded once, device-resident across requests, and each query's
// optimized physical plan, prepared once per catalog snapshot and reused by
// every later request for it), a TenantRegistry (QoS-class -> fair-share
// weights and deadline classes), and a core::QueryScheduler +
// core::MemoryGovernor
// (tenant-weighted dequeue with aging; memory admission for the per-run
// intermediates). Requests arrive over the length-prefixed protocol
// (serve/protocol.h) on a UNIX domain socket; each connection is one
// session served by its own thread, and concurrency across sessions comes
// from the scheduler's client pool.
//
// Execute() is also callable in-process (no socket), which is how the tests
// and the local mode of bench_serving drive the server.
//
// A server owns one device: the one current on the thread that built it.
// The catalog's residency, the scheduler's clients and the governor's
// grants all live there.
//
// The server protects itself instead of trusting its clients. Admission
// consults the server's one circuit breaker (its backend on its device) and
// sheds with a typed kOverloaded reply (carrying a retry-after hint) when
// the breaker is open or the scheduler queue or the governor queue crosses
// its bound — rather than stacking unbounded work behind a sick device.
// Every executed query records its outcome on that breaker, so two servers
// in one process share no health state. The accept loop caps live
// connections (excess connects get kOverloaded and a clean close) and reaps
// finished connection threads as it goes, so a client that connects and
// dies mid-query leaks neither a thread nor an fd. Malformed frames —
// truncated, oversized, unknown type — are answered with a typed kError
// and never tear down the accept loop.
#ifndef SERVE_SERVER_H_
#define SERVE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <stdexcept>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/governor.h"
#include "core/resilience.h"
#include "core/scheduler.h"
#include "serve/protocol.h"
#include "serve/session.h"
#include "serve/tenant.h"

namespace serve {

struct ServerOptions {
  /// UNIX-domain socket path; empty = in-process only (Start() still builds
  /// the catalog/scheduler but no listener).
  std::string socket_path;
  CatalogOptions catalog;
  unsigned num_clients = 4;      ///< scheduler client threads
  size_t queue_capacity = 64;    ///< scheduler submission queue bound
  bool use_governor = true;      ///< memory admission for intermediates
  /// Live-connection cap: further connects are answered kOverloaded and
  /// closed instead of spawning yet another thread.
  size_t max_connections = 64;
  /// Shed when the scheduler queue reaches this depth (0 = queue_capacity).
  size_t shed_queue_depth = 0;
  /// Base retry-after hint carried in kOverloaded replies; each tenant
  /// class scales it by its TenantPolicy::retry_after_multiplier.
  uint64_t retry_after_ms = 50;
};

/// Thrown by Execute when the request is shed instead of queued: the
/// scheduler or governor queue is past its bound, or the server's circuit
/// breaker is open. Socket sessions see it as a typed kOverloaded reply with
/// the retry-after hint.
class Overloaded : public std::runtime_error {
 public:
  Overloaded(const std::string& why, uint64_t retry_after_ms)
      : std::runtime_error(why), retry_after_ms(retry_after_ms) {}
  uint64_t retry_after_ms = 0;
};

class QueryServer {
 public:
  explicit QueryServer(ServerOptions options);
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Binds + listens on the socket (when configured) and starts accepting.
  /// Throws std::runtime_error on socket errors.
  void Start();

  /// Stops accepting, hangs up every connection, drains the scheduler, and
  /// joins all threads. Idempotent; called by the destructor. Must not be
  /// called from a connection thread (a Shutdown request instead signals
  /// WaitForShutdown and lets the waiter call Stop).
  void Stop();

  /// Blocks until a client sends Shutdown or Stop() is called.
  void WaitForShutdown();

  /// Registers a session (the in-process analogue of Hello).
  Session OpenSession(const std::string& tenant, TenantClass cls);

  /// Runs one query for a session: the current catalog snapshot's plan for
  /// it (the request that prepares it misses, every later one hits),
  /// tenant-weighted scheduling, memory admission, execution against the
  /// snapshot's resident tables. Throws std::invalid_argument for a bad
  /// query name, Overloaded when the request is shed (queue bound or open
  /// breaker), and std::runtime_error when execution fails; an admission
  /// rejection is NOT an error — the reply comes back with rejected = true.
  QueryReply Execute(const Session& session, const std::string& query_name);

  /// Live (not yet reaped) socket connections right now.
  size_t ActiveConnections() const;

  /// Regenerates the host tables at `scale_factor` (the catalog's seed) and
  /// refreshes the catalog with them (ResidentCatalog::Refresh). Returns
  /// once the new snapshot is swapped in, without waiting for queries in
  /// flight: they finish on the snapshot they prepared against, while new
  /// requests see the new tables, each query's plan prepared anew. Throws
  /// when the upload fails, and the catalog is then unchanged.
  void ReloadCatalog(double scale_factor);

  StatsReply Stats() const;

  ResidentCatalog& catalog() { return *catalog_; }
  core::QueryScheduler& scheduler() { return *scheduler_; }
  /// The server's health gate: CheckAdmission asks it, and every executed
  /// query records its outcome on it.
  core::CircuitBreaker& breaker() { return breaker_; }
  const ServerOptions& options() const { return options_; }

 private:
  /// One socket session: its fd, its thread, and a done flag the accept
  /// loop uses to reap the thread without blocking on it.
  struct Connection {
    int fd = -1;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void AcceptLoop();
  void ServeConnection(Connection& conn);
  /// Joins and erases finished connections. Caller must hold conn_mu_.
  void ReapFinishedLocked();
  /// Throws Overloaded when the request should be shed right now. The
  /// session's tenant class scales both the shed bound (best-effort sheds
  /// before batch before interactive at the same queue depth) and the
  /// retry-after hint.
  void CheckAdmission(TenantClass cls);

  ServerOptions options_;
  std::unique_ptr<ResidentCatalog> catalog_;
  std::unique_ptr<core::MemoryGovernor> governor_;
  std::unique_ptr<core::QueryScheduler> scheduler_;
  core::CircuitBreaker breaker_;
  TenantRegistry tenants_;

  std::atomic<uint64_t> next_session_{0};
  std::atomic<uint64_t> plan_hits_{0};
  std::atomic<uint64_t> plan_misses_{0};
  std::atomic<uint64_t> ok_queries_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<uint64_t> overloaded_{0};
  std::atomic<uint64_t> malformed_{0};

  int listen_fd_ = -1;
  std::thread accept_thread_;
  mutable std::mutex conn_mu_;  ///< guards conns_
  std::vector<std::unique_ptr<Connection>> conns_;

  std::mutex shutdown_mu_;
  std::condition_variable shutdown_cv_;
  bool shutdown_requested_ = false;
  bool stopped_ = false;
};

}  // namespace serve

#endif  // SERVE_SERVER_H_
