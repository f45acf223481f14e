#include "serve/server.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <future>
#include <stdexcept>
#include <utility>

namespace serve {
namespace {

int MakeListener(const std::string& path) {
  if (path.size() + 1 > sizeof(sockaddr_un{}.sun_path)) {
    throw std::runtime_error("serve: socket path too long: " + path);
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    throw std::runtime_error(std::string("serve: socket() failed: ") +
                             std::strerror(errno));
  }
  ::unlink(path.c_str());  // a stale socket file from a dead server
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, 64) < 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    throw std::runtime_error("serve: bind/listen on " + path + " failed: " +
                             err);
  }
  return fd;
}

}  // namespace

QueryServer::QueryServer(ServerOptions options)
    : options_(std::move(options)),
      catalog_(std::make_unique<ResidentCatalog>(options_.catalog)) {
  if (options_.use_governor) {
    core::GovernorOptions gov;
    gov.device = &gpusim::Device::Current();  // the catalog's and clients'
    gov.max_grant_fraction = 0.5;  // no one query takes over half the device
    governor_ = std::make_unique<core::MemoryGovernor>(gov);
  }
  core::SchedulerOptions sched;
  sched.backend_name = options_.catalog.backend;
  sched.num_clients = options_.num_clients;
  sched.queue_capacity = options_.queue_capacity;
  sched.governor = governor_.get();
  scheduler_ = std::make_unique<core::QueryScheduler>(sched);
}

QueryServer::~QueryServer() { Stop(); }

void QueryServer::Start() {
  if (options_.socket_path.empty()) return;  // in-process only
  listen_fd_ = MakeListener(options_.socket_path);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
}

void QueryServer::Stop() {
  {
    std::lock_guard<std::mutex> lock(shutdown_mu_);
    if (stopped_) return;
    stopped_ = true;
    shutdown_requested_ = true;
  }
  shutdown_cv_.notify_all();

  // Wake the accept loop with shutdown() but close the listener only
  // after the join: the loop re-reads listen_fd_ between accepts, so the
  // close and the -1 store must happen-after it exits (and the fd number
  // can't be recycled into a connection the loop would then accept on).
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }

  std::vector<std::unique_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    // Sessions only read/write their fd; the owner closes it after the
    // join, so a shutdown() here can never hit a recycled descriptor.
    for (const auto& c : conns_) ::shutdown(c->fd, SHUT_RDWR);
    conns.swap(conns_);
  }
  for (auto& c : conns) {
    if (c->thread.joinable()) c->thread.join();
    ::close(c->fd);
  }

  if (scheduler_ != nullptr) scheduler_->Shutdown();
  if (governor_ != nullptr) governor_->Shutdown();
  if (!options_.socket_path.empty()) ::unlink(options_.socket_path.c_str());
}

void QueryServer::WaitForShutdown() {
  std::unique_lock<std::mutex> lock(shutdown_mu_);
  shutdown_cv_.wait(lock, [&] { return shutdown_requested_; });
}

Session QueryServer::OpenSession(const std::string& tenant, TenantClass cls) {
  Session s;
  s.id = next_session_.fetch_add(1);
  s.cls = cls;
  s.tenant = tenants_.Register(tenant, cls);
  return s;
}

void QueryServer::CheckAdmission(TenantClass cls) {
  const TenantPolicy policy = PolicyFor(cls);
  const uint64_t retry_after =
      options_.retry_after_ms * policy.retry_after_multiplier;
  // Backend health first: a sticky DeviceLost on the serving device opens
  // the breaker after failure_threshold query failures, and Allow() both
  // gates admission and advances the open-state cooldown so a half-open
  // probe eventually tests recovery.
  if (!breaker_.Allow()) {
    overloaded_.fetch_add(1);
    throw Overloaded("backend '" + options_.catalog.backend +
                         "' breaker open",
                     retry_after);
  }
  // Queue bounds scale by the class's shed fraction, so as depth grows the
  // classes shed in priority order: best-effort at half the bound, batch at
  // three quarters, interactive only at the full bound.
  const auto class_bound = [&](size_t bound) {
    const auto scaled =
        static_cast<size_t>(static_cast<double>(bound) *
                            policy.shed_depth_fraction);
    return scaled > 0 ? scaled : size_t{1};
  };
  const size_t queue_bound = options_.shed_queue_depth > 0
                                 ? options_.shed_queue_depth
                                 : options_.queue_capacity;
  if (queue_bound > 0 &&
      scheduler_->queue_depth() >= class_bound(queue_bound)) {
    overloaded_.fetch_add(1);
    throw Overloaded(std::string("scheduler queue at ") +
                         TenantClassName(cls) + " bound",
                     retry_after);
  }
  // The governor's admission queue has a fixed bound of 32, scaled the same
  // way.
  if (governor_ != nullptr && governor_->queue_depth() >= class_bound(32)) {
    overloaded_.fetch_add(1);
    throw Overloaded(std::string("governor admission queue at ") +
                         TenantClassName(cls) + " bound",
                     retry_after);
  }
}

QueryReply QueryServer::Execute(const Session& session,
                                const std::string& query_name) {
  const plan::TpchQuery query = plan::ParseTpchQuery(query_name);
  CheckAdmission(session.cls);

  // The query's plan from the current snapshot's slot: prepared against
  // that snapshot's residency, so a reloaded catalog never serves a plan
  // prepared against the residency it replaced.
  bool prepared_here = false;
  const std::shared_ptr<const plan::PreparedTpchQuery> prepared =
      catalog_->snapshot().plans->Get(query, &prepared_here);
  (prepared_here ? plan_misses_ : plan_hits_).fetch_add(1);

  auto result = std::make_shared<plan::TpchQueryResult>();
  auto done = std::make_shared<std::promise<core::QueryRecord>>();
  std::future<core::QueryRecord> record_future = done->get_future();

  core::SubmitOptions submit;
  submit.footprint_bytes = prepared->footprint_bytes();
  submit.deadline_ms = PolicyFor(session.cls).deadline_ms;
  submit.tenant = session.tenant;
  submit.on_complete = [done](const core::QueryRecord& r) {
    done->set_value(r);
  };
  const core::ScheduledQueryStatus status = scheduler_->Submit(
      query_name,
      [prepared, result](core::Backend& backend) {
        *result = prepared->Run(backend);
      },
      std::move(submit));
  if (status != core::ScheduledQueryStatus::kAccepted) {
    throw std::runtime_error("serve: scheduler is shut down");
  }
  const core::QueryRecord record = record_future.get();

  QueryReply reply;
  reply.query = query;
  reply.cache_hit = !prepared_here;
  reply.aged = record.aged;
  reply.simulated_ns = record.simulated_ns;
  reply.wall_ms = record.wall_ms;
  reply.queue_wait_ms = record.queue_wait_ms;
  reply.admission_wait_ms = record.admission_wait_ms;
  if (record.admission_rejected) {
    reply.rejected = true;
    rejected_.fetch_add(1);
    return reply;
  }
  if (!record.ok) {
    failed_.fetch_add(1);
    // Feed the breaker so repeated failures (a sticky DeviceLost) trip it
    // and CheckAdmission starts shedding.
    breaker_.RecordFailure();
    throw std::runtime_error("serve: query failed: " + record.error);
  }
  breaker_.RecordSuccess();
  reply.result = std::move(*result);
  ok_queries_.fetch_add(1);
  return reply;
}

size_t QueryServer::ActiveConnections() const {
  std::lock_guard<std::mutex> lock(conn_mu_);
  size_t live = 0;
  for (const auto& c : conns_) {
    if (!c->done.load()) ++live;
  }
  return live;
}

void QueryServer::ReloadCatalog(double scale_factor) {
  // Generate before the refresh so a concurrent reload never waits for it.
  catalog_->Refresh(GenerateHostTables(scale_factor, options_.catalog.seed));
}

StatsReply QueryServer::Stats() const {
  StatsReply s;
  s.queries = ok_queries_.load();
  s.rejected = rejected_.load();
  s.failed = failed_.load();
  s.cache_hits = plan_hits_.load();
  s.cache_misses = plan_misses_.load();
  const CatalogSnapshot catalog = catalog_->snapshot();
  s.cache_size = catalog.plans->size();
  s.resident_bytes = catalog.resident->resident_bytes;
  s.uploaded_bytes = catalog.resident->uploaded_bytes;
  s.catalog_generation = catalog.generation;
  s.overloaded = overloaded_.load();
  s.malformed = malformed_.load();
  return s;
}

void QueryServer::ReapFinishedLocked() {
  auto it = conns_.begin();
  while (it != conns_.end()) {
    if ((*it)->done.load()) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      ::close((*it)->fd);
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

void QueryServer::AcceptLoop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener closed by Stop()
    }
    std::lock_guard<std::mutex> lock(conn_mu_);
    // Reap sessions that ended since the last accept: their threads join
    // here, so a connect-and-die client costs one bounded slot, not a
    // thread leaked until Stop().
    ReapFinishedLocked();
    if (conns_.size() >= options_.max_connections) {
      overloaded_.fetch_add(1);
      OverloadReply shed;
      shed.retry_after_ms = options_.retry_after_ms;
      shed.reason = "connection limit";
      Writer w;
      Encode(shed, w);
      try {
        WriteFrame(fd, MsgType::kOverloaded, w.bytes());
      } catch (const std::exception&) {
        // Peer already gone; nothing to tell it.
      }
      ::close(fd);
      continue;
    }
    conns_.push_back(std::make_unique<Connection>());
    Connection& conn = *conns_.back();
    conn.fd = fd;
    conn.thread = std::thread([this, &conn] { ServeConnection(conn); });
  }
}

void QueryServer::ServeConnection(Connection& conn) {
  const int fd = conn.fd;
  Session session;
  bool greeted = false;

  const auto send = [&](MsgType type, const auto& msg) {
    Writer w;
    Encode(msg, w);
    WriteFrame(fd, type, w.bytes());
  };
  const auto send_error = [&](const std::string& message) {
    ErrorReply err;
    err.message = message;
    send(MsgType::kError, err);
  };

  try {
    MsgType type;
    std::vector<uint8_t> payload;
    for (;;) {
      try {
        if (!ReadFrame(fd, &type, &payload)) break;  // clean EOF
      } catch (const ProtocolError& e) {
        // Garbage framing (truncated header/payload, oversized length). The
        // byte stream is desynchronized past recovery, so answer with a
        // typed error and end this session — the accept loop and every
        // other session keep running.
        malformed_.fetch_add(1);
        try {
          send_error(e.what());
        } catch (const std::exception&) {
        }
        break;
      }
      Reader r(payload);
      try {
        switch (type) {
          case MsgType::kHello: {
            const HelloRequest req = DecodeHelloRequest(r);
            session = OpenSession(req.tenant, req.cls);
            greeted = true;
            HelloReply reply;
            reply.scale_factor = catalog_->snapshot().host->scale_factor;
            reply.seed = options_.catalog.seed;
            reply.backend = options_.catalog.backend;
            reply.encoded = options_.catalog.use_encoding;
            reply.session_id = session.id;
            send(MsgType::kHelloOk, reply);
            break;
          }
          case MsgType::kQuery: {
            if (!greeted) {
              send_error("query before hello");
              break;
            }
            const QueryRequest req = DecodeQueryRequest(r);
            try {
              send(MsgType::kQueryOk, Execute(session, req.query));
            } catch (const Overloaded& e) {
              OverloadReply shed;
              shed.retry_after_ms = e.retry_after_ms;
              shed.reason = e.what();
              send(MsgType::kOverloaded, shed);
            } catch (const std::exception& e) {
              send_error(e.what());
            }
            break;
          }
          case MsgType::kStats:
            send(MsgType::kStatsOk, Stats());
            break;
          case MsgType::kShutdown: {
            WriteFrame(fd, MsgType::kShutdownOk, {});
            std::lock_guard<std::mutex> lock(shutdown_mu_);
            shutdown_requested_ = true;
            shutdown_cv_.notify_all();
            break;
          }
          default:
            // Unknown message type: typed reply, connection stays up — a
            // well-framed but unrecognized request is not a reason to hang
            // up on the client.
            malformed_.fetch_add(1);
            send_error("unexpected message type");
            break;
        }
      } catch (const ProtocolError& e) {
        // Frame was well-formed, payload was short for its message type.
        // The stream itself is still framed, so reply and keep serving.
        malformed_.fetch_add(1);
        send_error(e.what());
      }
    }
  } catch (const std::exception&) {
    // Socket torn down mid-frame (client died or Stop() hung up) — nothing
    // to report to; the connection just ends. The fd is closed by whoever
    // reaps this Connection (AcceptLoop or Stop), after joining the thread.
  }
  conn.done.store(true);
}

}  // namespace serve
