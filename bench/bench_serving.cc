// Serving-tier acceptance benchmark: resident server, plan cache, QoS.
//
// Simulates thousands of client sessions against the resident query server
// (serve/server.h) over its UNIX-socket protocol. Three tenant classes
// (interactive / batch / best-effort) issue a mixed q1/q3/q4/q6/q14 workload
// in two phases:
//
//   steady  — `--sessions` short sessions (default 1200) spread round-robin
//             across the classes, each running `--per-session` queries.
//   flood   — `--flood-conns` batch connections hammer the server
//             continuously while a single interactive prober runs
//             `--probe-queries` latency probes through the same queue.
//
// Every reply — both phases, all classes — is verified against the host
// reference recomputed from the dataset description the server returns in
// its Hello reply. The binary is the CI acceptance gate for the serving
// tier and exits non-zero when any of these fail:
//
//   * any wrong / failed / admission-rejected answer,
//   * plan-cache hit rate below --min-hit-rate (default 0.90) or zero hits,
//   * interactive p99 exceeding batch p99 (wall or queue wait) during the
//     batch flood — the per-tenant fair share must keep the interactive
//     class's tail bounded while batch saturates the queue.
//
// By default the benchmark hosts the server in-process on a private socket.
// --connect=PATH drives an externally launched gpudb_server instead (the CI
// smoke job does this); dataset parameters then come from the handshake.
//
// Usage:
// --probe-malformed additionally throws a burst of garbage frames
// (truncated headers, oversized length prefixes, random blobs) at the
// socket before the steady phase and gates on the server answering them
// with typed errors, counting them, and staying fully functional.
//
// Usage:
//   bench_serving [--sessions=1200] [--per-session=2] [--drivers=16]
//                 [--queries=q1,q3,q4,q6,q14] [--flood-conns=6]
//                 [--probe-queries=120] [--min-hit-rate=0.9]
//                 [--sf=0.01] [--seed=42] [--backend=Handwritten]
//                 [--clients=4] [--no-encoding] [--connect=SOCKET]
//                 [--probe-malformed] [--json=FILE]
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/metrics.h"
#include "core/registry.h"
#include "plan/partition.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/tenant.h"
#include "tpch/datagen.h"

namespace {

struct Options {
  size_t sessions = 1200;
  unsigned per_session = 2;
  unsigned drivers = 16;
  std::vector<std::string> queries = {"q1", "q3", "q4", "q6", "q14"};
  unsigned flood_conns = 6;
  unsigned probe_queries = 120;
  double min_hit_rate = 0.9;
  double scale_factor = 0.01;
  uint64_t seed = 42;
  std::string backend = "Handwritten";
  unsigned server_clients = 4;
  bool use_encoding = true;
  std::string connect_path;  ///< non-empty: drive an external server
  bool probe_malformed = false;  ///< garbage-frame probe before steady phase
  std::string json_path;
};

std::vector<std::string> SplitCsv(const std::string& s) {
  std::vector<std::string> out;
  size_t pos = 0;
  while (pos <= s.size()) {
    const size_t comma = s.find(',', pos);
    const size_t end = comma == std::string::npos ? s.size() : comma;
    if (end > pos) out.push_back(s.substr(pos, end - pos));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

bool ParseArgs(int argc, char** argv, Options* opts) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* prefix) -> const char* {
      const size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = value("--sessions=")) {
      opts->sessions = static_cast<size_t>(std::stoul(v));
    } else if (const char* v = value("--per-session=")) {
      opts->per_session = static_cast<unsigned>(std::stoul(v));
    } else if (const char* v = value("--drivers=")) {
      opts->drivers = static_cast<unsigned>(std::stoul(v));
    } else if (const char* v = value("--queries=")) {
      opts->queries = SplitCsv(v);
    } else if (const char* v = value("--flood-conns=")) {
      opts->flood_conns = static_cast<unsigned>(std::stoul(v));
    } else if (const char* v = value("--probe-queries=")) {
      opts->probe_queries = static_cast<unsigned>(std::stoul(v));
    } else if (const char* v = value("--min-hit-rate=")) {
      opts->min_hit_rate = std::stod(v);
    } else if (const char* v = value("--sf=")) {
      opts->scale_factor = std::stod(v);
    } else if (const char* v = value("--seed=")) {
      opts->seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--backend=")) {
      opts->backend = v;
    } else if (const char* v = value("--clients=")) {
      opts->server_clients = static_cast<unsigned>(std::stoul(v));
    } else if (arg == "--no-encoding") {
      opts->use_encoding = false;
    } else if (const char* v = value("--connect=")) {
      opts->connect_path = v;
    } else if (arg == "--probe-malformed") {
      opts->probe_malformed = true;
    } else if (const char* v = value("--json=")) {
      opts->json_path = v;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
  }
  return !opts->queries.empty() && opts->sessions > 0 &&
         opts->per_session > 0 && opts->drivers > 0;
}

/// Host-reference answers of every query at the served (scale factor,
/// seed).
using References = std::map<plan::TpchQuery, plan::TpchQueryResult>;

References ComputeReferences(double scale_factor, uint64_t seed) {
  tpch::Config config;
  config.scale_factor = scale_factor;
  config.seed = seed;
  const storage::Table lineitem = tpch::GenerateLineitem(config);
  const storage::Table orders = tpch::GenerateOrders(config);
  const storage::Table customer = tpch::GenerateCustomer(config);
  const storage::Table part = tpch::GeneratePart(config);
  return plan::ReferenceAnswers({&lineitem, &orders, &customer, &part});
}

/// Latency/outcome samples one driver thread collected; merged at the end.
struct Samples {
  std::vector<double> wall_ms;
  std::vector<double> wait_ms;
  std::vector<double> total_ms;  ///< queue wait + execution, end to end
  size_t queries = 0;
  size_t hits = 0;
  size_t wrong = 0;
  size_t rejected = 0;
  size_t failed = 0;
  size_t aged = 0;
  std::string first_error;

  void Absorb(const Samples& other) {
    wall_ms.insert(wall_ms.end(), other.wall_ms.begin(), other.wall_ms.end());
    wait_ms.insert(wait_ms.end(), other.wait_ms.begin(), other.wait_ms.end());
    total_ms.insert(total_ms.end(), other.total_ms.begin(),
                    other.total_ms.end());
    queries += other.queries;
    hits += other.hits;
    wrong += other.wrong;
    rejected += other.rejected;
    failed += other.failed;
    aged += other.aged;
    if (first_error.empty()) first_error = other.first_error;
  }

  void Record(const std::string& query_name, const serve::QueryReply& reply,
              const References& ref) {
    ++queries;
    if (reply.rejected) {
      ++rejected;
      if (first_error.empty()) first_error = query_name + " rejected";
      return;
    }
    if (reply.cache_hit) ++hits;
    if (reply.aged) ++aged;
    wall_ms.push_back(reply.wall_ms);
    wait_ms.push_back(reply.queue_wait_ms);
    total_ms.push_back(reply.queue_wait_ms + reply.wall_ms);
    std::string why;
    if (!plan::SameAnswer(reply.query, reply.result, ref.at(reply.query),
                          &why)) {
      ++wrong;
      if (first_error.empty()) first_error = query_name + ": " + why;
    }
  }
};

constexpr serve::TenantClass kClasses[] = {serve::TenantClass::kInteractive,
                                           serve::TenantClass::kBatch,
                                           serve::TenantClass::kBestEffort};
constexpr size_t kNumClasses = 3;

int RawConnect(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

void SendRaw(int fd, const std::vector<uint8_t>& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    // MSG_NOSIGNAL: the server may hang up mid-blob; that is the scenario
    // under test, not a reason to die of SIGPIPE.
    const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off,
                             MSG_NOSIGNAL);
    if (n <= 0) return;
    off += static_cast<size_t>(n);
  }
}

/// The adversarial warm-up: garbage frames that the server must answer with
/// typed errors (or hang up on) without crashing or losing the socket.
/// Returns false when the server misbehaves.
bool RunMalformedProbe(const std::string& socket_path) {
  // Oversized length prefix: must be rejected before any allocation and
  // answered with a typed kError.
  {
    const int fd = RawConnect(socket_path);
    if (fd < 0) {
      std::fprintf(stderr, "malformed probe: connect failed\n");
      return false;
    }
    serve::Writer w;
    w.U32(serve::kMaxFrameBytes + 1);
    w.U8(static_cast<uint8_t>(serve::MsgType::kQuery));
    SendRaw(fd, w.bytes());
    serve::MsgType type;
    std::vector<uint8_t> payload;
    bool got = false;
    try {
      got = serve::ReadFrame(fd, &type, &payload);
    } catch (const std::exception&) {
    }
    ::close(fd);
    if (!got || type != serve::MsgType::kError) {
      std::fprintf(stderr,
                   "malformed probe: oversized frame got no typed error\n");
      return false;
    }
  }
  // Truncated header, then random blobs (type byte steered away from
  // kShutdown so a lucky frame cannot legitimately stop the server).
  {
    const int fd = RawConnect(socket_path);
    if (fd < 0) return false;
    SendRaw(fd, {0xfe, 0xed});
    ::close(fd);
  }
  uint64_t state = 0x9e3779b97f4a7c15ULL;
  const auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int i = 0; i < 12; ++i) {
    const int fd = RawConnect(socket_path);
    if (fd < 0) return false;
    std::vector<uint8_t> blob(1 + next() % 40);
    for (uint8_t& b : blob) b = static_cast<uint8_t>(next());
    if (blob.size() >= 5 &&
        blob[4] == static_cast<uint8_t>(serve::MsgType::kShutdown)) {
      blob[4] = 0x7f;
    }
    SendRaw(fd, blob);
    ::close(fd);
  }
  // The server must still greet, answer, and have counted the garbage.
  try {
    serve::Client client(socket_path, "malformed-probe",
                         serve::TenantClass::kBestEffort);
    // The blob senders hung up without reading replies, so their connection
    // threads may still be draining; poll until the counters catch up.
    serve::StatsReply stats = client.Stats();
    for (int i = 0; i < 500 && stats.malformed < 2; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      stats = client.Stats();
    }
    if (stats.malformed < 2) {
      std::fprintf(stderr,
                   "malformed probe: server counted %llu malformed frames, "
                   "expected >= 2\n",
                   static_cast<unsigned long long>(stats.malformed));
      return false;
    }
    std::printf("malformed probe: server survived, counted %llu garbage "
                "frames\n",
                static_cast<unsigned long long>(stats.malformed));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "malformed probe: server unusable after: %s\n",
                 e.what());
    return false;
  }
  return true;
}

/// Phase 1: `sessions` short sessions round-robin across the three classes,
/// driven by a pool of threads. Session i gets class i % 3 and runs
/// per_session queries from the mix, so every class sees every shape.
std::vector<Samples> RunSteadyPhase(const Options& opts,
                                    const std::string& socket_path,
                                    const References& ref) {
  std::vector<Samples> per_class(kNumClasses);
  std::mutex merge_mu;
  std::vector<std::thread> drivers;
  for (unsigned t = 0; t < opts.drivers; ++t) {
    drivers.emplace_back([&, t] {
      std::vector<Samples> local(kNumClasses);
      for (size_t i = t; i < opts.sessions; i += opts.drivers) {
        const size_t cls_index = i % kNumClasses;
        const serve::TenantClass cls = kClasses[cls_index];
        // One tenant per class: sessions of a class share one fair-share
        // account, which is what "per-tenant QoS" meters.
        const std::string tenant =
            std::string("steady-") + serve::TenantClassName(cls);
        try {
          serve::Client client(socket_path, tenant, cls);
          for (unsigned j = 0; j < opts.per_session; ++j) {
            const std::string& q =
                opts.queries[(i * opts.per_session + j) % opts.queries.size()];
            local[cls_index].Record(q, client.Query(q), ref);
          }
        } catch (const std::exception& e) {
          ++local[cls_index].failed;
          if (local[cls_index].first_error.empty()) {
            local[cls_index].first_error = e.what();
          }
        }
      }
      std::lock_guard<std::mutex> lock(merge_mu);
      for (size_t c = 0; c < kNumClasses; ++c) {
        per_class[c].Absorb(local[c]);
      }
    });
  }
  for (std::thread& t : drivers) t.join();
  return per_class;
}

/// Phase 2: batch connections flood the queue for the whole phase while one
/// interactive prober measures its tail through the same scheduler.
/// Returns {interactive samples, batch samples}.
std::vector<Samples> RunFloodPhase(const Options& opts,
                                   const std::string& socket_path,
                                   const References& ref) {
  std::vector<Samples> out(2);
  std::atomic<bool> stop{false};
  std::mutex merge_mu;
  std::vector<std::thread> flood;
  for (unsigned f = 0; f < opts.flood_conns; ++f) {
    flood.emplace_back([&, f] {
      Samples local;
      try {
        serve::Client client(socket_path, "flood", serve::TenantClass::kBatch);
        size_t n = f;  // stagger the shape each connection starts on
        while (!stop.load(std::memory_order_relaxed)) {
          const std::string& q = opts.queries[n++ % opts.queries.size()];
          local.Record(q, client.Query(q), ref);
        }
      } catch (const std::exception& e) {
        ++local.failed;
        if (local.first_error.empty()) local.first_error = e.what();
      }
      std::lock_guard<std::mutex> lock(merge_mu);
      out[1].Absorb(local);
    });
  }

  {
    Samples probe;
    try {
      serve::Client client(socket_path, "probe",
                           serve::TenantClass::kInteractive);
      for (unsigned j = 0; j < opts.probe_queries; ++j) {
        const std::string& q = opts.queries[j % opts.queries.size()];
        probe.Record(q, client.Query(q), ref);
      }
    } catch (const std::exception& e) {
      ++probe.failed;
      if (probe.first_error.empty()) probe.first_error = e.what();
    }
    std::lock_guard<std::mutex> lock(merge_mu);
    out[0].Absorb(probe);
  }

  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : flood) t.join();
  return out;
}

void PrintRow(const char* label, const Samples& s) {
  const core::LatencySummary wall = core::SummarizeLatencies(s.wall_ms);
  const core::LatencySummary wait = core::SummarizeLatencies(s.wait_ms);
  const core::LatencySummary total = core::SummarizeLatencies(s.total_ms);
  std::printf(
      "%-20s %8zu %6zu %6zu %6zu %9.3f %9.3f %9.3f %9.3f %9.3f\n", label,
      s.queries, s.hits, s.wrong, s.rejected, wall.p50, wall.p99, wait.p95,
      wait.p99, total.p99);
}

void WriteSamplesJson(std::ofstream& out, const char* name, const Samples& s,
                      bool trailing_comma) {
  const core::LatencySummary wall = core::SummarizeLatencies(s.wall_ms);
  const core::LatencySummary wait = core::SummarizeLatencies(s.wait_ms);
  const core::LatencySummary total = core::SummarizeLatencies(s.total_ms);
  out << "    \"" << name << "\": {\"queries\": " << s.queries
      << ", \"cache_hits\": " << s.hits << ", \"wrong\": " << s.wrong
      << ", \"rejected\": " << s.rejected << ", \"failed\": " << s.failed
      << ", \"aged\": " << s.aged << ", \"wall_p50_ms\": " << wall.p50
      << ", \"wall_p95_ms\": " << wall.p95 << ", \"wall_p99_ms\": " << wall.p99
      << ", \"wait_p95_ms\": " << wait.p95 << ", \"wait_p99_ms\": " << wait.p99
      << ", \"total_p99_ms\": " << total.p99 << "}"
      << (trailing_comma ? "," : "") << "\n";
}

int Run(const Options& opts) {
  // Self-host unless --connect points at an external gpudb_server. The
  // self-hosted server still listens on a real socket so both modes exercise
  // the full protocol path.
  std::unique_ptr<serve::QueryServer> server;
  std::string socket_path = opts.connect_path;
  if (socket_path.empty()) {
    core::RegisterBuiltinBackends();
    serve::ServerOptions server_opts;
    server_opts.socket_path =
        "/tmp/bench_serving_" + std::to_string(::getpid()) + ".sock";
    server_opts.catalog.scale_factor = opts.scale_factor;
    server_opts.catalog.seed = opts.seed;
    server_opts.catalog.backend = opts.backend;
    server_opts.catalog.use_encoding = opts.use_encoding;
    server_opts.num_clients = opts.server_clients;
    server = std::make_unique<serve::QueryServer>(server_opts);
    server->Start();
    socket_path = server_opts.socket_path;
  }

  // The dataset description comes from the handshake, so an external
  // server's answers are verified against *its* dataset, not our flags.
  double sf = opts.scale_factor;
  uint64_t seed = opts.seed;
  std::string backend = opts.backend;
  bool encoded = opts.use_encoding;
  {
    serve::Client hello_client(socket_path, "bench-setup",
                               serve::TenantClass::kBestEffort);
    sf = hello_client.hello().scale_factor;
    seed = hello_client.hello().seed;
    backend = hello_client.hello().backend;
    encoded = hello_client.hello().encoded;
  }
  std::printf(
      "bench_serving: %s sf=%g seed=%llu backend=%s encoding=%s "
      "sessions=%zu per-session=%u drivers=%u\n",
      opts.connect_path.empty() ? "self-hosted" : opts.connect_path.c_str(),
      sf, static_cast<unsigned long long>(seed), backend.c_str(),
      encoded ? "on" : "off", opts.sessions, opts.per_session, opts.drivers);
  const References ref = ComputeReferences(sf, seed);

  if (opts.probe_malformed && !RunMalformedProbe(socket_path)) {
    if (server != nullptr) server->Stop();
    std::printf("bench_serving: FAIL\n");
    return 1;
  }

  const std::vector<Samples> steady =
      RunSteadyPhase(opts, socket_path, ref);
  const std::vector<Samples> flood = RunFloodPhase(opts, socket_path, ref);

  std::printf(
      "\n%-20s %8s %6s %6s %6s %9s %9s %9s %9s %9s\n", "phase/class",
      "queries", "hits", "wrong", "rej", "wall_p50", "wall_p99", "wait_p95",
      "wait_p99", "e2e_p99");
  for (size_t c = 0; c < kNumClasses; ++c) {
    const std::string label =
        std::string("steady/") + serve::TenantClassName(kClasses[c]);
    PrintRow(label.c_str(), steady[c]);
  }
  PrintRow("flood/probe", flood[0]);
  PrintRow("flood/batch", flood[1]);

  Samples total;
  for (const Samples& s : steady) total.Absorb(s);
  total.Absorb(flood[0]);
  total.Absorb(flood[1]);

  const double hit_rate =
      total.queries > 0 ? static_cast<double>(total.hits) /
                              static_cast<double>(total.queries)
                        : 0.0;
  const core::LatencySummary probe_wait =
      core::SummarizeLatencies(flood[0].wait_ms);
  const core::LatencySummary probe_total =
      core::SummarizeLatencies(flood[0].total_ms);
  const core::LatencySummary batch_wait =
      core::SummarizeLatencies(flood[1].wait_ms);
  const core::LatencySummary batch_total =
      core::SummarizeLatencies(flood[1].total_ms);

  std::printf(
      "\ntotal: %zu queries  hit rate %.4f  wrong %zu  rejected %zu  "
      "failed %zu  aged %zu\n",
      total.queries, hit_rate, total.wrong, total.rejected, total.failed,
      total.aged);
  std::printf(
      "flood QoS: interactive p99 end-to-end %.3f ms / wait %.3f ms  vs  "
      "batch p99 end-to-end %.3f ms / wait %.3f ms\n",
      probe_total.p99, probe_wait.p99, batch_total.p99, batch_wait.p99);

  // Acceptance gates.
  bool ok = true;
  if (total.wrong > 0 || total.failed > 0 || total.rejected > 0) {
    std::fprintf(stderr,
                 "FAIL: %zu wrong, %zu failed, %zu rejected (first: %s)\n",
                 total.wrong, total.failed, total.rejected,
                 total.first_error.c_str());
    ok = false;
  }
  if (total.hits == 0 || hit_rate < opts.min_hit_rate) {
    std::fprintf(stderr, "FAIL: plan-cache hit rate %.4f below %.4f\n",
                 hit_rate, opts.min_hit_rate);
    ok = false;
  }
  // The fair-share gate: with batch saturating the queue, the interactive
  // probe's p99 must not regress past the batch tail. Execution wall time
  // is flood-independent (identical work whichever class submits it), so a
  // flood-induced regression shows up entirely in queue wait — gating on
  // wait p99 bounds the end-to-end tail without inheriting execution-time
  // noise. Non-strict, so an idle queue (every wait ~0) still passes.
  constexpr double kEps = 1e-6;
  if (probe_wait.p99 > batch_wait.p99 + kEps) {
    std::fprintf(stderr,
                 "FAIL: interactive p99 queue wait %.3f ms exceeds batch "
                 "%.3f ms under flood\n",
                 probe_wait.p99, batch_wait.p99);
    ok = false;
  }

  if (!opts.json_path.empty()) {
    std::ofstream out(opts.json_path);
    out << "{\n"
        << "  \"scale_factor\": " << sf << ",\n"
        << "  \"seed\": " << seed << ",\n"
        << "  \"backend\": \"" << backend << "\",\n"
        << "  \"encoding\": " << (encoded ? "true" : "false") << ",\n"
        << "  \"sessions\": " << opts.sessions << ",\n"
        << "  \"per_session\": " << opts.per_session << ",\n"
        << "  \"total_queries\": " << total.queries << ",\n"
        << "  \"cache_hit_rate\": " << hit_rate << ",\n"
        << "  \"wrong\": " << total.wrong << ",\n"
        << "  \"rejected\": " << total.rejected << ",\n"
        << "  \"failed\": " << total.failed << ",\n"
        << "  \"aged\": " << total.aged << ",\n"
        << "  \"classes\": {\n";
    for (size_t c = 0; c < kNumClasses; ++c) {
      WriteSamplesJson(out, serve::TenantClassName(kClasses[c]), steady[c],
                       /*trailing_comma=*/true);
    }
    WriteSamplesJson(out, "flood_probe", flood[0], /*trailing_comma=*/true);
    WriteSamplesJson(out, "flood_batch", flood[1], /*trailing_comma=*/false);
    out << "  },\n"
        << "  \"ok\": " << (ok ? "true" : "false") << "\n"
        << "}\n";
    std::printf("wrote %s\n", opts.json_path.c_str());
  }

  if (server != nullptr) server->Stop();
  std::printf(ok ? "bench_serving: PASS\n" : "bench_serving: FAIL\n");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!ParseArgs(argc, argv, &opts)) return 64;
  try {
    return Run(opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_serving: %s\n", e.what());
    return 3;
  }
}
