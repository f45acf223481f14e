// Chaos acceptance gate for device-loss-tolerant sharded execution and the
// hardened serving tier.
//
// Phase A — degraded-mode sweep: for every seed x query, a 4-device
// gpusim::DeviceGroup runs the query sharded while one victim device takes a
// sticky DeviceLost mid-run (per-device injector, seeded) and every device
// carries a low-probability transient TransferFault rule. The run must
// complete in degraded mode on the survivors, every answer must match the
// host reference, and no run may fail permanently while at least one device
// survives. Each run's device calls (the injectors' checks) are reported as
// device_calls_per_query, without a bound. A zero-fault gate then re-runs
// each query with armed but rule-less injectors and demands a simulated
// timeline bit-identical to the bare group — the fault plumbing must be
// timing-invisible when silent.
//
// Phase B — serving tier under attack: a QueryServer takes a connection
// flood past its cap (typed kOverloaded with retry-after), a stream of
// malformed/truncated/oversized frames (typed kError, counted, never fatal),
// and a tripped breaker (queries shed until the half-open probe heals it).
// The server must never crash and must still answer correctly afterwards.
//
// Phase C — kill -> degrade -> reset -> rerun -> re-converge: for every
// seed x query, a one-shot DeviceLost kills the victim mid-run (the run
// degrades onto the survivors, reusing the victim's host-checkpointed
// slices), the operator resets the victim (MarkReset), and the SAME group
// runs the query again: the victim must be alive and run at least one slice
// of the rerun, the answer must match the host reference, the recovered run
// must land within 5% of a never-killed baseline, and replaying the whole
// sequence on a second identical group must reproduce the placement and the
// simulated timeline exactly. Across the whole matrix at least one
// checkpointed slice must have been reused (otherwise the kill schedule
// proved nothing).
//
// Exit codes: 0 ok, 2 permanent query failure, 3 wrong answer, 4 zero-fault
// timeline drift, 5 serving-tier failure, 6 no checkpointed slice reused,
// 7 readmission failure (victim not alive or given no slice after the reset
// / non-deterministic replay / >5% throughput regression after the reset),
// 64 usage.
//
// Usage:
//   bench_chaos_multidevice [--seeds=1,2,3,4,5] [--sf=0.02]
//                           [--queries=q1,q3,q4,q6,q14] [--shards=8]
//                           [--skip-server] [--skip-readmit] [--json=FILE]
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "backends/backends.h"
#include "core/registry.h"
#include "core/resilience.h"
#include "gpusim/device_group.h"
#include "gpusim/fault.h"
#include "plan/exchange.h"
#include "plan/partition.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "tpch/datagen.h"

namespace {

constexpr int kExitPermanentFailure = 2;
constexpr int kExitWrongAnswer = 3;
constexpr int kExitTimelineDrift = 4;
constexpr int kExitServerFailure = 5;
constexpr int kExitNoCheckpointReuse = 6;
constexpr int kExitReadmissionFailure = 7;

struct Options {
  std::vector<uint64_t> seeds = {1, 2, 3, 4, 5};
  double scale_factor = 0.02;
  std::vector<std::string> queries = {"q1", "q3", "q4", "q6", "q14"};
  size_t force_shards = 8;
  bool skip_server = false;
  bool skip_readmit = false;
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
    if (const char* v = value("--seeds=")) {
      opts->seeds.clear();
      for (const auto& s : SplitCsv(v)) opts->seeds.push_back(std::stoull(s));
    } else if (const char* v = value("--sf=")) {
      opts->scale_factor = std::stod(v);
    } else if (const char* v = value("--queries=")) {
      opts->queries = SplitCsv(v);
    } else if (const char* v = value("--shards=")) {
      opts->force_shards = std::stoul(v);
    } else if (arg == "--skip-server") {
      opts->skip_server = true;
    } else if (arg == "--skip-readmit") {
      opts->skip_readmit = true;
    } else if (const char* v = value("--json=")) {
      opts->json_path = v;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
  }
  return !opts->seeds.empty() && !opts->queries.empty();
}

/// Host-reference answers of every query, computed once.
using References = std::map<plan::TpchQuery, plan::TpchQueryResult>;

struct ChaosPoint {
  uint64_t seed = 0;
  std::string query;
  int victim = 0;
  int devices_lost = 0;
  int recovery_rounds = 0;
  size_t replaced_shards = 0;
  uint64_t transfer_retries = 0;
  uint64_t device_calls = 0;  ///< checks summed over the four injectors
  uint64_t sim_ns = 0;
  bool ok = true;
};

/// Arms the per-seed fault schedule on a fresh 4-device group: a sticky
/// DeviceLost on the victim's kernel stream plus low-probability transient
/// TransferFaults on every device.
int ArmChaos(gpusim::DeviceGroup& group, uint64_t seed) {
  const int victim = static_cast<int>(seed % 4);
  for (int d = 0; d < group.size(); ++d) {
    gpusim::FaultInjector& inj = group.ArmFaultInjector(d, seed);
    gpusim::FaultRule transient;
    transient.site = gpusim::FaultSite::kTransfer;
    transient.kind = gpusim::FaultKind::kTransfer;
    transient.probability = 0.03;
    transient.max_fires = 2;
    inj.AddRule(transient);
    if (d == victim) {
      gpusim::FaultRule kill;
      kill.site = gpusim::FaultSite::kKernel;
      kill.kind = gpusim::FaultKind::kDeviceLost;
      kill.at_call = 2 + seed % 7;
      inj.AddRule(kill);
    }
  }
  return victim;
}

int RunChaosSweep(const Options& opts, const plan::TpchHostTables& tables,
                  const References& ref, std::vector<ChaosPoint>* points) {
  std::printf("%6s %5s %7s %5s %7s %9s %8s %11s %5s\n", "seed", "query",
              "victim", "lost", "rounds", "replaced", "retries", "sim_ms",
              "ok");
  for (const uint64_t seed : opts.seeds) {
    for (const std::string& qname : opts.queries) {
      const plan::TpchQuery q = plan::ParseTpchQuery(qname);
      gpusim::DeviceGroup group(4);
      ChaosPoint p;
      p.seed = seed;
      p.query = qname;
      p.victim = ArmChaos(group, seed);

      plan::ShardedQueryOptions sq;
      sq.force_shards = opts.force_shards;
      plan::ShardedRunStats stats;
      plan::TpchQueryResult result;
      try {
        result = plan::RunSharded(q, tables, group, backends::kHandwritten,
                                  sq, &stats);
      } catch (const std::exception& e) {
        std::fprintf(stderr,
                     "  PERMANENT seed=%llu %s: %s (alive=%d of 4)\n",
                     static_cast<unsigned long long>(seed), qname.c_str(),
                     e.what(), group.AliveCount());
        return kExitPermanentFailure;
      }

      p.devices_lost = stats.devices_lost;
      p.recovery_rounds = stats.recovery_rounds;
      p.replaced_shards = stats.replaced_shards;
      p.transfer_retries = stats.transfer_retries;
      p.sim_ns = stats.simulated_ns;
      for (int d = 0; d < group.size(); ++d) {
        p.device_calls += group.fault_injector(d)->stats().checks;
      }

      std::string why;
      if (!plan::SameAnswer(q, result, ref.at(q), &why)) {
        std::fprintf(stderr, "  WRONG seed=%llu %s: %s\n",
                     static_cast<unsigned long long>(seed), qname.c_str(),
                     why.c_str());
        p.ok = false;
      }
      if (group.IsAlive(p.victim)) {
        std::fprintf(stderr,
                     "  seed=%llu %s: victim %d survived — fault schedule "
                     "never fired\n",
                     static_cast<unsigned long long>(seed), qname.c_str(),
                     p.victim);
        p.ok = false;
      }

      std::printf("%6llu %5s %7d %5d %7d %9zu %8llu %11.3f %5s\n",
                  static_cast<unsigned long long>(seed), qname.c_str(),
                  p.victim, p.devices_lost, p.recovery_rounds,
                  p.replaced_shards,
                  static_cast<unsigned long long>(p.transfer_retries),
                  p.sim_ns / 1e6, p.ok ? "OK" : "WRONG");
      const bool ok = p.ok;
      points->push_back(std::move(p));
      if (!ok) return kExitWrongAnswer;
    }
  }
  return 0;
}

/// Zero-fault gate: armed but rule-less injectors must not move the
/// simulated timeline by a single nanosecond versus a bare group.
int RunZeroFaultGate(const Options& opts, const plan::TpchHostTables& tables) {
  for (const std::string& qname : opts.queries) {
    const plan::TpchQuery q = plan::ParseTpchQuery(qname);
    plan::ShardedQueryOptions sq;
    sq.force_shards = opts.force_shards;

    gpusim::DeviceGroup bare(4);
    plan::ShardedRunStats bare_stats;
    (void)plan::RunSharded(q, tables, bare, backends::kHandwritten, sq,
                           &bare_stats);

    gpusim::DeviceGroup armed(4);
    for (int d = 0; d < armed.size(); ++d) armed.ArmFaultInjector(d, 7);
    plan::ShardedRunStats armed_stats;
    (void)plan::RunSharded(q, tables, armed, backends::kHandwritten, sq,
                           &armed_stats);

    if (armed_stats.simulated_ns != bare_stats.simulated_ns) {
      std::fprintf(stderr,
                   "  DRIFT %s: armed %llu ns != bare %llu ns\n",
                   qname.c_str(),
                   static_cast<unsigned long long>(armed_stats.simulated_ns),
                   static_cast<unsigned long long>(bare_stats.simulated_ns));
      return kExitTimelineDrift;
    }
    std::printf("  zero-fault %-4s %llu ns (bit-identical)\n", qname.c_str(),
                static_cast<unsigned long long>(bare_stats.simulated_ns));
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Phase C: kill -> degrade -> reset -> rerun -> re-converge.

struct ReadmitPoint {
  uint64_t seed = 0;
  std::string query;
  int victim = 0;
  uint64_t degraded_ns = 0;   ///< sim makespan of the run the kill hit
  uint64_t recovered_ns = 0;  ///< sim makespan of the rerun after the reset
  uint64_t baseline_ns = 0;   ///< never-killed fresh-group reference
  size_t checkpoints_reused = 0;
  size_t victim_shards = 0;   ///< slices the victim ran in the rerun
  bool deterministic = false;
};

/// One kill -> degrade -> reset -> rerun sequence on a fresh group. The kill
/// is a one-shot (max_fires = 1) so it cannot re-fire on the rerun's fresh
/// streams after the sticky loss is cleared by the reset.
struct SequenceOutcome {
  plan::ShardedRunStats degraded;
  plan::ShardedRunStats recovered;
  plan::TpchQueryResult degraded_result;
  plan::TpchQueryResult recovered_result;
  std::vector<size_t> placement;  ///< per-device shard counts of the rerun
  bool victim_died = false;
  bool victim_back = false;
  size_t victim_shards = 0;  ///< slices the victim ran in the rerun
};

SequenceOutcome RunKillResetSequence(plan::TpchQuery q,
                                     const plan::TpchHostTables& tables,
                                     const Options& opts, uint64_t seed,
                                     int victim) {
  gpusim::DeviceGroup group(4);
  gpusim::FaultInjector& inj = group.ArmFaultInjector(victim, seed);
  // Later than phase A's kill so the victim finishes at least one slice
  // first — that checkpointed slice is what the degraded run must reuse.
  gpusim::FaultRule kill;
  kill.site = gpusim::FaultSite::kKernel;
  kill.kind = gpusim::FaultKind::kDeviceLost;
  kill.at_call = 6 + seed % 7;
  kill.max_fires = 1;
  inj.AddRule(kill);

  plan::ShardedQueryOptions sq;
  sq.force_shards = opts.force_shards;

  SequenceOutcome out;
  out.degraded_result =
      plan::RunSharded(q, tables, group, backends::kHandwritten, sq,
                       &out.degraded);
  out.victim_died = !group.IsAlive(victim);

  group.MarkReset(victim);  // operator resets the lost device
  out.recovered_result =
      plan::RunSharded(q, tables, group, backends::kHandwritten, sq,
                       &out.recovered);
  out.victim_back = group.IsAlive(victim);
  for (const plan::DeviceShardStats& ds : out.recovered.per_device) {
    out.placement.push_back(ds.shards);
    if (ds.device == victim) out.victim_shards = ds.shards;
  }
  return out;
}

int RunReadmissionPhase(const Options& opts, const plan::TpchHostTables& tables,
                        const References& ref,
                        std::vector<ReadmitPoint>* points,
                        size_t* total_reuse) {
  std::printf("%6s %5s %7s %6s %8s %12s %12s %12s %5s\n", "seed", "query",
              "victim", "shards", "ckpt", "degraded_ms", "recover_ms",
              "baseline_ms", "ok");
  for (const uint64_t seed : opts.seeds) {
    for (const std::string& qname : opts.queries) {
      const plan::TpchQuery q = plan::ParseTpchQuery(qname);
      const int victim = static_cast<int>(seed % 4);

      // Never-killed reference on a bare group: the recovered run must get
      // back within 5% of this (in practice it is bit-identical — same
      // four-alive placement, no fault charges).
      plan::ShardedQueryOptions sq;
      sq.force_shards = opts.force_shards;
      gpusim::DeviceGroup bare(4);
      plan::ShardedRunStats baseline;
      (void)plan::RunSharded(q, tables, bare, backends::kHandwritten, sq,
                             &baseline);

      SequenceOutcome first;
      try {
        first = RunKillResetSequence(q, tables, opts, seed, victim);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "  PERMANENT seed=%llu %s: %s\n",
                     static_cast<unsigned long long>(seed), qname.c_str(),
                     e.what());
        return kExitPermanentFailure;
      }

      ReadmitPoint p;
      p.seed = seed;
      p.query = qname;
      p.victim = victim;
      p.degraded_ns = first.degraded.simulated_ns;
      p.recovered_ns = first.recovered.simulated_ns;
      p.baseline_ns = baseline.simulated_ns;
      p.checkpoints_reused = first.degraded.checkpointed_slices_reused;
      p.victim_shards = first.victim_shards;
      *total_reuse += p.checkpoints_reused;

      std::string why;
      bool ok = true;
      if (!first.victim_died) {
        std::fprintf(stderr, "  seed=%llu %s: kill never fired\n",
                     static_cast<unsigned long long>(seed), qname.c_str());
        ok = false;
      }
      if (ok &&
          (!plan::SameAnswer(q, first.degraded_result, ref.at(q), &why) ||
           !plan::SameAnswer(q, first.recovered_result, ref.at(q), &why))) {
        std::fprintf(stderr, "  WRONG seed=%llu %s: %s\n",
                     static_cast<unsigned long long>(seed), qname.c_str(),
                     why.c_str());
        return kExitWrongAnswer;
      }
      if (ok && (!first.victim_back || first.victim_shards < 1)) {
        std::fprintf(stderr,
                     "  seed=%llu %s: victim not back after the reset "
                     "(alive=%d, slices=%zu)\n",
                     static_cast<unsigned long long>(seed), qname.c_str(),
                     first.victim_back ? 1 : 0, first.victim_shards);
        ok = false;
      }
      // Re-converge: the recovered run must be within 5% of never-killed.
      if (ok && p.recovered_ns >
                    baseline.simulated_ns + baseline.simulated_ns / 20) {
        std::fprintf(stderr,
                     "  seed=%llu %s: recovered %llu ns > baseline %llu ns "
                     "+5%%\n",
                     static_cast<unsigned long long>(seed), qname.c_str(),
                     static_cast<unsigned long long>(p.recovered_ns),
                     static_cast<unsigned long long>(baseline.simulated_ns));
        ok = false;
      }
      // Determinism: the identical sequence on a second identical group must
      // reproduce the placement and the simulated timeline exactly.
      if (ok) {
        const SequenceOutcome second =
            RunKillResetSequence(q, tables, opts, seed, victim);
        p.deterministic =
            second.degraded.simulated_ns == first.degraded.simulated_ns &&
            second.recovered.simulated_ns == first.recovered.simulated_ns &&
            second.placement == first.placement &&
            second.degraded.checkpointed_slices_reused ==
                first.degraded.checkpointed_slices_reused;
        if (!p.deterministic) {
          std::fprintf(stderr, "  seed=%llu %s: replay diverged\n",
                       static_cast<unsigned long long>(seed), qname.c_str());
          ok = false;
        }
      }

      std::printf("%6llu %5s %7d %6zu %8zu %12.3f %12.3f %12.3f %5s\n",
                  static_cast<unsigned long long>(seed), qname.c_str(), victim,
                  p.victim_shards, p.checkpoints_reused, p.degraded_ns / 1e6,
                  p.recovered_ns / 1e6, p.baseline_ns / 1e6,
                  ok ? "OK" : "FAIL");
      points->push_back(std::move(p));
      if (!ok) return kExitReadmissionFailure;
    }
  }
  if (*total_reuse == 0) {
    std::fprintf(stderr,
                 "  no checkpointed slice was ever reused — the kill "
                 "schedule proved nothing\n");
    return kExitNoCheckpointReuse;
  }
  std::printf("  checkpointed slices reused across the matrix: %zu\n",
              *total_reuse);
  return 0;
}

// ---------------------------------------------------------------------------
// Phase B: the serving tier under flood, garbage, and a tripped breaker.

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

// Reads one reply frame from `fd` and closes it. True when the reply is of
// type `want`.
bool RepliesWith(int fd, serve::MsgType want) {
  serve::MsgType type{};
  std::vector<uint8_t> payload;
  bool got = false;
  try {
    got = serve::ReadFrame(fd, &type, &payload);
  } catch (const std::exception&) {
  }
  ::close(fd);
  return got && type == want;
}

// Sends `blob` on a fresh connection and half-closes the write side, so the
// server's frame parser meets EOF right after it. True when the server
// answered with the typed kError of a malformed frame.
bool SendMalformed(const std::string& path, const std::vector<uint8_t>& blob) {
  const int fd = RawConnect(path);
  if (fd < 0) return false;
  SendRaw(fd, blob);
  ::shutdown(fd, SHUT_WR);
  return RepliesWith(fd, serve::MsgType::kError);
}

struct ServerOutcome {
  uint64_t shed = 0;
  uint64_t malformed = 0;
  bool healed = false;
  bool ok = false;
};

int RunServerPhase(ServerOutcome* outcome) {
  serve::ServerOptions options;
  options.socket_path =
      "/tmp/bench_chaos_srv_" + std::to_string(::getpid()) + ".sock";
  options.catalog.scale_factor = 0.004;
  options.max_connections = 4;
  serve::QueryServer server(options);
  server.Start();
  core::CircuitBreaker& breaker = server.breaker();
  const plan::TpchQueryResult ref_q6 =
      plan::ReferenceAnswer(plan::TpchQuery::kQ6, server.catalog().host());
  const auto q6_ok = [&](const serve::QueryReply& reply) {
    return plan::SameAnswer(plan::TpchQuery::kQ6, reply.result, ref_q6);
  };

  serve::Client client(options.socket_path, "chaos", serve::TenantClass::kInteractive);
  if (!q6_ok(client.Query("q6"))) {
    std::fprintf(stderr, "  server: wrong q6 before any chaos\n");
    return kExitServerFailure;
  }

  // Connection flood past the cap: the shed reply must be typed.
  {
    std::vector<serve::Client> holders;
    for (size_t i = 1; i < options.max_connections; ++i) {
      holders.emplace_back(options.socket_path, "holder",
                           serve::TenantClass::kBatch);
    }
    const int fd = RawConnect(options.socket_path);
    if (fd < 0) {
      std::fprintf(stderr, "  server: flood connect failed\n");
      return kExitServerFailure;
    }
    if (!RepliesWith(fd, serve::MsgType::kOverloaded)) {
      std::fprintf(stderr,
                   "  server: flood got no typed kOverloaded reply\n");
      return kExitServerFailure;
    }
  }

  // Malformed-frame storm: oversized length prefix, truncated header, and
  // seeded random blobs, none of which may kill the server. Each goes on its
  // own connection and is answered before the next one connects, so every
  // blob reaches the frame parser. The holders above hung up, but their
  // sessions finish asynchronously and are reaped at the next accept, so
  // each connect first waits until only the client's session is live: no
  // storm connection is shed at the connection cap.
  std::vector<std::vector<uint8_t>> storm;
  {
    serve::Writer w;
    w.U32(serve::kMaxFrameBytes + 1);
    w.U8(static_cast<uint8_t>(serve::MsgType::kQuery));
    storm.push_back(w.bytes());
  }
  storm.push_back({0xba, 0xad});
  std::mt19937_64 rng(4242);
  for (int i = 0; i < 16; ++i) {
    std::vector<uint8_t> blob(1 + rng() % 48);
    for (uint8_t& b : blob) b = static_cast<uint8_t>(rng());
    if (blob.size() >= 5 &&
        blob[4] == static_cast<uint8_t>(serve::MsgType::kShutdown)) {
      blob[4] = 0x7f;
    }
    storm.push_back(std::move(blob));
  }
  for (const std::vector<uint8_t>& blob : storm) {
    while (server.ActiveConnections() > 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (!SendMalformed(options.socket_path, blob)) {
      std::fprintf(stderr,
                   "  server: a malformed frame got no typed kError reply\n");
      return kExitServerFailure;
    }
  }

  // Sticky device loss behind the serving backend: the server's breaker
  // opens, admission sheds with retry-after, and the half-open probe heals.
  breaker.RecordFailure();
  breaker.RecordFailure();
  breaker.RecordFailure();
  const serve::QueryReply shed = client.Query("q6");
  if (!shed.overloaded || shed.retry_after_ms == 0) {
    std::fprintf(stderr, "  server: open breaker did not shed\n");
    return kExitServerFailure;
  }
  for (int i = 0; i < 64 && !outcome->healed; ++i) {
    const serve::QueryReply reply = client.Query("q6");
    if (!reply.overloaded) {
      outcome->healed = true;
      if (!q6_ok(reply)) {
        std::fprintf(stderr, "  server: wrong q6 after breaker heal\n");
        return kExitServerFailure;
      }
    }
  }
  if (!outcome->healed) {
    std::fprintf(stderr, "  server: breaker probe never admitted\n");
    return kExitServerFailure;
  }

  // Every storm connection read its reply, so each malformed frame is
  // already counted: one per connection, no more, no fewer.
  const serve::StatsReply stats = client.Stats();
  outcome->shed = stats.overloaded;
  outcome->malformed = stats.malformed;
  if (stats.malformed != storm.size()) {
    std::fprintf(stderr, "  server: %llu malformed frames counted, %zu sent\n",
                 static_cast<unsigned long long>(stats.malformed),
                 storm.size());
    return kExitServerFailure;
  }

  client.Shutdown();
  server.WaitForShutdown();
  server.Stop();
  outcome->ok = true;
  std::printf("  server: shed=%llu malformed=%llu healed=yes\n",
              static_cast<unsigned long long>(outcome->shed),
              static_cast<unsigned long long>(outcome->malformed));
  return 0;
}

int Run(const Options& opts) {
  core::RegisterBuiltinBackends();

  tpch::Config config;
  config.scale_factor = opts.scale_factor;
  const storage::Table lineitem = tpch::GenerateLineitem(config);
  const storage::Table orders = tpch::GenerateOrders(config);
  const storage::Table customer = tpch::GenerateCustomer(config);
  const storage::Table part = tpch::GeneratePart(config);

  plan::TpchHostTables tables;
  tables.lineitem = &lineitem;
  tables.orders = &orders;
  tables.customer = &customer;
  tables.part = &part;

  const References ref = plan::ReferenceAnswers(tables);

  std::printf("bench_chaos_multidevice: sf=%g rows(lineitem)=%zu seeds=%zu "
              "shards=%zu\n\n",
              opts.scale_factor, lineitem.num_rows(), opts.seeds.size(),
              opts.force_shards);

  std::printf("phase A: device-loss chaos sweep (4 devices, one victim per "
              "seed)\n");
  std::vector<ChaosPoint> points;
  int rc = RunChaosSweep(opts, tables, ref, &points);
  if (rc != 0) return rc;
  uint64_t device_calls = 0;
  for (const ChaosPoint& p : points) device_calls += p.device_calls;
  const double device_calls_per_query =
      points.empty() ? 0.0
                     : static_cast<double>(device_calls) /
                           static_cast<double>(points.size());
  std::printf("  device calls per query: %.1f\n", device_calls_per_query);

  std::printf("\nphase A gate: zero-fault timeline\n");
  rc = RunZeroFaultGate(opts, tables);
  if (rc != 0) return rc;

  ServerOutcome server_outcome;
  if (!opts.skip_server) {
    std::printf("\nphase B: serving tier under flood + garbage + breaker\n");
    rc = RunServerPhase(&server_outcome);
    if (rc != 0) return rc;
  }

  std::vector<ReadmitPoint> readmit_points;
  size_t checkpoint_reuse_total = 0;
  if (!opts.skip_readmit) {
    std::printf("\nphase C: kill -> degrade -> reset -> rerun -> "
                "re-converge\n");
    rc = RunReadmissionPhase(opts, tables, ref, &readmit_points,
                             &checkpoint_reuse_total);
    if (rc != 0) return rc;
  }

  std::printf("\nall degraded runs correct, zero-fault timeline identical%s%s"
              ": OK\n",
              opts.skip_server ? "" : ", server hardened",
              opts.skip_readmit ? "" : ", fleet self-healed");

  if (!opts.json_path.empty()) {
    std::ofstream out(opts.json_path);
    out << "{\n  \"scale_factor\": " << opts.scale_factor << ",\n"
        << "  \"force_shards\": " << opts.force_shards << ",\n"
        << "  \"all_ok\": true,\n"
        << "  \"device_calls_per_query\": " << device_calls_per_query << ",\n"
        << "  \"server\": {\"ran\": " << (opts.skip_server ? "false" : "true")
        << ", \"shed\": " << server_outcome.shed
        << ", \"malformed\": " << server_outcome.malformed
        << ", \"breaker_healed\": "
        << (server_outcome.healed ? "true" : "false") << "},\n"
        << "  \"chaos\": [\n";
    for (size_t i = 0; i < points.size(); ++i) {
      const ChaosPoint& p = points[i];
      out << "    {\"seed\": " << p.seed << ", \"query\": \"" << p.query
          << "\", \"victim\": " << p.victim
          << ", \"devices_lost\": " << p.devices_lost
          << ", \"recovery_rounds\": " << p.recovery_rounds
          << ", \"replaced_shards\": " << p.replaced_shards
          << ", \"transfer_retries\": " << p.transfer_retries
          << ", \"device_calls\": " << p.device_calls
          << ", \"sim_ns\": " << p.sim_ns
          << ", \"ok\": " << (p.ok ? "true" : "false") << "}"
          << (i + 1 < points.size() ? "," : "") << "\n";
    }
    out << "  ],\n"
        << "  \"readmission\": {\"ran\": "
        << (opts.skip_readmit ? "false" : "true")
        << ", \"checkpoint_reuse_total\": " << checkpoint_reuse_total
        << ", \"points\": [\n";
    for (size_t i = 0; i < readmit_points.size(); ++i) {
      const ReadmitPoint& p = readmit_points[i];
      out << "    {\"seed\": " << p.seed << ", \"query\": \"" << p.query
          << "\", \"victim\": " << p.victim
          << ", \"victim_shards\": " << p.victim_shards
          << ", \"checkpoints_reused\": " << p.checkpoints_reused
          << ", \"degraded_ns\": " << p.degraded_ns
          << ", \"recovered_ns\": " << p.recovered_ns
          << ", \"baseline_ns\": " << p.baseline_ns
          << ", \"deterministic\": " << (p.deterministic ? "true" : "false")
          << "}" << (i + 1 < readmit_points.size() ? "," : "") << "\n";
    }
    out << "  ]}\n}\n";
    std::printf("wrote %s\n", opts.json_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!ParseArgs(argc, argv, &opts)) {
    std::fprintf(stderr,
                 "usage: %s [--seeds=1,2,3] [--sf=F] "
                 "[--queries=q1,q3,q4,q6,q14] [--shards=N] [--skip-server] "
                 "[--skip-readmit] [--json=FILE]\n",
                 argv[0]);
    return 64;
  }
  try {
    return Run(opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_chaos_multidevice: %s\n", e.what());
    return kExitPermanentFailure;
  }
}
