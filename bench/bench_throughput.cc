// Wall-clock multi-client TPC-H throughput of the simulator.
//
// Unlike the per-query benches (which report *simulated* device time), this
// one measures what the whole stack costs on the host when N concurrent
// clients hammer the device through the QueryScheduler: queries/sec,
// latency percentiles, scaling efficiency vs the 1-client baseline, and the
// thread-pool / device counters behind them. It also re-checks the repo's
// core invariant on every run: a query's per-stream *simulated* time must be
// bit-identical at every client count (the cost model cannot observe host
// scheduling) — the process exits non-zero if that ever breaks.
//
// Not a google-benchmark binary: the unit of work is a whole scheduler run,
// and the sweep needs cross-run state (the 1-client baseline), so it drives
// itself and optionally writes machine-readable JSON for CI archiving.
//
// Usage:
//   bench_throughput [--backend=Handwritten] [--clients=1,2,4,8]
//                    [--queries=q1,q6,q14] [--per-client=6] [--sf=0.01]
//                    [--json=FILE]
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "backends/backends.h"
#include "core/registry.h"
#include "core/scheduler.h"
#include "gpusim/device.h"
#include "plan/prepared.h"
#include "tpch/datagen.h"

namespace {

struct Options {
  std::string backend = backends::kHandwritten;
  std::vector<unsigned> clients = {1, 2, 4, 8};
  std::vector<std::string> queries = {"q1", "q6", "q14"};
  unsigned per_client = 6;  ///< queries submitted per client slot
  double scale_factor = 0.01;
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
    if (const char* v = value("--backend=")) {
      opts->backend = v;
    } else if (const char* v = value("--clients=")) {
      opts->clients.clear();
      for (const auto& c : SplitCsv(v)) {
        opts->clients.push_back(static_cast<unsigned>(std::stoul(c)));
      }
    } else if (const char* v = value("--queries=")) {
      opts->queries = SplitCsv(v);
    } else if (const char* v = value("--per-client=")) {
      opts->per_client = static_cast<unsigned>(std::stoul(v));
    } else if (const char* v = value("--sf=")) {
      opts->scale_factor = std::stod(v);
    } else if (const char* v = value("--json=")) {
      opts->json_path = v;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
  }
  return !opts->clients.empty() && !opts->queries.empty() &&
         opts->per_client > 0;
}

/// Results of one scheduler run at a fixed client count.
struct SweepPoint {
  unsigned clients = 0;
  size_t queries = 0;
  double wall_seconds = 0;
  double qps = 0;
  double speedup = 0;     ///< qps / 1-client qps
  double efficiency = 0;  ///< speedup / clients
  core::LatencySummary wall_ms;
  uint64_t pool_jobs_dispatched = 0;
  uint64_t pool_jobs_inline = 0;
  uint64_t pool_jobs_overflow = 0;
  uint64_t pool_chunks_worker = 0;
  uint64_t pool_max_live_jobs = 0;
  uint64_t kernels = 0;
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;
  uint64_t peak_bytes = 0;      ///< device high-water of live+reserved bytes
  uint64_t reserved_bytes = 0;  ///< admission reservations at run end
};

int Run(const Options& opts) {
  core::RegisterBuiltinBackends();

  tpch::Config config;
  config.scale_factor = opts.scale_factor;
  const storage::Table lineitem = tpch::GenerateLineitem(config);
  const storage::Table orders = tpch::GenerateOrders(config);
  const storage::Table customer = tpch::GenerateCustomer(config);
  const storage::Table part = tpch::GeneratePart(config);

  // Upload once; device-resident tables are read-only and shared by every
  // client stream, and so is each query's plan, pinned to the backend.
  gpusim::Device& device = gpusim::Device::Default();
  gpusim::Stream setup(device, gpusim::ApiProfile::Cuda());
  const auto resident = plan::MakeResident(
      setup, {&lineitem, &orders, &customer, &part}, /*use_encoding=*/false);
  std::map<std::string, std::shared_ptr<const plan::PreparedTpchQuery>>
      prepared;
  for (const std::string& kind : opts.queries) {
    prepared[kind] = plan::PrepareTpchQuery({plan::ParseTpchQuery(kind)},
                                            resident, opts.backend);
  }
  const auto make_query = [&](const std::string& kind) -> core::QueryFn {
    return [query = prepared.at(kind)](core::Backend& b) { query->Run(b); };
  };

  std::printf("bench_throughput: backend=%s sf=%g rows(lineitem)=%zu "
              "pool_threads=%u queries/client=%u\n\n",
              opts.backend.c_str(), opts.scale_factor, lineitem.num_rows(),
              device.pool().num_threads(), opts.per_client);
  std::printf("%8s %8s %9s %9s %8s %6s %9s %9s %9s %7s %9s\n", "clients",
              "queries", "wall_s", "qps", "speedup", "eff", "p50_ms",
              "p95_ms", "p99_ms", "jobs", "stolen");

  // Warmup: run each query kind once so the device pool and lazily-created
  // structures are hot before the measured sweep; otherwise the 1-client
  // baseline absorbs all the cold-start cost and inflates the speedups.
  {
    core::SchedulerOptions warm_opts;
    warm_opts.backend_name = opts.backend;
    warm_opts.num_clients = 1;
    core::QueryScheduler warm(warm_opts);
    for (const std::string& kind : opts.queries) {
      warm.Submit("warmup/" + kind, make_query(kind));
    }
    warm.Drain();
  }

  // Golden invariance: simulated ns per query kind, taken from the first
  // sweep point and compared at every later one.
  std::map<std::string, uint64_t> golden_sim_ns;
  bool invariant_ok = true;
  std::vector<SweepPoint> points;

  for (const unsigned clients : opts.clients) {
    const gpusim::ThreadPoolStats pool_before = device.pool().stats();
    const gpusim::CounterSnapshot dev_before = device.Snapshot();

    core::SchedulerOptions sched_opts;
    sched_opts.backend_name = opts.backend;
    sched_opts.num_clients = clients;
    sched_opts.queue_capacity = 2 * static_cast<size_t>(clients);

    core::QueryScheduler scheduler(sched_opts);
    const size_t total = static_cast<size_t>(clients) * opts.per_client;
    for (size_t i = 0; i < total; ++i) {
      const std::string& kind = opts.queries[i % opts.queries.size()];
      scheduler.Submit(kind, make_query(kind));
    }
    scheduler.Drain();

    const core::SchedulerReport report = scheduler.Report();
    const gpusim::ThreadPoolStats pool_after = device.pool().stats();
    const gpusim::CounterSnapshot dev_delta =
        device.Snapshot().Delta(dev_before);

    // OpenCL-style backends JIT-compile programs into per-instance caches,
    // so their first queries legitimately carry compile time that later ones
    // do not; the bit-identical golden check only applies to runs with no
    // compilation (the scheduler_test covers the general invariant).
    const bool jit_warmup = dev_delta.programs_compiled > 0;
    for (const core::QueryRecord& q : scheduler.Records()) {
      if (!q.ok) {
        std::fprintf(stderr, "query %s failed: %s\n", q.label.c_str(),
                     q.error.c_str());
        return 2;
      }
      if (jit_warmup) continue;
      const auto [it, inserted] =
          golden_sim_ns.emplace(q.label, q.simulated_ns);
      if (!inserted && it->second != q.simulated_ns) {
        std::fprintf(stderr,
                     "SIMULATED-TIME INVARIANT VIOLATED: %s took %llu ns at "
                     "%u clients, expected %llu\n",
                     q.label.c_str(),
                     static_cast<unsigned long long>(q.simulated_ns), clients,
                     static_cast<unsigned long long>(it->second));
        invariant_ok = false;
      }
    }

    SweepPoint p;
    p.clients = clients;
    p.queries = report.completed;
    p.wall_seconds = report.wall_seconds;
    p.qps = report.queries_per_sec;
    p.speedup = points.empty() || points.front().qps == 0
                    ? 1.0
                    : p.qps / points.front().qps;
    p.efficiency = p.speedup / clients;
    p.wall_ms = report.wall_ms;
    p.pool_jobs_dispatched =
        pool_after.jobs_dispatched - pool_before.jobs_dispatched;
    p.pool_jobs_inline = pool_after.jobs_inline - pool_before.jobs_inline;
    p.pool_jobs_overflow = pool_after.jobs_overflow - pool_before.jobs_overflow;
    p.pool_chunks_worker = pool_after.chunks_worker - pool_before.chunks_worker;
    p.pool_max_live_jobs = pool_after.max_live_jobs;
    p.kernels = dev_delta.kernels_launched;
    p.pool_hits = dev_delta.pool_hits;
    p.pool_misses = dev_delta.pool_misses;
    p.peak_bytes = report.device_peak_bytes;
    p.reserved_bytes = report.device_reserved_bytes;
    points.push_back(p);

    std::printf("%8u %8zu %9.3f %9.1f %7.2fx %5.2f %9.3f %9.3f %9.3f %7llu "
                "%9llu\n",
                p.clients, p.queries, p.wall_seconds, p.qps, p.speedup,
                p.efficiency, p.wall_ms.p50, p.wall_ms.p95, p.wall_ms.p99,
                static_cast<unsigned long long>(p.pool_jobs_dispatched),
                static_cast<unsigned long long>(p.pool_chunks_worker));
  }

  std::printf("\nsimulated-time invariant (per-query ns identical at every "
              "client count): %s\n",
              invariant_ok ? "OK" : "VIOLATED");

  if (!opts.json_path.empty()) {
    std::ofstream out(opts.json_path);
    out << "{\n  \"backend\": \"" << opts.backend << "\",\n"
        << "  \"scale_factor\": " << opts.scale_factor << ",\n"
        << "  \"pool_threads\": " << device.pool().num_threads() << ",\n"
        << "  \"sim_ns_invariant_ok\": " << (invariant_ok ? "true" : "false")
        << ",\n  \"sweep\": [\n";
    for (size_t i = 0; i < points.size(); ++i) {
      const SweepPoint& p = points[i];
      out << "    {\"clients\": " << p.clients << ", \"queries\": "
          << p.queries << ", \"wall_seconds\": " << p.wall_seconds
          << ", \"qps\": " << p.qps << ", \"speedup\": " << p.speedup
          << ", \"efficiency\": " << p.efficiency
          << ", \"p50_ms\": " << p.wall_ms.p50
          << ", \"p95_ms\": " << p.wall_ms.p95
          << ", \"p99_ms\": " << p.wall_ms.p99
          << ", \"pool_jobs_dispatched\": " << p.pool_jobs_dispatched
          << ", \"pool_jobs_inline\": " << p.pool_jobs_inline
          << ", \"pool_jobs_overflow\": " << p.pool_jobs_overflow
          << ", \"pool_chunks_worker\": " << p.pool_chunks_worker
          << ", \"pool_max_live_jobs\": " << p.pool_max_live_jobs
          << ", \"kernels\": " << p.kernels
          << ", \"pool_hits\": " << p.pool_hits
          << ", \"pool_misses\": " << p.pool_misses
          << ", \"peak_bytes\": " << p.peak_bytes
          << ", \"reserved_bytes\": " << p.reserved_bytes << "}"
          << (i + 1 < points.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::printf("wrote %s\n", opts.json_path.c_str());
  }

  return invariant_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!ParseArgs(argc, argv, &opts)) {
    std::fprintf(stderr,
                 "usage: %s [--backend=NAME] [--clients=1,2,4,8] "
                 "[--queries=q1,q6,q14] [--per-client=N] [--sf=F] "
                 "[--json=FILE]\n",
                 argv[0]);
    return 64;
  }
  try {
    return Run(opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_throughput: %s\n", e.what());
    return 3;
  }
}
