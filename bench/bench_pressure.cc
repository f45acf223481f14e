// Graceful degradation under device-memory pressure.
//
// Sweeps the simulated device capacity from 100% down to 10% of the TPC-H
// working set (the largest single-query footprint) crossed with client
// counts, and drives all five plan queries through the QueryScheduler with
// memory admission (core::MemoryGovernor) and spill-to-host partitioned
// execution (plan/partition.h). At every point it reports completion rate,
// partition counts, spill traffic, admission-queue behaviour, and latency
// percentiles — and verifies every query result against the host reference.
// The process exits non-zero on any permanent failure or wrong answer: the
// whole point of the governor is that shrinking memory degrades throughput,
// never correctness.
//
// Not a google-benchmark binary: the unit of work is a whole scheduler run
// at a given (capacity, clients) point, and the binary doubles as the CI
// acceptance gate for the memory-governance path.
//
// Usage:
//   bench_pressure [--backend=Handwritten] [--queries=q1,q3,q4,q6,q14]
//                  [--capacity=1.0,0.75,0.5,0.25,0.10] [--clients=1,4]
//                  [--per-client=2] [--sf=0.01] [--json=FILE]
//                  [--encoding=on|off]
//
// --encoding=on uploads tables (and spill slices) compressed and admits
// queries at their encoded footprint. The capacity baseline (working set)
// stays raw-sized in both modes so sweep points are comparable: at a fixed
// capacity fraction, encoding should show fewer partitions / higher
// immediate-admission rates than off.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "backends/backends.h"
#include "core/governor.h"
#include "core/registry.h"
#include "core/scheduler.h"
#include "gpusim/device.h"
#include "plan/partition.h"
#include "tpch/datagen.h"

namespace {

struct Options {
  std::string backend = backends::kHandwritten;
  std::vector<std::string> queries = {"q1", "q3", "q4", "q6", "q14"};
  std::vector<double> capacity_fracs = {1.0, 0.75, 0.5, 0.25, 0.10};
  std::vector<unsigned> clients = {1, 4};
  unsigned per_client = 2;
  double scale_factor = 0.01;
  std::string json_path;
  bool use_encoding = false;
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
    } else if (const char* v = value("--queries=")) {
      opts->queries = SplitCsv(v);
    } else if (const char* v = value("--capacity=")) {
      opts->capacity_fracs.clear();
      for (const auto& c : SplitCsv(v)) {
        opts->capacity_fracs.push_back(std::stod(c));
      }
    } else if (const char* v = value("--clients=")) {
      opts->clients.clear();
      for (const auto& c : SplitCsv(v)) {
        opts->clients.push_back(static_cast<unsigned>(std::stoul(c)));
      }
    } else if (const char* v = value("--per-client=")) {
      opts->per_client = static_cast<unsigned>(std::stoul(v));
    } else if (const char* v = value("--sf=")) {
      opts->scale_factor = std::stod(v);
    } else if (const char* v = value("--json=")) {
      opts->json_path = v;
    } else if (const char* v = value("--encoding=")) {
      const std::string mode = v;
      if (mode != "on" && mode != "off") {
        std::fprintf(stderr, "--encoding must be on or off\n");
        return false;
      }
      opts->use_encoding = mode == "on";
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
  }
  return !opts->queries.empty() && !opts->capacity_fracs.empty() &&
         !opts->clients.empty() && opts->per_client > 0;
}

/// Host-reference answers of every query, computed once.
using References = std::map<plan::TpchQuery, plan::TpchQueryResult>;

/// Results of one (capacity, clients) scheduler run.
struct SweepPoint {
  double capacity_frac = 0;
  uint64_t capacity_bytes = 0;
  unsigned clients = 0;
  size_t completed = 0;
  size_t failed = 0;
  size_t rejected = 0;
  size_t wrong = 0;             ///< verified results that did not match
  size_t partitioned = 0;       ///< queries that ran with K > 1
  size_t max_partitions = 0;    ///< largest K any query used
  size_t oom_fallbacks = 0;
  uint64_t spill_h2d = 0;
  uint64_t spill_d2h = 0;
  double wall_p95_ms = 0;
  double sim_p95_ms = 0;
  double wait_p95_ms = 0;
  uint64_t admitted_immediate = 0;
  uint64_t admitted_queued = 0;
  uint64_t peak_bytes = 0;
};

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

  std::vector<plan::TpchQuery> queries;
  for (const std::string& name : opts.queries) {
    queries.push_back(plan::ParseTpchQuery(name));
  }

  const References ref = plan::ReferenceAnswers(tables);

  // The pressure baseline: the largest single-query footprint, always
  // RAW-sized — capacity fractions must mean the same bytes whether encoding
  // is on or off, or the sweep points would not be comparable.
  uint64_t working_set = 0;
  for (const plan::TpchQuery q : queries) {
    working_set = std::max(
        working_set, plan::EstimateQueryFootprint(q, tables, opts.backend));
  }

  gpusim::Device& device = gpusim::Device::Default();
  const size_t original_capacity = device.memory_capacity();

  std::printf("bench_pressure: backend=%s sf=%g rows(lineitem)=%zu "
              "working_set=%.1f MiB queries/client=%u encoding=%s\n\n",
              opts.backend.c_str(), opts.scale_factor, lineitem.num_rows(),
              static_cast<double>(working_set) / (1024.0 * 1024.0),
              opts.per_client, opts.use_encoding ? "on" : "off");
  std::printf("%9s %8s %8s %7s %7s %6s %7s %7s %10s %10s %9s %9s\n",
              "capacity", "clients", "queries", "failed", "reject", "wrong",
              "parts", "maxK", "spill_h2d", "spill_d2h", "p95_ms",
              "wait95ms");

  std::vector<SweepPoint> points;
  bool all_ok = true;

  for (const double frac : opts.capacity_fracs) {
    for (const unsigned clients : opts.clients) {
      const uint64_t capacity = static_cast<uint64_t>(
          frac * static_cast<double>(working_set));
      device.TrimPool();  // prior points' pooled blocks don't count here
      device.set_memory_capacity(capacity);

      core::GovernorOptions gov_opts;
      gov_opts.device = &device;
      core::MemoryGovernor governor(gov_opts);

      core::SchedulerOptions sched_opts;
      sched_opts.backend_name = opts.backend;
      sched_opts.num_clients = clients;
      sched_opts.queue_capacity = 2 * static_cast<size_t>(clients);
      sched_opts.governor = &governor;

      const size_t total = static_cast<size_t>(clients) * opts.per_client *
                           queries.size();
      std::vector<plan::TpchQueryResult> results(total);
      std::vector<plan::GovernedRunStats> stats(total);
      std::vector<plan::TpchQuery> submitted(total);
      {
        core::QueryScheduler scheduler(sched_opts);
        for (size_t i = 0; i < total; ++i) {
          const plan::TpchQuery q = queries[i % queries.size()];
          submitted[i] = q;
          plan::GovernedQueryOptions gq;
          gq.use_encoding = opts.use_encoding;
          core::SubmitOptions submit;
          submit.footprint_bytes = plan::EstimateQueryFootprint(
              q, tables, opts.backend, 1, opts.use_encoding);
          scheduler.Submit(
              plan::TpchQueryName(q),
              plan::MakeGovernedQuery(q, tables, gq, &results[i], &stats[i]),
              submit);
        }
        scheduler.Drain();

        const core::SchedulerReport report = scheduler.Report();
        SweepPoint p;
        p.capacity_frac = frac;
        p.capacity_bytes = capacity;
        p.clients = clients;
        p.completed = report.completed;
        p.failed = report.failed;
        p.wall_p95_ms = report.wall_ms.p95;
        p.sim_p95_ms = report.simulated_ms.p95;
        p.wait_p95_ms = report.governor.wait_p95_ms;
        p.admitted_immediate = report.governor.granted;
        p.admitted_queued = report.governor.queued;
        p.peak_bytes = report.device_peak_bytes;

        const std::vector<core::QueryRecord> records = scheduler.Records();
        for (size_t i = 0; i < records.size(); ++i) {
          const core::QueryRecord& r = records[i];
          if (r.admission_rejected) ++p.rejected;
          if (!r.ok) {
            std::fprintf(stderr,
                         "  FAIL cap=%.0f%% clients=%u %s (id %llu): %s\n",
                         frac * 100, clients, r.label.c_str(),
                         static_cast<unsigned long long>(r.id),
                         r.error.c_str());
            continue;
          }
          std::string why;
          const plan::TpchQuery q = submitted[r.id];
          if (!plan::SameAnswer(q, results[r.id], ref.at(q), &why)) {
            ++p.wrong;
            std::fprintf(stderr, "  WRONG cap=%.0f%% clients=%u %s: %s\n",
                         frac * 100, clients, r.label.c_str(), why.c_str());
          }
        }
        for (const plan::GovernedRunStats& s : stats) {
          if (s.partitions > 1) ++p.partitioned;
          p.max_partitions = std::max(p.max_partitions, s.partitions);
          p.oom_fallbacks += s.oom_fallbacks;
          p.spill_h2d += s.spill_h2d_bytes;
          p.spill_d2h += s.spill_d2h_bytes;
        }

        if (p.failed > 0 || p.wrong > 0 || p.completed != total) {
          all_ok = false;
        }
        points.push_back(p);
        std::printf("%8.0f%% %8u %8zu %7zu %7zu %6zu %7zu %7zu %10llu "
                    "%10llu %9.3f %9.3f\n",
                    frac * 100, clients, p.completed, p.failed, p.rejected,
                    p.wrong, p.partitioned, p.max_partitions,
                    static_cast<unsigned long long>(p.spill_h2d),
                    static_cast<unsigned long long>(p.spill_d2h),
                    p.wall_p95_ms, p.wait_p95_ms);
      }
    }
  }

  device.set_memory_capacity(original_capacity);
  device.TrimPool();

  std::printf("\nall queries completed correctly at every capacity: %s\n",
              all_ok ? "OK" : "FAILED");

  if (!opts.json_path.empty()) {
    std::ofstream out(opts.json_path);
    uint64_t peak = 0;
    for (const SweepPoint& p : points) peak = std::max(peak, p.peak_bytes);
    out << "{\n  \"backend\": \"" << opts.backend << "\",\n"
        << "  \"devices\": 1,\n"
        << "  \"per_device_peak_bytes\": [" << peak << "],\n"
        << "  \"scale_factor\": " << opts.scale_factor << ",\n"
        << "  \"encoding\": " << (opts.use_encoding ? "true" : "false")
        << ",\n"
        << "  \"working_set_bytes\": " << working_set << ",\n"
        << "  \"all_ok\": " << (all_ok ? "true" : "false") << ",\n"
        << "  \"sweep\": [\n";
    for (size_t i = 0; i < points.size(); ++i) {
      const SweepPoint& p = points[i];
      out << "    {\"capacity_frac\": " << p.capacity_frac
          << ", \"capacity_bytes\": " << p.capacity_bytes
          << ", \"clients\": " << p.clients
          << ", \"completed\": " << p.completed
          << ", \"failed\": " << p.failed
          << ", \"rejected\": " << p.rejected
          << ", \"wrong\": " << p.wrong
          << ", \"partitioned_queries\": " << p.partitioned
          << ", \"max_partitions\": " << p.max_partitions
          << ", \"oom_fallbacks\": " << p.oom_fallbacks
          << ", \"spill_h2d_bytes\": " << p.spill_h2d
          << ", \"spill_d2h_bytes\": " << p.spill_d2h
          << ", \"wall_p95_ms\": " << p.wall_p95_ms
          << ", \"sim_p95_ms\": " << p.sim_p95_ms
          << ", \"admission_wait_p95_ms\": " << p.wait_p95_ms
          << ", \"admitted_immediate\": " << p.admitted_immediate
          << ", \"admitted_queued\": " << p.admitted_queued
          << ", \"peak_bytes\": " << p.peak_bytes << "}"
          << (i + 1 < points.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::printf("wrote %s\n", opts.json_path.c_str());
  }

  return all_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!ParseArgs(argc, argv, &opts)) {
    std::fprintf(stderr,
                 "usage: %s [--backend=NAME] [--queries=q1,q3,q4,q6,q14] "
                 "[--capacity=1.0,0.5,0.25] [--clients=1,4] "
                 "[--per-client=N] [--sf=F] [--json=FILE] "
                 "[--encoding=on|off]\n",
                 argv[0]);
    return 64;
  }
  try {
    return Run(opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_pressure: %s\n", e.what());
    return 3;
  }
}
