// Multi-device sharded execution: scaling sweep over simulated device counts.
//
// Sweeps N in {1, 2, 4, 8} simulated devices (gpusim::DeviceGroup) crossed
// with the five plan queries, running each query sharded across the group
// (plan/exchange.h): lineitem split into orderkey-snapped slices, one per
// device, build-side tables broadcast, per-device partials exchanged to
// device 0 over the group fabric. Every answer is verified against the host
// reference; the sweep reports per-device utilization, exchange traffic
// (p2p vs via-host), and scaling efficiency T1 / (N x TN).
//
// The binary doubles as the CI acceptance gate for the multi-device path and
// exits non-zero when:
//  * any answer mismatches the host reference at any device count,
//  * the 1-device sharded run is not bit-identical in simulated ns to the
//    governed single-device path (plan::RunGoverned) on a fresh device, or
//  * Q1 or Q6 scaling efficiency at 4 devices drops below 0.75.
//
// Usage:
//   bench_multidevice [--backend=Handwritten] [--queries=q1,q6,q14,q3,q4]
//                     [--devices=1,2,4,8] [--shards=0] [--sf=0.2]
//                     [--island=4] [--encoding=on|off] [--json=FILE]
//
// The default scale factor is sized so the per-shard body (transfer and
// kernel bytes, which shrink with the shard) dominates the per-shard fixed
// costs (kernel launches, transfer latencies, result fetches, which do not):
// small inputs are launch-bound and no amount of devices scales them.
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
#include "core/registry.h"
#include "gpusim/device_group.h"
#include "plan/exchange.h"
#include "plan/partition.h"
#include "tpch/datagen.h"

namespace {

struct Options {
  std::string backend = backends::kHandwritten;
  std::vector<std::string> queries = {"q1", "q6", "q14", "q3", "q4"};
  std::vector<int> devices = {1, 2, 4, 8};
  size_t force_shards = 0;
  double scale_factor = 0.2;
  int island = 4;
  bool use_encoding = false;
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
    } else if (const char* v = value("--queries=")) {
      opts->queries = SplitCsv(v);
    } else if (const char* v = value("--devices=")) {
      opts->devices.clear();
      for (const auto& d : SplitCsv(v)) opts->devices.push_back(std::stoi(d));
    } else if (const char* v = value("--shards=")) {
      opts->force_shards = std::stoul(v);
    } else if (const char* v = value("--sf=")) {
      opts->scale_factor = std::stod(v);
    } else if (const char* v = value("--island=")) {
      opts->island = std::stoi(v);
    } else if (const char* v = value("--encoding=")) {
      const std::string mode = v;
      if (mode != "on" && mode != "off") {
        std::fprintf(stderr, "--encoding must be on or off\n");
        return false;
      }
      opts->use_encoding = mode == "on";
    } else if (const char* v = value("--json=")) {
      opts->json_path = v;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
  }
  return !opts->queries.empty() && !opts->devices.empty() &&
         opts->island > 0;
}

/// Host-reference answers of every query, computed once.
using References = std::map<plan::TpchQuery, plan::TpchQueryResult>;

/// One (query, device-count) sweep point.
struct SweepPoint {
  std::string query;
  int devices = 0;
  size_t shards = 0;
  uint64_t sim_ns = 0;
  uint64_t t1_ns = 0;  ///< 1-device makespan of the same query
  double speedup = 0;
  double efficiency = 0;
  uint64_t exchange_bytes = 0;
  uint64_t exchange_p2p = 0;
  uint64_t exchange_via_host = 0;
  uint64_t broadcast_bytes = 0;
  bool ok = true;
  plan::ShardedRunStats stats;
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

  const References ref = plan::ReferenceAnswers(tables);

  gpusim::GroupTopology topo;
  topo.peer_island_size = opts.island;

  std::printf("bench_multidevice: backend=%s sf=%g rows(lineitem)=%zu "
              "island=%d encoding=%s\n\n",
              opts.backend.c_str(), opts.scale_factor, lineitem.num_rows(),
              opts.island, opts.use_encoding ? "on" : "off");
  std::printf("%5s %8s %7s %11s %8s %5s %10s %10s %9s %8s\n", "query",
              "devices", "shards", "sim_ms", "speedup", "eff", "exch_p2p",
              "exch_host", "util_min", "util_avg");

  std::vector<SweepPoint> points;
  bool all_ok = true;

  for (const std::string& qname : opts.queries) {
    const plan::TpchQuery q = plan::ParseTpchQuery(qname);
    uint64_t t1_ns = 0;

    for (const int nd : opts.devices) {
      // A fresh group per point: clean pools, counters, and peaks, so every
      // point's simulated timeline is a pure function of (query, N).
      gpusim::DeviceGroup group(nd, topo);
      plan::ShardedQueryOptions sq;
      sq.force_shards = opts.force_shards;
      sq.use_encoding = opts.use_encoding;
      plan::ShardedRunStats stats;
      const plan::TpchQueryResult result = plan::RunSharded(
          q, tables, group, opts.backend, sq, &stats);

      SweepPoint p;
      p.query = qname;
      p.devices = nd;
      p.shards = stats.shards;
      p.sim_ns = stats.simulated_ns;
      p.exchange_bytes = stats.exchange_bytes;
      p.exchange_p2p = stats.exchange_p2p_bytes;
      p.exchange_via_host = stats.exchange_via_host_bytes;
      p.broadcast_bytes = stats.broadcast_bytes;
      p.stats = stats;

      std::string why;
      if (!plan::SameAnswer(q, result, ref.at(q), &why)) {
        std::fprintf(stderr, "  WRONG %s at %d device(s): %s\n",
                     qname.c_str(), nd, why.c_str());
        p.ok = false;
        all_ok = false;
      }

      if (nd == 1) {
        t1_ns = stats.simulated_ns;
        // The 1-device sharded run must be bit-identical in simulated ns to
        // the governed path on an equally fresh device.
        gpusim::DeviceGroup base(1, topo);
        gpusim::Device::DeviceGuard guard(base.device(0));
        const std::unique_ptr<core::Backend> backend =
            core::BackendRegistry::Instance().Create(opts.backend);
        plan::GovernedQueryOptions gopt;
        gopt.force_partitions = opts.force_shards;
        gopt.use_encoding = opts.use_encoding;
        plan::GovernedRunStats gstats;
        (void)plan::RunGoverned(q, tables, *backend, gopt, &gstats);
        if (gstats.simulated_ns != stats.simulated_ns) {
          std::fprintf(stderr,
                       "  DIVERGED %s: 1-device sharded %llu ns != governed "
                       "%llu ns\n",
                       qname.c_str(),
                       static_cast<unsigned long long>(stats.simulated_ns),
                       static_cast<unsigned long long>(gstats.simulated_ns));
          p.ok = false;
          all_ok = false;
        }
      }
      p.t1_ns = t1_ns;
      if (t1_ns > 0 && p.sim_ns > 0) {
        p.speedup = static_cast<double>(t1_ns) / static_cast<double>(p.sim_ns);
        p.efficiency = p.speedup / static_cast<double>(nd);
      }
      if (nd == 4 && (q == plan::TpchQuery::kQ1 || q == plan::TpchQuery::kQ6) &&
          p.efficiency < 0.75) {
        std::fprintf(stderr,
                     "  SCALING %s at 4 devices: efficiency %.2f < 0.75\n",
                     qname.c_str(), p.efficiency);
        p.ok = false;
        all_ok = false;
      }

      double util_min = 1.0, util_sum = 0;
      size_t util_n = 0;
      for (const plan::DeviceShardStats& d : stats.per_device) {
        if (p.sim_ns == 0) break;
        const double u = static_cast<double>(d.busy_ns) /
                         static_cast<double>(p.sim_ns);
        util_min = std::min(util_min, u);
        util_sum += u;
        ++util_n;
      }
      const double util_avg = util_n > 0 ? util_sum / util_n : 0;
      if (util_n == 0) util_min = 0;

      std::printf("%5s %8d %7zu %11.3f %8.2f %5.2f %10llu %10llu %9.2f "
                  "%8.2f\n",
                  qname.c_str(), nd, p.shards, p.sim_ns / 1e6, p.speedup,
                  p.efficiency,
                  static_cast<unsigned long long>(p.exchange_p2p),
                  static_cast<unsigned long long>(p.exchange_via_host),
                  util_min, util_avg);
      points.push_back(std::move(p));
    }
  }

  std::printf("\nall answers correct, 1-device timeline identical, scaling "
              "gates met: %s\n",
              all_ok ? "OK" : "FAILED");

  if (!opts.json_path.empty()) {
    std::ofstream out(opts.json_path);
    out << "{\n  \"backend\": \"" << opts.backend << "\",\n"
        << "  \"scale_factor\": " << opts.scale_factor << ",\n"
        << "  \"encoding\": " << (opts.use_encoding ? "true" : "false")
        << ",\n"
        << "  \"peer_island_size\": " << opts.island << ",\n"
        << "  \"all_ok\": " << (all_ok ? "true" : "false") << ",\n"
        << "  \"sweep\": [\n";
    for (size_t i = 0; i < points.size(); ++i) {
      const SweepPoint& p = points[i];
      out << "    {\"query\": \"" << p.query << "\""
          << ", \"devices\": " << p.devices
          << ", \"shards\": " << p.shards
          << ", \"sim_ns\": " << p.sim_ns
          << ", \"t1_ns\": " << p.t1_ns
          << ", \"speedup\": " << p.speedup
          << ", \"efficiency\": " << p.efficiency
          << ", \"exchange_bytes\": " << p.exchange_bytes
          << ", \"exchange_p2p_bytes\": " << p.exchange_p2p
          << ", \"exchange_via_host_bytes\": " << p.exchange_via_host
          << ", \"broadcast_bytes\": " << p.broadcast_bytes
          << ", \"ok\": " << (p.ok ? "true" : "false")
          << ", \"per_device\": [";
      for (size_t d = 0; d < p.stats.per_device.size(); ++d) {
        const plan::DeviceShardStats& ds = p.stats.per_device[d];
        out << (d > 0 ? ", " : "") << "{\"device\": " << ds.device
            << ", \"shards\": " << ds.shards
            << ", \"rows\": " << ds.rows
            << ", \"busy_ns\": " << ds.busy_ns
            << ", \"upload_bytes\": " << ds.upload_bytes
            << ", \"download_bytes\": " << ds.download_bytes
            << ", \"peak_bytes\": " << ds.peak_bytes << "}";
      }
      out << "]}" << (i + 1 < points.size() ? "," : "") << "\n";
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
                 "usage: %s [--backend=NAME] [--queries=q1,q6,q14,q3,q4] "
                 "[--devices=1,2,4,8] [--shards=N] [--sf=F] [--island=N] "
                 "[--encoding=on|off] [--json=FILE]\n",
                 argv[0]);
    return 64;
  }
  try {
    return Run(opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_multidevice: %s\n", e.what());
    return 3;
  }
}
