#include "bench.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>
#include <string>

namespace perfbench {

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Must list exactly BENCHMARK.json's per_layer metrics (test_smoke.py
/// checks that it does).
constexpr MetricSpec kPerLayer[] = {
    {"serve.rpc_ms.p50", "ms"},
    {"serve.rpc_ms.p99", "ms"},
    {"serve.plan_cache_hit_ratio", "ratio"},
    {"core.queue_wait_ms.p50", "ms"},
    {"core.queue_wait_ms.p99", "ms"},
    {"core.admission_wait_ms.p99", "ms"},
    {"plan.execute_ms.p50", "ms"},
    {"plan.execute_ms.p99", "ms"},
    {"plan.execute_ms.q1", "ms"},
    {"plan.execute_ms.q3", "ms"},
    {"plan.execute_ms.q4", "ms"},
    {"plan.execute_ms.q6", "ms"},
    {"plan.execute_ms.q14", "ms"},
    {"plan.prepare_ms", "ms"},
    {"storage.resident_ms", "ms"},
    {"storage.encoded_h2d_share", "ratio"},
    {"tpch.datagen_ms", "ms"},
    {"handwritten.oneshot_ms", "ms"},
    {"thrustsim.oneshot_ms", "ms"},
    {"bcsim.oneshot_ms", "ms"},
    {"afsim.oneshot_ms", "ms"},
    {"handwritten.sim_ms", "ms"},
    {"thrustsim.sim_ms", "ms"},
    {"bcsim.sim_ms", "ms"},
    {"afsim.sim_ms", "ms"},
    {"plan.exchange_bytes_per_query", "bytes"},
    {"plan.device_busy_share", "ratio"},
    {"gpusim.kernels_per_query", "count"},
    {"gpusim.device_bytes_per_query", "bytes"},
    {"gpusim.compile_sim_ms_per_query", "ms"},
    {"gpusim.programs_compiled", "count"},
    {"gpusim.pool_hit_ratio", "ratio"},
    {"gpusim.peak_device_mib", "MiB"},
    {"gpusim.threadpool_inline_share", "ratio"},
    {"gpusim.threadpool_overflow_share", "ratio"},
    {"answer_drift_share", "ratio"},
    {"process.rss_growth_bytes_per_op", "bytes"},
    {"trace.qps_overhead_share", "ratio"},
};

}  // namespace

std::vector<Metric> EndToEndMetrics(const std::vector<double>& setup_s,
                                    const std::vector<double>& latency_ms,
                                    double latency_p99_ms, double window_ms,
                                    double sim_ms_geomean,
                                    double rss_peak_mib) {
  return {
      {"setup_s", Percentile(setup_s, 50), "s"},
      {"qps", static_cast<double>(latency_ms.size()) / (window_ms / 1e3),
       "1/s"},
      {"latency_p50_ms", Percentile(latency_ms, 50), "ms"},
      {"latency_p99_ms", latency_p99_ms, "ms"},
      {"sim_ms_geomean", sim_ms_geomean, "ms"},
      {"rss_peak_mib", rss_peak_mib, "MiB"},
  };
}

std::vector<Metric> PerLayerMetrics(const LayerValues& values) {
  std::vector<Metric> out;
  for (const MetricSpec& spec : kPerLayer) {
    const auto it = values.find(spec.name);
    out.push_back({spec.name, it == values.end() ? 0.0 : it->second,
                   spec.unit});
  }
  for (const auto& [name, value] : values) {
    const auto listed = [&](const MetricSpec& spec) {
      return name == spec.name;
    };
    if (std::none_of(std::begin(kPerLayer), std::end(kPerLayer), listed)) {
      throw std::logic_error("per-layer value under unlisted name " + name);
    }
  }
  return out;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double log_sum = 0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double ProcStatusMiB(const char* wanted) {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == wanted) {
      double kib = 0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(4096, '\n');
  }
  return 0;
}

uint64_t NextRandom(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace perfbench
