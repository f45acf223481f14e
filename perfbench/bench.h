// Shared pieces of the repo benchmark: run configuration, the metric list a
// workload returns, order statistics, seeded permutations and the process
// peak-RSS probe. The workloads themselves live in serve_workload.cc and
// cold_libraries.cc; NOTES.md says why each exists and what it should move.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Command-line configuration of one benchmark run.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Tiny scale, one set-up, about a second of measurement: the benchmark's
  /// own test uses it to check the output format, not the numbers.
  bool smoke = false;
  std::string out_dir = ".";  ///< spans file and socket live here
  /// Per-(library, query) simulated ns of an earlier run of the same seed
  /// and build; written when absent, compared when present.
  std::string golden_path;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What a workload reports. `failed` counts wrong answers, error replies,
/// load sheds and admission rejections; `correct` is false when any answer
/// was wrong or simulated time was not deterministic.
struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
};

Outcome RunServeWorkload(const RunConfig& config);
Outcome RunColdWorkload(const RunConfig& config);

/// The six end-to-end metrics, from the set-up times, the client-observed
/// latency of every answered operation in the window, the tail latency the
/// workload reports as latency_p99_ms, the window length, and the peak RSS
/// read when the window opened.
std::vector<Metric> EndToEndMetrics(const std::vector<double>& setup_s,
                                    const std::vector<double>& latency_ms,
                                    double latency_p99_ms, double window_ms,
                                    double sim_ms_geomean,
                                    double rss_peak_mib);

/// Per-layer metric values by name.
using LayerValues = std::map<std::string, double>;

/// Every per-layer metric, in BENCHMARK.json order and with its unit. A
/// layer the workload does not reach has no value and prints 0. Throws
/// std::logic_error for a value whose name is not a per-layer metric.
std::vector<Metric> PerLayerMetrics(const LayerValues& values);

/// Linear-interpolated percentile (p in [0, 100]); 0 for an empty sample.
double Percentile(std::vector<double> values, double p);
double GeoMean(const std::vector<double>& values);

/// A memory figure of this process from /proc/self/status, in MiB:
/// "VmHWM:" is the peak resident set so far, "VmRSS:" the current one.
double ProcStatusMiB(const char* key);

/// Process memory around the timed window. The peak resident set is read
/// when the window opens: serving keeps a record per request, so a peak
/// read after the window would grow with throughput and jump where that
/// record vector doubles. The window's own growth is reported per operation
/// as a per-layer metric instead.
struct WindowMemory {
  double peak_before_mib = ProcStatusMiB("VmHWM:");
  double rss_before_mib = ProcStatusMiB("VmRSS:");
  double rss_after_mib = 0;

  /// Call when the window closes.
  void Close() { rss_after_mib = ProcStatusMiB("VmRSS:"); }

  /// Resident-set growth over the window, bytes per operation.
  double GrowthBytesPerOp(double ops) const {
    const double grown_mib = rss_after_mib - rss_before_mib;
    return ops > 0 ? grown_mib * 1024.0 * 1024.0 / ops : 0.0;
  }
};

/// splitmix64 step: the benchmark's only source of randomness, so a seed
/// gives the same query orders on every platform.
uint64_t NextRandom(uint64_t& state);

/// Fisher-Yates shuffle driven by NextRandom.
template <typename T>
void SeededShuffle(std::vector<T>& items, uint64_t& state) {
  for (size_t i = items.size(); i > 1; --i) {
    const size_t j = static_cast<size_t>(NextRandom(state) % i);
    std::swap(items[i - 1], items[j]);
  }
}

/// Number of set-ups a run times for setup_s (the median is reported).
inline int SetupRepeats(const RunConfig& config) {
  return config.smoke ? 1 : 5;
}

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
