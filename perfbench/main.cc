// The repo benchmark's entry point; perfbench/run.py builds and runs it.
//
//   perfbench --workload serve_scan|serve_tpch|cold_libraries --seed N
//             --seconds S --trace 0|1 [--smoke] [--out-dir DIR]
//             [--golden FILE]
//
// The last line of stdout is one JSON object: correct, attempted, failed
// and metrics. With --trace 0 the metrics are the end-to-end ones, measured
// with tracing off; with --trace 1 they are the per-layer ones, and the
// run's spans are written to DIR. Exit code 1 (after the JSON line) means a
// wrong answer or non-deterministic simulated time; 2 means bad arguments
// or a run that could not complete, and prints no JSON.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <string>

#include "bench.h"

namespace {

bool ParseArgs(int argc, char** argv, perfbench::RunConfig* config) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      config->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (arg == "--workload") {
      config->workload = value;
    } else if (arg == "--seed") {
      config->seed = std::stoull(value);
    } else if (arg == "--seconds") {
      config->seconds = std::stod(value);
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return false;
      config->trace = value == "1";
    } else if (arg == "--out-dir") {
      config->out_dir = value;
    } else if (arg == "--golden") {
      config->golden_path = value;
    } else {
      return false;
    }
  }
  if (config->smoke) config->seconds = std::min(config->seconds, 1.0);
  return config->seconds > 0 &&
         (config->workload == "serve_scan" ||
          config->workload == "serve_tpch" ||
          config->workload == "cold_libraries");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  try {
    if (!ParseArgs(argc, argv, &config)) {
      std::fprintf(stderr,
                   "usage: perfbench --workload serve_scan|serve_tpch|"
                   "cold_libraries --seed N --seconds S --trace 0|1 "
                   "[--smoke] [--out-dir DIR] [--golden FILE]\n");
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: bad argument: %s\n", e.what());
    return 2;
  }
  perfbench::Outcome outcome;
  try {
    outcome = config.workload == "cold_libraries"
                  ? perfbench::RunColdWorkload(config)
                  : perfbench::RunServeWorkload(config);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s run failed: %s\n",
                 config.workload.c_str(), e.what());
    return 2;
  }
  std::string metrics;
  for (const perfbench::Metric& m : outcome.metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                   m.name.c_str());
      return 2;
    }
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
               m.unit + "\"}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      outcome.correct ? "true" : "false",
      static_cast<unsigned long long>(outcome.attempted),
      static_cast<unsigned long long>(outcome.failed), metrics.c_str());
  return outcome.correct ? 0 : 1;
}
