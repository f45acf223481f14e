// cold_libraries: the paper's library comparison, run cold. One closed-loop
// stream runs passes; a pass is every (library, query) pair once, in a
// seeded order, each a one-shot plan::RunSharded call at sf 0.01 with
// encoded uploads and lineitem in 8 slices. Nothing is shared between
// calls: each re-encodes and re-uploads its tables, plans and optimizes
// every slice, merges the partials, and (Boost.Compute) pays its JIT.
// Thrust, Boost.Compute and Handwritten run on a 4-device group; ArrayFire
// is not concurrency-safe and runs on a 1-device group, which is the
// governed K-partition path. See NOTES.md.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "answers.h"
#include "bench.h"
#include "core/registry.h"
#include "gpusim/device_group.h"
#include "layers.h"
#include "plan/exchange.h"
#include "trace.h"

namespace perfbench {

namespace {

struct Library {
  const char* name;   ///< registry name
  const char* layer;  ///< module that simulates it, as metrics name it
  int devices;
};

constexpr Library kLibraries[] = {
    {"Handwritten", "handwritten", 4},
    {"Thrust", "thrustsim", 4},
    {"Boost.Compute", "bcsim", 4},
    {"ArrayFire", "afsim", 1},
};

constexpr plan::TpchQuery kQueries[] = {
    plan::TpchQuery::kQ1, plan::TpchQuery::kQ3, plan::TpchQuery::kQ4,
    plan::TpchQuery::kQ6, plan::TpchQuery::kQ14};

constexpr size_t kSlices = 8;

struct Op {
  size_t library = 0;
  plan::TpchQuery query = plan::TpchQuery::kQ1;
};

struct Sample {
  Op op;
  bool traced = false;
  bool ok = false;     ///< ran and matched the reference
  bool wrong = false;  ///< ran and did not match
  double ms = 0;
  plan::ShardedRunStats stats;
  uint64_t bits = 0;
};

/// The groups the libraries run on, created once per set-up.
struct Fleet {
  std::unique_ptr<gpusim::DeviceGroup> wide;    ///< 4 devices
  std::unique_ptr<gpusim::DeviceGroup> single;  ///< 1 device

  gpusim::DeviceGroup& For(const Library& lib) {
    return lib.devices == 1 ? *single : *wide;
  }
  std::vector<gpusim::Device*> devices() {
    std::vector<gpusim::Device*> out;
    for (gpusim::DeviceGroup* g : {wide.get(), single.get()}) {
      for (int i = 0; i < g->size(); ++i) out.push_back(&g->device(i));
    }
    return out;
  }
};

plan::ShardedQueryOptions ColdOptions() {
  plan::ShardedQueryOptions options;
  options.force_shards = kSlices;
  options.use_encoding = true;
  return options;
}

/// One RunSharded call, verified against the reference.
Sample RunOne(const Op& op, const HostTables& tables, Fleet& fleet,
              const References& ref, std::string* error) {
  const Library& lib = kLibraries[op.library];
  Sample s;
  s.op = op;
  const Clock::time_point t0 = Clock::now();
  plan::TpchQueryResult result;
  try {
    result = plan::RunSharded(op.query, tables.view(), fleet.For(lib),
                              lib.name, ColdOptions(), &s.stats);
  } catch (const std::exception& e) {
    *error = std::string(lib.name) + " " + plan::TpchQueryName(op.query) +
             ": " + e.what();
    return s;
  }
  s.ms = MsBetween(t0, Clock::now());
  std::string why;
  if (Verify(op.query, result, ref, &why)) {
    s.ok = true;
    s.bits = AnswerBits(op.query, result);
  } else {
    s.wrong = true;
    *error = std::string(lib.name) + " " + why;
  }
  return s;
}

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

}  // namespace

Outcome RunColdWorkload(const RunConfig& config) {
  const double scale_factor = config.smoke ? 0.002 : 0.01;
  core::RegisterBuiltinBackends();
  Tracer tracer(Clock::now());
  SpanBuffer spans(&tracer, 0);
  Outcome outcome;

  LayerValues layer;
  if (config.trace) {
    std::vector<std::string> names;
    for (const Library& lib : kLibraries) names.push_back(lib.name);
    ProbeLayers(scale_factor, config.seed, names,
                {std::begin(kQueries), std::end(kQueries)},
                config.smoke ? 1 : 3, &spans, &layer);
  }

  // Set-up: generate the tables, bring up the devices, and run q6 once per
  // library so device thread pools exist before the clock starts.
  std::vector<double> setup_s;
  HostTables tables;
  Fleet fleet;
  std::string error;
  std::vector<plan::TpchQueryResult> warmup;
  for (int r = 0; r < SetupRepeats(config); ++r) {
    fleet = Fleet{};
    const Clock::time_point t0 = Clock::now();
    tables = GenerateTables(scale_factor, config.seed);
    fleet.wide = std::make_unique<gpusim::DeviceGroup>(4);
    fleet.single = std::make_unique<gpusim::DeviceGroup>(1);
    warmup.clear();
    for (const Library& lib : kLibraries) {
      warmup.push_back(plan::RunSharded(plan::TpchQuery::kQ6, tables.view(),
                                        fleet.For(lib), lib.name,
                                        ColdOptions()));
    }
    setup_s.push_back(MsBetween(t0, Clock::now()) / 1e3);
  }
  // Reference answers are computed outside the set-up clock.
  const References ref = ComputeReferences(tables);
  for (const plan::TpchQueryResult& result : warmup) {
    std::string why;
    if (!Verify(plan::TpchQuery::kQ6, result, ref, &why)) {
      std::fprintf(stderr, "perfbench: warm-up failed: %s\n", why.c_str());
      outcome.correct = false;
    }
  }

  std::vector<Op> pass;
  for (size_t l = 0; l < std::size(kLibraries); ++l) {
    for (plan::TpchQuery q : kQueries) pass.push_back({l, q});
  }
  uint64_t order_state = config.seed * 104729;
  const std::vector<gpusim::Device*> devices = fleet.devices();
  const DeviceSample dev_before = SampleDevices(devices);
  std::vector<Sample> samples;
  double traced_ms = 0, untraced_ms = 0;
  size_t traced_ops = 0, untraced_ops = 0;
  WindowMemory memory;
  const Clock::time_point start = Clock::now();
  // Whole passes only, so every run measures the same library/query mix;
  // the smoke run makes one untraced and one traced pass.
  for (int p = 0;; ++p) {
    const bool traced = config.trace && p % 2 == 1;
    std::vector<Op> order = pass;
    SeededShuffle(order, order_state);
    const Clock::time_point pass_start = Clock::now();
    for (const Op& op : order) {
      ++outcome.attempted;
      const uint64_t id = traced ? tracer.NewOp() : 0;
      const Clock::time_point t0 = Clock::now();
      std::string why;
      Sample s = RunOne(op, tables, fleet, ref, &why);
      if (traced) {
        spans.Add("plan", "plan::RunSharded",
                  std::string(kLibraries[op.library].name) + " " +
                      plan::TpchQueryName(op.query),
                  id, 0, t0, Clock::now());
      }
      s.traced = traced;
      if (!s.ok) {
        ++outcome.failed;
        if (error.empty()) error = why;
      }
      samples.push_back(std::move(s));
    }
    const double pass_ms = MsBetween(pass_start, Clock::now());
    (traced ? traced_ms : untraced_ms) += pass_ms;
    (traced ? traced_ops : untraced_ops) += order.size();
    const bool done = config.smoke ? p >= 1
                                   : MsBetween(start, Clock::now()) >=
                                         config.seconds * 1e3;
    if (done) break;
  }
  const double window_ms = MsBetween(start, Clock::now());
  memory.Close();
  const DeviceSample dev_after = SampleDevices(devices);

  if (!error.empty()) std::fprintf(stderr, "perfbench: %s\n", error.c_str());
  SimLedger sim;
  DriftLedger drift;
  std::vector<double> all_ms;
  std::vector<double> lib_ms[std::size(kLibraries)];
  std::map<PairKey, std::vector<double>> pair_ms;
  std::vector<double> exchange_bytes, busy_share;
  for (const Sample& s : samples) {
    if (s.wrong) outcome.correct = false;
    if (!s.ok) continue;
    const PairKey key{kLibraries[s.op.library].name,
                      plan::TpchQueryName(s.op.query)};
    sim.Note(key, s.stats.simulated_ns);
    drift.Note(key, s.bits, true);
    all_ms.push_back(s.ms);
    pair_ms[key].push_back(s.ms);
    if (!s.traced) continue;
    lib_ms[s.op.library].push_back(s.ms);
    exchange_bytes.push_back(static_cast<double>(s.stats.exchange_bytes));
    double busy = 0;
    for (const plan::DeviceShardStats& d : s.stats.per_device) {
      busy += static_cast<double>(d.busy_ns);
    }
    if (!s.stats.per_device.empty() && s.stats.simulated_ns > 0) {
      busy_share.push_back(busy /
                           static_cast<double>(s.stats.per_device.size()) /
                           static_cast<double>(s.stats.simulated_ns));
    }
  }
  if (!sim.Check(config.golden_path)) outcome.correct = false;

  if (!config.trace) {
    // A cold run has about 200 operations, too few for ten to lie beyond
    // p99: an order statistic there is the two slowest calls and moves with
    // every host hiccup. The tail reported is instead the median latency of
    // the slowest (library, query) pair (ArrayFire q3); see NOTES.md.
    double slowest_pair_ms = 0;
    for (const auto& [key, ms] : pair_ms) {
      slowest_pair_ms = std::max(slowest_pair_ms, Percentile(ms, 50));
    }
    outcome.metrics =
        EndToEndMetrics(setup_s, all_ms, slowest_pair_ms, window_ms,
                        sim.GeoMeanMs(), memory.peak_before_mib);
    return outcome;
  }

  // The probe's upload share is replaced by the one the runs themselves
  // moved; the serving metrics stay 0, as one-shot runs do not serve.
  layer["storage.encoded_h2d_share"] = EncodedH2dShare(dev_before, dev_after);
  for (size_t l = 0; l < std::size(kLibraries); ++l) {
    const std::string prefix = kLibraries[l].layer;
    layer[prefix + ".oneshot_ms"] = Percentile(lib_ms[l], 50);
    layer[prefix + ".sim_ms"] = sim.GeoMeanMs(kLibraries[l].name);
  }
  layer["plan.exchange_bytes_per_query"] = Mean(exchange_bytes);
  layer["plan.device_busy_share"] = Mean(busy_share);
  SetDeviceMetrics(dev_before, dev_after, static_cast<double>(all_ms.size()),
                   &layer);
  layer["answer_drift_share"] = drift.DriftShare();
  layer["process.rss_growth_bytes_per_op"] =
      memory.GrowthBytesPerOp(static_cast<double>(all_ms.size()));
  const double traced_qps =
      traced_ms > 0 ? static_cast<double>(traced_ops) / traced_ms : 0;
  const double untraced_qps =
      untraced_ms > 0 ? static_cast<double>(untraced_ops) / untraced_ms : 0;
  layer["trace.qps_overhead_share"] =
      untraced_qps > 0 ? 1.0 - traced_qps / untraced_qps : 0;
  outcome.metrics = PerLayerMetrics(layer);
  WriteRunSpans(config, {&spans});
  return outcome;
}

}  // namespace perfbench
