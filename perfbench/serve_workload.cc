// serve_scan and serve_tpch: closed-loop query streams against an
// in-process serve::QueryServer (default ServerOptions, Handwritten,
// encoded residency) over its UNIX socket, one serve::Client per stream.
// Each stream runs seeded permutations of the workload's queries and waits
// for every reply before sending the next request, as a protocol caller
// must. See NOTES.md for why the two mixes exist and what each metric
// should move.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "answers.h"
#include "bench.h"
#include "core/registry.h"
#include "layers.h"
#include "serve/client.h"
#include "serve/server.h"
#include "trace.h"

namespace perfbench {

namespace {

struct ServeSpec {
  double scale_factor = 0.01;
  std::vector<std::string> queries;
};

ServeSpec SpecFor(const RunConfig& config) {
  ServeSpec spec;
  if (config.workload == "serve_scan") {
    spec.scale_factor = 0.01;
    spec.queries = {"q6", "q14"};
  } else {
    spec.scale_factor = 0.05;
    spec.queries = {"q1", "q3", "q4", "q6", "q14"};
  }
  if (config.smoke) spec.scale_factor = 0.002;
  return spec;
}

constexpr const char* kLibrary = "Handwritten";
/// Tracing alternates on and off in blocks of this length, so the traced
/// and untraced halves of a traced run see the same drift in host speed.
constexpr double kTraceBlockMs = 500;

/// One answered request.
struct Sample {
  plan::TpchQuery query = plan::TpchQuery::kQ1;
  bool traced = false;
  bool ok = false;    ///< verified answer, not shed or rejected
  double rtt_ms = 0;  ///< client-observed round trip
  double queue_ms = 0;
  double admission_ms = 0;
  double exec_ms = 0;
  uint64_t simulated_ns = 0;
  uint64_t bits = 0;
};

struct StreamResult {
  std::vector<Sample> samples;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;
  std::string first_error;

  void Fail(bool wrong_answer, const std::string& why) {
    ++failed;
    if (wrong_answer) ++wrong;
    if (first_error.empty()) first_error = why;
  }
};

/// Runs requests on one stream until `max_ops` were sent or a reply arrives
/// after `deadline`.
void RunStream(serve::Client& client, const std::vector<std::string>& queries,
               uint64_t order_seed, const References& ref,
               Clock::time_point start, Clock::time_point deadline,
               size_t max_ops, SpanBuffer* spans, StreamResult* out) {
  std::vector<std::string> order;
  size_t next = 0;
  uint64_t state = order_seed;
  for (size_t n = 0; n < max_ops; ++n) {
    if (next == order.size()) {
      order = queries;
      SeededShuffle(order, state);
      next = 0;
    }
    const std::string& name = order[next++];
    const Clock::time_point t0 = Clock::now();
    const bool traced =
        spans != nullptr &&
        static_cast<int64_t>(MsBetween(start, t0) / kTraceBlockMs) % 2 == 1;
    ++out->attempted;
    serve::QueryReply reply;
    try {
      reply = client.Query(name);
    } catch (const std::exception& e) {
      out->Fail(false, name + ": " + e.what());
      if (Clock::now() >= deadline) break;
      continue;
    }
    const Clock::time_point t1 = Clock::now();
    Sample s;
    s.query = reply.query;
    s.traced = traced;
    s.rtt_ms = MsBetween(t0, t1);
    s.queue_ms = reply.queue_wait_ms;
    s.admission_ms = reply.admission_wait_ms;
    s.exec_ms = reply.wall_ms;
    s.simulated_ns = reply.simulated_ns;
    std::string why;
    if (reply.overloaded) {
      out->Fail(false, name + ": shed (overloaded)");
    } else if (reply.rejected) {
      out->Fail(false, name + ": admission rejected");
    } else if (!Verify(reply.query, reply.result, ref, &why)) {
      out->Fail(true, why);
    } else {
      s.ok = true;
      s.bits = AnswerBits(reply.query, reply.result);
    }
    if (traced) {
      // The reply reports the server-side intervals as durations only; they
      // are laid out back to back, centred in the round trip, so the root's
      // self time is the request path outside the scheduler.
      const uint64_t op = spans->tracer()->NewOp();
      const uint64_t root =
          spans->Add("serve", "serve::Client::Query", name, op, 0, t0, t1);
      const double rpc_ms =
          s.rtt_ms - s.queue_ms - s.admission_ms - s.exec_ms;
      double at = std::max(0.0, rpc_ms / 2);
      spans->AddAt("core", "scheduler.queue_wait", name, op, root, t0, at,
                   s.queue_ms);
      at += s.queue_ms;
      spans->AddAt("core", "governor.admission_wait", name, op, root, t0, at,
                   s.admission_ms);
      at += s.admission_ms;
      spans->AddAt("plan", "PreparedTpchQuery::Run", name, op, root, t0, at,
                   s.exec_ms);
    }
    out->samples.push_back(s);
    if (t1 >= deadline) break;
  }
}

/// A running server plus one connected client per stream. The clients are
/// declared last so they hang up before the server stops.
struct Deployment {
  std::unique_ptr<serve::QueryServer> server;
  std::vector<serve::Client> clients;
};

/// Starts a server, connects the streams and runs one permutation per
/// stream to fill the plan cache: everything before the first timed request.
void SetUp(const RunConfig& config, const ServeSpec& spec, unsigned streams,
           const std::string& socket_path, const References& ref,
           Deployment* d, std::vector<StreamResult>* warmup) {
  serve::ServerOptions options;
  options.socket_path = socket_path;
  options.catalog.scale_factor = spec.scale_factor;
  options.catalog.seed = config.seed;
  options.catalog.use_encoding = true;
  options.catalog.backend = kLibrary;
  d->server = std::make_unique<serve::QueryServer>(options);
  d->server->Start();
  d->clients.reserve(streams);
  for (unsigned i = 0; i < streams; ++i) {
    d->clients.emplace_back(socket_path, "stream" + std::to_string(i),
                            serve::TenantClass::kInteractive);
  }
  warmup->assign(streams, StreamResult{});
  std::vector<std::thread> threads;
  const Clock::time_point now = Clock::now();
  for (unsigned i = 0; i < streams; ++i) {
    threads.emplace_back([&, i] {
      RunStream(d->clients[i], spec.queries, config.seed * 7919 + i, ref, now,
                Clock::time_point::max(), spec.queries.size(), nullptr,
                &(*warmup)[i]);
    });
  }
  for (std::thread& t : threads) t.join();
}

std::vector<double> Collect(const std::vector<const Sample*>& samples,
                            double (*field)(const Sample&)) {
  std::vector<double> v;
  v.reserve(samples.size());
  for (const Sample* s : samples) v.push_back(field(*s));
  return v;
}

/// Time covered by traced (odd) or untraced (even) blocks in [0, window).
double ModeMs(double window_ms, bool traced) {
  double total = 0;
  for (int64_t b = traced ? 1 : 0; b * kTraceBlockMs < window_ms; b += 2) {
    total += std::min(window_ms, (b + 1) * kTraceBlockMs) - b * kTraceBlockMs;
  }
  return total;
}

}  // namespace

Outcome RunServeWorkload(const RunConfig& config) {
  const ServeSpec spec = SpecFor(config);
  const unsigned streams =
      std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  core::RegisterBuiltinBackends();
  const Clock::time_point epoch = Clock::now();
  Tracer tracer(epoch);
  SpanBuffer probe_spans(&tracer, -1);

  // Reference answers come from the benchmark's own copy of the tables,
  // generated with the server's (scale factor, seed), before any clock.
  const References ref =
      ComputeReferences(GenerateTables(spec.scale_factor, config.seed));
  std::vector<plan::TpchQuery> queries;
  for (const std::string& q : spec.queries) {
    queries.push_back(plan::ParseTpchQuery(q));
  }
  LayerValues layer;
  if (config.trace) {
    ProbeLayers(spec.scale_factor, config.seed, {kLibrary}, queries,
                config.smoke ? 1 : 3, &probe_spans, &layer);
  }

  const std::string socket_path = config.out_dir + "/serve-" +
                                  std::to_string(::getpid()) + ".sock";
  Outcome outcome;
  std::vector<double> setup_s;
  Deployment deployment;
  std::vector<StreamResult> warmup;
  for (int r = 0; r < SetupRepeats(config); ++r) {
    deployment.clients.clear();
    deployment.server.reset();
    const Clock::time_point t0 = Clock::now();
    SetUp(config, spec, streams, socket_path, ref, &deployment, &warmup);
    setup_s.push_back(MsBetween(t0, Clock::now()) / 1e3);
    for (const StreamResult& w : warmup) {
      if (w.failed > 0) {
        std::fprintf(stderr, "perfbench: warm-up failed: %s\n",
                     w.first_error.c_str());
        outcome.correct = false;
      }
    }
  }

  gpusim::Device& device = gpusim::Device::Default();
  const DeviceSample dev_before = SampleDevices({&device});
  const serve::StatsReply stats_before = deployment.clients[0].Stats();
  std::vector<StreamResult> results(streams);
  std::vector<std::unique_ptr<SpanBuffer>> spans;
  for (unsigned i = 0; i < streams; ++i) {
    spans.push_back(std::make_unique<SpanBuffer>(&tracer, static_cast<int>(i)));
  }
  WindowMemory memory;
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(config.seconds));
  {
    std::vector<std::thread> threads;
    for (unsigned i = 0; i < streams; ++i) {
      threads.emplace_back([&, i] {
        RunStream(deployment.clients[i], spec.queries,
                  config.seed * 104729 + i, ref, start, deadline, SIZE_MAX,
                  config.trace ? spans[i].get() : nullptr, &results[i]);
      });
    }
    for (std::thread& t : threads) t.join();
  }
  const double window_ms = MsBetween(start, Clock::now());
  memory.Close();
  const serve::StatsReply stats_after = deployment.clients[0].Stats();
  const DeviceSample dev_after = SampleDevices({&device});

  // Ledgers see stream 0's warm-up first, so its answers are the drift
  // baselines; only timed answers are counted.
  SimLedger sim;
  DriftLedger drift;
  std::vector<const Sample*> ok, traced_ok;
  size_t ok_untraced = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (unsigned i = 0; i < streams; ++i) {
      for (const Sample& s : (pass == 0 ? warmup : results)[i].samples) {
        if (!s.ok) continue;
        const PairKey key{kLibrary, plan::TpchQueryName(s.query)};
        sim.Note(key, s.simulated_ns);
        drift.Note(key, s.bits, pass == 1);
        if (pass == 0) continue;
        ok.push_back(&s);
        if (s.traced) {
          traced_ok.push_back(&s);
        } else {
          ++ok_untraced;
        }
      }
    }
  }
  for (const StreamResult& r : results) {
    outcome.attempted += r.attempted;
    outcome.failed += r.failed;
    if (r.wrong > 0) outcome.correct = false;
    if (!r.first_error.empty()) {
      std::fprintf(stderr, "perfbench: %s\n", r.first_error.c_str());
    }
  }
  if (!sim.Check(config.golden_path)) outcome.correct = false;

  if (!config.trace) {
    const std::vector<double> rtt =
        Collect(ok, [](const Sample& s) { return s.rtt_ms; });
    outcome.metrics =
        EndToEndMetrics(setup_s, rtt, Percentile(rtt, 99), window_ms,
                        sim.GeoMeanMs(), memory.peak_before_mib);
    return outcome;
  }

  const auto rpc = Collect(traced_ok, [](const Sample& s) {
    return s.rtt_ms - s.queue_ms - s.admission_ms - s.exec_ms;
  });
  const auto queue =
      Collect(traced_ok, [](const Sample& s) { return s.queue_ms; });
  const auto admission =
      Collect(traced_ok, [](const Sample& s) { return s.admission_ms; });
  const auto exec =
      Collect(traced_ok, [](const Sample& s) { return s.exec_ms; });
  const double hits =
      static_cast<double>(stats_after.cache_hits - stats_before.cache_hits);
  const double misses = static_cast<double>(stats_after.cache_misses -
                                            stats_before.cache_misses);
  layer["serve.rpc_ms.p50"] = Percentile(rpc, 50);
  layer["serve.rpc_ms.p99"] = Percentile(rpc, 99);
  layer["serve.plan_cache_hit_ratio"] =
      hits + misses > 0 ? hits / (hits + misses) : 0;
  layer["core.queue_wait_ms.p50"] = Percentile(queue, 50);
  layer["core.queue_wait_ms.p99"] = Percentile(queue, 99);
  layer["core.admission_wait_ms.p99"] = Percentile(admission, 99);
  layer["plan.execute_ms.p50"] = Percentile(exec, 50);
  layer["plan.execute_ms.p99"] = Percentile(exec, 99);
  for (plan::TpchQuery q : queries) {
    std::vector<double> per_shape;
    for (const Sample* s : traced_ok) {
      if (s->query == q) per_shape.push_back(s->exec_ms);
    }
    layer[std::string("plan.execute_ms.") + plan::TpchQueryName(q)] =
        Percentile(per_shape, 50);
  }
  layer["handwritten.sim_ms"] = sim.GeoMeanMs(kLibrary);
  SetDeviceMetrics(dev_before, dev_after, static_cast<double>(ok.size()),
                   &layer);
  layer["answer_drift_share"] = drift.DriftShare();
  layer["process.rss_growth_bytes_per_op"] =
      memory.GrowthBytesPerOp(static_cast<double>(ok.size()));
  const double traced_qps =
      static_cast<double>(traced_ok.size()) / ModeMs(window_ms, true);
  const double untraced_qps =
      static_cast<double>(ok_untraced) / ModeMs(window_ms, false);
  layer["trace.qps_overhead_share"] =
      untraced_qps > 0 ? 1.0 - traced_qps / untraced_qps : 0;
  outcome.metrics = PerLayerMetrics(layer);
  std::vector<const SpanBuffer*> buffers = {&probe_spans};
  for (const auto& b : spans) buffers.push_back(b.get());
  WriteRunSpans(config, buffers);
  return outcome;
}

}  // namespace perfbench
