// Chaos harness: resilience of the query layer under injected device faults.
//
// Drives N scheduler clients through the five TPC-H queries while a seeded
// gpusim::FaultInjector fires transient kernel faults, transfer faults, and
// one device-OOM into the hot paths. The fault schedule is transient-only
// and budgeted below the scheduler's retry budget, so a correct resilience
// layer must finish every query with the right answer — the harness exits
// non-zero if any query fails permanently (exit 2), any answer drifts from
// the host reference (exit 3), a fault-free run after the chaos storm is
// not bit-identical in simulated time to the pre-storm golden run (exit 4:
// fault handling leaked into the cost model), or the storm made more device
// calls than one replay per fired fault allows (exit 5: a fault was
// replayed by more than one recovery layer).
//
// Device calls are the injector's checks: every allocation, kernel launch
// and transfer it inspects. The golden passes count them with a rule-less
// injector attached, which changes no simulated time. The chaos pass may
// make at most its fault-free calls plus one run of the costliest query
// kind for each fired fault.
//
// Not a google-benchmark binary: the unit of work is a whole scheduler run
// and the checks need cross-run state, so it drives itself and optionally
// writes machine-readable JSON for CI archiving.
//
// Usage:
//   bench_chaos [--backend=Handwritten] [--clients=4] [--per-client=5]
//               [--seed=42] [--sf=0.005] [--json=FILE]
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "backends/backends.h"
#include "core/registry.h"
#include "core/resilience.h"
#include "core/scheduler.h"
#include "gpusim/device.h"
#include "gpusim/fault.h"
#include "storage/device_column.h"
#include "tpch/datagen.h"
#include "tpch/queries.h"

namespace {

struct Options {
  std::string backend = backends::kHandwritten;
  unsigned clients = 4;
  unsigned per_client = 5;  ///< queries submitted per client slot
  uint64_t seed = 42;
  double scale_factor = 0.005;
  std::string json_path;
};

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
      opts->clients = static_cast<unsigned>(std::stoul(v));
    } else if (const char* v = value("--per-client=")) {
      opts->per_client = static_cast<unsigned>(std::stoul(v));
    } else if (const char* v = value("--seed=")) {
      opts->seed = std::stoull(v);
    } else if (const char* v = value("--sf=")) {
      opts->scale_factor = std::stod(v);
    } else if (const char* v = value("--json=")) {
      opts->json_path = v;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
  }
  return opts->clients > 0 && opts->per_client > 0;
}

const char* const kKinds[] = {"q1", "q3", "q4", "q6", "q14"};
constexpr size_t kNumKinds = 5;

/// One query's captured answer (only the member matching the kind is set).
struct Answer {
  std::vector<tpch::Q1Row> q1;
  std::vector<tpch::Q3Row> q3;
  std::vector<tpch::Q4Row> q4;
  double scalar = 0.0;  // q6 / q14
};

bool Near(double a, double b) {
  const double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
  return std::fabs(a - b) <= 1e-6 * scale;
}

/// Compares a captured answer against the host reference; prints the first
/// mismatch.
bool CheckAnswer(const std::string& kind, const Answer& got,
                 const Answer& ref) {
  const auto fail = [&](const char* what) {
    std::fprintf(stderr, "WRONG ANSWER: %s %s\n", kind.c_str(), what);
    return false;
  };
  if (kind == "q1") {
    if (got.q1.size() != ref.q1.size()) return fail("row count differs");
    for (size_t i = 0; i < ref.q1.size(); ++i) {
      const tpch::Q1Row& g = got.q1[i];
      const tpch::Q1Row& r = ref.q1[i];
      if (g.returnflag != r.returnflag || g.linestatus != r.linestatus ||
          g.count_order != r.count_order || !Near(g.sum_qty, r.sum_qty) ||
          !Near(g.sum_base_price, r.sum_base_price) ||
          !Near(g.sum_disc_price, r.sum_disc_price) ||
          !Near(g.sum_charge, r.sum_charge) || !Near(g.avg_qty, r.avg_qty) ||
          !Near(g.avg_price, r.avg_price) || !Near(g.avg_disc, r.avg_disc)) {
        return fail("row mismatch");
      }
    }
    return true;
  }
  if (kind == "q3") {
    if (got.q3.size() != ref.q3.size()) return fail("row count differs");
    for (size_t i = 0; i < ref.q3.size(); ++i) {
      if (got.q3[i].orderkey != ref.q3[i].orderkey ||
          !Near(got.q3[i].revenue, ref.q3[i].revenue)) {
        return fail("row mismatch");
      }
    }
    return true;
  }
  if (kind == "q4") {
    if (got.q4.size() != ref.q4.size()) return fail("row count differs");
    for (size_t i = 0; i < ref.q4.size(); ++i) {
      if (got.q4[i].orderpriority != ref.q4[i].orderpriority ||
          got.q4[i].order_count != ref.q4[i].order_count) {
        return fail("row mismatch");
      }
    }
    return true;
  }
  if (!Near(got.scalar, ref.scalar)) return fail("scalar differs");
  return true;
}

int Run(const Options& opts) {
  core::RegisterBuiltinBackends();

  tpch::Config config;
  config.scale_factor = opts.scale_factor;
  const storage::Table lineitem = tpch::GenerateLineitem(config);
  const storage::Table orders = tpch::GenerateOrders(config);
  const storage::Table customer = tpch::GenerateCustomer(config);
  const storage::Table part = tpch::GeneratePart(config);

  gpusim::Device& device = gpusim::Device::Default();
  gpusim::Stream setup(device, gpusim::ApiProfile::Cuda());
  const storage::DeviceTable dev_lineitem =
      storage::UploadTable(setup, lineitem);
  const storage::DeviceTable dev_orders = storage::UploadTable(setup, orders);
  const storage::DeviceTable dev_customer =
      storage::UploadTable(setup, customer);
  const storage::DeviceTable dev_part = storage::UploadTable(setup, part);

  // Host reference answers, computed once.
  std::map<std::string, Answer> reference;
  reference["q1"].q1 = tpch::ReferenceQ1(lineitem);
  reference["q3"].q3 = tpch::ReferenceQ3(customer, orders, lineitem);
  reference["q4"].q4 = tpch::ReferenceQ4(orders, lineitem);
  reference["q6"].scalar = tpch::ReferenceQ6(lineitem);
  reference["q14"].scalar = tpch::ReferenceQ14(part, lineitem);

  const auto make_query = [&](const std::string& kind,
                              Answer* slot) -> core::QueryFn {
    if (kind == "q1") {
      return [&, slot](core::Backend& b) { slot->q1 = tpch::RunQ1(b, dev_lineitem); };
    }
    if (kind == "q3") {
      return [&, slot](core::Backend& b) {
        slot->q3 = tpch::RunQ3(b, dev_customer, dev_orders, dev_lineitem);
      };
    }
    if (kind == "q4") {
      return [&, slot](core::Backend& b) {
        slot->q4 = tpch::RunQ4(b, dev_orders, dev_lineitem);
      };
    }
    if (kind == "q6") {
      return [&, slot](core::Backend& b) { slot->scalar = tpch::RunQ6(b, dev_lineitem); };
    }
    if (kind == "q14") {
      return [&, slot](core::Backend& b) {
        slot->scalar = tpch::RunQ14(b, dev_part, dev_lineitem);
      };
    }
    throw std::invalid_argument("unknown query kind: " + kind);
  };

  // Runs every kind once on a single fault-free client and returns the
  // per-kind simulated time. A rule-less injector counts each kind's device
  // calls into `calls`.
  std::map<std::string, uint64_t> calls;
  const auto golden_pass = [&](const char* label,
                               std::vector<Answer>* answers) {
    answers->assign(kNumKinds, Answer());
    gpusim::FaultInjector counter;
    core::SchedulerOptions sched_opts;
    sched_opts.backend_name = opts.backend;
    sched_opts.num_clients = 1;
    core::QueryScheduler scheduler(sched_opts);
    device.set_fault_injector(&counter);
    for (size_t i = 0; i < kNumKinds; ++i) {
      const std::string kind = kKinds[i];
      scheduler.Submit(kind, [&, kind, fn = make_query(kind, &(*answers)[i])](
                                 core::Backend& b) {
        const uint64_t before = counter.stats().checks;
        fn(b);
        calls[kind] = counter.stats().checks - before;
      });
    }
    scheduler.Drain();
    device.set_fault_injector(nullptr);
    std::map<std::string, uint64_t> sim_ns;
    for (const core::QueryRecord& q : scheduler.Records()) {
      if (!q.ok) {
        throw std::runtime_error(std::string(label) + " run failed: " +
                                 q.label + ": " + q.error);
      }
      sim_ns[q.label] = q.simulated_ns;
    }
    return sim_ns;
  };

  std::printf("bench_chaos: backend=%s clients=%u per_client=%u seed=%llu "
              "sf=%g rows(lineitem)=%zu\n\n",
              opts.backend.c_str(), opts.clients, opts.per_client,
              static_cast<unsigned long long>(opts.seed), opts.scale_factor,
              lineitem.num_rows());

  // Warmup (pool + lazily-built structures), then the golden baseline and a
  // determinism re-check before any fault is armed.
  std::vector<Answer> golden_answers;
  golden_pass("warmup", &golden_answers);
  const std::map<std::string, uint64_t> golden = golden_pass("golden", &golden_answers);
  const std::map<std::string, uint64_t> golden2 =
      golden_pass("golden-recheck", &golden_answers);
  if (golden2 != golden) {
    std::fprintf(stderr,
                 "GOLDEN DRIFT: fault-free simulated time not deterministic "
                 "before injection\n");
    return 4;
  }
  for (size_t i = 0; i < kNumKinds; ++i) {
    if (!CheckAnswer(kKinds[i], golden_answers[i], reference[kKinds[i]])) {
      return 3;
    }
  }

  // Transient-only fault plan, budgeted below the retry budget: at most 4
  // kernel faults + 3 transfer faults (worst case all land on one query:
  // 8 attempts < max_attempts) plus one device OOM, which the scheduler
  // absorbs with a pool reclaim instead of an attempt.
  gpusim::FaultInjector injector(opts.seed);
  {
    gpusim::FaultRule kernel_rule;
    kernel_rule.site = gpusim::FaultSite::kKernel;
    kernel_rule.kind = gpusim::FaultKind::kTransientKernel;
    kernel_rule.probability = 0.0015;
    kernel_rule.max_fires = 4;
    injector.AddRule(kernel_rule);
    gpusim::FaultRule transfer_rule;
    transfer_rule.site = gpusim::FaultSite::kTransfer;
    transfer_rule.kind = gpusim::FaultKind::kTransfer;
    transfer_rule.probability = 0.0015;
    transfer_rule.max_fires = 3;
    injector.AddRule(transfer_rule);
    gpusim::FaultRule oom_rule;
    oom_rule.site = gpusim::FaultSite::kMalloc;
    oom_rule.kind = gpusim::FaultKind::kOutOfMemory;
    oom_rule.at_call = 50;
    oom_rule.max_fires = 1;
    injector.AddRule(oom_rule);
  }

  core::ResilienceManager::Global().Reset();
  device.set_fault_injector(&injector);

  core::SchedulerOptions chaos_opts;
  chaos_opts.backend_name = opts.backend;
  chaos_opts.num_clients = opts.clients;
  chaos_opts.queue_capacity = 2 * static_cast<size_t>(opts.clients);
  chaos_opts.retry.max_attempts = 10;

  const size_t total = static_cast<size_t>(opts.clients) * opts.per_client;
  std::vector<Answer> answers(total);
  std::vector<std::string> kinds(total);

  core::QueryScheduler scheduler(chaos_opts);
  for (size_t i = 0; i < total; ++i) {
    kinds[i] = kKinds[i % kNumKinds];
    scheduler.Submit(kinds[i], make_query(kinds[i], &answers[i]));
  }
  scheduler.Drain();
  device.set_fault_injector(nullptr);

  const core::SchedulerReport report = scheduler.Report();
  const gpusim::FaultInjectorStats fstats = injector.stats();
  const core::ResilienceStats& res = report.resilience;

  // One replay per fired fault: a failed attempt stops at its fault, so it
  // makes at most the calls of a whole run of its kind.
  uint64_t golden_calls = 0;
  uint64_t costliest = 0;
  for (const auto& [kind, n] : calls) {
    golden_calls += n;
    costliest = std::max(costliest, n);
  }
  uint64_t call_bound = fstats.injected_total() * costliest;
  for (const std::string& kind : kinds) call_bound += calls[kind];
  const auto per_query = [](uint64_t n, size_t queries) {
    return static_cast<double>(n) / static_cast<double>(queries);
  };
  const bool calls_ok = fstats.checks <= call_bound;

  size_t failed = 0;
  size_t retried_queries = 0;
  int max_attempts_seen = 1;
  for (const core::QueryRecord& q : scheduler.Records()) {
    if (!q.ok) {
      ++failed;
      std::fprintf(stderr, "PERMANENT FAILURE: %s (%s, attempts=%d): %s\n",
                   q.label.c_str(), core::ErrorClassName(q.error_class),
                   q.attempts, q.error.c_str());
    }
    if (q.attempts > 1 || q.oom_reclaims > 0) ++retried_queries;
    max_attempts_seen = std::max(max_attempts_seen, q.attempts);
  }

  std::printf("fault schedule:   %llu injected (%llu kernel, %llu transfer, "
              "%llu oom) over %llu checks\n",
              static_cast<unsigned long long>(fstats.injected_total()),
              static_cast<unsigned long long>(fstats.injected_kernel),
              static_cast<unsigned long long>(fstats.injected_transfer),
              static_cast<unsigned long long>(fstats.injected_oom),
              static_cast<unsigned long long>(fstats.checks));
  std::printf("recovery:         %llu faults seen, %llu retries "
              "(%.3f ms backoff), %llu pool reclaims, %llu reroutes\n",
              static_cast<unsigned long long>(res.faults_seen),
              static_cast<unsigned long long>(res.retries),
              res.backoff_ns / 1e6,
              static_cast<unsigned long long>(res.oom_reclaims),
              static_cast<unsigned long long>(res.fallback_reroutes));
  std::printf("queries:          %zu completed, %zu recovered after faults, "
              "max attempts %d, %zu permanent failures\n",
              report.completed - failed, retried_queries, max_attempts_seen,
              failed);
  std::printf("device calls:     %.1f per query fault-free, %.1f under "
              "chaos (bound %.1f)\n",
              per_query(golden_calls, kNumKinds),
              per_query(fstats.checks, total), per_query(call_bound, total));
  std::printf("device memory:    peak %.2f MiB (live+reserved), %llu bytes "
              "still reserved\n",
              static_cast<double>(report.device_peak_bytes) /
                  (1024.0 * 1024.0),
              static_cast<unsigned long long>(report.device_reserved_bytes));

  bool answers_ok = true;
  for (size_t i = 0; i < total; ++i) {
    if (!CheckAnswer(kinds[i], answers[i], reference[kinds[i]])) {
      answers_ok = false;
    }
  }

  // Post-storm fault-free pass must reproduce the golden timeline exactly:
  // fault handling may not leave residue in the cost model.
  std::vector<Answer> post_answers;
  const std::map<std::string, uint64_t> post =
      golden_pass("post-chaos", &post_answers);
  bool golden_ok = true;
  for (const auto& [label, ns] : golden) {
    const auto it = post.find(label);
    if (it == post.end() || it->second != ns) {
      std::fprintf(stderr,
                   "GOLDEN DRIFT: %s simulated %llu ns post-chaos, expected "
                   "%llu\n",
                   label.c_str(),
                   static_cast<unsigned long long>(
                       it == post.end() ? 0 : it->second),
                   static_cast<unsigned long long>(ns));
      golden_ok = false;
    }
  }

  std::printf("\nanswers vs host reference: %s\n",
              answers_ok ? "OK" : "MISMATCH");
  std::printf("fault-free golden timeline after chaos: %s\n",
              golden_ok ? "bit-identical" : "DRIFTED");
  std::printf("device calls within one replay per fault: %s\n",
              calls_ok ? "OK" : "EXCEEDED");

  if (!opts.json_path.empty()) {
    std::ofstream out(opts.json_path);
    out << "{\n  \"backend\": \"" << opts.backend << "\",\n"
        << "  \"clients\": " << opts.clients << ",\n"
        << "  \"seed\": " << opts.seed << ",\n"
        << "  \"queries\": " << total << ",\n"
        << "  \"injected\": {\"kernel\": " << fstats.injected_kernel
        << ", \"transfer\": " << fstats.injected_transfer
        << ", \"oom\": " << fstats.injected_oom
        << ", \"device_lost\": " << fstats.injected_device_lost
        << ", \"checks\": " << fstats.checks << "},\n"
        << "  \"resilience\": {\"faults_seen\": " << res.faults_seen
        << ", \"retries\": " << res.retries
        << ", \"backoff_ns\": " << res.backoff_ns
        << ", \"oom_reclaims\": " << res.oom_reclaims
        << ", \"reroutes\": " << res.fallback_reroutes
        << ", \"deadline_misses\": " << res.deadline_misses
        << ", \"permanent_failures\": " << res.permanent_failures
        << ", \"breaker_opens\": " << res.breaker_opens << "},\n"
        << "  \"device_calls_per_query\": {\"golden\": "
        << per_query(golden_calls, kNumKinds)
        << ", \"chaos\": " << per_query(fstats.checks, total)
        << ", \"chaos_bound\": " << per_query(call_bound, total) << "},\n"
        << "  \"peak_bytes\": " << report.device_peak_bytes << ",\n"
        << "  \"reserved_bytes\": " << report.device_reserved_bytes << ",\n"
        << "  \"recovered_queries\": " << retried_queries << ",\n"
        << "  \"max_attempts\": " << max_attempts_seen << ",\n"
        << "  \"permanent_failures\": " << failed << ",\n"
        << "  \"answers_ok\": " << (answers_ok ? "true" : "false") << ",\n"
        << "  \"golden_ok\": " << (golden_ok ? "true" : "false") << ",\n"
        << "  \"calls_ok\": " << (calls_ok ? "true" : "false") << "\n}\n";
    std::printf("wrote %s\n", opts.json_path.c_str());
  }

  if (failed > 0) return 2;
  if (!answers_ok) return 3;
  if (!golden_ok) return 4;
  if (!calls_ok) return 5;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!ParseArgs(argc, argv, &opts)) {
    std::fprintf(stderr,
                 "usage: %s [--backend=NAME] [--clients=N] [--per-client=N] "
                 "[--seed=S] [--sf=F] [--json=FILE]\n",
                 argv[0]);
    return 64;
  }
  try {
    return Run(opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_chaos: %s\n", e.what());
    return 3;
  }
}
