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
#include "core/resilience.h"
#include "core/scheduler.h"
#include "gpusim/device.h"
#include "gpusim/fault.h"
#include "plan/prepared.h"
#include "plan/tpch_plans.h"
#include "tpch/datagen.h"

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

using Answer = plan::TpchQueryResult;

/// Compares a captured answer against the host reference; prints the
/// first mismatch.
bool CheckAnswer(const std::string& kind, const Answer& got,
                 const Answer& ref) {
  std::string why;
  if (plan::SameAnswer(plan::ParseTpchQuery(kind), got, ref, &why)) {
    return true;
  }
  std::fprintf(stderr, "WRONG ANSWER: %s\n", why.c_str());
  return false;
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
  const plan::TpchHostTables host{&lineitem, &orders, &customer, &part};
  const auto resident =
      plan::MakeResident(setup, host, /*use_encoding=*/false);

  // Host reference answers and the plans, pinned to the scheduler's
  // backend, built once per kind.
  std::map<std::string, Answer> reference;
  std::map<std::string, std::shared_ptr<const plan::PreparedTpchQuery>>
      prepared;
  for (const char* kind : kKinds) {
    const plan::TpchQuery q = plan::ParseTpchQuery(kind);
    reference[kind] = plan::ReferenceAnswer(q, host);
    prepared[kind] = plan::PrepareTpchQuery({q}, resident, opts.backend);
  }
  const auto make_query = [&](const std::string& kind,
                              Answer* slot) -> core::QueryFn {
    return [query = prepared.at(kind), slot](core::Backend& b) {
      *slot = query->Run(b);
    };
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
              "(%.3f ms backoff), %llu pool reclaims\n",
              static_cast<unsigned long long>(res.faults_seen),
              static_cast<unsigned long long>(res.retries),
              res.backoff_ns / 1e6,
              static_cast<unsigned long long>(res.oom_reclaims));
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
        << ", \"deadline_misses\": " << res.deadline_misses
        << ", \"permanent_failures\": " << res.permanent_failures << "},\n"
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
