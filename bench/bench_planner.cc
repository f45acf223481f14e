// Hybrid plan dispatch vs the best single backend, per TPC-H query.
//
// For every query this bench runs the hand-coded operator chain on each
// candidate backend, replays the same query as a *pinned* plan (checking the
// plan reproduces the hand-coded answer AND charges a bit-identical
// simulated timeline — the executor's golden property), then runs the
// cost-dispatched hybrid plan and reports its speedup over the best single
// backend. The process exits non-zero if any plan answer diverges from the
// hand-coded one, any pinned timeline is not bit-identical, or the hybrid
// plan is slower than the best single backend on any query.
//
// Not a google-benchmark binary: the unit of work is a whole optimize +
// execute cycle and the pass/fail verdict needs cross-backend state, so it
// drives itself and optionally writes machine-readable JSON for CI.
//
// Usage:
//   bench_planner [--sf=0.01] [--queries=q1,q6,q3,q4,q14]
//                 [--backends=Handwritten,Thrust,ArrayFire,Boost.Compute]
//                 [--json=FILE]
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "backends/backends.h"
#include "core/registry.h"
#include "plan/executor.h"
#include "plan/optimizer.h"
#include "plan/tpch_plans.h"
#include "storage/device_column.h"
#include "tpch/datagen.h"
#include "tpch/queries.h"

namespace {

struct Options {
  double scale_factor = 0.01;
  std::vector<std::string> queries = {"q1", "q6", "q3", "q4", "q14"};
  std::vector<std::string> backends = {
      backends::kHandwritten, backends::kThrust, backends::kArrayFire,
      backends::kBoostCompute};
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
    if (const char* v = value("--sf=")) {
      opts->scale_factor = std::stod(v);
    } else if (const char* v = value("--queries=")) {
      opts->queries = SplitCsv(v);
    } else if (const char* v = value("--backends=")) {
      opts->backends = SplitCsv(v);
    } else if (const char* v = value("--json=")) {
      opts->json_path = v;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
  }
  return !opts->queries.empty() && !opts->backends.empty();
}

bool NearlyEqual(double a, double b) {
  return std::abs(a - b) <= std::abs(b) * 1e-9 + 1e-6;
}

/// One struct carries any of the five result shapes.
using Answer = plan::TpchQueryResult;

bool AnswersMatch(const std::string& query, const Answer& a, const Answer& b) {
  if (query == "q1") {
    if (a.q1.size() != b.q1.size()) return false;
    for (size_t i = 0; i < a.q1.size(); ++i) {
      const tpch::Q1Row& x = a.q1[i];
      const tpch::Q1Row& y = b.q1[i];
      if (x.returnflag != y.returnflag || x.linestatus != y.linestatus ||
          x.count_order != y.count_order)
        return false;
      if (!NearlyEqual(x.sum_qty, y.sum_qty) ||
          !NearlyEqual(x.sum_base_price, y.sum_base_price) ||
          !NearlyEqual(x.sum_disc_price, y.sum_disc_price) ||
          !NearlyEqual(x.sum_charge, y.sum_charge) ||
          !NearlyEqual(x.avg_qty, y.avg_qty) ||
          !NearlyEqual(x.avg_price, y.avg_price) ||
          !NearlyEqual(x.avg_disc, y.avg_disc))
        return false;
    }
    return true;
  }
  if (query == "q3") {
    if (a.q3.size() != b.q3.size()) return false;
    for (size_t i = 0; i < a.q3.size(); ++i) {
      if (a.q3[i].orderkey != b.q3[i].orderkey ||
          !NearlyEqual(a.q3[i].revenue, b.q3[i].revenue))
        return false;
    }
    return true;
  }
  if (query == "q4") {
    if (a.q4.size() != b.q4.size()) return false;
    for (size_t i = 0; i < a.q4.size(); ++i) {
      if (a.q4[i].orderpriority != b.q4[i].orderpriority ||
          a.q4[i].order_count != b.q4[i].order_count)
        return false;
    }
    return true;
  }
  return NearlyEqual(a.scalar, b.scalar);
}

struct BackendRun {
  std::string name;
  uint64_t hand_ns = 0;
  uint64_t plan_ns = 0;
  bool answers_match = false;
  bool ns_identical = false;
};

struct QueryVerdict {
  std::string query;
  std::vector<BackendRun> runs;
  std::string best_backend;
  uint64_t best_ns = 0;
  uint64_t hybrid_ns = 0;
  bool hybrid_match = false;
  bool hybrid_le_best = false;
};

int Run(const Options& opts) {
  core::RegisterBuiltinBackends();

  tpch::Config config;
  config.scale_factor = opts.scale_factor;
  const storage::Table h_lineitem = tpch::GenerateLineitem(config);
  const storage::Table h_orders = tpch::GenerateOrders(config);
  const storage::Table h_customer = tpch::GenerateCustomer(config);
  const storage::Table h_part = tpch::GeneratePart(config);

  // Upload once on a setup stream; every measured run only reads the
  // device-resident tables.
  gpusim::Stream setup(gpusim::Device::Default(), gpusim::ApiProfile::Cuda());
  const storage::DeviceTable lineitem = storage::UploadTable(setup, h_lineitem);
  const storage::DeviceTable orders = storage::UploadTable(setup, h_orders);
  const storage::DeviceTable customer =
      storage::UploadTable(setup, h_customer);
  const storage::DeviceTable part = storage::UploadTable(setup, h_part);

  const auto run_hand = [&](const std::string& q,
                            core::Backend& b) -> Answer {
    Answer a;
    if (q == "q1") {
      a.q1 = tpch::RunQ1(b, lineitem);
    } else if (q == "q6") {
      a.scalar = tpch::RunQ6(b, lineitem);
    } else if (q == "q3") {
      a.q3 = tpch::RunQ3(b, customer, orders, lineitem);
    } else if (q == "q4") {
      a.q4 = tpch::RunQ4(b, orders, lineitem);
    } else if (q == "q14") {
      a.scalar = tpch::RunQ14(b, part, lineitem);
    } else {
      throw std::invalid_argument("unknown query kind: " + q);
    }
    return a;
  };
  plan::TpchDeviceTables tables;
  tables.lineitem = &lineitem;
  tables.orders = &orders;
  tables.customer = &customer;
  tables.part = &part;
  const auto build_plan = [&](const std::string& q) {
    return plan::BuildTpchPlan(plan::ParseTpchQuery(q), tables);
  };
  const auto extract = [&](const std::string& q,
                           const plan::QueryPlanBundle& bundle,
                           const plan::ExecutionResult& res) {
    return plan::FinalizeRun(plan::ParseTpchQuery(q), bundle, res);
  };

  std::printf("bench_planner: sf=%g rows(lineitem)=%zu\n\n",
              opts.scale_factor, h_lineitem.num_rows());
  std::printf("%-4s %-14s %12s %12s %7s %10s\n", "qry", "backend", "hand_ns",
              "plan_ns", "match", "identical");

  bool ok = true;
  bool join_strict_win = false;
  std::vector<QueryVerdict> verdicts;
  auto& registry = core::BackendRegistry::Instance();

  for (const std::string& q : opts.queries) {
    QueryVerdict v;
    v.query = q;
    const plan::QueryPlanBundle bundle = build_plan(q);

    for (const std::string& name : opts.backends) {
      BackendRun r;
      r.name = name;

      // Hand-coded chain on a fresh backend instance (so OpenCL-style
      // program compiles are charged the same way in both runs).
      auto hand_backend = registry.Create(name);
      const uint64_t t0 = hand_backend->stream().now_ns();
      const Answer hand = run_hand(q, *hand_backend);
      r.hand_ns = hand_backend->stream().now_ns() - t0;

      // Same query as a plan, pinned to the same backend.
      plan::OptimizerOptions pin_opts;
      pin_opts.pin_backend = name;
      const plan::PhysicalPlan phys = plan::Optimize(bundle.plan, pin_opts);
      auto plan_backend = registry.Create(name);
      const plan::ExecutionResult res = plan::RunPinned(phys, *plan_backend);
      r.plan_ns = res.total_ns;
      r.answers_match = AnswersMatch(q, extract(q, bundle, res), hand);
      r.ns_identical = r.plan_ns == r.hand_ns;
      if (!r.answers_match || !r.ns_identical) ok = false;

      if (v.best_backend.empty() || r.hand_ns < v.best_ns) {
        v.best_backend = name;
        v.best_ns = r.hand_ns;
      }
      std::printf("%-4s %-14s %12llu %12llu %7s %10s\n", q.c_str(),
                  name.c_str(), static_cast<unsigned long long>(r.hand_ns),
                  static_cast<unsigned long long>(r.plan_ns),
                  r.answers_match ? "yes" : "NO",
                  r.ns_identical ? "yes" : "NO");
      v.runs.push_back(r);
    }

    // Cost-dispatched hybrid plan against the hand-coded golden answer
    // (the first backend's — all matched each other above).
    const plan::PhysicalPlan phys =
        plan::Optimize(bundle.plan, plan::OptimizerOptions());
    const plan::ExecutionResult res = plan::RunHybrid(phys);
    v.hybrid_ns = res.total_ns;
    auto golden_backend = registry.Create(opts.backends.front());
    v.hybrid_match =
        AnswersMatch(q, extract(q, bundle, res), run_hand(q, *golden_backend));
    v.hybrid_le_best = v.hybrid_ns <= v.best_ns;
    if (!v.hybrid_match || !v.hybrid_le_best) ok = false;
    const bool join_query = q == "q3" || q == "q4" || q == "q14";
    if (join_query && v.hybrid_ns < v.best_ns) join_strict_win = true;

    std::printf("%-4s %-14s %12s %12llu %7s %10s  (best %s %llu, %.2fx)\n\n",
                q.c_str(), "Hybrid", "-",
                static_cast<unsigned long long>(v.hybrid_ns),
                v.hybrid_match ? "yes" : "NO",
                v.hybrid_le_best ? "<=best" : "SLOWER", v.best_backend.c_str(),
                static_cast<unsigned long long>(v.best_ns),
                v.hybrid_ns ? static_cast<double>(v.best_ns) / v.hybrid_ns
                            : 0.0);
    verdicts.push_back(v);
  }

  std::printf("verdict: %s\n", ok ? "OK" : "FAILED");
  if (join_strict_win) {
    std::printf("hybrid strictly beat the best single backend on a join "
                "query\n");
  }

  if (!opts.json_path.empty()) {
    std::ofstream out(opts.json_path);
    out << "{\n  \"scale_factor\": " << opts.scale_factor << ",\n"
        << "  \"ok\": " << (ok ? "true" : "false") << ",\n"
        << "  \"join_strict_win\": " << (join_strict_win ? "true" : "false")
        << ",\n  \"queries\": [\n";
    for (size_t i = 0; i < verdicts.size(); ++i) {
      const QueryVerdict& v = verdicts[i];
      out << "    {\"query\": \"" << v.query << "\", \"backends\": [";
      for (size_t j = 0; j < v.runs.size(); ++j) {
        const BackendRun& r = v.runs[j];
        out << (j ? ", " : "") << "{\"name\": \"" << r.name
            << "\", \"hand_ns\": " << r.hand_ns
            << ", \"plan_ns\": " << r.plan_ns << ", \"answers_match\": "
            << (r.answers_match ? "true" : "false") << ", \"ns_identical\": "
            << (r.ns_identical ? "true" : "false") << "}";
      }
      out << "], \"best_backend\": \"" << v.best_backend
          << "\", \"best_ns\": " << v.best_ns
          << ", \"hybrid_ns\": " << v.hybrid_ns << ", \"hybrid_match\": "
          << (v.hybrid_match ? "true" : "false") << ", \"hybrid_le_best\": "
          << (v.hybrid_le_best ? "true" : "false") << ", \"speedup\": "
          << (v.hybrid_ns ? static_cast<double>(v.best_ns) / v.hybrid_ns : 0)
          << "}" << (i + 1 < verdicts.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::printf("wrote %s\n", opts.json_path.c_str());
  }

  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!ParseArgs(argc, argv, &opts)) {
    std::fprintf(stderr,
                 "usage: %s [--sf=F] [--queries=q1,q6,q3,q4,q14] "
                 "[--backends=A,B,...] [--json=FILE]\n",
                 argv[0]);
    return 64;
  }
  try {
    return Run(opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_planner: %s\n", e.what());
    return 3;
  }
}
