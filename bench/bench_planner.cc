// Hybrid plan dispatch vs the best single backend, per TPC-H query.
//
// For every query this bench runs the query table's plan pinned to each
// candidate backend, then the cost-dispatched hybrid plan, checks every
// answer against the host reference, and reports the hybrid plan's speedup
// over the best pinned backend. The process exits non-zero if any answer
// differs from the reference or the hybrid plan is slower than the best
// pinned backend on any query. That a pinned plan replays the hand-coded
// operator chain bit for bit is PlanGoldenTest's check
// (tests/plan_golden_test.cc).
//
// Not a google-benchmark binary: the unit of work is a whole optimize +
// execute cycle and the pass/fail verdict needs cross-backend state, so it
// drives itself and optionally writes machine-readable JSON for CI.
//
// Usage:
//   bench_planner [--sf=0.01] [--queries=q1,q6,q3,q4,q14]
//                 [--backends=Handwritten,Thrust,ArrayFire,Boost.Compute]
//                 [--json=FILE]
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
#include "plan/prepared.h"
#include "plan/tpch_plans.h"
#include "tpch/datagen.h"

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

struct BackendRun {
  std::string name;
  uint64_t plan_ns = 0;
  bool answers_match = false;
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
  const plan::TpchHostTables host{&h_lineitem, &h_orders, &h_customer,
                                  &h_part};

  // Upload once on a setup stream; every measured run only reads the
  // device-resident tables.
  gpusim::Stream setup(gpusim::Device::Default(), gpusim::ApiProfile::Cuda());
  const auto resident =
      plan::MakeResident(setup, host, /*use_encoding=*/false);

  std::printf("bench_planner: sf=%g rows(lineitem)=%zu\n\n",
              opts.scale_factor, h_lineitem.num_rows());
  std::printf("%-4s %-14s %12s %7s\n", "qry", "backend", "plan_ns", "match");

  bool ok = true;
  bool join_strict_win = false;
  std::vector<QueryVerdict> verdicts;
  auto& registry = core::BackendRegistry::Instance();

  for (const std::string& q : opts.queries) {
    QueryVerdict v;
    v.query = q;
    const plan::TpchQuery query = plan::ParseTpchQuery(q);
    const plan::QueryPlanBundle bundle =
        plan::BuildTpchPlan(query, resident->view());
    const plan::TpchQueryResult reference =
        plan::ReferenceAnswer(query, host);
    const auto matches = [&](const plan::ExecutionResult& res) {
      std::string why;
      const bool same = plan::SameAnswer(
          query, plan::FinalizeRun(query, bundle, res), reference, &why);
      if (!same) std::fprintf(stderr, "WRONG ANSWER: %s\n", why.c_str());
      return same;
    };

    for (const std::string& name : opts.backends) {
      // The plan pinned to one backend, on a fresh instance (so
      // OpenCL-style program compiles are charged).
      BackendRun r;
      r.name = name;
      plan::OptimizerOptions pin_opts;
      pin_opts.pin_backend = name;
      const plan::PhysicalPlan phys = plan::Optimize(bundle.plan, pin_opts);
      auto backend = registry.Create(name);
      const plan::ExecutionResult res = plan::RunPinned(phys, *backend);
      r.plan_ns = res.total_ns;
      r.answers_match = matches(res);
      if (!r.answers_match) ok = false;

      if (v.best_backend.empty() || r.plan_ns < v.best_ns) {
        v.best_backend = name;
        v.best_ns = r.plan_ns;
      }
      std::printf("%-4s %-14s %12llu %7s\n", q.c_str(), name.c_str(),
                  static_cast<unsigned long long>(r.plan_ns),
                  r.answers_match ? "yes" : "NO");
      v.runs.push_back(r);
    }

    // The cost-dispatched hybrid plan.
    const plan::PhysicalPlan phys =
        plan::Optimize(bundle.plan, plan::OptimizerOptions());
    const plan::ExecutionResult res = plan::RunHybrid(phys);
    v.hybrid_ns = res.total_ns;
    v.hybrid_match = matches(res);
    v.hybrid_le_best = v.hybrid_ns <= v.best_ns;
    if (!v.hybrid_match || !v.hybrid_le_best) ok = false;
    const bool join_query = !plan::QueryDef(query).build_tables.empty();
    if (join_query && v.hybrid_ns < v.best_ns) join_strict_win = true;

    std::printf("%-4s %-14s %12llu %7s  %s (best %s %llu, %.2fx)\n\n",
                q.c_str(), "Hybrid",
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
            << "\", \"plan_ns\": " << r.plan_ns << ", \"answers_match\": "
            << (r.answers_match ? "true" : "false") << "}";
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
