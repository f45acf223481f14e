// R-T3, R-T4, R-T6, R-T7, R-T8: the TPC-H queries end to end per library.
//
// Every query runs its plan from the query table (plan/tpch_plans.h) pinned
// to one library: a chain of that library's operator calls with every
// intermediate materialized, the execution model of the paper's query
// experiments. Q1 (a low-selectivity filter, five gathers, projection
// arithmetic and six grouped aggregations) and Q6 (a five-predicate
// selection, two gathers, a product and a reduction) run at SF 0.01 and
// 0.1; the join queries Q3, Q4 and Q14 at SF 0.01. The libraries join by
// nested loops (Table II); the handwritten backend hash-joins. Two variants
// isolate what a library cannot express:
//   * TpchQ3|Q4|Q14/Handwritten-nlj: the handwritten kernels forced onto the
//     libraries' nested-loops join, so the gap to Handwritten is the join
//     algorithm alone.
//   * TpchQ6/Handwritten-fused: Q6 optimized over the handwritten backend
//     alone, where the whole query body fuses into one kernel: the
//     expert-written upper bound.
//
// Every answer is checked against the host reference; the process exits
// non-zero when one differs.
#include <string>
#include <vector>

#include "bench_common.h"
#include "plan/executor.h"
#include "plan/optimizer.h"
#include "plan/prepared.h"
#include "plan/tpch_plans.h"
#include "tpch/datagen.h"

namespace bench {
namespace {

/// How one benchmark runs its query's plan.
struct Variant {
  std::string label;  ///< the name's last part: a library or an ablation
  std::string backend;
  bool nested_loops = false;  ///< every join forced onto nested loops
  bool fused = false;  ///< optimized over the handwritten backend alone
};

bool answers_ok = true;

void QueryBench(benchmark::State& state, plan::TpchQuery q,
                const Variant& v) {
  tpch::Config config;
  config.scale_factor = state.range(0) / 1000.0;
  const storage::Table lineitem = tpch::GenerateLineitem(config);
  const storage::Table orders = tpch::GenerateOrders(config);
  const storage::Table customer = tpch::GenerateCustomer(config);
  const storage::Table part = tpch::GeneratePart(config);
  const plan::TpchHostTables host =
      plan::QueryTables(q, plan::TpchHostTables{&lineitem, &orders,
                                                &customer, &part});
  auto backend = core::BackendRegistry::Instance().Create(v.backend);

  const uint64_t upload_start_ns = backend->stream().now_ns();
  const auto resident =
      plan::MakeResident(backend->stream(), host, /*use_encoding=*/false);
  const double upload_ms =
      (backend->stream().now_ns() - upload_start_ns) / 1e6;

  plan::QueryPlanBundle bundle = plan::BuildTpchPlan(q, resident->view());
  if (v.nested_loops) bundle.plan.SetJoinAlgo(plan::JoinAlgo::kNestedLoops);
  plan::OptimizerOptions options;
  if (v.fused) {
    options.candidates = {backends::kHandwritten};
  } else {
    options.pin_backend = v.backend;
  }
  const plan::PhysicalPlan phys = plan::Optimize(bundle.plan, options);

  plan::RunPinned(phys, *backend);  // warm program cache
  plan::TpchQueryResult answer;
  for (auto _ : state) {
    Region region(*backend);
    const plan::ExecutionResult result = plan::RunPinned(phys, *backend);
    region.Stop(state);
    answer = plan::FinalizeRun(q, bundle, result);
  }
  state.counters["lineitem_rows"] = static_cast<double>(lineitem.num_rows());
  state.counters["upload_ms"] = upload_ms;
  state.counters["result_rows"] = static_cast<double>(
      answer.q1.size() + answer.q3.size() + answer.q4.size());
  state.counters["result_scalar"] = answer.scalar;

  std::string why;
  if (!plan::SameAnswer(q, answer, plan::ReferenceAnswer(q, host), &why)) {
    answers_ok = false;
    state.SkipWithError(("wrong answer: " + why).c_str());
  }
}

void RegisterBenchmarks() {
  for (const plan::TpchQueryDef& def : plan::QueryTable()) {
    // The join queries are the ones reading tables besides lineitem.
    const bool joins = !def.build_tables.empty();
    std::vector<Variant> variants;
    for (const std::string& name : AllBackendNames()) {
      variants.push_back({name, name});
    }
    if (joins) {
      variants.push_back({"Handwritten-nlj", backends::kHandwritten,
                          /*nested_loops=*/true});
    }
    if (def.query == plan::TpchQuery::kQ6) {
      variants.push_back({"Handwritten-fused", backends::kHandwritten,
                          /*nested_loops=*/false, /*fused=*/true});
    }
    // "q14" names TpchQ14/...
    const std::string prefix = std::string("TpchQ") + (def.name + 1) + "/";
    for (const Variant& v : variants) {
      auto* b = benchmark::RegisterBenchmark(
          (prefix + v.label).c_str(),
          [q = def.query, v](benchmark::State& s) { QueryBench(s, q, v); });
      b->UseManualTime();
      if (joins) {
        b->Iterations(1)->Arg(10);  // SF 0.01
      } else {
        b->Iterations(2)->Arg(10)->Arg(100);  // SF 0.01 and 0.1
      }
    }
  }
}

}  // namespace
}  // namespace bench

int main(int argc, char** argv) {
  core::RegisterBuiltinBackends();
  bench::RegisterBenchmarks();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return bench::answers_ok ? 0 : 1;
}
