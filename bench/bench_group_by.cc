// R-F5: Grouped aggregation (sum by key) vs. group count at fixed rows.
//
// The libraries' only realization is sort-based: sort_by_key + reduce_by_key
// (Thrust/Boost) or sort + sumByKey (ArrayFire) — the cost is dominated by
// the sort and is nearly independent of the group count. The handwritten
// backend aggregates into a hash table sized from its tile partials (at most
// the group count per 4096-row tile), so it wins everywhere, most
// dramatically at low group counts. This is the "hashing left on the table"
// result of the paper.
#include "bench_common.h"

namespace bench {

void GroupByBench(benchmark::State& state, const std::string& name) {
  const size_t n = 1 << 20;
  const int32_t groups = static_cast<int32_t>(state.range(0));
  auto backend = core::BackendRegistry::Instance().Create(name);
  const auto keys = Upload(*backend, UniformInts(n, groups));
  const auto vals = Upload(*backend, UniformDoubles(n, 100.0));
  backend->GroupByAggregate(keys, vals, core::AggOp::kSum);  // warm

  size_t got_groups = 0;
  for (auto _ : state) {
    Region region(*backend);
    const auto result =
        backend->GroupByAggregate(keys, vals, core::AggOp::kSum);
    region.Stop(state);
    got_groups = result.num_groups;
  }
  state.counters["groups"] = static_cast<double>(got_groups);
  state.counters["rows"] = static_cast<double>(n);
}

void RegisterBenchmarks() {
  for (const auto& name : AllBackendNames()) {
    auto* b = benchmark::RegisterBenchmark(
        ("GroupBySum/" + name).c_str(),
        [name](benchmark::State& s) { GroupByBench(s, name); });
    b->UseManualTime()->Iterations(2);
    for (const int64_t g : {4, 64, 1024, 16384, 262144}) b->Arg(g);
  }
}

}  // namespace bench

BENCH_MAIN()
