// Runs TPC-H Q1 and Q6 through every registered library backend and prints
// per-backend results and simulated device timings — the paper's query
// experiment as a runnable demo. Each query is its plan from the query
// table (plan/tpch_plans.h), pinned to the backend.
//
//   build/examples/tpch_queries [scale_factor]    (default 0.01)
#include <iomanip>
#include <iostream>

#include "core/metrics.h"
#include "core/registry.h"
#include "plan/prepared.h"
#include "tpch/datagen.h"
#include "tpch/queries.h"

int main(int argc, char** argv) {
  core::RegisterBuiltinBackends();
  tpch::Config config;
  config.scale_factor = argc > 1 ? std::stod(argv[1]) : 0.01;

  std::cout << "Generating TPC-H lineitem at SF " << config.scale_factor
            << "...\n";
  const storage::Table lineitem = tpch::GenerateLineitem(config);
  std::cout << lineitem.num_rows() << " rows\n\n";

  const double q6_ref = tpch::ReferenceQ6(lineitem);
  const auto q1_ref = tpch::ReferenceQ1(lineitem);

  std::cout << std::left << std::setw(16) << "backend" << std::right
            << std::setw(14) << "Q6 [ms]" << std::setw(14) << "Q1 [ms]"
            << std::setw(16) << "Q6 revenue" << "   (simulated device time; "
            << "first call, incl. any JIT compile)\n";
  std::cout << std::string(90, '-') << "\n";

  for (const auto& name : core::BackendRegistry::Instance().Names()) {
    auto backend = core::BackendRegistry::Instance().Create(name);
    const auto resident = plan::MakeResident(backend->stream(), {&lineitem},
                                             /*use_encoding=*/false);
    const auto run = [&](plan::TpchQuery q) {
      return plan::PrepareTpchQuery({q}, resident, name)->Run(*backend);
    };

    core::ScopedMeasurement q6_scope(backend->stream(), "q6");
    const double revenue = run(plan::TpchQuery::kQ6).scalar;
    const auto q6 = q6_scope.Stop();

    core::ScopedMeasurement q1_scope(backend->stream(), "q1");
    const auto q1_rows = run(plan::TpchQuery::kQ1).q1;
    const auto q1 = q1_scope.Stop();

    const bool q6_ok = std::abs(revenue - q6_ref) < 1e-6 * std::abs(q6_ref);
    std::cout << std::left << std::setw(16) << name << std::right
              << std::fixed << std::setprecision(3) << std::setw(14)
              << q6.simulated_ms() << std::setw(14) << q1.simulated_ms()
              << std::setw(16) << std::setprecision(2) << revenue
              << (q6_ok ? "   ok" : "   MISMATCH") << "\n";

    if (name == "Handwritten") {
      std::cout << "\nQ1 result (" << q1_rows.size() << " groups):\n";
      std::cout << "  rf ls     sum_qty   sum_base_price      avg_disc  "
                   "count\n";
      for (const auto& row : q1_rows) {
        std::cout << "  " << row.returnflag << "  " << row.linestatus << "  "
                  << std::setw(10) << std::setprecision(0) << row.sum_qty
                  << "  " << std::setw(15) << std::setprecision(2)
                  << row.sum_base_price << "  " << std::setw(12)
                  << std::setprecision(6) << row.avg_disc << "  "
                  << row.count_order << "\n";
      }
    }
  }
  std::cout << "\nReference Q6 revenue: " << std::fixed
            << std::setprecision(2) << q6_ref << "; Q1 groups: "
            << q1_ref.size() << "\n";
  return 0;
}
