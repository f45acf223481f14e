// EXPLAIN for TPC-H query plans: builds the logical plan, optimizes it
// (hybrid per-operator dispatch by default, or pinned to one backend),
// executes it on the simulated GPU, and prints each node with its chosen
// backend, estimated cost, boundary-transfer share, and measured simulated
// time.
//
//   build/tools/plan_explain [q1|q6|q3|q4|q14] [--pin=<backend>] [--sf=N]
//                            [--encoded] [--devices=N] [--shards=K]
//
// With --encoded the base tables upload compressed (storage/encoding.h) and
// the scans section shows each scan's encoding, encoded vs raw bytes, and
// the estimated transfer cost of the encoded upload.
//
// With --devices=N (N > 1) the per-node EXPLAIN is followed by the sharded
// execution plan over an N-device gpusim::DeviceGroup: shard->device
// placement with orderkey-snapped row ranges, and every exchange edge
// (scatter, broadcast, gather) with its payload, link route and estimated
// cost. --shards overrides the one-shard-per-device default.
#include <cstdlib>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>

#include "core/registry.h"
#include "gpusim/device_group.h"
#include "plan/exchange.h"
#include "plan/executor.h"
#include "plan/explain.h"
#include "plan/optimizer.h"
#include "plan/partition.h"
#include "plan/tpch_plans.h"
#include "storage/encoded_column.h"
#include "tpch/datagen.h"
#include "tpch/queries.h"

namespace {

bool IsQueryName(const std::string& name) {
  try {
    plan::ParseTpchQuery(name);
    return true;
  } catch (const std::invalid_argument&) {
    return false;
  }
}

storage::Table Generate(plan::TpchTable table, const tpch::Config& config) {
  switch (table) {
    case plan::TpchTable::kOrders: return tpch::GenerateOrders(config);
    case plan::TpchTable::kCustomer: return tpch::GenerateCustomer(config);
    case plan::TpchTable::kPart: return tpch::GeneratePart(config);
  }
  throw std::logic_error("unknown TpchTable");
}

}  // namespace

int main(int argc, char** argv) {
  core::RegisterBuiltinBackends();
  std::string query = "q6";
  std::string pin;
  double sf = 0.01;
  bool encoded = false;
  int devices = 1;
  size_t shards = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--pin=", 0) == 0) {
      pin = arg.substr(6);
    } else if (arg.rfind("--sf=", 0) == 0) {
      sf = std::atof(arg.c_str() + 5);
    } else if (arg == "--encoded") {
      encoded = true;
    } else if (arg.rfind("--devices=", 0) == 0) {
      devices = std::atoi(arg.c_str() + 10);
    } else if (arg.rfind("--shards=", 0) == 0) {
      shards = static_cast<size_t>(std::strtoul(arg.c_str() + 9, nullptr, 10));
    } else if (arg.rfind("--", 0) != 0 && IsQueryName(arg)) {
      query = arg;
    } else {
      std::cerr << "usage: plan_explain [q1|q6|q3|q4|q14] [--pin=<backend>] "
                   "[--sf=N] [--encoded] [--devices=N] [--shards=K]\n";
      return 2;
    }
  }
  if (devices < 1) {
    std::cerr << "error: --devices must be >= 1\n";
    return 2;
  }

  tpch::Config config;
  config.scale_factor = sf;
  // One upload stream for the shared base tables; execution backends only
  // read them.
  auto upload_backend = core::BackendRegistry::Instance().Create("Thrust");
  gpusim::Stream& up = upload_backend->stream();
  const auto upload = [&](const storage::Table& t) {
    return encoded ? storage::UploadTableEncoded(up, t)
                   : storage::UploadTable(up, t);
  };
  // Host tables stay alive for the whole run: the sharded planner reads them
  // and plan scans hold pointers into their device uploads. Only the tables
  // the query's entry lists are generated.
  const plan::TpchQuery q = plan::ParseTpchQuery(query);
  const storage::Table host_lineitem = tpch::GenerateLineitem(config);
  const storage::DeviceTable lineitem = upload(host_lineitem);
  std::map<plan::TpchTable, storage::Table> host_build;
  std::map<plan::TpchTable, storage::DeviceTable> device_build;
  plan::TpchHostTables tables;
  plan::TpchDeviceTables device_tables;
  tables.lineitem = &host_lineitem;
  device_tables.lineitem = &lineitem;
  for (const plan::TpchTable t : plan::QueryDef(q).build_tables) {
    tables[t] = &(host_build[t] = Generate(t, config));
    device_tables[t] = &(device_build[t] = upload(*tables[t]));
  }
  const plan::QueryPlanBundle bundle = plan::BuildTpchPlan(q, device_tables);

  plan::OptimizerOptions options;
  options.pin_backend = pin;
  plan::PhysicalPlan phys;
  try {
    phys = plan::Optimize(bundle.plan, options);
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }

  plan::ExecutionResult result;
  if (pin.empty()) {
    result = plan::RunHybrid(phys);
  } else {
    auto backend = core::BackendRegistry::Instance().Create(pin);
    result = plan::RunPinned(phys, *backend);
  }

  std::cout << "EXPLAIN " << query << " (sf=" << sf << ", "
            << (pin.empty() ? std::string("hybrid dispatch")
                            : "pinned to " + pin)
            << ")\n\n";
  std::cout << plan::Explain(phys, result);

  if (devices > 1 || shards > 0) {
    gpusim::DeviceGroup group(devices);
    const plan::ShardedPlanSpec spec =
        plan::PlanShardedExecution(q, tables, group, shards);
    std::cout << "\n" << plan::ExplainSharded(spec, group);
  }
  return 0;
}
