// Captures a kernel-level trace of a TPC-H query on a chosen backend and
// writes it as Chrome trace-event JSON (open in chrome://tracing or
// ui.perfetto.dev) — the simulated equivalent of an nvprof capture. The
// query runs its plan from the query table (plan/tpch_plans.h) pinned to the
// backend, over the tables its entry reads.
//
// With --chaos-seed=N a seeded gpusim::FaultInjector is attached and the
// query goes to a one-client core::QueryScheduler, the owner of transient
// faults outside governed runs (DESIGN.md §7): kernel and transfer faults
// fire probabilistically, the scheduler replays the query under its retry
// policy, and every fired fault prints after the run (fault events also
// appear in the exported trace under the "fault" category).
//
// With --capacity-bytes=N the simulated device capacity shrinks to N and
// the query runs through memory admission (core::MemoryGovernor) and the
// governed spill path (plan/partition.h): the run's admission, partition,
// and spill events, which the device tracer records under the "memory"
// category, print after it and appear in the exported trace.
//
// With --encoded the base tables upload compressed (storage/encoding.h):
// selections run in the encoded domain, survivors decode late, and the
// encoded-transfer counters (bytes moved encoded / bytes saved vs raw)
// print after the run.
//
//   build/tools/trace_query [backend] [q1|q6|q3|q4|q14] [out.json]
//                           [--chaos-seed=N] [--capacity-bytes=N] [--encoded]
//   build/tools/trace_query --help
#include <fstream>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/error.h"
#include "core/governor.h"
#include "core/registry.h"
#include "core/scheduler.h"
#include "gpusim/fault.h"
#include "gpusim/trace.h"
#include "plan/partition.h"
#include "plan/prepared.h"
#include "tpch/datagen.h"

namespace {

void PrintUsage(std::ostream& out) {
  out << "usage: trace_query [backend] [q1|q6|q3|q4|q14] [out.json] "
         "[--chaos-seed=N] [--capacity-bytes=N] [--encoded]\n";
}

}  // namespace

int main(int argc, char** argv) {
  core::RegisterBuiltinBackends();
  std::string backend_name = "Thrust";
  std::string query = "q6";
  std::string out_path = "trace.json";
  bool chaos = false;
  uint64_t chaos_seed = 0;
  bool governed = false;
  uint64_t capacity_bytes = 0;
  bool encoded = false;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      PrintUsage(std::cout);
      return 0;
    }
    if (arg.rfind("--chaos-seed=", 0) == 0) {
      chaos = true;
      chaos_seed = std::stoull(arg.substr(13));
      continue;
    }
    if (arg.rfind("--capacity-bytes=", 0) == 0) {
      governed = true;
      capacity_bytes = std::stoull(arg.substr(17));
      continue;
    }
    if (arg == "--encoded") {
      encoded = true;
      continue;
    }
    if (arg.rfind("--", 0) == 0) {
      // A mistyped or retired flag must not become the output path.
      std::cerr << "unknown option: " << arg << "\n";
      PrintUsage(std::cerr);
      return 2;
    }
    switch (positional++) {
      case 0: backend_name = arg; break;
      case 1: query = arg; break;
      case 2: out_path = arg; break;
      default:
        std::cerr << "unexpected argument: " << arg << "\n";
        PrintUsage(std::cerr);
        return 2;
    }
  }
  plan::TpchQuery q;
  try {
    q = plan::ParseTpchQuery(query);
  } catch (const std::invalid_argument& e) {
    std::cerr << e.what() << "\n";
    PrintUsage(std::cerr);
    return 2;
  }
  if (!core::BackendRegistry::Instance().Contains(backend_name)) {
    std::cerr << "unknown backend '" << backend_name << "'\n";
    PrintUsage(std::cerr);
    return 2;
  }

  tpch::Config config;
  config.scale_factor = 0.01;
  const storage::Table lineitem = tpch::GenerateLineitem(config);
  const storage::Table orders = tpch::GenerateOrders(config);
  const storage::Table customer = tpch::GenerateCustomer(config);
  const storage::Table part = tpch::GeneratePart(config);
  const plan::TpchHostTables tables = plan::QueryTables(
      q, plan::TpchHostTables{&lineitem, &orders, &customer, &part});

  auto backend = core::BackendRegistry::Instance().Create(backend_name);
  gpusim::Stream& stream = backend->stream();
  gpusim::Device& device = gpusim::Device::Default();

  // Governed mode uploads inside the governed run (slices and all), so the
  // tables stay host-side; ungoverned mode uploads them up front and
  // prepares the plan over them.
  std::shared_ptr<const plan::PreparedTpchQuery> prepared;
  if (governed) {
    device.set_memory_capacity(capacity_bytes);
    std::cout << "memory: capacity constrained to " << capacity_bytes
              << " bytes\n";
  } else {
    prepared = plan::PrepareTpchQuery(
        {q, encoded}, plan::MakeResident(stream, tables, encoded),
        backend_name);
  }

  core::GovernorOptions governor_opts;
  governor_opts.device = &device;
  core::MemoryGovernor governor(governor_opts);

  gpusim::Tracer tracer;
  const core::QueryFn run = [&](core::Backend& b) {
    if (!governed) {
      prepared->Run(b);
      return;
    }
    const uint64_t footprint = plan::EstimateQueryFootprint(
        q, tables, backend_name, /*partitions=*/1, encoded);
    const core::AdmissionTicket ticket =
        governor.Admit(b.stream().id(), footprint);
    std::cout << "  admission: requested " << ticket.requested_bytes
              << " B, granted " << ticket.granted_bytes << " B"
              << (ticket.partial() ? " (partial — must partition)" : "")
              << "\n";
    if (!ticket.admitted()) {
      throw std::runtime_error("memory admission rejected");
    }
    plan::GovernedQueryOptions gq;
    gq.use_encoding = encoded;
    plan::GovernedRunStats stats;
    // The governed run records its admission, partition, spill and fallback
    // events on the tracer as "<kind>: <detail>"; print this attempt's as
    // "[<kind>] <detail>", whether it succeeds or throws.
    const size_t first_event = tracer.size();
    const auto print_memory_events = [&] {
      const std::vector<gpusim::TraceEvent> events = tracer.events();
      for (size_t i = first_event; i < events.size(); ++i) {
        if (std::string_view(events[i].category) != "memory") continue;
        const std::string& name = events[i].name;
        const size_t colon = name.find(": ");
        std::cout << "  [" << name.substr(0, colon) << "] "
                  << name.substr(colon + 2) << "\n";
      }
    };
    try {
      plan::RunGoverned(q, tables, b, gq, &stats);
    } catch (...) {
      print_memory_events();
      governor.Release(b.stream().id());
      throw;
    }
    print_memory_events();
    governor.Release(b.stream().id());
    std::cout << "  governed run: " << stats.partitions << " partition(s), "
              << stats.oom_fallbacks << " OOM fallback(s), spill "
              << stats.spill_h2d_bytes << " B h2d / " << stats.spill_d2h_bytes
              << " B d2h, " << stats.simulated_ns << " simulated ns\n";
  };

  // Faults are armed after the uploads: the chaos run perturbs the query,
  // not the fixture.
  gpusim::FaultInjector injector(chaos_seed);
  if (chaos) {
    gpusim::FaultRule kernel_rule;
    kernel_rule.site = gpusim::FaultSite::kKernel;
    kernel_rule.kind = gpusim::FaultKind::kTransientKernel;
    kernel_rule.probability = 0.02;
    injector.AddRule(kernel_rule);
    gpusim::FaultRule transfer_rule;
    transfer_rule.site = gpusim::FaultSite::kTransfer;
    transfer_rule.kind = gpusim::FaultKind::kTransfer;
    transfer_rule.probability = 0.02;
    injector.AddRule(transfer_rule);
    device.set_fault_injector(&injector);
    std::cout << "chaos: seed=" << chaos_seed
              << " kernel/transfer fault probability 0.02\n";
  }

  device.set_tracer(&tracer);
  core::QueryRecord record;
  if (chaos) {
    core::SchedulerOptions sched_opts;
    sched_opts.backend_name = backend_name;
    core::QueryScheduler scheduler(sched_opts);
    scheduler.Submit(query, run);
    scheduler.Drain();
    record = scheduler.Records().front();
    const std::vector<gpusim::InjectedFault> log = injector.log();
    for (size_t k = 0; k < log.size(); ++k) {
      const gpusim::InjectedFault& f = log[k];
      std::cout << "  fault[" << k << "] " << gpusim::FaultKindName(f.kind)
                << " at " << gpusim::FaultSiteName(f.site) << " (stream "
                << f.stream_id << ", call " << f.call_index << ", rule "
                << f.rule << ")\n";
    }
    std::cout << "  scheduler: " << record.attempts << " attempt(s), "
              << record.oom_reclaims << " pool reclaim(s)\n";
  } else {
    try {
      run(*backend);
      record.ok = true;
    } catch (...) {
      record.error = core::ErrorMessage(std::current_exception());
    }
  }
  device.set_tracer(nullptr);
  device.set_fault_injector(nullptr);
  if (!record.ok) {
    std::cerr << "permanent failure after " << record.attempts
              << " attempt(s): " << record.error << "\n";
    return 3;
  }

  if (encoded) {
    const gpusim::CounterSnapshot counters = device.Snapshot();
    std::cout << "encoded transfers: " << counters.bytes_h2d_encoded
              << " B crossed h2d compressed, " << counters.bytes_saved_vs_raw
              << " B saved vs raw\n";
  }

  std::ofstream out(out_path);
  tracer.ExportChromeTrace(out);
  std::cout << "Wrote " << tracer.size() << " events ("
            << backend->name() << ", " << query << ") to " << out_path
            << "\n";
  if (chaos) {
    const gpusim::FaultInjectorStats fs = injector.stats();
    std::cout << "chaos: " << fs.injected_total() << " faults injected over "
              << fs.checks << " checks, query succeeded on attempt "
              << record.attempts << "\n";
  }
  return 0;
}
