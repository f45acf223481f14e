// Captures a kernel-level trace of a TPC-H query on a chosen backend and
// writes it as Chrome trace-event JSON (open in chrome://tracing or
// ui.perfetto.dev) — the simulated equivalent of an nvprof capture.
//
// With --chaos-seed=N a seeded gpusim::FaultInjector is attached for the
// query: transient kernel and transfer faults fire probabilistically, the
// query is retried like the scheduler would, and the injected-fault /
// retry event stream is printed inline (fault events also appear in the
// exported trace under the "fault" category).
//
// With --capacity-bytes=N the simulated device capacity shrinks to N and
// the query runs through memory admission (core::MemoryGovernor) and the
// governed spill path (plan/partition.h): admission, partition, and spill
// events print inline and appear in the exported trace under the "memory"
// category.
//
// With --encoded the base tables upload compressed (storage/encoding.h):
// selections run in the encoded domain, survivors decode late, and the
// encoded-transfer counters (bytes moved encoded / bytes saved vs raw)
// print after the run.
//
// With --fleet-readmit=N a fleet of N simulated devices runs the full
// device-lifecycle sequence (lost -> reset -> half-open probe -> readmit)
// after the query, with the same tracer attached: the probe kernel and
// every state transition print inline and land in the exported trace
// under the "fault" category, next to any injected faults.
//
//   build/tools/trace_query [backend] [q1|q6|q3|q4|q14] [out.json]
//                           [--chaos-seed=N] [--capacity-bytes=N] [--encoded]
//                           [--fleet-readmit=N]
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>

#include "core/error.h"
#include "core/governor.h"
#include "core/registry.h"
#include "core/resilience.h"
#include "gpusim/device_group.h"
#include "gpusim/fault.h"
#include "gpusim/trace.h"
#include "plan/partition.h"
#include "storage/encoded_column.h"
#include "tpch/queries.h"

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
  int fleet_readmit = 0;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
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
    if (arg.rfind("--fleet-readmit=", 0) == 0) {
      fleet_readmit = std::stoi(arg.substr(16));
      continue;
    }
    switch (positional++) {
      case 0: backend_name = arg; break;
      case 1: query = arg; break;
      case 2: out_path = arg; break;
      default:
        std::cerr << "unexpected argument: " << arg << "\n";
        return 2;
    }
  }
  if ((query != "q1" && query != "q6" && query != "q3" && query != "q4" &&
       query != "q14") ||
      fleet_readmit < 0) {
    std::cerr << "usage: trace_query [backend] [q1|q6|q3|q4|q14] [out.json] "
                 "[--chaos-seed=N] [--capacity-bytes=N] [--encoded] "
                 "[--fleet-readmit=N]\n";
    return 2;
  }

  tpch::Config config;
  config.scale_factor = 0.01;
  const storage::Table lineitem = tpch::GenerateLineitem(config);
  storage::Table customer, orders, part;
  if (query == "q3") {
    customer = tpch::GenerateCustomer(config);
    orders = tpch::GenerateOrders(config);
  } else if (query == "q4") {
    orders = tpch::GenerateOrders(config);
  } else if (query == "q14") {
    part = tpch::GeneratePart(config);
  }

  auto backend = core::BackendRegistry::Instance().Create(backend_name);
  gpusim::Stream& stream = backend->stream();
  gpusim::Device& device = gpusim::Device::Default();

  // Governed mode uploads inside the governed run (slices and all), so the
  // fixture tables stay host-side; ungoverned mode pre-uploads as before.
  storage::DeviceTable dev_lineitem, dev_customer, dev_orders, dev_part;
  if (governed) {
    device.set_memory_capacity(capacity_bytes);
    std::cout << "memory: capacity constrained to " << capacity_bytes
              << " bytes\n";
  } else {
    const auto upload = [&](const storage::Table& t) {
      return encoded ? storage::UploadTableEncoded(stream, t)
                     : storage::UploadTable(stream, t);
    };
    dev_lineitem = upload(lineitem);
    if (query == "q3") {
      dev_customer = upload(customer);
      dev_orders = upload(orders);
    } else if (query == "q4") {
      dev_orders = upload(orders);
    } else if (query == "q14") {
      dev_part = upload(part);
    }
  }

  plan::TpchHostTables tables;
  tables.lineitem = &lineitem;
  tables.orders = &orders;
  tables.customer = &customer;
  tables.part = &part;
  core::GovernorOptions governor_opts;
  governor_opts.device = &device;
  core::MemoryGovernor governor(governor_opts);

  const auto run = [&] {
    if (governed) {
      const plan::TpchQuery q = plan::ParseTpchQuery(query);
      const uint64_t footprint =
          plan::EstimateQueryFootprint(q, tables, backend->name(),
                                       /*partitions=*/1, encoded);
      const core::AdmissionTicket ticket =
          governor.Admit(stream.id(), footprint);
      std::cout << "  admission: requested " << ticket.requested_bytes
                << " B, granted " << ticket.granted_bytes << " B"
                << (ticket.partial() ? " (partial — must partition)" : "")
                << "\n";
      if (!ticket.admitted()) {
        throw std::runtime_error("memory admission rejected");
      }
      plan::GovernedQueryOptions gq;
      gq.use_encoding = encoded;
      gq.on_event = [](const plan::PressureEvent& e) {
        std::cout << "  [" << plan::PressureEventKindName(e.kind) << "] "
                  << e.detail << "\n";
      };
      plan::GovernedRunStats stats;
      try {
        plan::RunGoverned(q, tables, *backend, gq, &stats);
      } catch (...) {
        governor.Release(stream.id());
        throw;
      }
      governor.Release(stream.id());
      std::cout << "  governed run: " << stats.partitions
                << " partition(s), " << stats.oom_fallbacks
                << " OOM fallback(s), spill " << stats.spill_h2d_bytes
                << " B h2d / " << stats.spill_d2h_bytes << " B d2h, "
                << stats.simulated_ns << " simulated ns\n";
      return;
    }
    if (query == "q1") {
      tpch::RunQ1(*backend, dev_lineitem);
    } else if (query == "q6") {
      tpch::RunQ6(*backend, dev_lineitem);
    } else if (query == "q3") {
      tpch::RunQ3(*backend, dev_customer, dev_orders, dev_lineitem);
    } else if (query == "q4") {
      tpch::RunQ4(*backend, dev_orders, dev_lineitem);
    } else {
      tpch::RunQ14(*backend, dev_part, dev_lineitem);
    }
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
    gpusim::Device::Default().set_fault_injector(&injector);
    std::cout << "chaos: seed=" << chaos_seed
              << " kernel/transfer fault probability 0.02\n";
  }

  gpusim::Tracer tracer;
  gpusim::Device::Default().set_tracer(&tracer);
  const core::RetryPolicy retry{.max_attempts = 64};
  int attempts = 0;
  for (int attempt = 1;; ++attempt) {
    attempts = attempt;
    size_t faults_before = injector.log().size();
    try {
      run();
      break;
    } catch (...) {
      const std::exception_ptr err = std::current_exception();
      const auto& log = injector.log();
      for (size_t k = faults_before; k < log.size(); ++k) {
        const gpusim::InjectedFault& f = log[k];
        std::cout << "  fault[" << k << "] " << gpusim::FaultKindName(f.kind)
                  << " at " << gpusim::FaultSiteName(f.site) << " (stream "
                  << f.stream_id << ", call " << f.call_index << ", rule "
                  << f.rule << ") -> " << core::ErrorMessage(err) << "\n";
      }
      if (core::Classify(err) == core::ErrorClass::kTransient &&
          attempt < retry.max_attempts) {
        std::cout << "  retry " << attempt << ": replaying " << query
                  << " after transient fault\n";
        continue;
      }
      gpusim::Device::Default().set_tracer(nullptr);
      gpusim::Device::Default().set_fault_injector(nullptr);
      std::cerr << "permanent failure after " << attempt
                << " attempts: " << core::ErrorMessage(err) << "\n";
      return 3;
    }
  }
  gpusim::Device::Default().set_tracer(nullptr);
  gpusim::Device::Default().set_fault_injector(nullptr);

  if (fleet_readmit > 0) {
    // Device-lifecycle demo: lose device 0, reset it, run the half-open
    // probe, and readmit. Every transition plus the probe kernel records
    // against the shared tracer, so the exported trace shows the
    // fault-category timeline next to any injected faults above.
    gpusim::DeviceGroup fleet(fleet_readmit);
    for (int d = 0; d < fleet.size(); ++d) fleet.device(d).set_tracer(&tracer);
    fleet.MarkLost(0);
    fleet.MarkReset(0);
    const bool probe_ok = fleet.Probe(0);
    if (probe_ok) fleet.CompleteReadmission(0);
    for (int d = 0; d < fleet.size(); ++d) fleet.device(d).set_tracer(nullptr);
    std::cout << "fleet: device 0 of " << fleet.size()
              << " lost -> reset -> probe "
              << (probe_ok ? "passed -> readmitted" : "FAILED") << "\n";
    for (const gpusim::LifecycleEvent& ev : fleet.lifecycle_log()) {
      std::cout << "  lifecycle[" << ev.sequence << "] device " << ev.device
                << " " << gpusim::LifecycleEventName(ev.kind) << "\n";
    }
    for (const gpusim::TraceEvent& ev : tracer.events()) {
      if (std::string_view(ev.category) != "fault") continue;
      std::cout << "  fault-event \"" << ev.name << "\" stream "
                << ev.stream_id << " @ " << ev.start_ns << " ns ("
                << ev.duration_ns << " ns)\n";
    }
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
              << attempts << "\n";
  }
  return 0;
}
