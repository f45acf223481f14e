#include "layers.h"

#include <memory>

#include "core/registry.h"
#include "plan/prepared.h"

namespace perfbench {

namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

constexpr double kMiB = 1024.0 * 1024.0;

}  // namespace

DeviceSample SampleDevices(const std::vector<gpusim::Device*>& devices) {
  DeviceSample s;
  for (gpusim::Device* d : devices) {
    const gpusim::CounterSnapshot c = d->Snapshot();
    s.counters.kernels_launched += c.kernels_launched;
    s.counters.bytes_read += c.bytes_read;
    s.counters.bytes_written += c.bytes_written;
    s.counters.bytes_h2d += c.bytes_h2d;
    s.counters.bytes_h2d_encoded += c.bytes_h2d_encoded;
    s.counters.pool_hits += c.pool_hits;
    s.counters.pool_misses += c.pool_misses;
    s.counters.programs_compiled += c.programs_compiled;
    s.counters.compile_ns += c.compile_ns;
    s.counters.peak_bytes += c.peak_bytes;
    const gpusim::ThreadPoolStats p = d->pool().stats();
    s.pool.jobs_dispatched += p.jobs_dispatched;
    s.pool.jobs_inline += p.jobs_inline;
    s.pool.jobs_overflow += p.jobs_overflow;
  }
  return s;
}

void SetDeviceMetrics(const DeviceSample& before, const DeviceSample& after,
                      double ops, LayerValues* out) {
  const gpusim::CounterSnapshot d = after.counters.Delta(before.counters);
  const double jobs_inline =
      static_cast<double>(after.pool.jobs_inline - before.pool.jobs_inline);
  const double jobs_overflow = static_cast<double>(
      after.pool.jobs_overflow - before.pool.jobs_overflow);
  const double jobs =
      jobs_inline + jobs_overflow +
      static_cast<double>(after.pool.jobs_dispatched -
                          before.pool.jobs_dispatched);
  LayerValues& v = *out;
  v["gpusim.kernels_per_query"] =
      Ratio(static_cast<double>(d.kernels_launched), ops);
  v["gpusim.device_bytes_per_query"] =
      Ratio(static_cast<double>(d.bytes_read + d.bytes_written), ops);
  v["gpusim.compile_sim_ms_per_query"] =
      Ratio(static_cast<double>(d.compile_ns) / 1e6, ops);
  v["gpusim.programs_compiled"] =
      Ratio(static_cast<double>(d.programs_compiled), ops);
  v["gpusim.pool_hit_ratio"] =
      Ratio(static_cast<double>(d.pool_hits),
            static_cast<double>(d.pool_hits + d.pool_misses));
  v["gpusim.peak_device_mib"] = static_cast<double>(d.peak_bytes) / kMiB;
  v["gpusim.threadpool_inline_share"] = Ratio(jobs_inline, jobs);
  v["gpusim.threadpool_overflow_share"] = Ratio(jobs_overflow, jobs);
}

double EncodedH2dShare(const DeviceSample& before, const DeviceSample& after) {
  const gpusim::CounterSnapshot d = after.counters.Delta(before.counters);
  return Ratio(static_cast<double>(d.bytes_h2d_encoded),
               static_cast<double>(d.bytes_h2d));
}

void ProbeLayers(double scale_factor, uint64_t seed,
                 const std::vector<std::string>& libraries,
                 const std::vector<plan::TpchQuery>& queries, int repeats,
                 SpanBuffer* spans, LayerValues* out) {
  HostTables tables;
  std::vector<double> datagen_ms;
  for (int r = 0; r < repeats; ++r) {
    const uint64_t op = spans->tracer()->NewOp();
    const Clock::time_point t0 = Clock::now();
    tables = GenerateTables(scale_factor, seed);
    const Clock::time_point t1 = Clock::now();
    spans->Add("tpch", "tpch::Generate*", "4 tables", op, 0, t0, t1);
    datagen_ms.push_back(MsBetween(t0, t1));
  }
  (*out)["tpch.datagen_ms"] = Percentile(datagen_ms, 50);

  // A private device: the probes' uploads and allocations must not show in
  // the workload's device counters. Declared first so it is destroyed last.
  gpusim::Device device;
  gpusim::Device::DeviceGuard guard(device);
  std::unique_ptr<core::Backend> backend =
      core::BackendRegistry::Instance().Create("Handwritten");
  std::shared_ptr<const plan::ResidentTpchTables> resident;
  std::vector<double> resident_ms;
  const DeviceSample before = SampleDevices({&device});
  for (int r = 0; r < repeats; ++r) {
    resident.reset();
    const uint64_t op = spans->tracer()->NewOp();
    const Clock::time_point t0 = Clock::now();
    resident = plan::MakeResident(backend->stream(), tables.view(), true);
    const Clock::time_point t1 = Clock::now();
    spans->Add("storage", "plan::MakeResident", "4 tables", op, 0, t0, t1);
    resident_ms.push_back(MsBetween(t0, t1));
  }
  (*out)["storage.resident_ms"] = Percentile(resident_ms, 50);
  (*out)["storage.encoded_h2d_share"] =
      EncodedH2dShare(before, SampleDevices({&device}));

  std::vector<double> shape_medians;
  for (const std::string& library : libraries) {
    for (plan::TpchQuery query : queries) {
      plan::QueryShape shape;
      shape.query = query;
      shape.use_encoding = true;
      std::vector<double> ms;
      for (int r = 0; r < repeats; ++r) {
        const uint64_t op = spans->tracer()->NewOp();
        const Clock::time_point t0 = Clock::now();
        plan::PrepareTpchQuery(shape, resident, library);
        const Clock::time_point t1 = Clock::now();
        spans->Add("plan", "plan::PrepareTpchQuery",
                   library + " " + plan::TpchQueryName(query), op, 0, t0, t1);
        ms.push_back(MsBetween(t0, t1));
      }
      shape_medians.push_back(Percentile(ms, 50));
    }
  }
  double sum = 0;
  for (double m : shape_medians) sum += m;
  (*out)["plan.prepare_ms"] =
      Ratio(sum, static_cast<double>(shape_medians.size()));
}

}  // namespace perfbench
