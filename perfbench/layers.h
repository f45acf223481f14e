// Per-layer measurements taken from outside the layers: device counter and
// thread-pool deltas around the timed window, and probe calls into the
// tpch, storage and plan modules made before the window opens.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <string>
#include <vector>

#include "answers.h"
#include "bench.h"
#include "gpusim/counters.h"
#include "gpusim/device.h"
#include "gpusim/thread_pool.h"
#include "trace.h"

namespace perfbench {

/// Counters and thread-pool stats summed over a set of devices (peak_bytes
/// is the sum of the devices' high-water marks).
struct DeviceSample {
  gpusim::CounterSnapshot counters;
  gpusim::ThreadPoolStats pool;
};

DeviceSample SampleDevices(const std::vector<gpusim::Device*>& devices);

/// Sets the gpusim.* metrics for the window between two samples, with
/// per-query values divided by `ops`.
void SetDeviceMetrics(const DeviceSample& before, const DeviceSample& after,
                      double ops, LayerValues* out);

/// Share of host-to-device bytes that crossed the link encoded.
double EncodedH2dShare(const DeviceSample& before, const DeviceSample& after);

/// Times the tpch, storage and plan probes, each `repeats` times on a
/// private device so the workload's device counters stay clean, recording a
/// span per call. Sets tpch.datagen_ms and storage.resident_ms (medians of
/// tpch::Generate* and plan::MakeResident of the four tables),
/// storage.encoded_h2d_share of those uploads, and plan.prepare_ms (mean
/// over the (library, query) shapes of the median plan::PrepareTpchQuery).
void ProbeLayers(double scale_factor, uint64_t seed,
                 const std::vector<std::string>& libraries,
                 const std::vector<plan::TpchQuery>& queries, int repeats,
                 SpanBuffer* spans, LayerValues* out);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
