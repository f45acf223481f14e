// Spans of the traced run, recorded from the benchmark's own code around
// each call into a layer: a root span per Client::Query or RunSharded call,
// child spans for the waits and execution a reply reports, and probe spans
// around tpch::Generate*, plan::MakeResident and plan::PrepareTpchQuery.
// Spans of one operation share its op id. Each stream thread appends to its
// own SpanBuffer, so recording takes no lock; the buffers are merged and
// written as a Chrome trace-event file when the run ends.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

struct Span {
  const char* layer = "";  ///< static string: the module the span times
  const char* name = "";   ///< static string: the call or interval
  std::string detail;      ///< library and/or query; short enough for SSO
  uint64_t op = 0;      ///< operation id shared by the op's spans
  uint64_t id = 0;      ///< unique span id
  uint64_t parent = 0;  ///< 0 for a root span
  int stream = 0;
  double start_us = 0;  ///< since the run's epoch
  double dur_us = 0;
};

/// Hands out op and span ids and owns the run's epoch.
class Tracer {
 public:
  explicit Tracer(Clock::time_point epoch) : epoch_(epoch) {}

  uint64_t NewOp() { return next_op_.fetch_add(1) + 1; }
  uint64_t NewSpanId() { return next_span_.fetch_add(1) + 1; }
  double Us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  }

 private:
  Clock::time_point epoch_;
  std::atomic<uint64_t> next_op_{0};
  std::atomic<uint64_t> next_span_{0};
};

/// One thread's spans.
class SpanBuffer {
 public:
  SpanBuffer(Tracer* tracer, int stream) : tracer_(tracer), stream_(stream) {}

  /// Records [start, end) and returns the new span's id.
  uint64_t Add(const char* layer, const char* name, std::string detail,
               uint64_t op, uint64_t parent, Clock::time_point start,
               Clock::time_point end);
  /// Records a span of `dur_ms` starting `offset_ms` after `start` (for the
  /// waits a reply reports as durations only).
  uint64_t AddAt(const char* layer, const char* name, std::string detail,
                 uint64_t op, uint64_t parent, Clock::time_point start,
                 double offset_ms, double dur_ms);

  Tracer* tracer() const { return tracer_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  Tracer* tracer_;
  int stream_;
  std::vector<Span> spans_;
};

/// Writes every buffer's spans as Chrome trace-event JSON to
/// <out_dir>/spans-<workload>.json and names the file on stderr.
void WriteRunSpans(const RunConfig& config,
                   const std::vector<const SpanBuffer*>& buffers);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
