#include "trace.h"

#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace perfbench {

uint64_t SpanBuffer::Add(const char* layer, const char* name,
                         std::string detail, uint64_t op, uint64_t parent,
                         Clock::time_point start, Clock::time_point end) {
  return AddAt(layer, name, std::move(detail), op, parent, start, 0,
               MsBetween(start, end));
}

uint64_t SpanBuffer::AddAt(const char* layer, const char* name,
                           std::string detail, uint64_t op, uint64_t parent,
                           Clock::time_point start, double offset_ms,
                           double dur_ms) {
  Span s;
  s.layer = layer;
  s.name = name;
  s.detail = std::move(detail);
  s.op = op;
  s.id = tracer_->NewSpanId();
  s.parent = parent;
  s.stream = stream_;
  s.start_us = tracer_->Us(start) + offset_ms * 1e3;
  s.dur_us = dur_ms * 1e3;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void WriteRunSpans(const RunConfig& config,
                   const std::vector<const SpanBuffer*>& buffers) {
  // One file per workload, replaced by each traced run, so repeated runs do
  // not pile up traces.
  const std::string path =
      config.out_dir + "/spans-" + config.workload + ".json";
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans file " + path);
  out << "{\"otherData\":{\"workload\":\"" << config.workload
      << "\",\"seed\":" << config.seed << "},\n\"traceEvents\":[\n";
  size_t n = 0;
  char line[512];
  for (const SpanBuffer* buffer : buffers) {
    for (const Span& s : buffer->spans()) {
      std::snprintf(
          line, sizeof(line),
          "%s{\"name\":\"%s %s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
          "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
          "\"args\":{\"op\":%llu,\"span\":%llu,\"parent\":%llu}}",
          n == 0 ? "" : ",\n", s.name, s.detail.c_str(), s.layer, s.stream,
          s.start_us, s.dur_us, static_cast<unsigned long long>(s.op),
          static_cast<unsigned long long>(s.id),
          static_cast<unsigned long long>(s.parent));
      out << line;
      ++n;
    }
  }
  out << "\n]}\n";
  std::fprintf(stderr, "perfbench: %zu spans written to %s\n", n,
               path.c_str());
}

}  // namespace perfbench
