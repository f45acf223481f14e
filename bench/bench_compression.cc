// Compressed columnar storage: what do the lightweight encodings buy?
//
// For every query in the sweep this binary runs the same workload twice —
// once with raw uploads (storage::UploadTable) and once with automatic
// per-column encoding (storage::UploadTableEncoded) — on a fresh backend
// instance each time, and reports per column the chosen encoding and
// compression ratio, per query the transfer bytes saved and the end-to-end
// simulated speedup, across a scale-factor sweep. Every query runs its plan
// from the query table (plan/tpch_plans.h) pinned to the backend; over
// encoded uploads the plans evaluate predicates in the encoded domain,
// decode survivors late and group Q1 by its packed key codes.
//
// Not a google-benchmark binary: like bench_pressure it doubles as the CI
// acceptance gate for the storage/encoding layer. The process exits
// non-zero when an encoded-path answer diverges from the raw-path answer
// (exact for integers and counts, 1e-9 relative for re-associated float
// sums) or when a dictionary/RLE-encoded column compresses worse than 1.0x.
//
// Usage:
//   bench_compression [--backend=Handwritten] [--queries=q1,q3,q4,q6,q14]
//                     [--sf=0.01,0.02,0.04] [--json=FILE]
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "backends/backends.h"
#include "core/metrics.h"
#include "core/registry.h"
#include "plan/prepared.h"
#include "plan/tpch_plans.h"
#include "storage/encoding.h"
#include "tpch/datagen.h"

namespace {

struct Options {
  std::string backend = backends::kHandwritten;
  std::vector<std::string> queries = {"q1", "q3", "q4", "q6", "q14"};
  std::vector<double> scale_factors = {0.01, 0.02, 0.04};
  std::string json_path;
};

std::vector<std::string> SplitCsv(const std::string& s) {
  std::vector<std::string> out;
  size_t pos = 0;
  while (pos <= s.size()) {
    const size_t comma = s.find(',', pos);
    const size_t end = comma == std::string::npos ? s.size() : comma;
    if (end > pos) out.push_back(s.substr(pos, end - pos));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

bool ParseArgs(int argc, char** argv, Options* opts) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* prefix) -> const char* {
      const size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = value("--backend=")) {
      opts->backend = v;
    } else if (const char* v = value("--queries=")) {
      opts->queries = SplitCsv(v);
    } else if (const char* v = value("--sf=")) {
      opts->scale_factors.clear();
      for (const auto& s : SplitCsv(v)) {
        opts->scale_factors.push_back(std::stod(s));
      }
    } else if (const char* v = value("--json=")) {
      opts->json_path = v;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
  }
  return !opts->queries.empty() && !opts->scale_factors.empty();
}

// ---------------------------------------------------------------------------
// Per-column encoding report (and the dictionary/RLE ratio gate)
// ---------------------------------------------------------------------------

struct ColumnReport {
  std::string table;
  std::string column;
  storage::Encoding encoding = storage::Encoding::kNone;
  uint64_t raw_bytes = 0;
  uint64_t encoded_bytes = 0;
  double ratio() const {
    return encoded_bytes == 0 ? 1.0
                              : static_cast<double>(raw_bytes) / encoded_bytes;
  }
};

void ReportTable(const std::string& name, const storage::Table& table,
                 std::vector<ColumnReport>* out) {
  for (const std::string& col : table.column_names()) {
    const storage::Column& c = table.column(col);
    const storage::EncodingChoice choice =
        storage::ChooseEncoding(storage::AnalyzeColumn(c), c.size(), c.type());
    ColumnReport r;
    r.table = name;
    r.column = col;
    r.encoding = choice.encoding;
    r.raw_bytes = c.byte_size();
    r.encoded_bytes = choice.encoding == storage::Encoding::kNone
                          ? r.raw_bytes
                          : choice.encoded_bytes;
    out->push_back(r);
  }
}

// ---------------------------------------------------------------------------
// Raw vs encoded query runs
// ---------------------------------------------------------------------------

/// The result of one query run, whatever its shape.
using RunOut = plan::TpchQueryResult;

/// Uploads what the query reads (raw or encoded) and runs its plan end to
/// end on one fresh backend, measuring the whole region on the backend's
/// stream.
RunOut RunOnce(const std::string& query, const std::string& backend_name,
               const plan::TpchHostTables& host, bool encoded,
               core::Measurement* m) {
  std::unique_ptr<core::Backend> backend =
      core::BackendRegistry::Instance().Create(backend_name);
  const plan::TpchQuery q = plan::ParseTpchQuery(query);
  core::ScopedMeasurement sm(backend->stream(),
                             query + (encoded ? "/enc" : "/raw"));
  const RunOut out =
      plan::PrepareTpchQuery(
          {q, encoded},
          plan::MakeResident(backend->stream(), plan::QueryTables(q, host),
                             encoded),
          backend_name)
          ->Run(*backend);
  *m = sm.Stop();
  return out;
}

struct QueryPoint {
  double scale_factor = 0;
  std::string query;
  double raw_ms = 0;
  double enc_ms = 0;
  uint64_t raw_h2d = 0;
  uint64_t enc_h2d = 0;
  uint64_t enc_h2d_encoded = 0;
  uint64_t bytes_saved = 0;
  bool match = false;
  double speedup() const { return enc_ms == 0 ? 0 : raw_ms / enc_ms; }
};

int Run(const Options& opts) {
  core::RegisterBuiltinBackends();

  std::printf("bench_compression: backend=%s queries=", opts.backend.c_str());
  for (size_t i = 0; i < opts.queries.size(); ++i) {
    std::printf("%s%s", i ? "," : "", opts.queries[i].c_str());
  }
  std::printf("\n\n");

  bool all_match = true;
  bool ratios_ok = true;
  std::vector<ColumnReport> columns;  // at the largest scale factor
  std::vector<QueryPoint> points;

  for (size_t si = 0; si < opts.scale_factors.size(); ++si) {
    const double sf = opts.scale_factors[si];
    tpch::Config config;
    config.scale_factor = sf;
    const storage::Table lineitem = tpch::GenerateLineitem(config);
    const storage::Table orders = tpch::GenerateOrders(config);
    const storage::Table customer = tpch::GenerateCustomer(config);
    const storage::Table part = tpch::GeneratePart(config);
    const plan::TpchHostTables host{&lineitem, &orders, &customer, &part};

    // Per-column encoding selection (the dict/RLE >= 1.0x gate runs at every
    // scale factor; the printed/JSON column table is the largest one).
    std::vector<ColumnReport> cols;
    ReportTable("lineitem", lineitem, &cols);
    ReportTable("orders", orders, &cols);
    ReportTable("customer", customer, &cols);
    ReportTable("part", part, &cols);
    for (const ColumnReport& c : cols) {
      if ((c.encoding == storage::Encoding::kDictionary ||
           c.encoding == storage::Encoding::kRle) &&
          c.ratio() < 1.0) {
        ratios_ok = false;
        std::fprintf(stderr,
                     "  RATIO sf=%g %s.%s: %s compresses %.2fx (< 1.0x)\n",
                     sf, c.table.c_str(), c.column.c_str(),
                     storage::EncodingName(c.encoding), c.ratio());
      }
    }
    if (si + 1 == opts.scale_factors.size()) columns = cols;

    std::printf("sf=%g rows(lineitem)=%zu\n", sf, lineitem.num_rows());
    std::printf("%6s %12s %12s %9s %12s %12s %12s %7s\n", "query", "raw_ms",
                "enc_ms", "speedup", "raw_h2d", "enc_h2d", "saved", "match");

    for (const std::string& query : opts.queries) {
      core::Measurement raw_m, enc_m;
      const RunOut raw = RunOnce(query, opts.backend, host, false, &raw_m);
      const RunOut enc = RunOnce(query, opts.backend, host, true, &enc_m);
      std::string why;
      const bool match =
          plan::SameAnswer(plan::ParseTpchQuery(query), enc, raw, &why);
      if (!match) {
        all_match = false;
        std::fprintf(stderr, "  DIVERGED sf=%g %s: %s\n", sf, query.c_str(),
                     why.c_str());
      }
      QueryPoint p;
      p.scale_factor = sf;
      p.query = query;
      p.raw_ms = raw_m.simulated_ms();
      p.enc_ms = enc_m.simulated_ms();
      p.raw_h2d = raw_m.bytes_h2d;
      p.enc_h2d = enc_m.bytes_h2d;
      p.enc_h2d_encoded = enc_m.bytes_h2d_encoded;
      p.bytes_saved = enc_m.bytes_saved_vs_raw;
      p.match = match;
      points.push_back(p);
      std::printf("%6s %12.3f %12.3f %8.2fx %12llu %12llu %12llu %7s\n",
                  query.c_str(), p.raw_ms, p.enc_ms, p.speedup(),
                  static_cast<unsigned long long>(p.raw_h2d),
                  static_cast<unsigned long long>(p.enc_h2d),
                  static_cast<unsigned long long>(p.bytes_saved),
                  match ? "ok" : "DIVERGED");
    }
    std::printf("\n");
  }

  std::printf("column encodings (sf=%g)\n",
              opts.scale_factors.back());
  std::printf("%-26s %-12s %12s %12s %8s\n", "column", "encoding",
              "raw_bytes", "enc_bytes", "ratio");
  uint64_t total_raw = 0, total_enc = 0;
  for (const ColumnReport& c : columns) {
    total_raw += c.raw_bytes;
    total_enc += c.encoded_bytes;
    std::printf("%-26s %-12s %12llu %12llu %7.2fx\n",
                (c.table + "." + c.column).c_str(),
                storage::EncodingName(c.encoding),
                static_cast<unsigned long long>(c.raw_bytes),
                static_cast<unsigned long long>(c.encoded_bytes), c.ratio());
  }
  std::printf("%-26s %-12s %12llu %12llu %7.2fx\n", "TOTAL", "-",
              static_cast<unsigned long long>(total_raw),
              static_cast<unsigned long long>(total_enc),
              total_enc == 0 ? 1.0
                             : static_cast<double>(total_raw) / total_enc);

  std::printf("\nencoded answers match raw answers: %s\n",
              all_match ? "OK" : "FAILED");
  std::printf("dictionary/RLE columns compress >= 1.0x: %s\n",
              ratios_ok ? "OK" : "FAILED");

  if (!opts.json_path.empty()) {
    std::ofstream out(opts.json_path);
    out << "{\n  \"backend\": \"" << opts.backend << "\",\n"
        << "  \"all_match\": " << (all_match ? "true" : "false") << ",\n"
        << "  \"ratios_ok\": " << (ratios_ok ? "true" : "false") << ",\n"
        << "  \"columns\": [\n";
    for (size_t i = 0; i < columns.size(); ++i) {
      const ColumnReport& c = columns[i];
      out << "    {\"table\": \"" << c.table << "\", \"column\": \""
          << c.column << "\", \"encoding\": \""
          << storage::EncodingName(c.encoding)
          << "\", \"raw_bytes\": " << c.raw_bytes
          << ", \"encoded_bytes\": " << c.encoded_bytes
          << ", \"ratio\": " << c.ratio() << "}"
          << (i + 1 < columns.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"queries\": [\n";
    for (size_t i = 0; i < points.size(); ++i) {
      const QueryPoint& p = points[i];
      out << "    {\"scale_factor\": " << p.scale_factor << ", \"query\": \""
          << p.query << "\", \"raw_sim_ms\": " << p.raw_ms
          << ", \"enc_sim_ms\": " << p.enc_ms
          << ", \"speedup\": " << p.speedup()
          << ", \"raw_h2d_bytes\": " << p.raw_h2d
          << ", \"enc_h2d_bytes\": " << p.enc_h2d
          << ", \"enc_h2d_encoded_bytes\": " << p.enc_h2d_encoded
          << ", \"bytes_saved_vs_raw\": " << p.bytes_saved
          << ", \"match\": " << (p.match ? "true" : "false") << "}"
          << (i + 1 < points.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::printf("wrote %s\n", opts.json_path.c_str());
  }

  return all_match && ratios_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!ParseArgs(argc, argv, &opts)) {
    std::fprintf(stderr,
                 "usage: %s [--backend=NAME] [--queries=q1,q3,q4,q6,q14] "
                 "[--sf=0.01,0.02,0.04] [--json=FILE]\n",
                 argv[0]);
    return 64;
  }
  try {
    return Run(opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_compression: %s\n", e.what());
    return 3;
  }
}
