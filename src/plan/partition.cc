#include "plan/partition.h"

#include <algorithm>
#include <exception>
#include <map>
#include <memory>
#include <unordered_set>
#include <utility>

#include "core/error.h"
#include "gpusim/device.h"
#include "gpusim/trace.h"
#include "plan/executor.h"
#include "plan/optimizer.h"
#include "plan/partition_detail.h"
#include "plan/tpch_plans.h"
#include "storage/device_column.h"
#include "storage/encoded_column.h"
#include "storage/encoding.h"

namespace plan {

using namespace detail;  // the shared helpers read naturally unqualified

namespace {

/// A device table whose columns carry type and row count but no storage —
/// enough for plan building and cost estimation, with zero device traffic.
storage::DeviceTable MetaTable(const storage::Table& table, size_t rows) {
  storage::DeviceTable out;
  for (const std::string& name : table.column_names()) {
    out.AddColumn(name, storage::DeviceColumn(
                            table.column(name).type(), rows,
                            std::make_shared<gpusim::DeviceBuffer>()));
  }
  return out;
}

/// Like MetaTable, but sized as UploadTableEncoded would upload it: columns
/// whose ChooseEncoding beats raw become metadata-only encoded columns. The
/// whole-table encoding decision is reused for slices (per-slice bytes scale
/// by row count at the whole-table code width), so a K-partition footprint
/// prices slice uploads without re-analyzing K sub-columns.
storage::DeviceTable MetaTableEncoded(const storage::Table& table,
                                      size_t rows) {
  storage::DeviceTable out;
  const size_t n = table.num_rows();
  for (const std::string& name : table.column_names()) {
    const storage::Column& c = table.column(name);
    const storage::EncodingChoice choice =
        storage::ChooseEncoding(storage::AnalyzeColumn(c), n, c.type());
    if (choice.encoding == storage::Encoding::kNone) {
      out.AddColumn(name, storage::DeviceColumn(
                              c.type(), rows,
                              std::make_shared<gpusim::DeviceBuffer>()));
      continue;
    }
    uint64_t bytes = 0;
    switch (choice.encoding) {
      case storage::Encoding::kBitPack:
      case storage::Encoding::kFor:
        bytes = storage::PackedWordCount(rows, choice.bit_width) * 8;
        break;
      case storage::Encoding::kDictionary: {
        // The dictionary itself is a fixed cost every slice repeats.
        const uint64_t full_packed =
            storage::PackedWordCount(n, choice.bit_width) * 8;
        const uint64_t dict_bytes =
            choice.encoded_bytes > full_packed
                ? choice.encoded_bytes - full_packed
                : 0;
        bytes = storage::PackedWordCount(rows, choice.bit_width) * 8 +
                dict_bytes;
        break;
      }
      case storage::Encoding::kRle:
        // Runs scale with row count to first order.
        bytes = n == 0 ? 8
                       : std::max<uint64_t>(
                             8, choice.encoded_bytes * rows / n);
        break;
      case storage::Encoding::kNone:
        break;
    }
    out.AddEncodedColumn(
        name, std::make_shared<storage::EncodedDeviceColumn>(
                  storage::MakeEncodedMeta(choice.encoding, c.type(), rows,
                                           choice.bit_width, bytes)));
  }
  return out;
}

/// Host-side row-range copy [lo, hi) of every column.
storage::Table SliceTable(const storage::Table& table, size_t lo, size_t hi) {
  storage::Table out(table.name());
  for (const std::string& name : table.column_names()) {
    const storage::Column& c = table.column(name);
    switch (c.type()) {
      case storage::DataType::kInt32: {
        const auto& v = c.values<int32_t>();
        out.AddColumn(name, storage::Column(std::vector<int32_t>(
                                v.begin() + lo, v.begin() + hi)));
        break;
      }
      case storage::DataType::kInt64: {
        const auto& v = c.values<int64_t>();
        out.AddColumn(name, storage::Column(std::vector<int64_t>(
                                v.begin() + lo, v.begin() + hi)));
        break;
      }
      case storage::DataType::kFloat64: {
        const auto& v = c.values<double>();
        out.AddColumn(name, storage::Column(std::vector<double>(
                                v.begin() + lo, v.begin() + hi)));
        break;
      }
      case storage::DataType::kFloat32: {
        const auto& v = c.values<float>();
        out.AddColumn(name, storage::Column(std::vector<float>(
                                v.begin() + lo, v.begin() + hi)));
        break;
      }
    }
  }
  return out;
}

}  // namespace

namespace detail {

/// K ranges between K+1 boundaries over lineitem. With `align_orderkey`,
/// each boundary moves forward to the next l_orderkey change point, so no
/// order's lineitems straddle two partitions (the generator emits them
/// contiguously with nondecreasing keys) — which keeps per-partition
/// group-key sets disjoint for Q3's group-by and Q4's semi-join. Pure
/// function of (rows, keys, k): partition shapes — and with them simulated
/// timings — replay.
std::vector<RowRange> PartitionRanges(const storage::Table& lineitem,
                                      size_t k, bool align_orderkey) {
  const size_t n = lineitem.num_rows();
  const std::vector<int32_t>* keys =
      align_orderkey ? &lineitem.column("l_orderkey").values<int32_t>()
                     : nullptr;
  std::vector<RowRange> ranges;
  size_t lo = 0;
  for (size_t p = 1; p <= k; ++p) {
    size_t b = p == k ? n : std::min(n, n * p / k);
    if (keys != nullptr) {
      while (b > 0 && b < n && (*keys)[b] == (*keys)[b - 1]) ++b;
    }
    b = std::max(b, lo);
    ranges.emplace_back(lo, b);
    lo = b;
  }
  return ranges;
}

/// Worst-case device footprint of one pinned plan execution: upload bytes of
/// every scanned column plus materialized intermediates with row counts
/// propagated pessimistically (filters and joins pass every row), each
/// rounded to the allocator's block granularity. The x2 headroom covers
/// operator scratch the plan does not name — hash-table fills (2n slots),
/// sort ping-pong buffers, selection scan temporaries — and applies to the
/// intermediates only: base-table uploads are exact (and encoded scans are
/// priced at their encoded size, the whole point of compressed admission).
/// An encoded scan consumed by an operator with no encoded-domain
/// realization additionally contributes one full raw decode as an
/// intermediate, mirroring the executor's ColDecoded fallback.
///
/// With include_scans false the base-table upload terms drop out — the
/// admission footprint of a plan over *already-resident* tables (the serving
/// tier's prepared queries), where only the intermediates are new bytes.
uint64_t FootprintOfPlan(const PhysicalPlan& phys, bool include_scans) {
  const std::vector<PlanNode>& nodes = phys.plan.nodes;
  std::vector<size_t> rows(nodes.size(), 0);
  std::vector<size_t> width(nodes.size(), 0);
  std::unordered_set<const storage::DeviceColumn*> scanned;
  std::unordered_set<const storage::EncodedDeviceColumn*> scanned_enc;
  uint64_t scan_bytes = 0;
  uint64_t intermediate_bytes = 0;

  const auto block = [](uint64_t b) -> uint64_t {
    return b == 0 ? 0 : gpusim::Device::PoolBlockBytes(b);
  };
  const auto in_rows = [&](const NodeInput& in) -> size_t {
    return in.node >= 0 ? rows[in.node] : 0;
  };
  const auto in_width = [&](const NodeInput& in) -> size_t {
    return in.node >= 0 ? width[in.node] : sizeof(double);
  };

  for (size_t i = 0; i < nodes.size(); ++i) {
    const PlanNode& n = nodes[i];
    if (n.dead) continue;
    switch (n.kind) {
      case NodeKind::kScan:
        if (n.scan_enc != nullptr) {
          rows[i] = n.scan_enc->size;
          width[i] = storage::DataTypeSize(n.scan_enc->type);
          if (scanned_enc.insert(n.scan_enc).second) {
            scan_bytes += block(n.scan_enc->encoded_byte_size());
          }
          break;
        }
        rows[i] = n.scan_col != nullptr ? n.scan_col->size() : 0;
        width[i] = n.scan_col != nullptr
                       ? storage::DataTypeSize(n.scan_col->type())
                       : sizeof(int32_t);
        if (n.scan_col != nullptr && scanned.insert(n.scan_col).second) {
          scan_bytes += block(n.scan_col->byte_size());
        }
        break;
      case NodeKind::kFilter:
        rows[i] = n.pred_cols.empty() ? 0 : in_rows(n.pred_cols[0]);
        width[i] = sizeof(int32_t);  // matching row ids
        intermediate_bytes += block(rows[i] * width[i]);
        break;
      case NodeKind::kFilterCompare:
        rows[i] = in_rows(n.cmp_lhs);
        width[i] = sizeof(int32_t);
        intermediate_bytes += block(rows[i] * width[i]);
        break;
      case NodeKind::kGather:
        rows[i] = in_rows(n.gather_indices);
        width[i] = in_width(n.gather_src);
        intermediate_bytes += block(rows[i] * width[i]);
        break;
      case NodeKind::kMap:
      case NodeKind::kFusedMap:
        rows[i] = in_rows(n.map_a);
        width[i] = sizeof(double);
        intermediate_bytes += block(rows[i] * width[i]);
        break;
      case NodeKind::kJoin:
        // Build sides are unique keys, so each probe row matches at most
        // once: output is two int32 row-id columns of probe length.
        rows[i] = in_rows(n.join_probe);
        width[i] = sizeof(int32_t);
        intermediate_bytes += 2 * block(rows[i] * sizeof(int32_t));
        break;
      case NodeKind::kUnique:
        rows[i] = in_rows(n.unary_in);
        width[i] = in_width(n.unary_in);
        intermediate_bytes += block(rows[i] * width[i]);
        break;
      case NodeKind::kGroupBy:
        rows[i] = in_rows(GroupedRows(n));
        width[i] = sizeof(double);  // consumers mostly read the aggregate
        intermediate_bytes += block(rows[i] * sizeof(int32_t)) +
                              block(rows[i] * sizeof(double));
        break;
      case NodeKind::kSort:
        rows[i] = in_rows(n.unary_in);
        width[i] = in_width(n.unary_in);
        intermediate_bytes += block(rows[i] * width[i]);
        break;
      case NodeKind::kSortByKey:
        rows[i] = in_rows(n.sort_keys);
        width[i] = sizeof(double);
        intermediate_bytes += block(rows[i] * sizeof(double)) +
                              block(rows[i] * sizeof(int32_t));
        break;
      case NodeKind::kReduce:
      case NodeKind::kFusedFilterSum:
        rows[i] = 1;
        width[i] = sizeof(double);
        break;
      case NodeKind::kFetchGroups:
      case NodeKind::kFetchPair:
        rows[i] = in_rows(n.fetch_from);  // host download, no device bytes
        break;
    }
  }

  // Encoded scans feeding operators without an encoded realization decode in
  // full on first use (the executor caches one raw copy).
  std::unordered_set<const storage::EncodedDeviceColumn*> decoded;
  for (const PlanNode& n : nodes) {
    if (n.dead || n.kind == NodeKind::kScan) continue;
    const bool encoded_aware = n.kind == NodeKind::kFilter ||
                               n.kind == NodeKind::kFilterCompare ||
                               n.kind == NodeKind::kReduce;
    for (const NodeInput& in : NodeInputs(n)) {
      if (in.node < 0 || in.part != Part::kValue) continue;
      const PlanNode& src = nodes[in.node];
      if (src.kind != NodeKind::kScan || src.scan_enc == nullptr) continue;
      if (encoded_aware) continue;
      if (n.kind == NodeKind::kGather && in.node == n.gather_src.node) {
        continue;  // GatherDecode materializes survivors only
      }
      if (n.kind == NodeKind::kGroupBy && n.group_rows.node >= 0 &&
          in.node == n.group_keys.node) {
        continue;  // keys read as codes, or gather-decoded for survivors
      }
      if (decoded.insert(src.scan_enc).second) {
        intermediate_bytes += block(src.scan_enc->raw_byte_size());
      }
    }
  }
  return (include_scans ? scan_bytes : 0) + 2 * intermediate_bytes;
}

}  // namespace detail

namespace {

/// Top of RunGoverned's repartitioning ladder; an OOM there is fatal.
constexpr size_t kMaxPartitions = 256;

void Emit(const GovernedQueryOptions& options, gpusim::Stream& stream,
          PressureEvent::Kind kind, std::string detail, uint64_t bytes,
          size_t partitions) {
  gpusim::Tracer* tracer = stream.device().tracer();
  if (tracer != nullptr) {
    gpusim::TraceEvent e;
    e.name = std::string(PressureEventKindName(kind)) + ": " + detail;
    e.category = "memory";
    e.start_ns = stream.now_ns();
    e.stream_id = stream.id();
    tracer->Record(std::move(e));
  }
  if (!options.on_event) return;
  PressureEvent event;
  event.kind = kind;
  event.detail = std::move(detail);
  event.bytes = bytes;
  event.partitions = partitions;
  options.on_event(event);
}

}  // namespace

namespace detail {
namespace {

/// Host bytes the marked fetch/reduce nodes downloaded from the device.
uint64_t DownloadedBytes(const QueryPlanBundle& bundle,
                         const ExecutionResult& res) {
  uint64_t bytes = 0;
  for (const auto& [name, node] : bundle.marks) {
    const NodeValue& v = res.values[node];
    if (!v.computed) continue;
    bytes += v.host_keys.size() * sizeof(int32_t) +
             v.host_vals_f.size() * sizeof(double) +
             v.host_vals_i.size() * sizeof(int64_t) +
             v.host_first.size() * sizeof(double) +
             v.host_second.size() * sizeof(int32_t);
    if (bundle.plan.nodes[node].kind == NodeKind::kReduce) {
      bytes += sizeof(double);  // the scalar itself comes down
    }
  }
  return bytes;
}

}  // namespace

void RunSlices(TpchQuery q, const TpchHostTables& tables,
               core::Backend& backend, const std::vector<RowRange>& ranges,
               bool use_encoding, SliceProgress& progress,
               const std::function<void(size_t, const SliceResult&)>& on_slice) {
  progress = SliceProgress();
  gpusim::Stream& stream = backend.stream();
  // Runs `step` again on a transient fault, up to kTransientAttempts
  // attempts in all; a spent budget surfaces as fatal, so no outer layer
  // replays it again. Every other fault (OOM, DeviceLost) propagates as is.
  const auto replay = [&progress](const auto& step) {
    for (int attempt = 1;; ++attempt) {
      try {
        return step();
      } catch (...) {
        const std::exception_ptr error = std::current_exception();
        if (core::Classify(error) != core::ErrorClass::kTransient) throw;
        if (attempt >= kTransientAttempts) {
          throw core::BackendError(core::ErrorClass::kFatal,
                                   core::ErrorMessage(error));
        }
        ++progress.replays;
      }
    }
  };
  // Uploads `t` and sets `bytes` to what crossed the link.
  const auto upload = [&](const storage::Table& t, uint64_t& bytes) {
    bytes = 0;
    if (use_encoding) return storage::UploadTableEncoded(stream, t, &bytes);
    bytes = HostTableBytes(t);
    return storage::UploadTable(stream, t);
  };

  std::map<TpchTable, storage::DeviceTable> build;
  TpchDeviceTables dev;
  for (const TpchTable t : QueryDef(q).build_tables) {
    uint64_t bytes = 0;
    dev[t] = &(build[t] = replay([&] { return upload(*tables[t], bytes); }));
    progress.broadcast_bytes += bytes;
  }

  OptimizerOptions opt;
  opt.pin_backend = backend.name();
  const storage::Table& host = *tables.lineitem;
  for (; progress.next < ranges.size(); ++progress.next) {
    const auto [lo, hi] = ranges[progress.next];
    if (lo >= hi) continue;  // orderkey alignment emptied this range
    SliceResult s = replay([&] {
      SliceResult r;
      r.rows = {lo, hi};
      // The slice's device memory is freed (credited back to the
      // reservation) when the attempt ends, before the next attempt or
      // slice uploads. With encoding on, the slice crosses the link at its
      // encoded size.
      const storage::DeviceTable lineitem =
          lo == 0 && hi == host.num_rows()
              ? upload(host, r.upload_bytes)
              : upload(SliceTable(host, lo, hi), r.upload_bytes);
      dev.lineitem = &lineitem;
      const QueryPlanBundle bundle = BuildTpchPlan(q, dev);
      const PhysicalPlan phys = Optimize(bundle.plan, opt);
      const ExecutionResult res = RunPinned(phys, backend);
      r.partials = ExtractPartials(bundle, res);
      r.download_bytes = DownloadedBytes(bundle, res);
      return r;
    });
    progress.done.push_back(std::move(s));
    if (on_slice) on_slice(progress.next, progress.done.back());
  }
}

Partials MergeSlices(std::vector<SliceResult>& slices) {
  std::sort(slices.begin(), slices.end(),
            [](const SliceResult& a, const SliceResult& b) {
              return a.rows < b.rows;
            });
  Partials acc;
  for (const SliceResult& s : slices) acc.Merge(s.partials);
  return acc;
}

void WithMetaBundle(TpchQuery q, const TpchHostTables& tables,
                    size_t slice_rows, bool use_encoding,
                    const std::function<void(const QueryPlanBundle&)>& use) {
  const auto meta = [&](const storage::Table& t, size_t rows) {
    return use_encoding ? MetaTableEncoded(t, rows) : MetaTable(t, rows);
  };
  const storage::DeviceTable lineitem = meta(*tables.lineitem, slice_rows);
  std::map<TpchTable, storage::DeviceTable> build;
  TpchDeviceTables dev;
  dev.lineitem = &lineitem;
  for (const TpchTable t : QueryDef(q).build_tables) {
    dev[t] = &(build[t] = meta(*tables[t], tables[t]->num_rows()));
  }
  use(BuildTpchPlan(q, dev));
}

uint64_t HostTableBytes(const storage::Table& t) {
  uint64_t bytes = 0;
  for (const std::string& name : t.column_names()) {
    bytes += t.column(name).byte_size();
  }
  return bytes;
}

}  // namespace detail

const char* PressureEventKindName(PressureEvent::Kind kind) {
  switch (kind) {
    case PressureEvent::Kind::kAdmission: return "admission";
    case PressureEvent::Kind::kPartition: return "partition";
    case PressureEvent::Kind::kSpill: return "spill";
    case PressureEvent::Kind::kFallback: return "fallback";
  }
  return "?";
}

uint64_t EstimateQueryFootprint(TpchQuery query, const TpchHostTables& tables,
                                const std::string& backend_name,
                                size_t partitions, bool use_encoding) {
  RequireTables(query, tables);
  if (partitions == 0) partitions = 1;
  const size_t li_rows = tables.lineitem->num_rows();
  const size_t slice_rows = (li_rows + partitions - 1) / partitions;
  uint64_t footprint = 0;
  WithMetaBundle(query, tables, slice_rows, use_encoding,
                 [&](const QueryPlanBundle& bundle) {
                   OptimizerOptions opt;
                   opt.pin_backend = backend_name;
                   footprint = FootprintOfPlan(Optimize(bundle.plan, opt));
                 });
  return footprint;
}

TpchQueryResult RunGoverned(TpchQuery query, const TpchHostTables& tables,
                            core::Backend& backend,
                            const GovernedQueryOptions& options,
                            GovernedRunStats* stats) {
  RequireTables(query, tables);
  gpusim::Stream& stream = backend.stream();
  gpusim::Device& device = stream.device();
  GovernedRunStats local;
  GovernedRunStats& st = stats != nullptr ? *stats : local;
  st = GovernedRunStats();

  const uint64_t footprint = EstimateQueryFootprint(
      query, tables, backend.name(), 1, options.use_encoding);
  const uint64_t grant = device.ReservationRemaining(stream.id());
  const uint64_t budget = grant > 0 ? grant : device.memory_capacity();
  st.footprint_bytes = footprint;
  st.grant_bytes = grant;

  size_t k = 1;
  if (options.force_partitions > 0) {
    k = options.force_partitions;
  } else {
    while (k < kMaxPartitions &&
           (k == 1 ? footprint
                   : EstimateQueryFootprint(query, tables, backend.name(), k,
                                            options.use_encoding)) > budget) {
      k *= 2;
    }
    k = std::min(k, kMaxPartitions);
  }
  Emit(options, stream, PressureEvent::Kind::kAdmission,
       std::string(TpchQueryName(query)) + " footprint " +
           std::to_string(footprint) + " B, budget " +
           std::to_string(budget) + " B (" +
           (grant > 0 ? "granted" : "ungoverned") + ") -> " +
           std::to_string(k) + " partition(s)",
       budget, k);

  // Bind this thread's allocations to the stream's admission reservation
  // (no-op without one): every pool-miss upload/intermediate below draws
  // from the grant instead of racing concurrent clients for capacity.
  gpusim::Device::ReservationScope scope(device, stream.id());
  const uint64_t sim_start = stream.now_ns();
  const TpchQueryDef& def = QueryDef(query);
  for (;;) {
    if (k > 1) {
      Emit(options, stream, PressureEvent::Kind::kPartition,
           std::string(TpchQueryName(query)) + " executing in " +
               std::to_string(k) + " row-range partitions",
           0, k);
    }
    st.spill_h2d_bytes = 0;  // an abandoned attempt's traffic is not spill
    st.spill_d2h_bytes = 0;
    SliceProgress run;
    try {
      RunSlices(query, tables, backend,
                PartitionRanges(*tables.lineitem, k, def.align_orderkey),
                options.use_encoding, run,
                [&](size_t p, const SliceResult& s) {
                  if (k == 1) return;  // the whole table spills nothing
                  st.spill_h2d_bytes += s.upload_bytes;
                  st.spill_d2h_bytes += s.download_bytes;
                  Emit(options, stream, PressureEvent::Kind::kSpill,
                       "partition " + std::to_string(p) + "/" +
                           std::to_string(k) + " rows [" +
                           std::to_string(s.rows.first) + ", " +
                           std::to_string(s.rows.second) + ") h2d " +
                           std::to_string(s.upload_bytes) + " B, d2h " +
                           std::to_string(s.download_bytes) + " B",
                       s.upload_bytes + s.download_bytes, k);
                });
      st.slice_replays += run.replays;
      st.partitions = k;
      st.simulated_ns = stream.now_ns() - sim_start;
      return def.finalize(MergeSlices(run.done));
    } catch (const gpusim::OutOfDeviceMemory& e) {
      st.slice_replays += run.replays;
      device.TrimPool();
      if (options.force_partitions > 0) throw;
      if (k >= kMaxPartitions) {
        // The ladder is spent: no outer layer may replay the OOM again.
        throw core::BackendError(core::ErrorClass::kFatal, e.what());
      }
      k = std::min(kMaxPartitions, k * 2);
      ++st.oom_fallbacks;
      Emit(options, stream, PressureEvent::Kind::kFallback,
           std::string(TpchQueryName(query)) +
               " hit device OOM; repartitioning to " + std::to_string(k),
           0, k);
    } catch (...) {
      st.slice_replays += run.replays;
      throw;
    }
  }
}

core::QueryFn MakeGovernedQuery(TpchQuery query, TpchHostTables tables,
                                GovernedQueryOptions options,
                                TpchQueryResult* out,
                                GovernedRunStats* stats) {
  return [query, tables, options = std::move(options), out,
          stats](core::Backend& backend) {
    TpchQueryResult result =
        RunGoverned(query, tables, backend, options, stats);
    if (out != nullptr) *out = std::move(result);
  };
}

}  // namespace plan
