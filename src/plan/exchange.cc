#include "plan/exchange.h"

#include <algorithm>
#include <exception>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/registry.h"
#include "gpusim/fault.h"
#include "plan/partition_detail.h"

namespace plan {
namespace {

/// Planning-time estimate of one device's partials (before anything runs):
/// the bytes of a partial shaped like the plan's marked nodes, with the
/// query entry's estimated rows in every fetched node.
uint64_t EstimatePartialBytes(const QueryPlanBundle& bundle, size_t rows) {
  Partials p;
  for (const auto& [name, node] : bundle.marks) {
    Partials::Mark& m = p.marks[name];
    m.kind = bundle.plan.nodes[node].kind;
    if (m.kind == NodeKind::kFetchPair) m.pairs.resize(rows);
    if (m.kind != NodeKind::kFetchGroups) continue;
    for (size_t key = 0; key < rows; ++key) {
      m.groups[static_cast<int32_t>(key)] = 0.0;
    }
  }
  return p.bytes();
}

/// Where a sharded run puts its slices: orderkey-snapped row ranges (one per
/// device of the group unless `force_shards` overrides), range s dealt to the
/// s-th live device round-robin, and the gather into the lowest live device.
/// With every device healthy this is `s % N` into device 0. RunSharded and
/// PlanShardedExecution both place through here, so EXPLAIN shows the plan
/// that runs.
struct ShardLayout {
  std::vector<detail::RowRange> ranges;  ///< ascending row order
  std::vector<int> device;               ///< device of each range
  int coordinator = 0;
};

ShardLayout LayoutShards(TpchQuery q, const storage::Table& lineitem,
                         const gpusim::DeviceGroup& group,
                         size_t force_shards) {
  const std::vector<int> alive = group.AliveDevices();
  if (alive.empty()) {
    throw gpusim::DeviceLost("sharded run: no live device in the group");
  }
  const size_t shards =
      force_shards > 0 ? force_shards : static_cast<size_t>(group.size());
  ShardLayout layout;
  layout.ranges = detail::PartitionRanges(lineitem, shards,
                                          QueryDef(q).align_orderkey);
  for (size_t s = 0; s < layout.ranges.size(); ++s) {
    layout.device.push_back(alive[s % alive.size()]);
  }
  layout.coordinator = alive.front();
  return layout;
}

/// Per-device state of one sharded run; the backend outlives the worker
/// thread so the coordinator can charge exchanges against its stream. The
/// state persists across recovery rounds: a surviving device that takes
/// replacement slices keeps its backend, stream timeline, and finished
/// slices.
struct WorkerState {
  std::unique_ptr<core::Backend> backend;
  DeviceShardStats stats;
  uint64_t broadcast_bytes = 0;
  uint64_t start_ns = 0;
  std::exception_ptr error;
  /// The device fired a sticky DeviceLost during this round. Unlike `error`
  /// this is recoverable: `unfinished` holds the slices that still need a
  /// home, and `slices` keeps everything the device finished before dying.
  bool device_lost = false;
  std::vector<detail::RowRange> unfinished;
  /// Every slice this device finished, in any round: host-resident partials
  /// (the checkpoints) that a loss reuses instead of recomputing.
  std::vector<detail::SliceResult> slices;
  size_t slice_replays = 0;  ///< the slice runner's replays, every round
};

/// Runs one device's shard list: bind the device, build a private backend
/// (or reuse the round-1 backend on a recovery round), and hand the ranges
/// to the slice runner. A sticky DeviceLost is caught here: the device is
/// marked dead in the group, and the slices that did not finish are
/// reported for re-placement.
void RunDeviceShards(TpchQuery q, const TpchHostTables& tables,
                     gpusim::DeviceGroup& group, int d,
                     const std::string& backend_name,
                     const std::vector<detail::RowRange>& ranges,
                     const ShardedQueryOptions& options, WorkerState& ws) {
  detail::SliceProgress run;
  ws.device_lost = false;
  ws.unfinished.clear();
  try {
    gpusim::Device::DeviceGuard guard(group.device(d));
    if (ws.backend == nullptr) {
      ws.backend = core::BackendRegistry::Instance().Create(backend_name);
      ws.start_ns = ws.backend->stream().now_ns();
    }
    detail::RunSlices(q, tables, *ws.backend, ranges, options.use_encoding,
                      run);
    ws.stats.busy_ns = ws.backend->stream().now_ns() - ws.start_ns;
  } catch (const gpusim::DeviceLost&) {
    group.MarkLost(d);
    ws.device_lost = true;
    ws.stats.lost = true;
    // The slice in flight and everything after it still need a home.
    ws.unfinished.assign(ranges.begin() + static_cast<std::ptrdiff_t>(run.next),
                         ranges.end());
    if (ws.backend != nullptr) {
      ws.stats.busy_ns = ws.backend->stream().now_ns() - ws.start_ns;
    }
  } catch (...) {
    ws.error = std::current_exception();
  }
  // Finished slices are in host memory whatever became of the device.
  ws.slice_replays += run.replays;
  ws.broadcast_bytes += run.broadcast_bytes;
  ws.stats.upload_bytes += run.broadcast_bytes;
  for (detail::SliceResult& s : run.done) {
    ws.stats.upload_bytes += s.upload_bytes;
    ws.stats.download_bytes += s.download_bytes;
    ws.stats.rows += s.rows.second - s.rows.first;
    ++ws.stats.shards;
    ws.slices.push_back(std::move(s));
  }
}

}  // namespace

const char* ExchangeEdgeKindName(ExchangeEdge::Kind kind) {
  switch (kind) {
    case ExchangeEdge::Kind::kScatter: return "scatter";
    case ExchangeEdge::Kind::kBroadcast: return "broadcast";
    case ExchangeEdge::Kind::kGather: return "gather";
  }
  return "?";
}

ShardedPlanSpec PlanShardedExecution(TpchQuery query,
                                     const TpchHostTables& tables,
                                     const gpusim::DeviceGroup& group,
                                     size_t force_shards) {
  RequireTables(query, tables);
  const ShardLayout layout =
      LayoutShards(query, *tables.lineitem, group, force_shards);
  ShardedPlanSpec spec;
  spec.devices = group.size();
  spec.shards = layout.ranges.size();
  spec.coordinator = layout.coordinator;
  const size_t li_rows = tables.lineitem->num_rows();
  const uint64_t li_bytes = detail::HostTableBytes(*tables.lineitem);
  const uint64_t row_bytes = li_rows > 0 ? li_bytes / li_rows : 0;
  const auto upload_ns = [&](int d, uint64_t bytes) {
    return group.device(d).cost_model().TransferTime(
        bytes, gpusim::ApiProfile::Cuda());
  };

  for (size_t s = 0; s < layout.ranges.size(); ++s) {
    ShardPlacement p;
    p.device = layout.device[s];
    p.row_begin = layout.ranges[s].first;
    p.row_end = layout.ranges[s].second;
    p.upload_bytes = (p.row_end - p.row_begin) * row_bytes;
    spec.placements.push_back(p);

    ExchangeEdge e;
    e.kind = ExchangeEdge::Kind::kScatter;
    e.device = p.device;
    e.bytes = p.upload_bytes;
    e.rows = p.row_end - p.row_begin;
    e.what = "lineitem[" + std::to_string(p.row_begin) + "," +
             std::to_string(p.row_end) + ")";
    e.est_ns = upload_ns(e.device, e.bytes);
    spec.edges.push_back(e);
  }

  // Devices that received at least one shard get the build-side broadcasts.
  std::vector<bool> used(static_cast<size_t>(group.size()), false);
  for (const int d : layout.device) used[static_cast<size_t>(d)] = true;
  for (const TpchTable table : QueryDef(query).build_tables) {
    const storage::Table& t = *tables[table];
    for (int d = 0; d < group.size(); ++d) {
      if (!used[static_cast<size_t>(d)]) continue;
      ExchangeEdge e;
      e.kind = ExchangeEdge::Kind::kBroadcast;
      e.device = d;
      e.bytes = detail::HostTableBytes(t);
      e.rows = t.num_rows();
      e.what = TpchTableName(table);
      e.est_ns = upload_ns(d, e.bytes);
      spec.edges.push_back(e);
    }
  }

  // One gather edge per other device that ran shards, routed by the
  // topology into the coordinator.
  const size_t shard_rows =
      spec.shards > 0 ? (li_rows + spec.shards - 1) / spec.shards : li_rows;
  const size_t partial_rows = QueryDef(query).partial_rows(shard_rows);
  uint64_t gather_bytes = 0;
  detail::WithMetaBundle(query, tables, shard_rows, /*use_encoding=*/false,
                         [&](const QueryPlanBundle& bundle) {
                           gather_bytes =
                               EstimatePartialBytes(bundle, partial_rows);
                         });
  for (int d = 0; d < group.size(); ++d) {
    if (d == spec.coordinator || !used[static_cast<size_t>(d)]) continue;
    ExchangeEdge e;
    e.kind = ExchangeEdge::Kind::kGather;
    e.device = d;
    e.bytes = gather_bytes;
    e.rows = shard_rows;
    e.what = "partials";
    e.peer = group.IsPeer(d, spec.coordinator);
    e.est_ns = group.TransferNs(d, spec.coordinator, e.bytes);
    spec.edges.push_back(e);
  }
  return spec;
}

std::string ExplainSharded(const ShardedPlanSpec& spec,
                           const gpusim::DeviceGroup& group) {
  std::ostringstream os;
  os << "sharded execution: " << spec.devices << " device(s), " << spec.shards
     << " shard(s), peer islands of " << group.topology().peer_island_size
     << "\n";
  os << "shard placement:\n";
  for (size_t s = 0; s < spec.placements.size(); ++s) {
    const ShardPlacement& p = spec.placements[s];
    os << "  shard " << s << " -> device " << p.device << "  rows ["
       << p.row_begin << ", " << p.row_end << ")  " << p.upload_bytes
       << " B\n";
  }
  os << "exchange edges:\n";
  uint64_t total_ns = 0;
  for (const ExchangeEdge& e : spec.edges) {
    os << "  " << ExchangeEdgeKindName(e.kind) << "  " << e.what;
    if (e.kind == ExchangeEdge::Kind::kGather) {
      os << "  dev" << e.device << " -> dev" << spec.coordinator << "  "
         << e.bytes << " B  "
         << (e.peer ? "p2p link (1 hop)" : "via host (2 hops)");
    } else {
      os << "  host -> dev" << e.device << "  " << e.bytes << " B  pcie";
    }
    os << "  est " << e.est_ns << " ns\n";
    total_ns += e.est_ns;
  }
  os << "exchange total: est " << total_ns << " ns over " << spec.edges.size()
     << " edge(s)\n";
  return os.str();
}

TpchQueryResult RunSharded(TpchQuery query, const TpchHostTables& tables,
                           gpusim::DeviceGroup& group,
                           const std::string& backend_name,
                           const ShardedQueryOptions& options,
                           ShardedRunStats* stats) {
  RequireTables(query, tables);
  const int nd = group.size();
  if (nd <= 0) throw std::invalid_argument("empty device group");

  ShardedRunStats local;
  ShardedRunStats& st = stats != nullptr ? *stats : local;
  st = ShardedRunStats();
  st.devices = nd;

  std::vector<WorkerState> workers(static_cast<size_t>(nd));
  const ShardLayout layout =
      LayoutShards(query, *tables.lineitem, group, options.force_shards);
  st.shards = layout.ranges.size();
  std::vector<std::vector<detail::RowRange>> assigned(
      static_cast<size_t>(nd));
  for (size_t s = 0; s < layout.ranges.size(); ++s) {
    assigned[static_cast<size_t>(layout.device[s])].push_back(
        layout.ranges[s]);
  }
  // Run rounds until every slice has executed somewhere. Round 1 is the
  // normal sharded run; a round ends by collecting the unfinished slices of
  // workers that lost their device and dealing them — sorted by row_begin,
  // round-robin in ascending device order — onto the survivors. Placement
  // depends only on which devices died, never on host thread timing, so a
  // given fault schedule always yields the same degraded placement.
  while (true) {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(nd));
    for (int d = 0; d < nd; ++d) {
      if (assigned[static_cast<size_t>(d)].empty()) continue;
      threads.emplace_back([&, d] {
        RunDeviceShards(query, tables, group, d, backend_name,
                        assigned[static_cast<size_t>(d)], options,
                        workers[static_cast<size_t>(d)]);
      });
    }
    for (std::thread& t : threads) t.join();
    for (const WorkerState& ws : workers) {
      if (ws.error != nullptr) std::rethrow_exception(ws.error);
    }

    std::vector<detail::RowRange> unfinished;
    for (int d = 0; d < nd; ++d) {
      WorkerState& ws = workers[static_cast<size_t>(d)];
      assigned[static_cast<size_t>(d)].clear();
      if (!ws.device_lost) continue;
      ws.device_lost = false;
      ++st.devices_lost;
      // Everything the dead device had finished is in host memory
      // (ws.slices); those slices merge into the answer without ever
      // re-running. A dead device takes no further slices this run, so
      // each is credited once.
      st.checkpointed_slices_reused += ws.slices.size();
      unfinished.insert(unfinished.end(), ws.unfinished.begin(),
                        ws.unfinished.end());
      ws.unfinished.clear();
    }
    if (unfinished.empty()) break;

    const std::vector<int> alive = group.AliveDevices();
    if (alive.empty()) {
      throw gpusim::DeviceLost(
          "sharded run: every device of the group was lost; " +
          std::to_string(unfinished.size()) + " slice(s) of " +
          std::string(TpchQueryName(query)) + " never ran");
    }
    std::sort(unfinished.begin(), unfinished.end());
    for (size_t i = 0; i < unfinished.size(); ++i) {
      const int d = alive[i % alive.size()];
      assigned[static_cast<size_t>(d)].push_back(unfinished[i]);
    }
    ++st.recovery_rounds;
    st.replaced_shards += unfinished.size();
  }

  // Gather: every non-coordinator device ships the merged partials of its
  // slices to the coordinator — the lowest live device that ran work; the
  // layout's coordinator on the healthy path — over the fabric (in fixed
  // device order, so the coordinator stream's timeline is deterministic).
  // Dead devices cannot touch the fabric: their slices are already
  // host-resident (every slice downloads its partials), so they are drained
  // from host staging without an exchange charge. The host then folds every
  // slice in ascending row order, whichever device ran it.
  int coord = -1;
  for (int d = 0; d < nd; ++d) {
    if (workers[static_cast<size_t>(d)].backend != nullptr &&
        group.IsAlive(d)) {
      coord = d;
      break;
    }
  }
  if (coord < 0) {
    throw gpusim::DeviceLost(
        "sharded run: no live device left to coordinate the gather");
  }
  gpusim::Stream& dst = workers[static_cast<size_t>(coord)].backend->stream();
  std::vector<detail::SliceResult> slices;
  for (int d = 0; d < nd; ++d) {
    WorkerState& ws = workers[static_cast<size_t>(d)];
    if (ws.backend == nullptr) continue;  // no shards landed on this device
    if (d != coord && group.IsAlive(d)) {
      const uint64_t bytes = std::max<uint64_t>(
          detail::MergeSlices(ws.slices).bytes(), sizeof(double));
      // A transient TransferFault on the gather edge replays the exchange (a
      // fault fires before any pricing, so the successful attempt charges
      // exactly once). After the retry budget — or a DeviceLost on the edge
      // — fall back to draining the host-resident partials uncharged.
      for (int attempt = 1; attempt <= detail::kTransientAttempts; ++attempt) {
        try {
          group.ChargeExchange(d, ws.backend->stream(), coord, dst, bytes);
          st.exchange_bytes += bytes;
          if (group.IsPeer(d, coord)) {
            st.exchange_p2p_bytes += bytes;
          } else {
            st.exchange_via_host_bytes += bytes;
          }
          break;
        } catch (const gpusim::TransferFault&) {
          ++st.transfer_retries;
        } catch (const gpusim::DeviceLost&) {
          group.MarkLost(d);
          ws.stats.lost = true;
          ++st.devices_lost;
          break;
        }
      }
    }
    std::move(ws.slices.begin(), ws.slices.end(), std::back_inserter(slices));
  }

  uint64_t makespan = 0;
  for (int d = 0; d < nd; ++d) {
    WorkerState& ws = workers[static_cast<size_t>(d)];
    if (ws.backend == nullptr) continue;
    DeviceShardStats ds = ws.stats;
    ds.device = d;
    ds.peak_bytes = group.device(d).peak_bytes();
    st.broadcast_bytes += ws.broadcast_bytes;
    st.slice_replays += ws.slice_replays;
    makespan = std::max(makespan, ws.backend->stream().now_ns() - ws.start_ns);
    st.per_device.push_back(ds);
  }
  st.simulated_ns = makespan;
  return QueryDef(query).finalize(detail::MergeSlices(slices));
}

}  // namespace plan
