// Multi-device sharded execution tests: DeviceGroup topology routing and
// exchange accounting, Device::Current()/DeviceGuard thread binding,
// differential correctness of RunSharded (forced shard counts x all five
// queries vs the host reference), the 1-device degenerate case's
// bit-identical simulated timeline vs RunGoverned, the device lifecycle,
// and the pricing of a sharded plan's exchange edges.
// Built into the concurrency_tests binary, which CI also runs under
// ThreadSanitizer (the sharded runner spawns one host thread per device).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "backends/backends.h"
#include "core/registry.h"
#include "gpusim/device.h"
#include "gpusim/device_group.h"
#include "gpusim/fault.h"
#include "gpusim/stream.h"
#include "gpusim/trace.h"
#include "plan/exchange.h"
#include "plan/partition.h"
#include "tpch/datagen.h"
#include "tpch_answer_testing.h"

namespace {

using plan::TpchQuery;

// ---------------------------------------------------------------------------
// DeviceGroup: topology, link routing, exchange accounting.

TEST(DeviceGroupTest, PeerIslandsFollowIslandSize) {
  gpusim::GroupTopology topo;
  topo.peer_island_size = 4;
  gpusim::DeviceGroup group(8, topo);
  EXPECT_TRUE(group.IsPeer(0, 3));
  EXPECT_TRUE(group.IsPeer(4, 7));
  EXPECT_FALSE(group.IsPeer(3, 4));  // island boundary
  EXPECT_FALSE(group.IsPeer(0, 0));  // same device is not a peer pair
}

TEST(DeviceGroupTest, LinkRoutesPeerAndViaHostDifferently) {
  gpusim::GroupTopology topo;
  topo.peer_island_size = 2;
  gpusim::DeviceGroup group(4, topo);

  const gpusim::LinkPath peer = group.Link(0, 1);
  EXPECT_TRUE(peer.peer);
  EXPECT_EQ(peer.hops, 1);
  EXPECT_EQ(peer.bandwidth_bps, topo.p2p_bandwidth_bps);

  const gpusim::LinkPath via_host = group.Link(0, 2);
  EXPECT_FALSE(via_host.peer);
  EXPECT_EQ(via_host.hops, 2);
  // Store-and-forward over both PCIe links is slower than either hop alone.
  EXPECT_LT(via_host.bandwidth_bps, peer.bandwidth_bps);

  const gpusim::LinkPath self = group.Link(1, 1);
  EXPECT_TRUE(self.same_device);
  EXPECT_EQ(self.hops, 0);

  // Pricing follows the route: cross-island transfers cost more.
  const uint64_t bytes = 1 << 20;
  EXPECT_LT(group.TransferNs(0, 1, bytes), group.TransferNs(0, 2, bytes));
}

TEST(DeviceGroupTest, ChargeExchangeAdvancesBothStreamsAndCounters) {
  gpusim::GroupTopology topo;
  topo.peer_island_size = 2;
  gpusim::DeviceGroup group(4, topo);
  gpusim::Stream s0(group.device(0));
  gpusim::Stream s1(group.device(1));
  gpusim::Stream s2(group.device(2));

  const uint64_t bytes = 1 << 20;
  const uint64_t t0 = s0.now_ns();
  group.ChargeExchange(0, s0, 1, s1, bytes);  // peer: same island
  const uint64_t peer_ns = s0.now_ns() - t0;
  EXPECT_EQ(peer_ns, group.TransferNs(0, 1, bytes));
  // The destination synchronized on the source's completion.
  EXPECT_GE(s1.now_ns(), s0.now_ns());

  group.ChargeExchange(0, s0, 2, s2, bytes);  // cross island: via host

  // Counters land on both ends, split by route.
  EXPECT_EQ(group.device(0).counters().bytes_p2p.load(), bytes);
  EXPECT_EQ(group.device(1).counters().bytes_p2p.load(), bytes);
  EXPECT_EQ(group.device(0).counters().bytes_via_host.load(), bytes);
  EXPECT_EQ(group.device(2).counters().bytes_via_host.load(), bytes);
  EXPECT_EQ(group.device(1).counters().bytes_via_host.load(), 0u);
  EXPECT_EQ(group.device(2).counters().bytes_p2p.load(), 0u);
  EXPECT_EQ(group.device(0).counters().exchanges.load(), 2u);
  EXPECT_EQ(group.device(1).counters().exchanges.load(), 1u);
  EXPECT_EQ(group.device(2).counters().exchanges.load(), 1u);
  EXPECT_EQ(group.device(3).counters().exchanges.load(), 0u);
}

TEST(DeviceGroupTest, ChargeExchangeRejectsForeignStreams) {
  gpusim::DeviceGroup group(2);
  gpusim::Stream s0(group.device(0));
  gpusim::Stream s1(group.device(1));
  EXPECT_THROW(group.ChargeExchange(0, s1, 1, s0, 64), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Device::Current() / DeviceGuard: thread-local binding.

TEST(DeviceGuardTest, CurrentDefaultsToDefaultAndNests) {
  EXPECT_EQ(&gpusim::Device::Current(), &gpusim::Device::Default());
  gpusim::DeviceGroup group(2);
  {
    gpusim::Device::DeviceGuard outer(group.device(0));
    EXPECT_EQ(&gpusim::Device::Current(), &group.device(0));
    {
      gpusim::Device::DeviceGuard inner(group.device(1));
      EXPECT_EQ(&gpusim::Device::Current(), &group.device(1));
    }
    EXPECT_EQ(&gpusim::Device::Current(), &group.device(0));
  }
  EXPECT_EQ(&gpusim::Device::Current(), &gpusim::Device::Default());
}

TEST(DeviceGuardTest, BindingIsPerThread) {
  gpusim::DeviceGroup group(2);
  gpusim::Device::DeviceGuard guard(group.device(0));
  gpusim::Device* seen = nullptr;
  std::thread other([&] { seen = &gpusim::Device::Current(); });
  other.join();
  // The spawning thread's guard does not leak into the new thread.
  EXPECT_EQ(seen, &gpusim::Device::Default());
  EXPECT_EQ(&gpusim::Device::Current(), &group.device(0));
}

TEST(DeviceGuardTest, BackendsBindToCurrentDevice) {
  core::RegisterBuiltinBackends();
  gpusim::DeviceGroup group(2);
  gpusim::Device::DeviceGuard guard(group.device(1));
  const std::unique_ptr<core::Backend> backend =
      core::BackendRegistry::Instance().Create(backends::kHandwritten);
  EXPECT_EQ(&backend->stream().device(), &group.device(1));
}

// ---------------------------------------------------------------------------
// RunSharded: differential correctness and the degenerate 1-device case.

class MultiDeviceQueryTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    core::RegisterBuiltinBackends();
    tpch::Config config;
    config.scale_factor = 0.002;
    lineitem_ = new storage::Table(tpch::GenerateLineitem(config));
    orders_ = new storage::Table(tpch::GenerateOrders(config));
    customer_ = new storage::Table(tpch::GenerateCustomer(config));
    part_ = new storage::Table(tpch::GeneratePart(config));
  }
  static void TearDownTestSuite() {
    delete lineitem_;
    delete orders_;
    delete customer_;
    delete part_;
    lineitem_ = orders_ = customer_ = part_ = nullptr;
  }

  plan::TpchHostTables Tables() const {
    plan::TpchHostTables t;
    t.lineitem = lineitem_;
    t.orders = orders_;
    t.customer = customer_;
    t.part = part_;
    return t;
  }

  static storage::Table* lineitem_;
  static storage::Table* orders_;
  static storage::Table* customer_;
  static storage::Table* part_;
};

storage::Table* MultiDeviceQueryTest::lineitem_ = nullptr;
storage::Table* MultiDeviceQueryTest::orders_ = nullptr;
storage::Table* MultiDeviceQueryTest::customer_ = nullptr;
storage::Table* MultiDeviceQueryTest::part_ = nullptr;

constexpr TpchQuery kAllQueries[] = {TpchQuery::kQ1, TpchQuery::kQ3,
                                     TpchQuery::kQ4, TpchQuery::kQ6,
                                     TpchQuery::kQ14};

TEST_F(MultiDeviceQueryTest, AllQueriesMatchReferenceAcrossDeviceCounts) {
  for (const int nd : {1, 2, 4}) {
    for (const TpchQuery q : kAllQueries) {
      SCOPED_TRACE(std::string(plan::TpchQueryName(q)) + " on " +
                   std::to_string(nd) + " device(s)");
      gpusim::DeviceGroup group(nd);
      plan::ShardedRunStats stats;
      const plan::TpchQueryResult result = plan::RunSharded(
          q, Tables(), group, backends::kHandwritten, {}, &stats);
      tpch_testing::ExpectReferenceAnswer(q, result, Tables());
      EXPECT_EQ(stats.devices, nd);
      EXPECT_GT(stats.simulated_ns, 0u);
      if (nd > 1) {
        EXPECT_GT(stats.exchange_bytes, 0u);
        EXPECT_EQ(stats.exchange_bytes,
                  stats.exchange_p2p_bytes + stats.exchange_via_host_bytes);
      }
    }
  }
}

TEST_F(MultiDeviceQueryTest, GatherBytesArePinnedPerQuery) {
  // Every device but the coordinator ships the merged partials of its
  // slices: 4 B per distinct group key plus 8 B per group aggregate (Q1: one
  // key column and six aggregates, 52 B per group; Q4: 12 B per group),
  // 16 B per Q3 (revenue, orderkey) pair, and 8 B per scalar (Q6: 8 B, Q14:
  // 16 B). With 8 slices on 4 devices, three devices send two slices each.
  const std::map<TpchQuery, uint64_t> want = {
      {TpchQuery::kQ1, 468},  // 9 groups
      {TpchQuery::kQ3, 1440}, // 90 pairs
      {TpchQuery::kQ4, 180},  // 3 devices x 5 priorities
      {TpchQuery::kQ6, 24},
      {TpchQuery::kQ14, 48},
  };
  for (const TpchQuery q : kAllQueries) {
    SCOPED_TRACE(plan::TpchQueryName(q));
    gpusim::DeviceGroup group(4);
    plan::ShardedQueryOptions options;
    options.force_shards = 8;
    plan::ShardedRunStats stats;
    plan::RunSharded(q, Tables(), group, backends::kHandwritten, options,
                     &stats);
    EXPECT_EQ(stats.exchange_bytes, want.at(q));
  }
}

TEST_F(MultiDeviceQueryTest, ForcedShardCountsKeepAnswersCorrect) {
  // More shards than devices: each device runs several slices in sequence.
  for (const size_t shards : {3u, 8u}) {
    for (const TpchQuery q : kAllQueries) {
      SCOPED_TRACE(std::string(plan::TpchQueryName(q)) + " with " +
                   std::to_string(shards) + " shards");
      gpusim::DeviceGroup group(2);
      plan::ShardedQueryOptions options;
      options.force_shards = shards;
      plan::ShardedRunStats stats;
      const plan::TpchQueryResult result = plan::RunSharded(
          q, Tables(), group, backends::kHandwritten, options, &stats);
      tpch_testing::ExpectReferenceAnswer(q, result, Tables());
      EXPECT_EQ(stats.shards, shards);
    }
  }
}

TEST_F(MultiDeviceQueryTest, OneDeviceTimelineIsBitIdenticalToGoverned) {
  for (const TpchQuery q : kAllQueries) {
    SCOPED_TRACE(plan::TpchQueryName(q));
    gpusim::DeviceGroup sharded_group(1);
    plan::ShardedRunStats stats;
    (void)plan::RunSharded(q, Tables(), sharded_group, backends::kHandwritten,
                           {}, &stats);

    gpusim::DeviceGroup governed_group(1);
    gpusim::Device::DeviceGuard guard(governed_group.device(0));
    const std::unique_ptr<core::Backend> backend =
        core::BackendRegistry::Instance().Create(backends::kHandwritten);
    plan::GovernedRunStats gstats;
    (void)plan::RunGoverned(q, Tables(), *backend, {}, &gstats);

    EXPECT_EQ(stats.simulated_ns, gstats.simulated_ns);
  }
}

TEST_F(MultiDeviceQueryTest, ShardedTimelineIsDeterministic) {
  // Same inputs, fresh groups: the multi-threaded run must charge the exact
  // same simulated makespan both times.
  uint64_t first = 0;
  for (int round = 0; round < 2; ++round) {
    gpusim::DeviceGroup group(4);
    plan::ShardedRunStats stats;
    (void)plan::RunSharded(TpchQuery::kQ1, Tables(), group,
                           backends::kHandwritten, {}, &stats);
    if (round == 0) {
      first = stats.simulated_ns;
    } else {
      EXPECT_EQ(stats.simulated_ns, first);
    }
  }
}

TEST_F(MultiDeviceQueryTest, CrossIslandShardsRouteExchangesViaHost) {
  gpusim::GroupTopology topo;
  topo.peer_island_size = 2;  // devices {0,1} and {2,3} are separate islands
  gpusim::DeviceGroup group(4, topo);
  plan::ShardedRunStats stats;
  (void)plan::RunSharded(TpchQuery::kQ1, Tables(), group,
                         backends::kHandwritten, {}, &stats);
  EXPECT_GT(stats.exchange_p2p_bytes, 0u);       // device 1 -> 0
  EXPECT_GT(stats.exchange_via_host_bytes, 0u);  // devices 2,3 -> 0
}

// ---------------------------------------------------------------------------
// Sharded planning and exchange-edge pricing.

TEST_F(MultiDeviceQueryTest, PlanShardedExecutionPlacesAndPricesEdges) {
  gpusim::GroupTopology topo;
  topo.peer_island_size = 2;
  gpusim::DeviceGroup group(4, topo);
  const plan::ShardedPlanSpec spec = plan::PlanShardedExecution(
      TpchQuery::kQ3, Tables(), group);
  EXPECT_EQ(spec.devices, 4);
  EXPECT_EQ(spec.shards, 4u);
  ASSERT_EQ(spec.placements.size(), 4u);
  for (size_t s = 0; s < spec.placements.size(); ++s) {
    EXPECT_EQ(spec.placements[s].device, static_cast<int>(s));
  }

  size_t scatters = 0, broadcasts = 0, gathers = 0;
  for (const plan::ExchangeEdge& e : spec.edges) {
    switch (e.kind) {
      case plan::ExchangeEdge::Kind::kScatter: ++scatters; break;
      case plan::ExchangeEdge::Kind::kBroadcast: ++broadcasts; break;
      case plan::ExchangeEdge::Kind::kGather: ++gathers; break;
    }
  }
  EXPECT_EQ(scatters, 4u);
  EXPECT_EQ(broadcasts, 8u);  // orders + customer to each of 4 devices
  EXPECT_EQ(gathers, 3u);     // devices 1..3 into device 0
  for (const plan::ExchangeEdge& e : spec.edges) {
    if (e.kind != plan::ExchangeEdge::Kind::kGather) continue;
    EXPECT_EQ(e.peer, e.device == 1);  // only device 1 shares island 0
  }

  // A gather is priced as RunSharded charges it, over its routed link; a
  // scatter or broadcast as one host-to-device copy.
  uint64_t total_ns = 0;
  for (const plan::ExchangeEdge& e : spec.edges) {
    SCOPED_TRACE(std::string(plan::ExchangeEdgeKindName(e.kind)) + " " +
                 e.what);
    EXPECT_GT(e.est_ns, 0u);
    if (e.kind == plan::ExchangeEdge::Kind::kGather) {
      EXPECT_EQ(e.est_ns, group.TransferNs(e.device, spec.coordinator,
                                           e.bytes));
    } else {
      EXPECT_EQ(e.est_ns,
                group.device(e.device).cost_model().TransferTime(
                    e.bytes, gpusim::ApiProfile::Cuda()));
    }
    total_ns += e.est_ns;
  }
  // The via-host gathers (devices 2 and 3) cost more than the p2p one.
  const auto gather_ns = [&](int device) {
    for (const plan::ExchangeEdge& e : spec.edges) {
      if (e.kind == plan::ExchangeEdge::Kind::kGather && e.device == device) {
        return e.est_ns;
      }
    }
    return uint64_t{0};
  };
  EXPECT_GT(gather_ns(2), gather_ns(1));
  EXPECT_GT(gather_ns(3), gather_ns(1));

  const std::string text = plan::ExplainSharded(spec, group);
  EXPECT_NE(text.find("shard placement:"), std::string::npos);
  EXPECT_NE(text.find("p2p link"), std::string::npos);
  EXPECT_NE(text.find("via host"), std::string::npos);
  EXPECT_NE(text.find("est " + std::to_string(gather_ns(2)) + " ns"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("exchange total: est " + std::to_string(total_ns) +
                      " ns over " + std::to_string(spec.edges.size()) +
                      " edge(s)"),
            std::string::npos)
      << text;
}

// ---------------------------------------------------------------------------
// Device-loss recovery: per-device fault scoping, shard re-placement,
// gather re-routing, and the zero-fault timeline guarantee.

/// Arms a sticky DeviceLost on device `victim` that fires on the Nth kernel
/// launch of any of its streams.
void KillDeviceAtKernel(gpusim::DeviceGroup& group, int victim,
                        uint64_t at_call, uint64_t seed = 17) {
  gpusim::FaultRule rule;
  rule.site = gpusim::FaultSite::kKernel;
  rule.kind = gpusim::FaultKind::kDeviceLost;
  rule.at_call = at_call;
  group.ArmFaultInjector(victim, seed).AddRule(rule);
}

TEST_F(MultiDeviceQueryTest, DeviceLostMidQueryRecoversOnSurvivors) {
  for (const TpchQuery q : kAllQueries) {
    SCOPED_TRACE(plan::TpchQueryName(q));
    gpusim::DeviceGroup group(4);
    KillDeviceAtKernel(group, /*victim=*/2, /*at_call=*/2);
    plan::ShardedQueryOptions options;
    options.force_shards = 8;  // every device owns several slices
    plan::ShardedRunStats stats;
    const plan::TpchQueryResult result = plan::RunSharded(
        q, Tables(), group, backends::kHandwritten, options, &stats);
    tpch_testing::ExpectReferenceAnswer(q, result, Tables());
    EXPECT_FALSE(group.IsAlive(2));
    EXPECT_EQ(group.AliveCount(), 3);
    EXPECT_EQ(stats.devices_lost, 1);
    EXPECT_GE(stats.recovery_rounds, 1);
    EXPECT_GT(stats.replaced_shards, 0u);
    bool saw_lost = false;
    for (const plan::DeviceShardStats& d : stats.per_device) {
      if (d.device == 2) saw_lost = d.lost;
    }
    EXPECT_TRUE(saw_lost) << "per-device stats must flag the dead device";
  }
}

TEST_F(MultiDeviceQueryTest, CoordinatorLossMovesGatherToLowestSurvivor) {
  // Killing device 0 forces both the re-placement AND a new gather
  // coordinator (the lowest surviving device).
  gpusim::DeviceGroup group(4);
  KillDeviceAtKernel(group, /*victim=*/0, /*at_call=*/2);
  plan::ShardedQueryOptions options;
  options.force_shards = 8;
  plan::ShardedRunStats stats;
  const plan::TpchQueryResult result = plan::RunSharded(
      TpchQuery::kQ1, Tables(), group, backends::kHandwritten, options,
      &stats);
  tpch_testing::ExpectReferenceAnswer(TpchQuery::kQ1, result, Tables());
  EXPECT_FALSE(group.IsAlive(0));
  EXPECT_EQ(stats.devices_lost, 1);
  EXPECT_GT(stats.exchange_bytes, 0u) << "survivors still gather partials";
}

TEST_F(MultiDeviceQueryTest, SuccessiveLossesDegradeToASingleDevice) {
  // Devices 0 and 1 both die; device 2 finishes the whole query alone.
  gpusim::DeviceGroup group(3);
  KillDeviceAtKernel(group, 0, /*at_call=*/2);
  KillDeviceAtKernel(group, 1, /*at_call=*/4);
  plan::ShardedQueryOptions options;
  options.force_shards = 6;
  plan::ShardedRunStats stats;
  const plan::TpchQueryResult result = plan::RunSharded(
      TpchQuery::kQ6, Tables(), group, backends::kHandwritten, options,
      &stats);
  tpch_testing::ExpectReferenceAnswer(TpchQuery::kQ6, result, Tables());
  EXPECT_EQ(stats.devices_lost, 2);
  EXPECT_EQ(group.AliveCount(), 1);
  EXPECT_TRUE(group.IsAlive(2));
}

TEST_F(MultiDeviceQueryTest, AllDevicesLostThrowsDeviceLost) {
  gpusim::DeviceGroup group(2);
  KillDeviceAtKernel(group, 0, /*at_call=*/1);
  KillDeviceAtKernel(group, 1, /*at_call=*/1);
  EXPECT_THROW(plan::RunSharded(TpchQuery::kQ6, Tables(), group,
                                backends::kHandwritten, {}, nullptr),
               gpusim::DeviceLost);
  EXPECT_EQ(group.AliveCount(), 0);
}

TEST_F(MultiDeviceQueryTest, PreLostDevicesAreNeverPlacedOn) {
  // A device already dead when the query arrives gets no shards at all —
  // the run starts degraded instead of discovering the corpse mid-flight.
  gpusim::DeviceGroup group(3);
  group.MarkLost(1);
  plan::ShardedRunStats stats;
  const plan::TpchQueryResult result = plan::RunSharded(
      TpchQuery::kQ1, Tables(), group, backends::kHandwritten, {}, &stats);
  tpch_testing::ExpectReferenceAnswer(TpchQuery::kQ1, result, Tables());
  EXPECT_EQ(stats.devices_lost, 0) << "nothing died during the run itself";
  for (const plan::DeviceShardStats& d : stats.per_device) {
    EXPECT_NE(d.device, 1) << "dead device must not appear in the run";
  }
}

TEST(DeviceGroupFaultTest, ExchangeFaultFiresBeforeAnyPricing) {
  gpusim::DeviceGroup group(2);
  gpusim::Stream src(group.device(0));
  gpusim::Stream dst(group.device(1));

  gpusim::FaultRule rule;
  rule.site = gpusim::FaultSite::kTransfer;
  rule.kind = gpusim::FaultKind::kTransfer;
  rule.at_call = 1;
  rule.max_fires = 2;
  group.ArmFaultInjector(0, 5).AddRule(rule);

  const uint64_t bytes = 1 << 20;
  const uint64_t src_before = src.now_ns();
  const uint64_t dst_before = dst.now_ns();
  EXPECT_THROW(group.ChargeExchange(0, src, 1, dst, bytes),
               gpusim::TransferFault);
  // A faulted exchange must leave both timelines and all counters untouched.
  EXPECT_EQ(src.now_ns(), src_before);
  EXPECT_EQ(dst.now_ns(), dst_before);
  EXPECT_EQ(group.device(0).counters().bytes_p2p.load(), 0u);
  EXPECT_EQ(group.device(0).counters().exchanges.load(), 0u);

  // The replay charges exactly once (max_fires exhausted the transient).
  EXPECT_NO_THROW(group.ChargeExchange(0, src, 1, dst, bytes));
  EXPECT_EQ(src.now_ns() - src_before, group.TransferNs(0, 1, bytes));
  EXPECT_EQ(group.device(1).counters().bytes_p2p.load(), bytes);
  EXPECT_EQ(group.device(1).counters().exchanges.load(), 1u);
}

TEST_F(MultiDeviceQueryTest, TransientTransferChaosStillAnswersCorrectly) {
  // Seeded transient TransferFaults and kernel faults on every device, at
  // most three per device, below the four attempts a slice or a gather edge
  // gets: the run must recover every fault (slice replay for uploads,
  // kernels and partial downloads, gather retry for exchanges) and the
  // answer must stay exact.
  gpusim::DeviceGroup group(4);
  for (int d = 0; d < group.size(); ++d) {
    gpusim::FaultInjector& injector = group.ArmFaultInjector(d, 1234);
    gpusim::FaultRule transfer;
    transfer.site = gpusim::FaultSite::kTransfer;
    transfer.kind = gpusim::FaultKind::kTransfer;
    transfer.probability = 0.05;
    transfer.max_fires = 2;
    injector.AddRule(transfer);
    gpusim::FaultRule kernel;
    kernel.site = gpusim::FaultSite::kKernel;
    kernel.kind = gpusim::FaultKind::kTransientKernel;
    kernel.probability = 0.05;
    kernel.max_fires = 1;
    injector.AddRule(kernel);
  }
  plan::ShardedQueryOptions options;
  options.force_shards = 8;
  plan::ShardedRunStats stats;
  const plan::TpchQueryResult result = plan::RunSharded(
      TpchQuery::kQ1, Tables(), group, backends::kHandwritten, options,
      &stats);
  tpch_testing::ExpectReferenceAnswer(TpchQuery::kQ1, result, Tables());
  EXPECT_EQ(stats.devices_lost, 0);
  EXPECT_EQ(group.AliveCount(), 4);
  uint64_t kernel_faults = 0;
  for (int d = 0; d < group.size(); ++d) {
    kernel_faults += group.fault_injector(d)->stats().injected_kernel;
  }
  EXPECT_GT(kernel_faults, 0u);
}

TEST_F(MultiDeviceQueryTest, OneShotKernelFaultIsOneSliceReplay) {
  // One transient kernel fault on one device of four: the slice runner
  // replays the slice it hit once, and the run's stats count that replay.
  gpusim::DeviceGroup group(4);
  gpusim::FaultRule kernel;
  kernel.site = gpusim::FaultSite::kKernel;
  kernel.kind = gpusim::FaultKind::kTransientKernel;
  kernel.at_call = 2;
  kernel.max_fires = 1;
  group.ArmFaultInjector(2, 5).AddRule(kernel);
  plan::ShardedQueryOptions options;
  options.force_shards = 8;
  plan::ShardedRunStats stats;
  const plan::TpchQueryResult result = plan::RunSharded(
      TpchQuery::kQ6, Tables(), group, backends::kHandwritten, options,
      &stats);
  tpch_testing::ExpectReferenceAnswer(TpchQuery::kQ6, result, Tables());
  EXPECT_EQ(group.fault_injector(2)->stats().injected_kernel, 1u);
  EXPECT_EQ(stats.slice_replays, 1u);
  EXPECT_EQ(stats.devices_lost, 0);
}

TEST_F(MultiDeviceQueryTest, ArmedRulelessInjectorsKeepTimelineBitIdentical) {
  // The zero-fault gate: attaching per-device injectors with no rules must
  // not move the simulated timeline by a single nanosecond.
  for (const TpchQuery q : kAllQueries) {
    SCOPED_TRACE(plan::TpchQueryName(q));
    gpusim::DeviceGroup bare(4);
    plan::ShardedRunStats bare_stats;
    (void)plan::RunSharded(q, Tables(), bare, backends::kHandwritten, {},
                           &bare_stats);

    gpusim::DeviceGroup armed(4);
    for (int d = 0; d < armed.size(); ++d) armed.ArmFaultInjector(d, 99);
    plan::ShardedRunStats armed_stats;
    (void)plan::RunSharded(q, Tables(), armed, backends::kHandwritten, {},
                           &armed_stats);

    EXPECT_EQ(armed_stats.simulated_ns, bare_stats.simulated_ns);
    EXPECT_EQ(armed_stats.devices_lost, 0);
    EXPECT_EQ(armed_stats.recovery_rounds, 0);
    EXPECT_EQ(armed_stats.slice_replays, 0u);
    EXPECT_GT(armed.fault_injector(0)->stats().checks, 0u);
  }
}

TEST_F(MultiDeviceQueryTest, DegradedRunsAreDeterministic) {
  // Same fault schedule, fresh groups: identical degraded placement and
  // identical simulated makespan.
  uint64_t first_ns = 0;
  size_t first_replaced = 0;
  for (int round = 0; round < 2; ++round) {
    gpusim::DeviceGroup group(4);
    KillDeviceAtKernel(group, 1, /*at_call=*/3);
    plan::ShardedQueryOptions options;
    options.force_shards = 8;
    plan::ShardedRunStats stats;
    (void)plan::RunSharded(TpchQuery::kQ6, Tables(), group,
                           backends::kHandwritten, options, &stats);
    if (round == 0) {
      first_ns = stats.simulated_ns;
      first_replaced = stats.replaced_shards;
    } else {
      EXPECT_EQ(stats.simulated_ns, first_ns);
      EXPECT_EQ(stats.replaced_shards, first_replaced);
    }
  }
}

// ---------------------------------------------------------------------------
// Device lifecycle: Alive <-> Lost, one tracer event per transition.

TEST(DeviceLifecycleTest, TransitionsRejectWrongSourceStates) {
  gpusim::DeviceGroup group(2);
  gpusim::Tracer tracer;
  group.device(0).set_tracer(&tracer);
  EXPECT_FALSE(group.MarkReset(0)) << "only a Lost device can reset";
  EXPECT_TRUE(group.IsAlive(0));

  group.MarkLost(0);
  group.MarkLost(0);  // idempotent
  group.device(0).set_tracer(nullptr);
  EXPECT_FALSE(group.IsAlive(0));
  ASSERT_EQ(tracer.size(), 1u) << "a repeated MarkLost records nothing";
  EXPECT_EQ(tracer.events()[0].name, "device_lost");
}

TEST(DeviceLifecycleTest, TransitionsLandInFaultTraceCategory) {
  gpusim::DeviceGroup group(2);
  gpusim::Tracer tracer;
  group.device(1).set_tracer(&tracer);
  group.MarkLost(1);
  EXPECT_FALSE(group.IsAlive(1));
  EXPECT_EQ(group.AliveDevices(), std::vector<int>{0});
  EXPECT_TRUE(group.MarkReset(1));
  EXPECT_TRUE(group.IsAlive(1));
  EXPECT_EQ(group.AliveCount(), 2);
  group.device(1).set_tracer(nullptr);

  std::vector<std::string> fault_events;
  for (const gpusim::TraceEvent& ev : tracer.events()) {
    EXPECT_STREQ(ev.category, "fault");
    fault_events.push_back(ev.name);
  }
  const std::vector<std::string> want = {"device_lost", "device_reset"};
  EXPECT_EQ(fault_events, want);
}

// ---------------------------------------------------------------------------
// Readmission through RunSharded: checkpoint reuse, re-placement onto the
// recovered device, and the determinism goldens.

/// One-shot variant of KillDeviceAtKernel for readmission sequences: the
/// rule cannot re-fire on the rerun's fresh streams after the reset clears
/// the sticky loss.
void KillDeviceOnceAtKernel(gpusim::DeviceGroup& group, int victim,
                            uint64_t at_call, uint64_t seed = 17) {
  gpusim::FaultRule rule;
  rule.site = gpusim::FaultSite::kKernel;
  rule.kind = gpusim::FaultKind::kDeviceLost;
  rule.at_call = at_call;
  rule.max_fires = 1;
  group.ArmFaultInjector(victim, seed).AddRule(rule);
}

TEST_F(MultiDeviceQueryTest, ResetDeviceReadmitsOnNextRun) {
  gpusim::DeviceGroup group(4);
  KillDeviceOnceAtKernel(group, /*victim=*/2, /*at_call=*/2);
  plan::ShardedQueryOptions options;
  options.force_shards = 8;

  plan::ShardedRunStats degraded;
  tpch_testing::ExpectReferenceAnswer(
      TpchQuery::kQ6,
      plan::RunSharded(TpchQuery::kQ6, Tables(), group,
                       backends::kHandwritten, options, &degraded),
      Tables());
  ASSERT_FALSE(group.IsAlive(2));

  ASSERT_TRUE(group.MarkReset(2));
  plan::ShardedRunStats recovered;
  tpch_testing::ExpectReferenceAnswer(
      TpchQuery::kQ6,
      plan::RunSharded(TpchQuery::kQ6, Tables(), group,
                       backends::kHandwritten, options, &recovered),
      Tables());
  EXPECT_TRUE(group.IsAlive(2));
  EXPECT_EQ(recovered.devices_lost, 0);
  size_t victim_shards = 0;
  for (const plan::DeviceShardStats& d : recovered.per_device) {
    if (d.device == 2) victim_shards = d.shards;
  }
  EXPECT_GT(victim_shards, 0u) << "the reset device must take work";
}

TEST_F(MultiDeviceQueryTest,
       ResetDeviceThatIsStillSickIsLostAgainByItsFirstSlice) {
  // A persistent kill without max_fires fires on the first kernel of every
  // new stream, so the reset does not cure the device: the rerun places
  // slices on it, its first slice raises DeviceLost, and one recovery round
  // re-deals its slices onto the survivors.
  gpusim::DeviceGroup group(4);
  KillDeviceAtKernel(group, /*victim=*/2, /*at_call=*/1);
  plan::ShardedQueryOptions options;
  options.force_shards = 8;
  (void)plan::RunSharded(TpchQuery::kQ6, Tables(), group,
                         backends::kHandwritten, options, nullptr);
  ASSERT_FALSE(group.IsAlive(2));

  ASSERT_TRUE(group.MarkReset(2));
  plan::ShardedRunStats rerun;
  tpch_testing::ExpectReferenceAnswer(
      TpchQuery::kQ6,
      plan::RunSharded(TpchQuery::kQ6, Tables(), group,
                       backends::kHandwritten, options, &rerun),
      Tables());
  EXPECT_EQ(rerun.devices_lost, 1);
  EXPECT_EQ(rerun.recovery_rounds, 1);
  EXPECT_FALSE(group.IsAlive(2));
}

TEST_F(MultiDeviceQueryTest, ReadmittedRunMatchesNeverKilledTimeline) {
  // After readmission the group is whole again: the rerun places exactly
  // like a never-killed group and its simulated makespan is bit-identical.
  plan::ShardedQueryOptions options;
  options.force_shards = 8;
  gpusim::DeviceGroup bare(4);
  plan::ShardedRunStats baseline;
  (void)plan::RunSharded(TpchQuery::kQ1, Tables(), bare,
                         backends::kHandwritten, options, &baseline);

  gpusim::DeviceGroup group(4);
  KillDeviceOnceAtKernel(group, /*victim=*/1, /*at_call=*/2);
  (void)plan::RunSharded(TpchQuery::kQ1, Tables(), group,
                         backends::kHandwritten, options, nullptr);
  ASSERT_TRUE(group.MarkReset(1));
  plan::ShardedRunStats recovered;
  (void)plan::RunSharded(TpchQuery::kQ1, Tables(), group,
                         backends::kHandwritten, options, &recovered);
  EXPECT_EQ(recovered.simulated_ns, baseline.simulated_ns);
}

TEST_F(MultiDeviceQueryTest, ReadmissionSequenceIsDeterministic) {
  // The whole kill -> reset -> rerun sequence on two identical groups: same
  // degraded makespan, same recovered makespan, same placement.
  uint64_t first_degraded = 0;
  uint64_t first_recovered = 0;
  std::vector<size_t> first_placement;
  for (int round = 0; round < 2; ++round) {
    gpusim::DeviceGroup group(4);
    KillDeviceOnceAtKernel(group, /*victim=*/3, /*at_call=*/4);
    plan::ShardedQueryOptions options;
    options.force_shards = 8;
    plan::ShardedRunStats degraded;
    (void)plan::RunSharded(TpchQuery::kQ3, Tables(), group,
                           backends::kHandwritten, options, &degraded);
    ASSERT_TRUE(group.MarkReset(3));
    plan::ShardedRunStats recovered;
    (void)plan::RunSharded(TpchQuery::kQ3, Tables(), group,
                           backends::kHandwritten, options, &recovered);
    std::vector<size_t> placement;
    for (const plan::DeviceShardStats& d : recovered.per_device) {
      placement.push_back(d.shards);
    }
    if (round == 0) {
      first_degraded = degraded.simulated_ns;
      first_recovered = recovered.simulated_ns;
      first_placement = placement;
    } else {
      EXPECT_EQ(degraded.simulated_ns, first_degraded);
      EXPECT_EQ(recovered.simulated_ns, first_recovered);
      EXPECT_EQ(placement, first_placement);
    }
  }
}

TEST_F(MultiDeviceQueryTest, CheckpointedSlicesAreReusedNotRecomputed) {
  // Kill late enough that the victim finished a slice first: that slice's
  // host-checkpointed partial merges into the answer, and only the
  // unfinished remainder re-deals.
  gpusim::DeviceGroup group(4);
  KillDeviceOnceAtKernel(group, /*victim=*/1, /*at_call=*/7);
  plan::ShardedQueryOptions options;
  options.force_shards = 8;  // two slices per device
  plan::ShardedRunStats stats;
  tpch_testing::ExpectReferenceAnswer(
      TpchQuery::kQ6,
      plan::RunSharded(TpchQuery::kQ6, Tables(), group,
                       backends::kHandwritten, options, &stats),
      Tables());
  ASSERT_FALSE(group.IsAlive(1));
  EXPECT_GE(stats.checkpointed_slices_reused, 1u);
  // Checkpointed + re-dealt covers exactly the victim's two slices.
  EXPECT_EQ(stats.checkpointed_slices_reused + stats.replaced_shards, 2u);
}

// ---------------------------------------------------------------------------
// One placement, one fold: EXPLAIN shows the placement the run uses, and the
// answer does not depend on where the slices ran.

TEST_F(MultiDeviceQueryTest, ExplainPlacesShardsLikeTheDegradedRun) {
  // With device 1 already dead, EXPLAIN must neither place a shard on it nor
  // route an edge through it, and each device's shard count must be the one
  // RunSharded reports for the same group.
  gpusim::DeviceGroup group(3);
  group.MarkLost(1);
  const plan::ShardedPlanSpec spec =
      plan::PlanShardedExecution(TpchQuery::kQ3, Tables(), group);
  std::map<int, size_t> planned;
  for (const plan::ShardPlacement& p : spec.placements) {
    EXPECT_NE(p.device, 1);
    ++planned[p.device];
  }
  for (const plan::ExchangeEdge& e : spec.edges) {
    EXPECT_NE(e.device, 1) << plan::ExchangeEdgeKindName(e.kind) << " "
                           << e.what;
  }
  const std::string text = plan::ExplainSharded(spec, group);
  EXPECT_EQ(text.find("dev1"), std::string::npos) << text;
  EXPECT_EQ(text.find("device 1"), std::string::npos) << text;

  plan::ShardedRunStats stats;
  (void)plan::RunSharded(TpchQuery::kQ3, Tables(), group,
                         backends::kHandwritten, {}, &stats);
  std::map<int, size_t> ran;
  for (const plan::DeviceShardStats& d : stats.per_device) {
    ran[d.device] = d.shards;
  }
  EXPECT_EQ(planned, ran);
}

TEST_F(MultiDeviceQueryTest, SliceOrderFoldKeepsAnswersBitIdentical) {
  // Eight slices fold in ascending row order wherever they ran, so 1-4
  // devices, a run that loses a device mid-query, and the governed
  // single-device path all add the same partials in the same order.
  for (const char* backend : {backends::kThrust, backends::kBoostCompute,
                              backends::kArrayFire, backends::kHandwritten}) {
    for (const TpchQuery q : {TpchQuery::kQ1, TpchQuery::kQ3, TpchQuery::kQ4,
                              TpchQuery::kQ6, TpchQuery::kQ14}) {
      SCOPED_TRACE(std::string(backend) + " " + plan::TpchQueryName(q));
      plan::ShardedQueryOptions options;
      options.force_shards = 8;
      std::vector<std::pair<std::string, plan::TpchQueryResult>> runs;
      for (const int nd : {1, 2, 3, 4}) {
        gpusim::DeviceGroup group(nd);
        runs.emplace_back(
            std::to_string(nd) + " device(s)",
            plan::RunSharded(q, Tables(), group, backend, options));
      }
      {
        gpusim::DeviceGroup group(4);
        KillDeviceOnceAtKernel(group, /*victim=*/1, /*at_call=*/2);
        plan::ShardedRunStats stats;
        runs.emplace_back(
            "device 1 killed",
            plan::RunSharded(q, Tables(), group, backend, options, &stats));
        EXPECT_EQ(stats.devices_lost, 1);
      }
      {
        gpusim::DeviceGroup group(1);
        gpusim::Device::DeviceGuard guard(group.device(0));
        const std::unique_ptr<core::Backend> b =
            core::BackendRegistry::Instance().Create(backend);
        plan::GovernedQueryOptions governed;
        governed.force_partitions = 8;
        runs.emplace_back("governed",
                          plan::RunGoverned(q, Tables(), *b, governed));
      }
      for (size_t i = 1; i < runs.size(); ++i) {
        SCOPED_TRACE(runs[i].first + " vs " + runs[0].first);
        tpch_testing::ExpectSameAnswer(q, runs[0].second, runs[i].second);
      }
    }
  }
}

}  // namespace
