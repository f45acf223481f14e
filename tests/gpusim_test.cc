// Unit tests for the device simulator substrate: memory, streams, counters,
// thread pool, cost model.
#include "gpusim/device.h"

#include <gtest/gtest.h>

#include <numeric>
#include <sstream>
#include <vector>

#include "gpusim/kernel.h"
#include "gpusim/memory.h"
#include "gpusim/thread_pool.h"

namespace gpusim {
namespace {

TEST(DeviceTest, AllocateTracksBytesInUse) {
  Device device;
  void* a = device.Allocate(1024);
  EXPECT_EQ(device.bytes_in_use(), 1024u);
  EXPECT_TRUE(device.OwnsPointer(a));
  void* b = device.Allocate(4096);
  EXPECT_EQ(device.bytes_in_use(), 1024u + 4096u);
  device.Free(a);
  EXPECT_EQ(device.bytes_in_use(), 4096u);
  EXPECT_FALSE(device.OwnsPointer(a));
  device.Free(b);
  EXPECT_EQ(device.bytes_in_use(), 0u);
}

TEST(DeviceTest, ZeroByteAllocationIsValidAndUnique) {
  Device device;
  void* a = device.Allocate(0);
  void* b = device.Allocate(0);
  EXPECT_NE(a, nullptr);
  EXPECT_NE(a, b);
  device.Free(a);
  device.Free(b);
}

TEST(DeviceTest, ExceedingGlobalMemoryThrows) {
  DeviceProperties props;
  props.global_memory_bytes = 1 << 20;  // 1 MiB device
  Device device(props);
  void* a = device.Allocate(900 * 1024);
  EXPECT_THROW(device.Allocate(200 * 1024), OutOfDeviceMemory);
  device.Free(a);
  void* b = device.Allocate(1024 * 1024);  // fits after the free
  device.Free(b);
}

TEST(DeviceTest, FreeUnknownPointerThrows) {
  Device device;
  int on_host = 0;
  EXPECT_THROW(device.Free(&on_host), std::invalid_argument);
}

TEST(DeviceTest, AllocationCountersAccumulate) {
  Device device;
  const auto before = device.Snapshot();
  void* a = device.Allocate(100);
  void* b = device.Allocate(200);
  const auto delta = device.Snapshot().Delta(before);
  EXPECT_EQ(delta.allocations, 2u);
  EXPECT_EQ(delta.bytes_allocated, 300u);
  device.Free(a);
  device.Free(b);
}

TEST(StreamTest, KernelLaunchAdvancesTimelineByAtLeastLaunchOverhead) {
  Device device;
  Stream stream(device, ApiProfile::Cuda());
  KernelStats stats;
  stats.bytes_read = 0;
  stream.ChargeKernel(stats);
  EXPECT_GE(stream.now_ns(), ApiProfile::Cuda().launch_overhead_ns);
}

TEST(StreamTest, OpenClProfileHasHigherLaunchOverheadThanCuda) {
  Device device;
  Stream cuda(device, ApiProfile::Cuda());
  Stream opencl(device, ApiProfile::OpenCl());
  KernelStats stats;
  cuda.ChargeKernel(stats);
  opencl.ChargeKernel(stats);
  EXPECT_GT(opencl.now_ns(), cuda.now_ns());
}

TEST(StreamTest, MemoryBoundKernelPricedByBandwidth) {
  DeviceProperties props;
  props.memory_bandwidth_bps = 100e9;
  Device device(props);
  Stream stream(device, ApiProfile::Cuda());
  KernelStats stats;
  stats.bytes_read = 100'000'000;  // 1 ms at 100 GB/s
  const uint64_t before = stream.now_ns();
  stream.ChargeKernel(stats);
  const uint64_t dt = stream.now_ns() - before;
  EXPECT_NEAR(static_cast<double>(dt), 1e6 + 5000.0, 1e4);
}

TEST(StreamTest, TransfersChargePcieAndCounters) {
  Device device;
  Stream stream(device, ApiProfile::Cuda());
  const auto before = device.Snapshot();
  stream.ChargeTransfer(Stream::TransferKind::kHostToDevice, 1 << 20);
  stream.ChargeTransfer(Stream::TransferKind::kDeviceToHost, 1 << 10);
  const auto delta = device.Snapshot().Delta(before);
  EXPECT_EQ(delta.bytes_h2d, 1u << 20);
  EXPECT_EQ(delta.bytes_d2h, 1u << 10);
  EXPECT_EQ(delta.transfers, 2u);
}

TEST(StreamTest, EventsOrderStreams) {
  Device device;
  Stream a(device, ApiProfile::Cuda());
  Stream b(device, ApiProfile::Cuda());
  KernelStats stats;
  stats.bytes_read = 1 << 30;
  a.ChargeKernel(stats);
  const Event e = a.Record();
  EXPECT_LT(b.now_ns(), e.timestamp_ns);
  b.Wait(e);
  EXPECT_GE(b.now_ns(), e.timestamp_ns);
  // Waiting on a past event does not move the timeline backwards.
  const uint64_t t = b.now_ns();
  b.Wait(Event{0});
  EXPECT_EQ(b.now_ns(), t);
}

TEST(StreamTest, ProgramCompileChargesOpenClCost) {
  Device device;
  Stream stream(device, ApiProfile::OpenCl());
  const auto before = device.Snapshot();
  stream.ChargeProgramCompile();
  const auto delta = device.Snapshot().Delta(before);
  EXPECT_EQ(delta.programs_compiled, 1u);
  EXPECT_EQ(delta.compile_ns, ApiProfile::OpenCl().program_compile_ns);
  EXPECT_GE(stream.now_ns(), ApiProfile::OpenCl().program_compile_ns);
}

TEST(ThreadPoolTest, ParallelForCoversAllChunksExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(1000, [&](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForZeroChunksIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.ParallelFor(0, [&](size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, ExceptionsPropagate) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.ParallelFor(
                   10,
                   [&](size_t i) {
                     if (i == 5) throw std::runtime_error("boom");
                   }),
               std::runtime_error);
}

TEST(ThreadPoolTest, ReusableAcrossJobs) {
  ThreadPool pool(3);
  for (int round = 0; round < 20; ++round) {
    std::atomic<size_t> sum{0};
    pool.ParallelFor(100, [&](size_t i) { sum.fetch_add(i); });
    EXPECT_EQ(sum.load(), 4950u);
  }
}

TEST(ThreadPoolTest, SmallGridsRunInlineAndCoverAllChunks) {
  // Grids small relative to the worker count take the inline fast path;
  // coverage must be identical either way.
  ThreadPool pool(16);
  for (size_t chunks : {size_t{1}, size_t{2}, size_t{3}, size_t{4}}) {
    std::vector<std::atomic<int>> hits(chunks);
    pool.ParallelFor(chunks, [&](size_t i) { hits[i].fetch_add(1); });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPoolTest, ExceptionsPropagateFromInlinePath) {
  ThreadPool pool(16);
  EXPECT_THROW(pool.ParallelFor(
                   2,
                   [&](size_t i) {
                     if (i == 1) throw std::runtime_error("boom");
                   }),
               std::runtime_error);
}

TEST(ThreadPoolTest, ManyBackToBackJobsKeepExactCoverage) {
  // Hammers the lock-free publish/retire handshake: chunks of one job must
  // never leak into the next.
  ThreadPool pool(4);
  for (int round = 0; round < 500; ++round) {
    const size_t chunks = 16 + static_cast<size_t>(round % 17);
    std::atomic<size_t> count{0};
    pool.ParallelFor(chunks, [&](size_t) { count.fetch_add(1); });
    ASSERT_EQ(count.load(), chunks);
  }
}

TEST(KernelTest, ParallelForVisitsAllIndices) {
  Device device;
  Stream stream(device, ApiProfile::Cuda());
  std::vector<std::atomic<int>> hits(10000);
  KernelStats stats;
  ParallelFor(stream, hits.size(), stats,
              [&](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(KernelTest, LaunchBlocksCoversBlockIds) {
  Device device;
  Stream stream(device, ApiProfile::Cuda());
  std::vector<std::atomic<int>> hits(37);
  KernelStats stats;
  LaunchBlocks(stream, hits.size(), 256, stats, [&](const BlockContext& ctx) {
    EXPECT_EQ(ctx.num_blocks, 37u);
    EXPECT_EQ(ctx.block_size, 256u);
    hits[ctx.block_id].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// The atomic-ticket compaction must not depend on host scheduling: records
// come out in thread order for any pool size, inline grids included, and the
// launch is charged as one kernel.
TEST(KernelTest, OrderedAppendKeepsThreadOrderForAnyPoolSize) {
  for (const size_t n : {size_t{100}, size_t{200000}}) {
    for (const unsigned threads : {1u, 2u, 3u, 8u}) {
      Device device(DeviceProperties(), threads);
      Stream stream(device, ApiProfile::Cuda());
      std::vector<uint32_t> out(n);
      uint32_t counter = 0;
      const uint64_t kernels_before = device.Snapshot().kernels_launched;
      const size_t count = OrderedAppend(
          stream, n, KernelStats{}, &counter,
          [&](size_t i, size_t slot) {
            if (i % 3 != 1) return false;
            out[slot] = static_cast<uint32_t>(i);
            return true;
          },
          [&](size_t from, size_t to) { out[to] = out[from]; });
      EXPECT_EQ(device.Snapshot().kernels_launched, kernels_before + 1);
      ASSERT_EQ(count, (n + 1) / 3);
      EXPECT_EQ(counter, count);
      for (size_t k = 0; k < count; ++k) {
        ASSERT_EQ(out[k], 3 * k + 1) << "n=" << n << " threads=" << threads;
      }
    }
  }
}

TEST(MemoryTest, HostDeviceRoundtrip) {
  Device device;
  Stream stream(device, ApiProfile::Cuda());
  std::vector<int> host(1000);
  std::iota(host.begin(), host.end(), -500);
  DeviceArray<int> dev = ToDevice(stream, host, device);
  const std::vector<int> back = ToHost(stream, dev);
  EXPECT_EQ(back, host);
}

TEST(MemoryTest, DeviceBufferMoveTransfersOwnership) {
  Device device;
  DeviceBuffer a(128, device);
  void* p = a.data();
  DeviceBuffer b(std::move(a));
  EXPECT_EQ(b.data(), p);
  EXPECT_EQ(a.data(), nullptr);
  EXPECT_EQ(b.size_bytes(), 128u);
}

TEST(MemoryTest, MemsetWritesValue) {
  Device device;
  Stream stream(device, ApiProfile::Cuda());
  DeviceArray<uint8_t> dev(64, device);
  MemsetDevice(stream, dev.data(), 0xAB, 64);
  const std::vector<uint8_t> back = ToHost(stream, dev);
  for (uint8_t v : back) EXPECT_EQ(v, 0xAB);
}

TEST(TracerTest, RecordsKernelsTransfersAndCompiles) {
  Device device;
  Tracer tracer;
  device.set_tracer(&tracer);
  Stream stream(device, ApiProfile::OpenCl());
  KernelStats stats;
  stats.name = "my_kernel";
  stats.bytes_read = 1024;
  stream.ChargeKernel(stats);
  stream.ChargeTransfer(Stream::TransferKind::kHostToDevice, 64);
  stream.ChargeProgramCompile();
  device.set_tracer(nullptr);
  stream.ChargeKernel(stats);  // not traced after detach

  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].name, "my_kernel");
  EXPECT_STREQ(events[0].category, "kernel");
  EXPECT_EQ(events[1].name, "memcpy_h2d");
  EXPECT_STREQ(events[1].category, "transfer");
  EXPECT_EQ(events[2].name, "clBuildProgram");
  EXPECT_STREQ(events[2].category, "compile");
  // Events are ordered on the stream's timeline.
  EXPECT_LE(events[0].start_ns + events[0].duration_ns, events[1].start_ns + 1);
  EXPECT_GT(events[2].duration_ns, 1'000'000u);  // the 38 ms compile
}

TEST(TracerTest, ChromeTraceExportIsWellFormedJson) {
  Device device;
  Tracer tracer;
  device.set_tracer(&tracer);
  Stream stream(device, ApiProfile::Cuda());
  KernelStats stats;
  stats.name = "kernel_with_\"quote\"";
  stream.ChargeKernel(stats);
  device.set_tracer(nullptr);
  std::ostringstream os;
  tracer.ExportChromeTrace(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("kernel_with_\\\"quote\\\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(TracerTest, StreamsHaveDistinctIds) {
  Device device;
  Stream a(device), b(device), c(device);
  EXPECT_NE(a.id(), b.id());
  EXPECT_NE(b.id(), c.id());
}

TEST(TracerTest, ClearEmptiesTracer) {
  Tracer tracer;
  tracer.Record(TraceEvent{"k", "kernel", 0, 10, 0});
  EXPECT_EQ(tracer.size(), 1u);
  tracer.Clear();
  EXPECT_EQ(tracer.size(), 0u);
}

TEST(CostModelTest, TransferSlowerThanDeviceCopyForLargePayloads) {
  const DeviceProperties props;
  const CostModel model(props);
  const ApiProfile api = ApiProfile::Cuda();
  // PCIe is ~35x slower than HBM in the default configuration.
  EXPECT_GT(model.TransferTime(1 << 30, api),
            model.DeviceCopyTime(1 << 30, api));
}

TEST(CostModelTest, ThroughputScaleSlowsKernels) {
  const DeviceProperties props;
  const CostModel model(props);
  ApiProfile fast = ApiProfile::Cuda();
  ApiProfile slow = ApiProfile::Cuda();
  slow.throughput_scale = 0.5;
  KernelStats stats;
  stats.bytes_read = 1 << 28;
  EXPECT_GT(model.KernelTime(stats, slow), model.KernelTime(stats, fast));
}

TEST(CostModelTest, SerialBoundKernelUsesSerialTime) {
  const DeviceProperties props;
  const CostModel model(props);
  KernelStats stats;
  stats.serial_ns = 123'456'789;
  stats.bytes_read = 64;
  EXPECT_GE(model.KernelTime(stats, ApiProfile::Cuda()), stats.serial_ns);
}

}  // namespace
}  // namespace gpusim
