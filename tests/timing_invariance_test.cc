// The device pool and thread-pool hot-path changes are host-side only: the
// cost model must not be able to observe them. These tests pin that
// invariant by running identical primitive sequences on a cold pool (every
// scratch allocation misses) and on a warm pool (scratch is reused) and
// asserting golden-equal now_ns() timelines.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "gpusim/algorithms.h"
#include "gpusim/device.h"
#include "gpusim/memory.h"

namespace gpusim {
namespace {

/// Runs the multi-pass primitive sequence (tree reduce, Blelloch scan, radix
/// sort, compaction) that exercises every scratch-allocation site and
/// returns the stream's simulated time.
uint64_t RunPrimitiveSequence(Device& device) {
  Stream stream(device, ApiProfile::Cuda());
  const size_t n = 50'000;
  std::vector<uint32_t> host(n);
  for (size_t i = 0; i < n; ++i) host[i] = static_cast<uint32_t>((i * 2654435761u) >> 8);

  DeviceArray<uint32_t> in = ToDevice(stream, host, device);
  DeviceArray<uint32_t> out(n, device);

  const uint32_t sum = Reduce(stream, in.data(), n, uint32_t{0},
                              [](uint32_t a, uint32_t b) { return a + b; });
  InclusiveScan(stream, in.data(), out.data(), n,
                [](uint32_t a, uint32_t b) { return a + b; });
  RadixSortKeys(stream, in.data(), n);
  const size_t kept = CopyIf(stream, in.data(), n, out.data(),
                             [](uint32_t v) { return (v & 1) == 0; });
  // Fold results into the timeline via a transfer so they cannot be DCE'd.
  EXPECT_GT(sum, 0u);
  EXPECT_GT(kept, 0u);
  return stream.now_ns();
}

TEST(TimingInvarianceTest, SimulatedTimeIdenticalColdAndWarmPool) {
  Device device;
  const auto before = device.Snapshot();
  const uint64_t cold = RunPrimitiveSequence(device);
  const auto mid = device.Snapshot();
  const uint64_t warm = RunPrimitiveSequence(device);
  const auto after = device.Snapshot();

  // The second run reuses the first run's scratch blocks...
  EXPECT_GT(after.pool_hits - mid.pool_hits, 0u);
  EXPECT_GT(mid.pool_misses - before.pool_misses, 0u);
  // ...but its simulated timeline is bit-identical: the pool is invisible to
  // the cost model.
  EXPECT_EQ(cold, warm);
}

TEST(TimingInvarianceTest, CountersDeltaIdenticalColdAndWarmPool) {
  Device device;
  const auto s0 = device.Snapshot();
  RunPrimitiveSequence(device);
  const auto s1 = device.Snapshot();
  RunPrimitiveSequence(device);
  const auto s2 = device.Snapshot();

  const auto cold = s1.Delta(s0);
  const auto warm = s2.Delta(s1);
  EXPECT_EQ(cold.kernels_launched, warm.kernels_launched);
  EXPECT_EQ(cold.bytes_read, warm.bytes_read);
  EXPECT_EQ(cold.bytes_written, warm.bytes_written);
  EXPECT_EQ(cold.simulated_ns, warm.simulated_ns);
  EXPECT_EQ(cold.allocations, warm.allocations);
}

TEST(TimingInvarianceTest, TrimmedPoolDoesNotChangeSimulatedTime) {
  Device device;
  const uint64_t t1 = RunPrimitiveSequence(device);
  device.TrimPool();
  const uint64_t t2 = RunPrimitiveSequence(device);
  EXPECT_EQ(t1, t2);
}

TEST(TimingInvarianceTest, SimulatedTimeIdenticalSerialAndConcurrentStreams) {
  // The multi-submitter thread pool lets several streams execute kernels on
  // the device at once, but each stream's simulated timeline must be a pure
  // function of its own command sequence: the golden value from a serial
  // run must reappear bit-identically on every concurrently-running stream,
  // under any host interleaving.
  Device device(DeviceProperties(), /*host_threads=*/4);
  const uint64_t golden = RunPrimitiveSequence(device);

  const unsigned kStreams = 4;
  std::vector<uint64_t> concurrent(kStreams, 0);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kStreams; ++t) {
    threads.emplace_back(
        [&, t] { concurrent[t] = RunPrimitiveSequence(device); });
  }
  for (auto& th : threads) th.join();

  for (unsigned t = 0; t < kStreams; ++t) {
    EXPECT_EQ(concurrent[t], golden) << "stream on host thread " << t;
  }
}

}  // namespace
}  // namespace gpusim
