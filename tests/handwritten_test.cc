// Tests of the handwritten expert kernels: fused selection, hash join,
// hash grouped aggregation, nested-loops join.
#include "handwritten/handwritten.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <random>
#include <vector>

namespace {

class HandwrittenTest : public ::testing::Test {
 protected:
  HandwrittenTest()
      : stream_(gpusim::Device::Default(), gpusim::ApiProfile::Cuda()) {}
  gpusim::Stream stream_;
};

TEST_F(HandwrittenTest, SelectIndicesFindsAllMatchesInOneKernel) {
  std::vector<int32_t> host(10000);
  std::mt19937 rng(11);
  for (auto& v : host) v = static_cast<int32_t>(rng() % 100);
  auto col = gpusim::ToDevice(stream_, host);
  gpusim::DeviceArray<uint32_t> out(host.size(), stream_.device());

  const auto before = stream_.device().Snapshot();
  const size_t count =
      handwritten::SelectIndices(stream_, col.data(), host.size(), out.data(),
                                 [](int32_t v) { return v < 10; });
  const auto delta = stream_.device().Snapshot().Delta(before);
  // memset + the fused kernel: no scan, no second pass over the data.
  EXPECT_LE(delta.kernels_launched, 2u);

  std::vector<uint32_t> got = gpusim::ToHost(stream_, out);
  got.resize(count);
  std::sort(got.begin(), got.end());
  std::vector<uint32_t> expected;
  for (uint32_t i = 0; i < host.size(); ++i) {
    if (host[i] < 10) expected.push_back(i);
  }
  EXPECT_EQ(got, expected);
}

TEST_F(HandwrittenTest, SelectIndicesEmptyAndFullSelectivity) {
  std::vector<int32_t> host{1, 2, 3};
  auto col = gpusim::ToDevice(stream_, host);
  gpusim::DeviceArray<uint32_t> out(3, stream_.device());
  EXPECT_EQ(handwritten::SelectIndices(stream_, col.data(), 3, out.data(),
                                       [](int32_t) { return false; }),
            0u);
  EXPECT_EQ(handwritten::SelectIndices(stream_, col.data(), 3, out.data(),
                                       [](int32_t) { return true; }),
            3u);
}

TEST_F(HandwrittenTest, FusedFilterSumMatchesReference) {
  std::vector<double> vals(5000);
  std::vector<int32_t> filt(5000);
  std::mt19937 rng(5);
  double expected = 0;
  for (size_t i = 0; i < vals.size(); ++i) {
    vals[i] = (rng() % 1000) / 10.0;
    filt[i] = static_cast<int32_t>(rng() % 4);
    if (filt[i] == 0) expected += vals[i];
  }
  auto dv = gpusim::ToDevice(stream_, vals);
  auto df = gpusim::ToDevice(stream_, filt);
  const double* v = dv.data();
  const int32_t* f = df.data();
  const double got = handwritten::FusedFilterSum<double>(
      stream_, vals.size(), [=](size_t i) { return f[i] == 0; },
      [=](size_t i) { return v[i]; }, sizeof(double) + sizeof(int32_t));
  EXPECT_DOUBLE_EQ(got, expected);
}

TEST_F(HandwrittenTest, FusedFilterSumEmpty) {
  EXPECT_EQ(handwritten::FusedFilterSum<double>(
                stream_, 0, [](size_t) { return true; },
                [](size_t) { return 1.0; }, 8),
            0.0);
}

TEST_F(HandwrittenTest, HashJoinPkFkMatchesReference) {
  const size_t n_build = 1000;
  const size_t n_probe = 5000;
  std::vector<int32_t> build(n_build);
  for (size_t i = 0; i < n_build; ++i) build[i] = static_cast<int32_t>(i * 3);
  std::mt19937 rng(17);
  std::vector<int32_t> probe(n_probe);
  for (auto& k : probe) k = static_cast<int32_t>(rng() % (n_build * 4));

  auto db = gpusim::ToDevice(stream_, build);
  auto dp = gpusim::ToDevice(stream_, probe);
  handwritten::HashJoin<int32_t> table(stream_, db.data(), n_build);
  gpusim::DeviceArray<uint32_t> build_rows(n_probe, stream_.device());
  gpusim::DeviceArray<uint32_t> probe_rows(n_probe, stream_.device());
  const size_t count =
      table.Probe(dp.data(), n_probe, build_rows.data(), probe_rows.data());

  // Reference join.
  std::map<int32_t, uint32_t> build_index;
  for (uint32_t i = 0; i < n_build; ++i) build_index[build[i]] = i;
  std::vector<std::pair<uint32_t, uint32_t>> expected;
  for (uint32_t i = 0; i < n_probe; ++i) {
    auto it = build_index.find(probe[i]);
    if (it != build_index.end()) expected.push_back({it->second, i});
  }

  auto gb = gpusim::ToHost(stream_, build_rows);
  auto gp = gpusim::ToHost(stream_, probe_rows);
  std::vector<std::pair<uint32_t, uint32_t>> got;
  for (size_t i = 0; i < count; ++i) got.push_back({gb[i], gp[i]});
  std::sort(got.begin(), got.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(got, expected);
}

TEST_F(HandwrittenTest, HashJoinNoMatches) {
  std::vector<int32_t> build{1, 2, 3};
  std::vector<int32_t> probe{10, 20};
  auto db = gpusim::ToDevice(stream_, build);
  auto dp = gpusim::ToDevice(stream_, probe);
  handwritten::HashJoin<int32_t> table(stream_, db.data(), build.size());
  gpusim::DeviceArray<uint32_t> br(2, stream_.device());
  gpusim::DeviceArray<uint32_t> pr(2, stream_.device());
  EXPECT_EQ(table.Probe(dp.data(), 2, br.data(), pr.data()), 0u);
}

TEST_F(HandwrittenTest, HashJoinCapacityIsPowerOfTwoAndRoomy) {
  std::vector<int32_t> build(100);
  for (int i = 0; i < 100; ++i) build[i] = i;
  auto db = gpusim::ToDevice(stream_, build);
  handwritten::HashJoin<int32_t> table(stream_, db.data(), 100);
  EXPECT_GE(table.capacity(), 200u);
  EXPECT_EQ(table.capacity() & (table.capacity() - 1), 0u);
}

TEST_F(HandwrittenTest, HashGroupBySumMatchesReference) {
  const size_t n = 20000;
  std::mt19937 rng(23);
  std::vector<int32_t> keys(n);
  std::vector<double> vals(n);
  std::map<int32_t, double> ref_sum;
  std::map<int32_t, uint64_t> ref_count;
  for (size_t i = 0; i < n; ++i) {
    keys[i] = static_cast<int32_t>(rng() % 64);
    vals[i] = static_cast<double>(rng() % 100);
    ref_sum[keys[i]] += vals[i];
    ++ref_count[keys[i]];
  }
  auto dk = gpusim::ToDevice(stream_, keys);
  auto dv = gpusim::ToDevice(stream_, vals);
  auto grouped =
      handwritten::HashGroupBySum(stream_, dk.data(), dv.data(), n);
  ASSERT_EQ(grouped.num_groups, ref_sum.size());
  auto gk = gpusim::ToHost(stream_, grouped.keys);
  auto gs = gpusim::ToHost(stream_, grouped.sums);
  auto gc = gpusim::ToHost(stream_, grouped.counts);
  for (size_t i = 0; i < grouped.num_groups; ++i) {
    ASSERT_TRUE(ref_sum.count(gk[i])) << gk[i];
    EXPECT_DOUBLE_EQ(gs[i], ref_sum[gk[i]]);
    EXPECT_EQ(gc[i], ref_count[gk[i]]);
  }
}

TEST_F(HandwrittenTest, HashGroupBySumPlacesProbesThatLeaveTheirRegion) {
  // Keys whose probe runs past the end of their merge region are placed
  // after every region is merged: here the fold and merge launches run
  // directly into a table of a chosen capacity, and two keys share the last
  // home slot of a region, at the table's end (16 slots, one region) and at
  // the boundary of a two-region table (32768 slots), where the next
  // region's first slot is also taken.
  using Partials = handwritten::detail::TilePartials<int32_t, double>;
  const auto keys_with_home = [](size_t capacity, size_t home, int count) {
    std::vector<int32_t> out;
    for (int32_t k = 0; static_cast<int>(out.size()) < count; ++k) {
      if (handwritten::detail::HomeSlot(handwritten::detail::GroupHash(k),
                                        capacity) == home) {
        out.push_back(k);
      }
    }
    return out;
  };
  struct Case {
    size_t capacity;
    std::vector<int32_t> distinct;
  };
  std::vector<Case> cases(2);
  cases[0].capacity = 16;
  cases[0].distinct = keys_with_home(16, 15, 3);
  for (const int32_t k : keys_with_home(16, 0, 2)) {
    cases[0].distinct.push_back(k);
  }
  cases[1].capacity = 32768;
  ASSERT_EQ(handwritten::detail::NumMergeRegions(32768), 2u);
  cases[1].distinct = keys_with_home(32768, 16383, 2);
  for (const int32_t k : keys_with_home(32768, 16384, 1)) {
    cases[1].distinct.push_back(k);
  }
  for (const Case& c : cases) {
    SCOPED_TRACE(testing::Message() << c.capacity << " slots");
    std::vector<int32_t> keys;
    std::vector<double> vals;
    std::map<int32_t, double> ref_sum;
    std::map<int32_t, uint64_t> ref_count;
    for (int rep = 0; rep < 9000; ++rep) {
      const int32_t k = c.distinct[rep % c.distinct.size()];
      keys.push_back(k);
      vals.push_back(rep * 0.5);
      ref_sum[k] += rep * 0.5;
      ++ref_count[k];
    }
    auto dk = gpusim::ToDevice(stream_, keys);
    auto dv = gpusim::ToDevice(stream_, vals);
    gpusim::DeviceArray<uint32_t> counter(1, stream_.device());
    gpusim::MemsetDevice(stream_, counter.data(), 0, sizeof(uint32_t));
    const Partials partials = handwritten::detail::FoldTiles(
        stream_, gpusim::KernelStats(), dk.data(), dv.data(), keys.size(),
        [](double a, double b) { return a + b; }, counter.data());
    EXPECT_EQ(gpusim::ToHost(stream_, counter)[0],
              partials.num_tiles * c.distinct.size());

    std::vector<int32_t> table(c.capacity,
                               std::numeric_limits<int32_t>::max());
    std::vector<double> sums(c.capacity, 0.0);
    std::vector<uint64_t> counts(c.capacity, 0);
    handwritten::detail::MergeTiles(
        stream_, gpusim::KernelStats(), partials, table.data(), c.capacity,
        [&](size_t slot, const Partials::Entry& e) {
          sums[slot] += e.value;
          counts[slot] += e.count;
        });
    std::map<int32_t, double> got_sum;
    for (size_t slot = 0; slot < c.capacity; ++slot) {
      if (table[slot] == std::numeric_limits<int32_t>::max()) continue;
      ASSERT_TRUE(ref_sum.count(table[slot])) << table[slot];
      EXPECT_FALSE(got_sum.count(table[slot]))
          << "key " << table[slot] << " twice";
      got_sum[table[slot]] = sums[slot];
      EXPECT_EQ(counts[slot], ref_count[table[slot]]);
    }
    EXPECT_EQ(got_sum, ref_sum);
  }
}

TEST_F(HandwrittenTest, HashGroupByReduceSizesItsTableFromTheGroups) {
  // 4 groups over 300k rows: an input-sized table would have 1M slots, and
  // filling its 4-byte keys alone writes 4 MiB. The table sized from the
  // tile partials stays far below that, in bytes written and in peak
  // device memory.
  constexpr size_t kRows = 300'000;
  constexpr uint64_t kInputSizedKeyBytes = (size_t{1} << 20) * sizeof(int32_t);
  gpusim::Device device(gpusim::DeviceProperties(), 2);
  gpusim::Stream stream(device, gpusim::ApiProfile::Cuda());
  std::vector<int32_t> keys(kRows);
  std::vector<double> vals(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    keys[i] = static_cast<int32_t>(i % 4);
    vals[i] = static_cast<double>(i % 7);
  }
  auto dk = gpusim::ToDevice(stream, keys, device);
  auto dv = gpusim::ToDevice(stream, vals, device);
  const auto before = device.Snapshot();
  auto grouped = handwritten::HashGroupByReduce(
      stream, dk.data(), dv.data(), kRows, 0.0,
      [](double a, double b) { return a + b; });
  const auto after = device.Snapshot();
  EXPECT_EQ(grouped.num_groups, 4u);
  EXPECT_LT(after.Delta(before).bytes_written, kInputSizedKeyBytes);
  EXPECT_LT(after.peak_bytes - before.peak_bytes, kInputSizedKeyBytes);
}

TEST_F(HandwrittenTest, HashGroupByReduceMinMax) {
  std::vector<int32_t> keys{1, 2, 1, 2, 1};
  std::vector<double> vals{5, 9, -1, 3, 7};
  auto dk = gpusim::ToDevice(stream_, keys);
  auto dv = gpusim::ToDevice(stream_, vals);
  auto mins = handwritten::HashGroupByReduce(
      stream_, dk.data(), dv.data(), keys.size(),
      std::numeric_limits<double>::max(),
      [](double a, double b) { return b < a ? b : a; });
  ASSERT_EQ(mins.num_groups, 2u);
  auto gk = gpusim::ToHost(stream_, mins.keys);
  auto gv = gpusim::ToHost(stream_, mins.sums);
  std::map<int32_t, double> got;
  for (size_t i = 0; i < 2; ++i) got[gk[i]] = gv[i];
  EXPECT_DOUBLE_EQ(got[1], -1.0);
  EXPECT_DOUBLE_EQ(got[2], 3.0);
}

TEST_F(HandwrittenTest, NestedLoopsJoinHandlesDuplicates) {
  std::vector<int32_t> outer{1, 2, 3};
  std::vector<int32_t> inner{2, 1, 2, 9, 1};
  auto douter = gpusim::ToDevice(stream_, outer);
  auto dinner = gpusim::ToDevice(stream_, inner);
  gpusim::DeviceArray<uint32_t> orows, irows;
  const size_t count = handwritten::NestedLoopsJoin(
      stream_, douter.data(), outer.size(), dinner.data(), inner.size(),
      &orows, &irows);
  ASSERT_EQ(count, 4u);
  const auto go = gpusim::ToHost(stream_, orows);
  const auto gi = gpusim::ToHost(stream_, irows);
  std::vector<std::pair<uint32_t, uint32_t>> got;
  for (size_t i = 0; i < count; ++i) got.push_back({go[i], gi[i]});
  std::sort(got.begin(), got.end());
  const std::vector<std::pair<uint32_t, uint32_t>> expected{
      {0, 1}, {0, 4}, {1, 0}, {1, 2}};
  EXPECT_EQ(got, expected);
}

TEST_F(HandwrittenTest, HashJoinUsesFarFewerSimulatedCyclesThanNlj) {
  // The paper's headline: libraries lack hashing, so their joins pay
  // O(n^2); the handwritten hash join is O(n). Verify the cost model sees
  // that on the same data.
  const size_t n = 4096;
  std::vector<int32_t> build(n);
  for (size_t i = 0; i < n; ++i) build[i] = static_cast<int32_t>(i);
  std::vector<int32_t> probe(build);
  auto db = gpusim::ToDevice(stream_, build);
  auto dp = gpusim::ToDevice(stream_, probe);

  gpusim::Stream nlj_stream(stream_.device(), gpusim::ApiProfile::Cuda());
  gpusim::DeviceArray<uint32_t> orows, irows;
  handwritten::NestedLoopsJoin(nlj_stream, db.data(), n, dp.data(), n, &orows,
                               &irows);

  gpusim::Stream hash_stream(stream_.device(), gpusim::ApiProfile::Cuda());
  handwritten::HashJoin<int32_t> table(hash_stream, db.data(), n);
  gpusim::DeviceArray<uint32_t> br(n, stream_.device());
  gpusim::DeviceArray<uint32_t> pr(n, stream_.device());
  table.Probe(dp.data(), n, br.data(), pr.data());

  EXPECT_GT(nlj_stream.now_ns(), 10 * hash_stream.now_ns());
}

}  // namespace
