// Handwritten "expert" kernels — the baseline the paper compares libraries
// against, and the realization of the operators no library supports
// (hashing: hash join, hash-based grouped aggregation).
//
// These kernels are fused: selection emits its result in ONE kernel (atomic
// ticketing, realized by gpusim::OrderedAppend so the row ids come out in
// row order) instead of the library's transform + scan + gather pipeline;
// filter+aggregate queries run as a single pass; joins and grouping use
// open-addressing hash tables. The join table is built with device atomics.
// Grouping aggregates each tile privately in one launch, reads back the
// number of tile partials, and merges the tiles in tile order into a table
// sized from that count, not from the input; group placement and every
// float sum repeat bit for bit on any host pool.
#ifndef HANDWRITTEN_HANDWRITTEN_H_
#define HANDWRITTEN_HANDWRITTEN_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include "gpusim/algorithms.h"
#include "gpusim/atomic_ops.h"
#include "gpusim/kernel.h"
#include "gpusim/memory.h"

namespace handwritten {

/// The default stream used by handwritten kernels (CUDA profile).
inline gpusim::Stream& default_stream() {
  static gpusim::Stream* stream =
      new gpusim::Stream(gpusim::Device::Default(), gpusim::ApiProfile::Cuda());
  return *stream;
}

namespace detail {
inline size_t NextPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// Finalizer mixing for hash tables (Murmur3).
inline uint64_t MixHash(uint64_t k) {
  k ^= k >> 33;
  k *= 0xff51afd7ed558ccdULL;
  k ^= k >> 33;
  k *= 0xc4ceb9fe1a85ec53ULL;
  k ^= k >> 33;
  return k;
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Fused selection
// ---------------------------------------------------------------------------

/// Single-kernel selection: writes the row ids of all rows satisfying
/// pred(col[i]) into out_indices via an atomic ticket counter and returns the
/// match count. One kernel and one counter readback (a trade the hand-tuned
/// kernel makes that libraries cannot); the row ids are in ascending order.
template <typename T, typename Pred>
size_t SelectIndices(gpusim::Stream& stream, const T* col, size_t n,
                     uint32_t* out_indices, Pred pred) {
  gpusim::DeviceArray<uint32_t> counter(1, stream.device());
  gpusim::MemsetDevice(stream, counter.data(), 0, sizeof(uint32_t));
  gpusim::KernelStats stats;
  stats.name = "hw::select_fused";
  stats.bytes_read = n * sizeof(T);
  stats.bytes_written = n * sizeof(uint32_t);  // upper bound
  gpusim::OrderedAppend(
      stream, n, stats, counter.data(),
      [=](size_t i, size_t slot) {
        if (!pred(col[i])) return false;
        out_indices[slot] = static_cast<uint32_t>(i);
        return true;
      },
      [=](size_t from, size_t to) { out_indices[to] = out_indices[from]; });
  uint32_t count = 0;
  gpusim::CopyDeviceToHost(stream, &count, counter.data(), sizeof(uint32_t));
  return count;
}

/// Single-pass fused filter + aggregate: sum of value(i) over rows where
/// pred(i), computed with per-block partials and a tree reduction (no
/// intermediate materialization at all). `bytes_per_row` should account for
/// every column the two callbacks read.
template <typename Acc, typename Pred, typename Value>
Acc FusedFilterSum(gpusim::Stream& stream, size_t n, Pred pred, Value value,
                   uint64_t bytes_per_row) {
  if (n == 0) return Acc{};
  gpusim::Device& device = stream.device();
  const size_t num_tiles = (n + gpusim::kTileSize - 1) / gpusim::kTileSize;
  gpusim::DeviceArray<Acc> partials(num_tiles, device);
  gpusim::KernelStats stats;
  stats.name = "hw::fused_filter_sum";
  stats.bytes_read = n * bytes_per_row;
  stats.bytes_written = num_tiles * sizeof(Acc);
  stats.ops = 2 * n;
  Acc* p = partials.data();
  gpusim::LaunchBlocks(stream, num_tiles, gpusim::kDefaultBlockSize, stats,
                       [=](const gpusim::BlockContext& ctx) {
                         const size_t begin = ctx.block_id * gpusim::kTileSize;
                         const size_t end =
                             std::min(begin + gpusim::kTileSize, n);
                         Acc acc{};
                         for (size_t i = begin; i < end; ++i) {
                           if (pred(i)) acc += value(i);
                         }
                         p[ctx.block_id] = acc;
                       });
  return gpusim::Reduce(stream, partials.data(), num_tiles, Acc{},
                        [](Acc a, Acc b) { return a + b; },
                        "hw::fused_filter_sum_final");
}

// ---------------------------------------------------------------------------
// Hash join (the primitive the paper found missing from every library)
// ---------------------------------------------------------------------------

/// Open-addressing hash table over device memory for a unique (PK) build
/// side. Key slots start at the empty sentinel (numeric_limits<K>::max());
/// keys must not equal the sentinel.
template <typename K>
class HashJoin {
 public:
  /// Builds the table from build_keys (one kernel, atomic CAS insertion).
  HashJoin(gpusim::Stream& stream, const K* build_keys, size_t n)
      : stream_(stream),
        capacity_(detail::NextPow2(n < 8 ? 16 : 2 * n)),
        keys_(capacity_, stream.device()),
        rows_(capacity_, stream.device()) {
    gpusim::Fill(stream, keys_.data(), capacity_, kEmpty);
    gpusim::KernelStats stats;
    stats.name = "hw::hash_build";
    stats.bytes_read = n * sizeof(K);
    stats.bytes_written = n * (sizeof(K) + sizeof(uint32_t));
    stats.ops = 2 * n;
    K* table_keys = keys_.data();
    uint32_t* table_rows = rows_.data();
    const size_t mask = capacity_ - 1;
    gpusim::ParallelFor(stream, n, stats, [=](size_t i) {
      const K key = build_keys[i];
      size_t slot = detail::MixHash(static_cast<uint64_t>(key)) & mask;
      while (true) {
        const K prev = gpusim::AtomicCas(&table_keys[slot], kEmpty, key);
        if (prev == kEmpty) {
          table_rows[slot] = static_cast<uint32_t>(i);
          return;
        }
        if (prev == key) return;  // duplicate PK: keep first
        slot = (slot + 1) & mask;
      }
    });
  }

  /// Probes with probe_keys; appends (build_row, probe_row) pairs for every
  /// match via an atomic ticket, in probe-row order. out_* must have room for
  /// probe n entries (PK side is unique, so each probe row matches at most
  /// once). Returns the number of result pairs.
  size_t Probe(const K* probe_keys, size_t n, uint32_t* out_build_rows,
               uint32_t* out_probe_rows) const {
    gpusim::DeviceArray<uint32_t> counter(1, stream_.device());
    gpusim::MemsetDevice(stream_, counter.data(), 0, sizeof(uint32_t));
    gpusim::KernelStats stats;
    stats.name = "hw::hash_probe";
    stats.bytes_read = n * (sizeof(K) + sizeof(K) + sizeof(uint32_t));
    stats.bytes_written = n * 2 * sizeof(uint32_t);
    stats.ops = 3 * n;
    const K* table_keys = keys_.data();
    const uint32_t* table_rows = rows_.data();
    const size_t mask = capacity_ - 1;
    gpusim::OrderedAppend(
        stream_, n, stats, counter.data(),
        [=](size_t i, size_t out) {
          const K key = probe_keys[i];
          size_t slot = detail::MixHash(static_cast<uint64_t>(key)) & mask;
          while (true) {
            const K stored = table_keys[slot];
            if (stored == kEmpty) return false;  // no match
            if (stored == key) {
              out_build_rows[out] = table_rows[slot];
              out_probe_rows[out] = static_cast<uint32_t>(i);
              return true;
            }
            slot = (slot + 1) & mask;
          }
        },
        [=](size_t from, size_t to) {
          out_build_rows[to] = out_build_rows[from];
          out_probe_rows[to] = out_probe_rows[from];
        });
    uint32_t count = 0;
    gpusim::CopyDeviceToHost(stream_, &count, counter.data(),
                             sizeof(uint32_t));
    return count;
  }

  size_t capacity() const { return capacity_; }

 private:
  static constexpr K kEmpty = std::numeric_limits<K>::max();

  gpusim::Stream& stream_;
  size_t capacity_;
  gpusim::DeviceArray<K> keys_;
  gpusim::DeviceArray<uint32_t> rows_;
};

// ---------------------------------------------------------------------------
// Hash-based grouped aggregation
// ---------------------------------------------------------------------------

/// Result of HashGroupBySum: parallel arrays of group keys and aggregates.
template <typename K, typename V>
struct GroupedSums {
  gpusim::DeviceArray<K> keys;
  gpusim::DeviceArray<V> sums;
  gpusim::DeviceArray<uint64_t> counts;
  size_t num_groups = 0;
};

namespace detail {

/// A tile sorts its partials into 2^kBucketBits buckets by the top bits of
/// the key's hash. Home slots are top bits of the hash too, so at any table
/// capacity a merge region is a run of whole buckets.
inline constexpr int kBucketBits = 6;
inline constexpr size_t kNumBuckets = size_t{1} << kBucketBits;

/// The 32-bit hash of a group key: the top half of MixHash.
template <typename K>
uint32_t GroupHash(K key) {
  return static_cast<uint32_t>(MixHash(static_cast<uint64_t>(key)) >> 32);
}

/// Home slot of a group hash in a `capacity`-slot table (a power of two up
/// to 2^32): the hash's top log2(capacity) bits.
inline size_t HomeSlot(uint32_t hash, size_t capacity) {
  return static_cast<uint64_t>(hash) >> (32 - std::countr_zero(capacity));
}

/// Merge regions the slot space of a `capacity`-slot group table splits
/// into: enough for a parallel merge at high group counts, few enough that
/// each tile's partials of one region lie in long runs. Depends on the
/// capacity only.
inline size_t NumMergeRegions(size_t capacity) {
  return std::clamp<size_t>(capacity / 16384, 1, kNumBuckets);
}

/// What the fold launch of a hash aggregation leaves for the merge launch.
template <typename K, typename V>
struct TilePartials {
  /// One group of one tile: its rows folded in row order, and their count.
  struct Entry {
    K key;
    uint32_t count;
    V value;
  };
  size_t num_tiles = 0;
  /// Tile t's partials, grouped by bucket, start at
  /// entries[t * kCombineTileThreads]; bucket b's run of them starts
  /// bucket_begin[b * num_tiles + t] entries in and ends where bucket b + 1's
  /// starts.
  std::unique_ptr<Entry[]> entries;
  std::vector<uint32_t> bucket_begin;
};

/// The fold launch of a hash aggregation over `n` rows. Each fixed
/// gpusim::kCombineTileThreads tile folds its rows into a private table in
/// row order, value = op(value, values[i]) from the group's first row on,
/// counts each group's rows, and lists its partials grouped by bucket. Each
/// tile adds its partial count to `*counter`, so the launch leaves U, the
/// number of partials, there: U bounds the group count and does not depend
/// on the host pool.
template <typename K, typename V, typename Op>
TilePartials<K, V> FoldTiles(gpusim::Stream& stream,
                             const gpusim::KernelStats& stats, const K* keys,
                             const V* values, size_t n, Op op,
                             uint32_t* counter) {
  using Entry = typename TilePartials<K, V>::Entry;
  constexpr uint16_t kNoEntry = std::numeric_limits<uint16_t>::max();
  static_assert(gpusim::kCombineTileThreads < kNoEntry,
                "a tile's entry indices must fit the private index");
  TilePartials<K, V> out;
  out.num_tiles = gpusim::NumCombineTiles(n);
  out.entries.reset(new Entry[n]);
  out.bucket_begin.resize((kNumBuckets + 1) * out.num_tiles);
  const size_t num_tiles = out.num_tiles;
  Entry* entries = out.entries.get();
  uint32_t* bucket_begin = out.bucket_begin.data();
  gpusim::LaunchBlocks(
      stream, num_tiles, gpusim::kCombineTileThreads, stats,
      [=](const gpusim::BlockContext& ctx) {
        const size_t t = ctx.block_id;
        const size_t begin = t * gpusim::kCombineTileThreads;
        const size_t end = std::min(begin + gpusim::kCombineTileThreads, n);
        // Scratch of one tile at a time, reused by each host thread: the
        // private table's index, and the partials and their buckets in
        // first-row order.
        thread_local std::vector<uint16_t> index_buffer;
        thread_local std::vector<Entry> scratch_buffer;
        thread_local std::vector<uint8_t> bucket_buffer;
        const size_t index_mask = NextPow2(2 * (end - begin)) - 1;
        index_buffer.assign(index_mask + 1, kNoEntry);
        scratch_buffer.resize(end - begin);
        bucket_buffer.resize(end - begin);
        uint16_t* index = index_buffer.data();
        Entry* scratch = scratch_buffer.data();
        uint8_t* bucket = bucket_buffer.data();
        uint16_t count = 0;
        for (size_t i = begin; i < end; ++i) {
          const K key = keys[i];
          const uint32_t hash = GroupHash(key);
          for (size_t p = hash & index_mask;; p = (p + 1) & index_mask) {
            const uint16_t e = index[p];
            if (e == kNoEntry) {
              index[p] = count;
              bucket[count] = static_cast<uint8_t>(hash >> (32 - kBucketBits));
              scratch[count++] = Entry{key, 1, values[i]};
              break;
            }
            if (scratch[e].key == key) {
              scratch[e].value = op(scratch[e].value, values[i]);
              ++scratch[e].count;
              break;
            }
          }
        }
        // Counting sort by bucket; first-row order is kept within a bucket.
        uint32_t cursor[kNumBuckets + 1] = {};
        for (uint16_t e = 0; e < count; ++e) ++cursor[bucket[e] + 1];
        for (size_t b = 0; b < kNumBuckets; ++b) {
          cursor[b + 1] += cursor[b];
          bucket_begin[b * num_tiles + t] = cursor[b];
        }
        bucket_begin[kNumBuckets * num_tiles + t] = count;
        Entry* tile_out = entries + begin;
        for (uint16_t e = 0; e < count; ++e) {
          tile_out[cursor[bucket[e]]++] = scratch[e];
        }
        gpusim::AtomicAdd(counter, static_cast<uint32_t>(count));
      });
  return out;
}

/// The merge launch of a hash aggregation: folds `partials` into the table
/// `table_keys` (`capacity` slots, a power of two, pre-filled with the
/// empty key). One block per merge region inserts the region's keys tile by
/// tile in tile order, probing only inside the region, and merge(slot,
/// entry) folds each partial into its slot. A key whose probe would leave
/// its region is deferred; deferred keys are placed after every region is
/// done, in region order. Slot placement and every fold order therefore
/// depend on the keys alone.
template <typename K, typename V, typename Merge>
void MergeTiles(gpusim::Stream& stream, const gpusim::KernelStats& stats,
                const TilePartials<K, V>& partials, K* table_keys,
                size_t capacity, Merge merge) {
  using Entry = typename TilePartials<K, V>::Entry;
  constexpr K kEmpty = std::numeric_limits<K>::max();
  const size_t num_regions = NumMergeRegions(capacity);
  const size_t region_slots = capacity / num_regions;
  const size_t buckets_per_region = kNumBuckets / num_regions;
  const size_t num_tiles = partials.num_tiles;
  std::vector<std::vector<Entry>> deferred(num_regions);

  gpusim::LaunchBlocks(
      stream, num_regions, gpusim::kDefaultBlockSize, stats,
      [&](const gpusim::BlockContext& ctx) {
        const size_t r = ctx.block_id;
        const size_t region_end = (r + 1) * region_slots;
        const uint32_t* run = partials.bucket_begin.data() +
                              r * buckets_per_region * num_tiles;
        const uint32_t* run_end = run + buckets_per_region * num_tiles;
        for (size_t t = 0; t < num_tiles; ++t) {
          const Entry* entries =
              &partials.entries[t * gpusim::kCombineTileThreads];
          for (uint32_t e = run[t]; e < run_end[t]; ++e) {
            const Entry& entry = entries[e];
            size_t slot = HomeSlot(GroupHash(entry.key), capacity);
            while (slot < region_end && table_keys[slot] != entry.key &&
                   table_keys[slot] != kEmpty) {
              ++slot;
            }
            if (slot == region_end) {
              deferred[r].push_back(entry);
              continue;
            }
            table_keys[slot] = entry.key;
            merge(slot, entry);
          }
        }
      });

  const size_t mask = capacity - 1;
  for (const std::vector<Entry>& region : deferred) {
    for (const Entry& entry : region) {
      size_t slot = HomeSlot(GroupHash(entry.key), capacity);
      while (table_keys[slot] != entry.key && table_keys[slot] != kEmpty) {
        slot = (slot + 1) & mask;
      }
      table_keys[slot] = entry.key;
      merge(slot, entry);
    }
  }
}

/// The hash aggregation HashGroupBySum and HashGroupByReduce run, sized
/// from the groups instead of the input:
///  1. the fold launch (FoldTiles), charged as `fold_stats`, counts the
///     tile partials U;
///  2. a 4-byte readback of U;
///  3. a table of NextPow2(max(16, 2U)) slots, keys empty and values at
///     `identity` (counts at 0 when `with_counts`);
///  4. the merge launch (MergeTiles);
///  5. one ordered compaction of the occupied slots (gpusim::OrderedAppend)
///     and a 4-byte readback of the group count.
/// Groups come out in slot order, which depends on the keys alone. Keys
/// must not equal numeric_limits<K>::max().
template <typename K, typename V, typename Op>
GroupedSums<K, V> HashGroupBy(gpusim::Stream& stream,
                              const gpusim::KernelStats& fold_stats,
                              const K* keys, const V* values, size_t n,
                              V identity, Op op, bool with_counts) {
  constexpr K kEmpty = std::numeric_limits<K>::max();
  gpusim::Device& device = stream.device();
  // counters[0] receives U, counters[1] the group count.
  gpusim::DeviceArray<uint32_t> counters(2, device);
  gpusim::MemsetDevice(stream, counters.data(), 0, 2 * sizeof(uint32_t));
  const TilePartials<K, V> partials =
      FoldTiles(stream, fold_stats, keys, values, n, op, counters.data());
  uint32_t u = 0;
  gpusim::CopyDeviceToHost(stream, &u, counters.data(), sizeof(uint32_t));

  const size_t capacity = NextPow2(std::max<size_t>(16, 2 * size_t{u}));
  const uint64_t acc_bytes = sizeof(V) + (with_counts ? sizeof(uint64_t) : 0);
  gpusim::DeviceArray<K> table_keys(capacity, device);
  gpusim::DeviceArray<V> table_vals(capacity, device);
  gpusim::DeviceArray<uint64_t> table_counts;
  gpusim::Fill(stream, table_keys.data(), capacity, kEmpty);
  gpusim::Fill(stream, table_vals.data(), capacity, identity);
  if (with_counts) {
    table_counts = gpusim::DeviceArray<uint64_t>(capacity, device);
    gpusim::Fill(stream, table_counts.data(), capacity, uint64_t{0});
  }
  K* tk = table_keys.data();
  V* tv = table_vals.data();
  uint64_t* tc = with_counts ? table_counts.data() : nullptr;
  {
    gpusim::KernelStats stats;
    stats.name = "hw::group_merge";
    stats.bytes_read = 2 * uint64_t{u} * (sizeof(K) + acc_bytes);
    stats.bytes_written = uint64_t{u} * (sizeof(K) + acc_bytes);
    stats.ops = 4 * uint64_t{u};
    MergeTiles(stream, stats, partials, tk, capacity,
               [=](size_t slot, const typename TilePartials<K, V>::Entry& e) {
                 tv[slot] = op(tv[slot], e.value);
                 if (tc != nullptr) tc[slot] += e.count;
               });
  }

  GroupedSums<K, V> out;
  out.keys = gpusim::DeviceArray<K>(capacity, device);
  out.sums = gpusim::DeviceArray<V>(capacity, device);
  if (with_counts) out.counts = gpusim::DeviceArray<uint64_t>(capacity, device);
  K* ok = out.keys.data();
  V* os = out.sums.data();
  uint64_t* oc = with_counts ? out.counts.data() : nullptr;
  {
    // U bounds the group count, so the accumulator reads and all writes are
    // declared at U groups.
    gpusim::KernelStats stats;
    stats.name = "hw::group_compact";
    stats.bytes_read = capacity * sizeof(K) + uint64_t{u} * acc_bytes;
    stats.bytes_written = uint64_t{u} * (sizeof(K) + acc_bytes);
    gpusim::OrderedAppend(
        stream, capacity, stats, counters.data() + 1,
        [=](size_t i, size_t slot) {
          if (tk[i] == kEmpty) return false;
          ok[slot] = tk[i];
          os[slot] = tv[i];
          if (oc != nullptr) oc[slot] = tc[i];
          return true;
        },
        [=](size_t from, size_t to) {
          ok[to] = ok[from];
          os[to] = os[from];
          if (oc != nullptr) oc[to] = oc[from];
        });
  }
  uint32_t num_groups = 0;
  gpusim::CopyDeviceToHost(stream, &num_groups, counters.data() + 1,
                           sizeof(uint32_t));
  out.num_groups = num_groups;
  return out;
}

}  // namespace detail

/// One-pass grouped sum+count into an open-addressing hash table sized from
/// the groups (detail::HashGroupBy). Contrast with the libraries' only
/// option: sort_by_key + reduce_by_key (Table II). Groups come out in slot
/// order, which depends on the keys alone. Keys must not equal
/// numeric_limits<K>::max().
template <typename K, typename V>
GroupedSums<K, V> HashGroupBySum(gpusim::Stream& stream, const K* keys,
                                 const V* values, size_t n) {
  gpusim::KernelStats stats;
  stats.name = "hw::hash_group_by";
  stats.bytes_read = n * (sizeof(K) + sizeof(V));
  stats.bytes_written = n * (sizeof(V) + sizeof(uint64_t));
  stats.ops = 4 * n;
  return detail::HashGroupBy(stream, stats, keys, values, n, V{},
                             [](V a, V b) { return static_cast<V>(a + b); },
                             /*with_counts=*/true);
}

/// Generic one-pass hash grouped reduction (sum/min/max with the matching
/// identity): HashGroupBySum's sequence with a caller-provided associative
/// combine and no counts. Returns compacted (keys, values).
template <typename K, typename V, typename BinOp>
GroupedSums<K, V> HashGroupByReduce(gpusim::Stream& stream, const K* keys,
                                    const V* values, size_t n, V identity,
                                    BinOp op) {
  gpusim::KernelStats stats;
  stats.name = "hw::hash_group_reduce";
  stats.bytes_read = n * (sizeof(K) + sizeof(V));
  stats.bytes_written = n * sizeof(V);
  stats.ops = 4 * n;
  return detail::HashGroupBy(stream, stats, keys, values, n, identity, op,
                             /*with_counts=*/false);
}

// ---------------------------------------------------------------------------
// Nested-loops join (for completeness; what the libraries are forced to do)
// ---------------------------------------------------------------------------

/// Count-then-fill nested-loops equi-join: one kernel counting matches per
/// outer row, a prefix sum over the counts, and one kernel writing pairs.
/// Deterministic output order; O(|R|*|S|) work. Returns the pair count.
template <typename K>
size_t NestedLoopsJoin(gpusim::Stream& stream, const K* outer, size_t n_outer,
                       const K* inner, size_t n_inner,
                       gpusim::DeviceArray<uint32_t>* out_outer_rows,
                       gpusim::DeviceArray<uint32_t>* out_inner_rows) {
  gpusim::Device& device = stream.device();
  if (n_outer == 0 || n_inner == 0) {
    *out_outer_rows = gpusim::DeviceArray<uint32_t>(0, device);
    *out_inner_rows = gpusim::DeviceArray<uint32_t>(0, device);
    return 0;
  }
  gpusim::DeviceArray<uint32_t> counts(n_outer, device);
  gpusim::DeviceArray<uint32_t> offsets(n_outer, device);
  {
    gpusim::KernelStats stats;
    stats.name = "hw::nlj_count";
    stats.bytes_read =
        n_outer * sizeof(K) +
        static_cast<uint64_t>(n_outer) * n_inner * sizeof(K);
    stats.bytes_written = n_outer * sizeof(uint32_t);
    stats.ops = static_cast<uint64_t>(n_outer) * n_inner;
    uint32_t* c = counts.data();
    gpusim::ParallelFor(stream, n_outer, stats, [=](size_t i) {
      const K key = outer[i];
      uint32_t matches = 0;
      for (size_t j = 0; j < n_inner; ++j) {
        if (inner[j] == key) ++matches;
      }
      c[i] = matches;
    });
  }
  gpusim::ExclusiveScan(stream, counts.data(), offsets.data(), n_outer,
                        uint32_t{0},
                        [](uint32_t a, uint32_t b) { return a + b; });
  uint32_t last_off = 0, last_count = 0;
  gpusim::CopyDeviceToHost(stream, &last_off, offsets.data() + (n_outer - 1),
                           sizeof(uint32_t));
  gpusim::CopyDeviceToHost(stream, &last_count, counts.data() + (n_outer - 1),
                           sizeof(uint32_t));
  const size_t total = last_off + last_count;

  *out_outer_rows = gpusim::DeviceArray<uint32_t>(total, device);
  *out_inner_rows = gpusim::DeviceArray<uint32_t>(total, device);
  {
    gpusim::KernelStats stats;
    stats.name = "hw::nlj_fill";
    stats.bytes_read =
        n_outer * (sizeof(K) + sizeof(uint32_t)) +
        static_cast<uint64_t>(n_outer) * n_inner * sizeof(K);
    stats.bytes_written = total * 2 * sizeof(uint32_t);
    stats.ops = static_cast<uint64_t>(n_outer) * n_inner;
    const uint32_t* off = offsets.data();
    uint32_t* oo = out_outer_rows->data();
    uint32_t* oi = out_inner_rows->data();
    gpusim::ParallelFor(stream, n_outer, stats, [=](size_t i) {
      const K key = outer[i];
      uint32_t w = off[i];
      for (size_t j = 0; j < n_inner; ++j) {
        if (inner[j] == key) {
          oo[w] = static_cast<uint32_t>(i);
          oi[w] = static_cast<uint32_t>(j);
          ++w;
        }
      }
    });
  }
  return total;
}

}  // namespace handwritten

#endif  // HANDWRITTEN_HANDWRITTEN_H_
