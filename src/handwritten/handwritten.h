// Handwritten "expert" kernels — the baseline the paper compares libraries
// against, and the realization of the operators no library supports
// (hashing: hash join, hash-based grouped aggregation).
//
// These kernels are fused: selection emits its result in ONE kernel (atomic
// ticketing, realized by gpusim::OrderedAppend so the row ids come out in
// row order) instead of the library's transform + scan + gather pipeline;
// filter+aggregate queries run as a single pass; joins and grouping use
// open-addressing hash tables. The join table is built with device atomics.
// Grouping aggregates each tile privately and then merges the tiles in tile
// order (gpusim::OrderedCombine), so group placement and every float sum
// repeat bit for bit on any host pool.
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

/// Most merge regions a group table's slot space splits into.
inline constexpr size_t kMaxMergeRegions = 64;

/// Merge regions the slot space of a `capacity`-slot group table splits
/// into: enough for a parallel merge at high group counts, few enough that
/// each tile's partials of one region lie in long runs. Depends on the
/// capacity only.
inline size_t NumMergeRegions(size_t capacity) {
  return std::clamp<size_t>(capacity / 16384, 1, kMaxMergeRegions);
}

/// The combine kernel of the hash aggregations, one gpusim::OrderedCombine
/// launch over `n` rows into the table `table_keys` (`capacity` slots, a
/// power of two, pre-filled with the empty key).
///
/// Each tile folds its rows into a private table in row order: start(i)
/// opens a key's partial at its first row and fold(acc, i) adds each later
/// row. The tile lists its partials grouped by the merge region of the key's
/// home slot. Then one task per region inserts its keys into the shared
/// table, tile by tile in tile order, probing only inside the region, and
/// merge(slot, acc) folds each partial into its slot. A key whose probe
/// would leave its region is deferred; deferred keys are placed after every
/// region is done, in region order. Slot placement and every fold order
/// therefore depend on the input alone.
template <typename K, typename Acc, typename Start, typename Fold,
          typename Merge>
void OrderedHashCombine(gpusim::Stream& stream,
                        const gpusim::KernelStats& stats, const K* keys,
                        size_t n, K* table_keys, size_t capacity, Start start,
                        Fold fold, Merge merge) {
  constexpr K kEmpty = std::numeric_limits<K>::max();
  constexpr uint16_t kNoEntry = std::numeric_limits<uint16_t>::max();
  static_assert(gpusim::kCombineTileThreads < kNoEntry,
                "a tile's entry indices must fit the private index");
  const size_t mask = capacity - 1;
  const size_t num_regions = NumMergeRegions(capacity);
  // Both counts are powers of two, so a region is a run of 2^shift slots.
  const int region_shift = std::countr_zero(capacity / num_regions);

  // Home slots are stored in 32 bits: tables stay below 2^32 slots, as row
  // ids stay below 2^32 rows.
  struct Entry {
    K key;
    uint32_t home;
    Acc acc;
  };
  // Tile t's partials lie at partials[t * kCombineTileThreads...], grouped
  // by region; region r's run of them starts run_begin[r * num_tiles + t]
  // entries in and ends where region r + 1's starts.
  const size_t num_tiles = gpusim::NumCombineTiles(n);
  const std::unique_ptr<Entry[]> partials(new Entry[n]);
  std::vector<uint32_t> run_begin((num_regions + 1) * num_tiles);
  std::vector<std::vector<Entry>> deferred(num_regions);

  gpusim::OrderedCombine(
      stream, n, stats,
      [&](size_t t, size_t begin, size_t end) {
        // Scratch of one tile at a time, reused by each host thread: the
        // private table's index, and the partials in first-row order.
        thread_local std::vector<uint16_t> index_buffer;
        thread_local std::vector<Entry> scratch_buffer;
        const size_t index_mask = NextPow2(2 * (end - begin)) - 1;
        index_buffer.assign(index_mask + 1, kNoEntry);
        scratch_buffer.resize(end - begin);
        uint16_t* index = index_buffer.data();
        Entry* scratch = scratch_buffer.data();
        uint16_t count = 0;
        for (size_t i = begin; i < end; ++i) {
          const K key = keys[i];
          const uint64_t h = MixHash(static_cast<uint64_t>(key));
          for (size_t p = h & index_mask;; p = (p + 1) & index_mask) {
            const uint16_t e = index[p];
            if (e == kNoEntry) {
              index[p] = count;
              scratch[count++] =
                  Entry{key, static_cast<uint32_t>(h & mask), start(i)};
              break;
            }
            if (scratch[e].key == key) {
              fold(scratch[e].acc, i);
              break;
            }
          }
        }
        // Counting sort by region; first-row order is kept within a region.
        uint32_t cursor[kMaxMergeRegions + 1] = {};
        for (uint16_t e = 0; e < count; ++e) {
          ++cursor[(scratch[e].home >> region_shift) + 1];
        }
        for (size_t r = 0; r < num_regions; ++r) {
          cursor[r + 1] += cursor[r];
          run_begin[r * num_tiles + t] = cursor[r];
        }
        run_begin[num_regions * num_tiles + t] = count;
        Entry* out = &partials[t * gpusim::kCombineTileThreads];
        for (uint16_t e = 0; e < count; ++e) {
          out[cursor[scratch[e].home >> region_shift]++] = scratch[e];
        }
      },
      num_regions,
      [&](size_t r) {
        const size_t region_end = (r + 1) << region_shift;
        const uint32_t* run = &run_begin[r * num_tiles];
        const uint32_t* run_end = run + num_tiles;
        for (size_t t = 0; t < num_tiles; ++t) {
          const Entry* entries = &partials[t * gpusim::kCombineTileThreads];
          for (uint32_t e = run[t]; e < run_end[t]; ++e) {
            const Entry& entry = entries[e];
            size_t slot = entry.home;
            while (slot < region_end && table_keys[slot] != entry.key &&
                   table_keys[slot] != kEmpty) {
              ++slot;
            }
            if (slot == region_end) {
              deferred[r].push_back(entry);
              continue;
            }
            table_keys[slot] = entry.key;
            merge(slot, entry.acc);
          }
        }
      });

  for (const std::vector<Entry>& region : deferred) {
    for (const Entry& entry : region) {
      size_t slot = entry.home;
      while (table_keys[slot] != entry.key && table_keys[slot] != kEmpty) {
        slot = (slot + 1) & mask;
      }
      table_keys[slot] = entry.key;
      merge(slot, entry.acc);
    }
  }
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

/// One-pass grouped sum+count into an open-addressing hash table (one
/// combine kernel: tile-private tables merged in tile order), then a
/// compaction of occupied slots. Contrast with the libraries' only option:
/// sort_by_key + reduce_by_key (Table II). Groups come out in slot order,
/// which depends on the keys alone. Keys must not equal
/// numeric_limits<K>::max().
template <typename K, typename V>
GroupedSums<K, V> HashGroupBySum(gpusim::Stream& stream, const K* keys,
                                 const V* values, size_t n,
                                 size_t expected_groups = 0) {
  constexpr K kEmpty = std::numeric_limits<K>::max();
  gpusim::Device& device = stream.device();
  const size_t hint = expected_groups > 0 ? expected_groups : n;
  const size_t capacity = detail::NextPow2(hint < 8 ? 16 : 2 * hint);
  gpusim::DeviceArray<K> table_keys(capacity, device);
  gpusim::DeviceArray<V> table_sums(capacity, device);
  gpusim::DeviceArray<uint64_t> table_counts(capacity, device);
  gpusim::Fill(stream, table_keys.data(), capacity, kEmpty);
  gpusim::Fill(stream, table_sums.data(), capacity, V{});
  gpusim::Fill(stream, table_counts.data(), capacity, uint64_t{0});

  {
    gpusim::KernelStats stats;
    stats.name = "hw::hash_group_by";
    stats.bytes_read = n * (sizeof(K) + sizeof(V));
    stats.bytes_written = n * (sizeof(V) + sizeof(uint64_t));
    stats.ops = 4 * n;
    struct SumCount {
      V sum;
      uint64_t count;
    };
    V* ts = table_sums.data();
    uint64_t* tc = table_counts.data();
    detail::OrderedHashCombine<K, SumCount>(
        stream, stats, keys, n, table_keys.data(), capacity,
        [=](size_t i) { return SumCount{values[i], 1}; },
        [=](SumCount& acc, size_t i) {
          acc.sum += values[i];
          ++acc.count;
        },
        [=](size_t slot, const SumCount& acc) {
          ts[slot] += acc.sum;
          tc[slot] += acc.count;
        });
  }

  // Compact occupied slots (flags over the slot space + scan + scatter).
  GroupedSums<K, V> out;
  out.keys = gpusim::DeviceArray<K>(capacity, device);
  out.sums = gpusim::DeviceArray<V>(capacity, device);
  out.counts = gpusim::DeviceArray<uint64_t>(capacity, device);
  gpusim::DeviceArray<uint32_t> flags(capacity, device);
  gpusim::DeviceArray<uint32_t> positions(capacity, device);
  {
    gpusim::KernelStats stats;
    stats.name = "hw::group_slot_flags";
    stats.bytes_read = capacity * sizeof(K);
    stats.bytes_written = capacity * sizeof(uint32_t);
    const K* tk = table_keys.data();
    uint32_t* f = flags.data();
    gpusim::ParallelFor(stream, capacity, stats,
                        [=](size_t i) { f[i] = tk[i] != kEmpty ? 1u : 0u; });
  }
  gpusim::ExclusiveScan(stream, flags.data(), positions.data(), capacity,
                        uint32_t{0},
                        [](uint32_t a, uint32_t b) { return a + b; });
  uint32_t last_pos = 0, last_flag = 0;
  gpusim::CopyDeviceToHost(stream, &last_pos,
                           positions.data() + (capacity - 1),
                           sizeof(uint32_t));
  gpusim::CopyDeviceToHost(stream, &last_flag, flags.data() + (capacity - 1),
                           sizeof(uint32_t));
  out.num_groups = last_pos + last_flag;
  {
    gpusim::KernelStats stats;
    stats.name = "hw::group_compact";
    stats.bytes_read =
        capacity * (sizeof(K) + sizeof(V) + sizeof(uint64_t) +
                    2 * sizeof(uint32_t));
    stats.bytes_written =
        out.num_groups * (sizeof(K) + sizeof(V) + sizeof(uint64_t));
    const K* tk = table_keys.data();
    const V* ts = table_sums.data();
    const uint64_t* tc = table_counts.data();
    const uint32_t* f = flags.data();
    const uint32_t* pos = positions.data();
    K* ok = out.keys.data();
    V* os = out.sums.data();
    uint64_t* oc = out.counts.data();
    gpusim::ParallelFor(stream, capacity, stats, [=](size_t i) {
      if (f[i]) {
        const uint32_t p = pos[i];
        ok[p] = tk[i];
        os[p] = ts[i];
        oc[p] = tc[i];
      }
    });
  }
  return out;
}

/// Generic one-pass hash grouped reduction (sum/min/max with the matching
/// identity). Same structure as HashGroupBySum but with a caller-provided
/// associative combine. Returns compacted (keys, values).
template <typename K, typename V, typename BinOp>
GroupedSums<K, V> HashGroupByReduce(gpusim::Stream& stream, const K* keys,
                                    const V* values, size_t n, V identity,
                                    BinOp op, size_t expected_groups = 0) {
  constexpr K kEmpty = std::numeric_limits<K>::max();
  gpusim::Device& device = stream.device();
  const size_t hint = expected_groups > 0 ? expected_groups : n;
  const size_t capacity = detail::NextPow2(hint < 8 ? 16 : 2 * hint);
  gpusim::DeviceArray<K> table_keys(capacity, device);
  gpusim::DeviceArray<V> table_vals(capacity, device);
  gpusim::Fill(stream, table_keys.data(), capacity, kEmpty);
  gpusim::Fill(stream, table_vals.data(), capacity, identity);

  {
    gpusim::KernelStats stats;
    stats.name = "hw::hash_group_reduce";
    stats.bytes_read = n * (sizeof(K) + sizeof(V));
    stats.bytes_written = n * sizeof(V);
    stats.ops = 4 * n;
    V* tv = table_vals.data();
    detail::OrderedHashCombine<K, V>(
        stream, stats, keys, n, table_keys.data(), capacity,
        [=](size_t i) { return values[i]; },
        [=](V& acc, size_t i) { acc = op(acc, values[i]); },
        [=](size_t slot, const V& acc) { tv[slot] = op(tv[slot], acc); });
  }

  GroupedSums<K, V> out;
  out.keys = gpusim::DeviceArray<K>(capacity, device);
  out.sums = gpusim::DeviceArray<V>(capacity, device);
  gpusim::DeviceArray<uint32_t> flags(capacity, device);
  gpusim::DeviceArray<uint32_t> positions(capacity, device);
  {
    gpusim::KernelStats stats;
    stats.name = "hw::group_slot_flags";
    stats.bytes_read = capacity * sizeof(K);
    stats.bytes_written = capacity * sizeof(uint32_t);
    const K* tk = table_keys.data();
    uint32_t* f = flags.data();
    gpusim::ParallelFor(stream, capacity, stats,
                        [=](size_t i) { f[i] = tk[i] != kEmpty ? 1u : 0u; });
  }
  gpusim::ExclusiveScan(stream, flags.data(), positions.data(), capacity,
                        uint32_t{0},
                        [](uint32_t a, uint32_t b) { return a + b; });
  uint32_t last_pos = 0, last_flag = 0;
  gpusim::CopyDeviceToHost(stream, &last_pos,
                           positions.data() + (capacity - 1),
                           sizeof(uint32_t));
  gpusim::CopyDeviceToHost(stream, &last_flag, flags.data() + (capacity - 1),
                           sizeof(uint32_t));
  out.num_groups = last_pos + last_flag;
  {
    gpusim::KernelStats stats;
    stats.name = "hw::group_compact";
    stats.bytes_read =
        capacity * (sizeof(K) + sizeof(V) + 2 * sizeof(uint32_t));
    stats.bytes_written = out.num_groups * (sizeof(K) + sizeof(V));
    const K* tk = table_keys.data();
    const V* tv = table_vals.data();
    const uint32_t* f = flags.data();
    const uint32_t* pos = positions.data();
    K* ok = out.keys.data();
    V* os = out.sums.data();
    gpusim::ParallelFor(stream, capacity, stats, [=](size_t i) {
      if (f[i]) {
        const uint32_t p = pos[i];
        ok[p] = tk[i];
        os[p] = tv[i];
      }
    });
  }
  return out;
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
