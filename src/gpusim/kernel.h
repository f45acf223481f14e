// Kernel launch API of the simulated device.
//
// Four launch shapes cover the algorithms in this repository:
//  * ParallelFor    — a grid of independent threads, f(i) per global index.
//  * LaunchBlocks   — a grid of cooperative thread *blocks*; the body runs
//                     once per block and may loop over the block's threads,
//                     modelling shared-memory algorithms (tile reduce, block
//                     scan, histogram) whose intra-block execution is
//                     sequentialized, which preserves semantics.
//  * OrderedAppend  — a grid of independent threads that each append at most
//                     one record, the atomic-ticket compaction of fused
//                     selections and probes, with the records kept in
//                     thread order.
//  * OrderedCombine — a grid of threads that combine values into shared
//                     groups, the atomic combine of grouped aggregation,
//                     realized as tile-private partials merged in tile order.
//
// All four charge the owning stream with the declared KernelStats. Grids are
// distributed over the device's host thread pool.
#ifndef GPUSIM_KERNEL_H_
#define GPUSIM_KERNEL_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "gpusim/launch_config.h"
#include "gpusim/stream.h"

namespace gpusim {

/// Launches `n` independent simulated threads; body(i) for i in [0, n).
/// The body must be safe to run concurrently for distinct i.
template <typename Body>
void ParallelFor(Stream& stream, size_t n, KernelStats stats, Body&& body) {
  stats.ops = std::max<uint64_t>(stats.ops, n);  // at least one op per thread
  stream.ChargeKernel(stats);
  if (n == 0) return;
  if (n <= kInlineGridThreshold) {
    // Small-grid fast path: the pool dispatch would cost more host time than
    // the loop itself. Simulated time is unaffected (charged above).
    for (size_t i = 0; i < n; ++i) body(i);
    return;
  }
  // Use coarse host-side chunks: each chunk covers many simulated blocks to
  // amortize scheduling on the host (geometry shared with the pool via
  // launch_config.h).
  const size_t chunk =
      HostChunkThreads(n, stream.device().pool().num_threads());
  const size_t num_chunks = NumHostChunks(n, chunk);
  stream.device().pool().ParallelFor(num_chunks, [&](size_t c) {
    const size_t begin = c * chunk;
    const size_t end = std::min(begin + chunk, n);
    for (size_t i = begin; i < end; ++i) body(i);
  });
}

/// Launches `n` simulated threads that each append at most one record: the
/// one-kernel compaction `out[atomicAdd(counter, 1)] = record(i)`, with the
/// records in ascending i order instead of ticket order. body(i, slot)
/// returns whether thread i kept a record, having written it at index
/// `slot` of the caller's output arrays (room for n records);
/// move(from, to) relocates one record to a lower index. Each host chunk
/// compacts into the front of its own index range, then the chunks move
/// down in chunk order, so the output does not depend on the chunking or on
/// host scheduling. `*counter` receives the record count, as the ticket
/// counter would; the count is also returned. Charged like ParallelFor.
template <typename Body, typename Move>
size_t OrderedAppend(Stream& stream, size_t n, KernelStats stats,
                     uint32_t* counter, Body&& body, Move&& move) {
  stats.ops = std::max<uint64_t>(stats.ops, n);
  stream.ChargeKernel(stats);
  size_t count = 0;
  if (n <= kInlineGridThreshold) {
    for (size_t i = 0; i < n; ++i) count += body(i, count) ? 1 : 0;
  } else {
    const size_t chunk =
        HostChunkThreads(n, stream.device().pool().num_threads());
    const size_t num_chunks = NumHostChunks(n, chunk);
    std::vector<size_t> kept(num_chunks);
    stream.device().pool().ParallelFor(num_chunks, [&](size_t c) {
      const size_t begin = c * chunk;
      const size_t end = std::min(begin + chunk, n);
      size_t w = begin;
      for (size_t i = begin; i < end; ++i) w += body(i, w) ? 1 : 0;
      kept[c] = w - begin;
    });
    for (size_t c = 0; c < num_chunks; ++c) {
      const size_t begin = c * chunk;
      if (count != begin) {
        for (size_t k = 0; k < kept[c]; ++k) move(begin + k, count + k);
      }
      count += kept[c];
    }
  }
  *counter = static_cast<uint32_t>(count);
  return count;
}

/// Simulated threads per OrderedCombine tile. A constant, so the tile
/// boundaries, and so every partial folded per tile, are the same for any
/// host pool size (HostChunkThreads is not).
inline constexpr size_t kCombineTileThreads = kMinChunkThreads;

/// Number of OrderedCombine tiles of an n-thread grid.
constexpr size_t NumCombineTiles(size_t n) {
  return (n + kCombineTileThreads - 1) / kCombineTileThreads;
}

/// Launches `n` simulated threads that combine into shared groups, the
/// `atomicAdd(&group[key(i)], value(i))` of grouped aggregation, without the
/// contended atomics. tile(t, begin, end) folds threads [begin, end) of tile
/// t into partials private to the tile, in thread order; tiles run
/// concurrently. Once every tile is done, merge(p) runs for each merge part
/// p in [0, num_parts), concurrently across parts, and folds the tiles'
/// partials of its part in tile order. Tiles are kCombineTileThreads wide
/// whatever the pool, so the combined values do not depend on the pool size
/// or on host scheduling. Charged like ParallelFor.
template <typename Tile, typename Merge>
void OrderedCombine(Stream& stream, size_t n, KernelStats stats, Tile&& tile,
                    size_t num_parts, Merge&& merge) {
  stats.ops = std::max<uint64_t>(stats.ops, n);
  stream.ChargeKernel(stats);
  if (n == 0) return;
  ThreadPool& pool = stream.device().pool();
  pool.ParallelFor(NumCombineTiles(n), [&](size_t t) {
    const size_t begin = t * kCombineTileThreads;
    tile(t, begin, std::min(begin + kCombineTileThreads, n));
  });
  pool.ParallelFor(num_parts, merge);
}

/// Context passed to a block kernel body.
struct BlockContext {
  size_t block_id = 0;
  size_t num_blocks = 0;
  size_t block_size = 0;
};

/// Launches `num_blocks` cooperative blocks; body(ctx) once per block.
template <typename Body>
void LaunchBlocks(Stream& stream, size_t num_blocks, size_t block_size,
                  KernelStats stats, Body&& body) {
  stats.ops = std::max<uint64_t>(stats.ops, num_blocks * block_size);
  stream.ChargeKernel(stats);
  if (num_blocks == 0) return;
  stream.device().pool().ParallelFor(num_blocks, [&](size_t b) {
    BlockContext ctx;
    ctx.block_id = b;
    ctx.num_blocks = num_blocks;
    ctx.block_size = block_size;
    body(ctx);
  });
}

}  // namespace gpusim

#endif  // GPUSIM_KERNEL_H_
