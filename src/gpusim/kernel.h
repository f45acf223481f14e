// Kernel launch API of the simulated device.
//
// Five launch shapes cover the algorithms in this repository:
//  * ParallelForRange — a grid of independent threads run as host ranges:
//                     body(begin, end) once per host chunk, so a kernel can
//                     work a tile at a time (decode a run of packed codes,
//                     evaluate one predicate over many rows) instead of
//                     interpreting one row per call.
//  * ParallelFor    — the same grid, f(i) per global index.
//  * LaunchBlocks   — a grid of cooperative thread *blocks*; the body runs
//                     once per block and may loop over the block's threads,
//                     modelling shared-memory algorithms (tile reduce, block
//                     scan, histogram) whose intra-block execution is
//                     sequentialized, which preserves semantics.
//  * OrderedAppend  — a grid of independent threads that each append at most
//                     one record, the atomic-ticket compaction of fused
//                     selections and probes, with the records kept in
//                     thread order; its range form appends a host range's
//                     records at once.
//  * OrderedCombine — a grid of threads that combine values into shared
//                     groups, the atomic combine of grouped aggregation,
//                     realized as tile-private partials merged in tile order.
//
// All of them charge the owning stream with the declared KernelStats; how a
// grid is cut into host ranges never changes what is charged. Grids are
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

namespace detail {

/// The host chunking of an n-thread grid, the one place it is computed:
/// grids of at most kInlineGridThreshold threads are one chunk run on the
/// calling thread; larger ones are HostChunkThreads-sized chunks spread over
/// the device's pool. chunk(c, begin, end) runs once per chunk c over its
/// threads [begin, end).
class HostChunks {
 public:
  HostChunks(Stream& stream, size_t n)
      : pool_(stream.device().pool()),
        n_(n),
        size_(n <= kInlineGridThreshold
                  ? n
                  : HostChunkThreads(n, pool_.num_threads())),
        count_(n == 0 ? 0 : NumHostChunks(n, size_)) {}

  size_t count() const { return count_; }
  size_t begin(size_t c) const { return c * size_; }

  template <typename Chunk>
  void Run(Chunk&& chunk) const {
    if (count_ == 0) return;
    if (n_ <= kInlineGridThreshold) {
      // Small-grid fast path: the pool dispatch would cost more host time
      // than the loop itself.
      chunk(size_t{0}, size_t{0}, n_);
      return;
    }
    pool_.ParallelFor(count_, [&](size_t c) {
      chunk(c, begin(c), std::min(begin(c) + size_, n_));
    });
  }

 private:
  ThreadPool& pool_;
  size_t n_;
  size_t size_;
  size_t count_;
};

}  // namespace detail

/// Launches `n` independent simulated threads as host ranges: body(begin,
/// end) runs threads [begin, end), once per host chunk, or once over [0, n)
/// when the grid runs inline. Ranges are disjoint and may run concurrently.
/// Charged like ParallelFor: the chunking is host-side execution strategy
/// only.
template <typename Body>
void ParallelForRange(Stream& stream, size_t n, KernelStats stats,
                      Body&& body) {
  stats.ops = std::max<uint64_t>(stats.ops, n);  // at least one op per thread
  stream.ChargeKernel(stats);
  detail::HostChunks(stream, n).Run(
      [&](size_t, size_t begin, size_t end) { body(begin, end); });
}

/// Launches `n` independent simulated threads; body(i) for i in [0, n).
/// The body must be safe to run concurrently for distinct i.
template <typename Body>
void ParallelFor(Stream& stream, size_t n, KernelStats stats, Body&& body) {
  ParallelForRange(stream, n, stats, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) body(i);
  });
}

/// Range form of OrderedAppend: body(begin, end, slot) appends the records
/// of threads [begin, end), in thread order, at indexes slot, slot + 1, ...
/// of the caller's output arrays (room for n records), and returns how many
/// it kept; indexes [slot, slot + end - begin) belong to the range, which
/// may also use them as scratch. move(from, to) relocates one record to a
/// lower index. Each host range compacts into the front of its own index
/// range, then the ranges move down in chunk order, so the output does not
/// depend on the chunking or on host scheduling. `*counter` receives the record count, as the
/// ticket counter would; the count is also returned. Charged like
/// ParallelFor.
template <typename Body, typename Move>
size_t OrderedAppendRange(Stream& stream, size_t n, KernelStats stats,
                          uint32_t* counter, Body&& body, Move&& move) {
  stats.ops = std::max<uint64_t>(stats.ops, n);
  stream.ChargeKernel(stats);
  const detail::HostChunks chunks(stream, n);
  std::vector<size_t> kept(chunks.count());
  chunks.Run([&](size_t c, size_t begin, size_t end) {
    kept[c] = body(begin, end, begin);
  });
  size_t count = 0;
  for (size_t c = 0; c < chunks.count(); ++c) {
    const size_t begin = chunks.begin(c);
    if (count != begin) {
      for (size_t k = 0; k < kept[c]; ++k) move(begin + k, count + k);
    }
    count += kept[c];
  }
  *counter = static_cast<uint32_t>(count);
  return count;
}

/// Launches `n` simulated threads that each append at most one record: the
/// one-kernel compaction `out[atomicAdd(counter, 1)] = record(i)`, with the
/// records in ascending i order instead of ticket order. body(i, slot)
/// returns whether thread i kept a record, having written it at index
/// `slot` of the caller's output arrays; the rest is OrderedAppendRange.
template <typename Body, typename Move>
size_t OrderedAppend(Stream& stream, size_t n, KernelStats stats,
                     uint32_t* counter, Body&& body, Move&& move) {
  return OrderedAppendRange(
      stream, n, stats, counter,
      [&](size_t begin, size_t end, size_t slot) {
        size_t w = slot;
        for (size_t i = begin; i < end; ++i) w += body(i, w) ? 1 : 0;
        return w - slot;
      },
      move);
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
