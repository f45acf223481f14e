// The simulated GPU device.
//
// A Device owns: a device-memory allocator (host heap, but tracked and
// capacity-checked against the simulated global memory size), a cost model,
// aggregate work counters, and the thread pool used to execute kernel grids.
// Streams (gpusim/stream.h) carry per-API-profile timelines on top of a
// device.
//
// The allocator is a caching, size-class-based pool (the design of CUB's
// CachingDeviceAllocator / RAPIDS RMM's pool resource): Free() parks blocks
// on per-size-class free lists instead of returning them to the host heap,
// and Allocate() serves repeat requests from those lists. Requests up to
// kLargeBlockBytes round up to the next power of two; larger blocks are
// cached by exact size. The pool is invisible to the cost model — streams
// are never charged for allocation, hit or miss — so simulated timings are
// bit-identical with a cold or warm pool. Hit/miss/pooled-bytes statistics
// are exported through Counters.
//
// Capacity accounting is centralized in one authoritative committed-bytes
// atomic (live + pooled + reserved): every true increase — a pool-miss
// allocation or an admission reservation — admits via a CAS against the
// (settable) capacity, while the frequent state transitions (pool hit,
// free-to-pool, reservation conversion) are committed-neutral swaps. This
// closes the window where two concurrent pool-miss allocations could both
// pass a racy check and overshoot the simulated capacity.
//
// Per-stream reservations (TryReserve / ReleaseReservation) let an admission
// controller (core::MemoryGovernor) set memory aside for a query before it
// runs: a thread that binds itself to a stream's reservation with
// ReservationScope converts reserved bytes into live allocations without a
// second capacity check, so an admitted query cannot lose its memory to a
// concurrent client between admission and allocation.
#ifndef GPUSIM_DEVICE_H_
#define GPUSIM_DEVICE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "gpusim/cost_model.h"
#include "gpusim/counters.h"
#include "gpusim/thread_pool.h"
#include "gpusim/trace.h"

namespace gpusim {

class FaultInjector;

/// Thrown when a simulated allocation exceeds the device's global memory.
class OutOfDeviceMemory : public std::runtime_error {
 public:
  explicit OutOfDeviceMemory(const std::string& what)
      : std::runtime_error(what) {}
};

/// A simulated GPU. Thread-safe.
class Device {
  struct Reservation;  // per-stream admission reservation (private)

 public:
  explicit Device(const DeviceProperties& props = DeviceProperties(),
                  unsigned host_threads = 0);
  ~Device();

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  /// Process-wide default device (created on first use).
  static Device& Default();

  /// The calling thread's current device: the innermost DeviceGuard's target,
  /// or Default() when no guard is active. Backends resolve their device
  /// through this at construction, so a multi-device driver can bind each
  /// worker thread's backend to its shard's device without any backend-API
  /// change (the cudaSetDevice idiom).
  static Device& Current();

  /// RAII device binding for the current thread (nests; innermost wins).
  class DeviceGuard {
   public:
    explicit DeviceGuard(Device& device);
    ~DeviceGuard();
    DeviceGuard(const DeviceGuard&) = delete;
    DeviceGuard& operator=(const DeviceGuard&) = delete;

   private:
    Device* previous_;
  };

  /// Allocates `bytes` of simulated device memory, rounded up to the pool's
  /// block granularity (see PoolBlockBytes). Served from the pool's free
  /// lists when a cached block of the right class exists. Throws
  /// OutOfDeviceMemory if live + requested reserved bytes would exceed the
  /// simulated capacity even after releasing all pooled blocks. The returned
  /// pointer is a host pointer usable only inside kernels / transfer APIs by
  /// convention.
  void* Allocate(size_t bytes);

  /// Returns memory from Allocate() to the pool (not the host heap).
  /// nullptr is a no-op.
  void Free(void* ptr);

  /// True if `ptr` was returned by Allocate() on this device and not freed.
  /// Pointers sitting in the pool's free lists are not owned.
  bool OwnsPointer(const void* ptr) const;

  /// Reserved bytes of live allocations (size-class granularity).
  size_t bytes_in_use() const { return bytes_live_.load(std::memory_order_relaxed); }

  /// Bytes currently cached in the pool's free lists.
  size_t bytes_pooled() const {
    return counters_.bytes_pooled.load(std::memory_order_relaxed);
  }

  /// Releases every cached block back to the host heap. Called automatically
  /// when an allocation would otherwise exceed the simulated capacity.
  void TrimPool();

  /// Simulated memory capacity allocations and reservations are admitted
  /// against. Defaults to properties().global_memory_bytes; benches and
  /// tools shrink it to model memory pressure. Capacity only gates
  /// admission — it never feeds the cost model, so simulated timings are
  /// unchanged by any setting that still lets allocations succeed.
  size_t memory_capacity() const {
    return capacity_bytes_.load(std::memory_order_relaxed);
  }
  void set_memory_capacity(size_t bytes) {
    capacity_bytes_.store(bytes, std::memory_order_relaxed);
  }

  /// Bytes counted against capacity right now: live + pooled + reserved.
  size_t committed_bytes() const {
    return committed_.load(std::memory_order_relaxed);
  }

  /// Unconverted reservation bytes across all streams.
  size_t reserved_bytes() const {
    return counters_.bytes_reserved.load(std::memory_order_relaxed);
  }

  /// All-time high-water mark of live + reserved bytes.
  uint64_t peak_bytes() const {
    return counters_.peak_bytes.load(std::memory_order_relaxed);
  }

  /// Sets `bytes` aside for `stream_id`, counted against capacity. Trims the
  /// pool when that is what admission needs; returns false when the bytes
  /// do not fit even with an empty pool. A stream's reservations accumulate;
  /// ReleaseReservation drops whatever remains unconverted.
  bool TryReserve(uint64_t stream_id, size_t bytes);

  /// Returns a stream's unconverted reservation balance to the capacity pool
  /// (live allocations drawn from it stay live). No-op without a reservation.
  void ReleaseReservation(uint64_t stream_id);

  /// Unconverted bytes remaining in a stream's reservation (0 = none).
  size_t ReservationRemaining(uint64_t stream_id) const;

  /// Binds the current thread's allocations to a stream's reservation: while
  /// in scope, pool-miss allocations draw down the reservation balance
  /// instead of re-checking capacity, and frees of those blocks credit the
  /// balance back. Scopes nest (the innermost wins); cheap to construct when
  /// the stream holds no reservation.
  class ReservationScope {
   public:
    ReservationScope(Device& device, uint64_t stream_id);
    ~ReservationScope();
    ReservationScope(const ReservationScope&) = delete;
    ReservationScope& operator=(const ReservationScope&) = delete;

   private:
    std::shared_ptr<Reservation> reservation_;  // keeps the binding alive
    std::shared_ptr<Reservation>* previous_;    // enclosing scope's binding
  };

  /// The reserved block size a request of `bytes` maps to: power-of-two size
  /// classes in [kMinBlockBytes, kLargeBlockBytes], exact size above.
  static size_t PoolBlockBytes(size_t bytes);

  /// Pool geometry.
  static constexpr size_t kMinBlockBytes = 256;
  static constexpr size_t kLargeBlockBytes = size_t{1} << 22;  // 4 MiB

  const CostModel& cost_model() const { return cost_model_; }
  const DeviceProperties& properties() const { return cost_model_.properties(); }
  Counters& counters() { return counters_; }
  const Counters& counters() const { return counters_; }
  ThreadPool& pool() { return pool_; }

  CounterSnapshot Snapshot() const { return CounterSnapshot::Take(counters_); }

  /// Attaches (or detaches with nullptr) a tracer; not owned. All streams on
  /// this device record their commands into it.
  void set_tracer(Tracer* tracer) {
    tracer_.store(tracer, std::memory_order_release);
  }
  Tracer* tracer() const { return tracer_.load(std::memory_order_acquire); }

  /// Issues a unique id for a new stream (for trace attribution).
  uint64_t NextStreamId() {
    return next_stream_id_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Attaches (or detaches with nullptr) a fault injector; not owned, and it
  /// must outlive the attachment. The instrumented paths — Allocate plus the
  /// stream charge paths — consult it with a single relaxed load, so the
  /// detached hot path pays one branch and nothing else.
  void set_fault_injector(FaultInjector* injector) {
    fault_injector_.store(injector, std::memory_order_release);
  }
  FaultInjector* fault_injector() const {
    return fault_injector_.load(std::memory_order_relaxed);
  }

 private:
  // 256 B .. 4 MiB inclusive, one class per power of two.
  static constexpr size_t kNumSizeClasses = 15;
  static constexpr size_t kNumPtrShards = 16;

  /// Free list of one power-of-two size class. Sharded locking: each class
  /// (and the large-block cache) has its own mutex, so concurrent alloc/free
  /// traffic only contends when it targets the same class.
  struct SizeClass {
    std::mutex mu;
    std::vector<void*> blocks;
  };

  /// One stream's admission reservation. `remaining` is drawn down by
  /// reservation-backed allocations (CAS decrement) and credited back when
  /// those blocks are freed; ReleaseReservation zeroes it (exchange), so a
  /// racing conversion either wins before the release or observes 0 and
  /// falls back to the global admission path.
  struct Reservation {
    uint64_t stream_id = 0;
    std::atomic<size_t> remaining{0};
    std::atomic<bool> active{true};
  };

  /// The reservation the current thread's allocations draw from (set by
  /// ReservationScope; null when unbound).
  static thread_local std::shared_ptr<Reservation>* tls_reservation_;

  /// The device Current() resolves to on this thread (set by DeviceGuard;
  /// null = Default()).
  static thread_local Device* tls_current_;

  /// One live pointer's bookkeeping: the reserved block size plus, for
  /// reservation-backed allocations, the reservation to credit on Free.
  struct PtrEntry {
    size_t bytes = 0;
    std::shared_ptr<Reservation> backing;  // null for unbacked blocks
  };

  /// Live-pointer tables, sharded by pointer hash to keep OwnsPointer / Free
  /// lookups off a single global lock. Maps pointer -> block bookkeeping.
  /// `freed` remembers pointers currently parked in the pool's free lists so
  /// Free() can distinguish a double free from a pointer this device never
  /// allocated; entries leave the set when the block is reused or trimmed.
  struct PtrShard {
    mutable std::mutex mu;
    std::unordered_map<const void*, PtrEntry> blocks;
    std::unordered_set<const void*> freed;
  };

  static size_t SizeClassIndex(size_t block_bytes);
  PtrShard& ShardFor(const void* ptr) const;
  void* PopFreeBlock(size_t block_bytes);
  void PushFreeBlock(void* ptr, size_t block_bytes);

  /// CAS-admits `bytes` of new committed memory against the capacity.
  bool TryCommit(size_t bytes);
  /// Raises the live+reserved high-water mark after an increase.
  void NotePeak();

  CostModel cost_model_;
  Counters counters_;
  ThreadPool pool_;
  mutable SizeClass size_classes_[kNumSizeClasses];
  mutable std::mutex large_mu_;
  std::unordered_multimap<size_t, void*> large_cache_;
  mutable PtrShard ptr_shards_[kNumPtrShards];
  std::atomic<size_t> bytes_live_{0};
  std::atomic<size_t> capacity_bytes_;
  /// Authoritative capacity gauge: live + pooled + reserved. Every increase
  /// goes through TryCommit; committed-neutral transitions never touch it.
  std::atomic<size_t> committed_{0};
  mutable std::mutex res_mu_;  ///< guards reservations_
  std::unordered_map<uint64_t, std::shared_ptr<Reservation>> reservations_;
  std::atomic<Tracer*> tracer_{nullptr};
  std::atomic<FaultInjector*> fault_injector_{nullptr};
  std::atomic<uint64_t> next_stream_id_{0};
};

}  // namespace gpusim

#endif  // GPUSIM_DEVICE_H_
