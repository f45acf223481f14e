// Plan cache: optimized physical plans keyed by shape x stats x backend x
// catalog generation.
//
// Modeled on gpusim's OpenCL-style program cache (bcsim caches compiled
// kernels per source hash): the expensive artifact — here an optimized
// physical plan bound to resident tables — is produced once per key and
// reused for every later request with the same key. The key
// (plan::PlanCacheKey) covers everything the optimizer consumed: query shape
// hash (query + parameters + encoding mode), table-stats fingerprint, and
// pinned backend, so any change that could invalidate the plan changes the
// key and misses. It also carries the catalog generation the plan was
// prepared against: a plan points into its residency snapshot, which
// stays alive (and correct) for in-flight runs via the
// PreparedTpchQuery's shared_ptr, but must not be served once the catalog
// has moved on. The cache keeps one generation: inserting a newer one drops
// every older entry, and an insert older than the newest it has seen (a
// request that read the catalog just before a swap) is dropped.
#ifndef SERVE_PLAN_CACHE_H_
#define SERVE_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "plan/fingerprint.h"
#include "plan/prepared.h"

namespace serve {

class PlanCache {
 public:
  /// `capacity` bounds the entry count; least-recently-used entries evict.
  explicit PlanCache(size_t capacity = 64);

  /// Returns the cached plan and refreshes its recency, or nullptr (a miss).
  std::shared_ptr<const plan::PreparedTpchQuery> Lookup(
      const plan::PlanCacheKey& key);

  /// Inserts (or replaces) the entry for `key`, evicting the LRU entry when
  /// over capacity. A key of a newer catalog generation than any seen so
  /// far first drops every older entry; a key of an older generation is not
  /// inserted. In-flight executions of dropped plans finish safely — they
  /// co-own their tables.
  void Insert(const plan::PlanCacheKey& key,
              std::shared_ptr<const plan::PreparedTpchQuery> plan);

  /// Drops every entry.
  void Clear();

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;
    size_t size = 0;
  };
  Stats stats() const;

 private:
  struct Entry {
    plan::PlanCacheKey key;
    std::shared_ptr<const plan::PreparedTpchQuery> plan;
  };

  mutable std::mutex mu_;
  size_t capacity_;
  uint64_t newest_generation_ = 0;  ///< highest key generation inserted
  std::list<Entry> lru_;  ///< front = most recently used
  std::unordered_map<plan::PlanCacheKey, std::list<Entry>::iterator,
                     plan::PlanCacheKeyHash>
      index_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t insertions_ = 0;
  uint64_t evictions_ = 0;
};

}  // namespace serve

#endif  // SERVE_PLAN_CACHE_H_
