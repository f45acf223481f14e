#include "serve/plan_cache.h"

#include <utility>

namespace serve {

PlanCache::PlanCache(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

std::shared_ptr<const plan::PreparedTpchQuery> PlanCache::Lookup(
    const plan::PlanCacheKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  return it->second->plan;
}

void PlanCache::Insert(const plan::PlanCacheKey& key,
                       std::shared_ptr<const plan::PreparedTpchQuery> plan) {
  std::lock_guard<std::mutex> lock(mu_);
  if (key.generation < newest_generation_) return;  // a retired residency
  if (key.generation > newest_generation_) {
    newest_generation_ = key.generation;
    for (auto e = lru_.begin(); e != lru_.end();) {
      if (e->key.generation < newest_generation_) {
        index_.erase(e->key);
        e = lru_.erase(e);
      } else {
        ++e;
      }
    }
  }
  const auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->plan = std::move(plan);
    lru_.splice(lru_.begin(), lru_, it->second);
    ++insertions_;
    return;
  }
  lru_.push_front(Entry{key, std::move(plan)});
  index_.emplace(key, lru_.begin());
  ++insertions_;
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    ++evictions_;
  }
}

void PlanCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
}

PlanCache::Stats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.insertions = insertions_;
  s.evictions = evictions_;
  s.size = lru_.size();
  return s;
}

}  // namespace serve
