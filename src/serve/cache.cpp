#include "serve/cache.hpp"

#include <utility>

#include "verify/repro_io.hpp"

namespace cmesolve::serve {

std::string cache_key(const verify::Scenario& sc) {
  return verify::serialize_repro(sc);
}

std::shared_ptr<const CachedSolution> ResultCache::find_exact(
    const std::string& key) {
  std::lock_guard<std::mutex> lk(m_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.exact_misses;
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  ++stats_.exact_hits;
  return it->second->sol;
}

void ResultCache::insert(const std::string& key, std::vector<real_t> p,
                         real_t residual) {
  if (capacity_ == 0) return;
  auto sol = std::make_shared<const CachedSolution>(
      CachedSolution{std::move(p), residual});
  std::lock_guard<std::mutex> lk(m_);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->sol = std::move(sol);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(Entry{key, std::move(sol)});
  index_.emplace(key, lru_.begin());
  ++stats_.insertions;
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

CacheStats ResultCache::stats() const {
  std::lock_guard<std::mutex> lk(m_);
  CacheStats s = stats_;
  s.entries = lru_.size();
  return s;
}

}  // namespace cmesolve::serve
