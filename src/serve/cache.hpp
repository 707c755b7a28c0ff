#pragma once
//
// Exact result cache for the solver daemon (DESIGN.md §15).
//
// One LRU store keyed by the canonical .repro.json bytes of the scenario
// (serialize_repro is byte-stable by contract — repro_io.hpp — so equal
// scenarios hash equal and the cached stationary vector can be returned
// bitwise-identical to the cold solve that produced it). A miss is always
// solved cold: nothing in the store seeds another request's solve, so a
// response depends only on its request bytes.
//
// Thread safety: every public method locks an internal mutex; the serve
// worker pool probes and inserts concurrently.
//
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/types.hpp"
#include "verify/scenario.hpp"

namespace cmesolve::serve {

/// Canonical cache key: the scenario's byte-stable .repro.json form.
[[nodiscard]] std::string cache_key(const verify::Scenario& sc);

struct CacheStats {
  std::uint64_t exact_hits = 0;
  std::uint64_t exact_misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::size_t entries = 0;
};

/// A converged solve as the cache holds it: the stationary vector and the
/// residual the solve stopped at, so a hit reports what the cold solve did.
struct CachedSolution {
  std::vector<real_t> p;
  real_t residual = 0.0;
};

class ResultCache {
 public:
  /// `capacity` = maximum resident entries (>= 1; 0 disables the cache).
  explicit ResultCache(std::size_t capacity) : capacity_(capacity) {}

  /// Exact probe. On hit the entry moves to the LRU front and the cached
  /// solution is returned (shared, immutable); nullptr on a miss.
  [[nodiscard]] std::shared_ptr<const CachedSolution> find_exact(
      const std::string& key);

  /// Insert a converged solution. Replaces an existing entry with the same
  /// key; evicts from the LRU tail when over capacity.
  void insert(const std::string& key, std::vector<real_t> p, real_t residual);

  [[nodiscard]] CacheStats stats() const;

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const CachedSolution> sol;
  };

  std::size_t capacity_;
  mutable std::mutex m_;
  std::list<Entry> lru_;  ///< front = most recent
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  CacheStats stats_;
};

}  // namespace cmesolve::serve
