// Set-associative LRU cache (one instance of one level).
//
// The simulator works at cache-line granularity: addresses passed in are
// *line* numbers (byte address >> line_shift), computed by the Hierarchy.
// Replacement is true LRU per set; a write marks the line dirty so
// write-back traffic can be counted.
#pragma once

#include <cstdint>
#include <vector>

namespace hlsmpc::cachesim {

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t writebacks = 0;
  std::uint64_t invalidations = 0;

  double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
};

class Cache {
 public:
  Cache(std::size_t size_bytes, std::size_t line_bytes, int associativity);

  struct AccessResult {
    bool hit = false;
    bool evicted = false;
    std::uint64_t victim_line = 0;
    bool victim_dirty = false;
  };

  /// Look up `line`; on miss, insert it, possibly evicting the set's LRU
  /// victim (reported so the hierarchy can keep inclusion and the
  /// directory up to date).
  AccessResult access(std::uint64_t line, bool write);

  /// Insert without lookup (fill path); same eviction reporting.
  AccessResult fill(std::uint64_t line, bool write);

  bool contains(std::uint64_t line) const;
  /// Remove the line if present; returns true if it was (and counts an
  /// invalidation).
  bool invalidate(std::uint64_t line);

  const CacheStats& stats() const { return stats_; }
  void reset_stats() { stats_ = CacheStats{}; }

  int associativity() const { return assoc_; }
  std::size_t size_bytes() const { return size_bytes_; }

 private:
  struct Entry {
    std::uint64_t tag = 0;
    std::uint64_t lru = 0;  // larger = more recently used
    bool valid = false;
    bool dirty = false;
  };

  Entry* set_begin(std::uint64_t line);
  int set_of(std::uint64_t line) const {
    return static_cast<int>(line % static_cast<std::uint64_t>(num_sets_));
  }

  std::size_t size_bytes_;
  int assoc_;
  int num_sets_;
  std::uint64_t clock_ = 0;
  std::vector<Entry> entries_;  // num_sets_ * assoc_, set-major
  CacheStats stats_;
};

}  // namespace hlsmpc::cachesim
