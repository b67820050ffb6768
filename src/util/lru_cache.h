// String-keyed least-recently-used cache: the Engine's dataset, WTP, mining
// and resolve caches. Not thread-safe — the owner locks it, and keeps its own
// hit/miss counters because what counts as a hit is the owner's rule.

#ifndef BUNDLEMINE_UTIL_LRU_CACHE_H_
#define BUNDLEMINE_UTIL_LRU_CACHE_H_

#include <cstddef>
#include <list>
#include <string>
#include <utility>

namespace bundlemine {

template <typename V>
class LruCache {
 public:
  /// A cache of capacity 0 stores nothing: every Find misses.
  explicit LruCache(std::size_t capacity) : capacity_(capacity) {}

  /// The value under `key`, promoted to most recently used, or null. Valid
  /// until the entry is evicted or erased.
  V* Find(const std::string& key) {
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->first != key) continue;
      entries_.splice(entries_.begin(), entries_, it);
      return &entries_.front().second;
    }
    return nullptr;
  }

  /// Stores `value` under `key` (replacing any entry there) as most
  /// recently used, then evicts least recently used entries past capacity.
  void Put(const std::string& key, V value) {
    if (V* existing = Find(key)) {
      *existing = std::move(value);
    } else {
      entries_.emplace_front(key, std::move(value));
    }
    while (entries_.size() > capacity_) entries_.pop_back();
  }

  /// Erases the entry under `key`, if any.
  void Erase(const std::string& key) {
    entries_.remove_if([&key](const std::pair<std::string, V>& entry) {
      return entry.first == key;
    });
  }

  /// Erases every entry whose key starts with `prefix`.
  void ErasePrefix(const std::string& prefix) {
    entries_.remove_if([&prefix](const std::pair<std::string, V>& entry) {
      return entry.first.compare(0, prefix.size(), prefix) == 0;
    });
  }

  std::size_t size() const { return entries_.size(); }

 private:
  std::size_t capacity_;
  std::list<std::pair<std::string, V>> entries_;  ///< Front = most recent.
};

}  // namespace bundlemine

#endif  // BUNDLEMINE_UTIL_LRU_CACHE_H_
