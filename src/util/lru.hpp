#pragma once
/// \file lru.hpp
/// \brief Key/value map kept in least-recently-used order.
///
/// The shared idiom behind the bounded cache tiers (the optimized-region
/// tier in opt/partition and the retained-network tier in flow/batch_runner):
/// a list ordered by recency plus a hash index into it.  find() and put()
/// move an entry to the hot end in O(1); pop_lru() removes from the cold
/// end.  The bound itself (entry count, byte budget) is the caller's policy.
/// Not thread-safe: callers hold their own lock.

#include <cstddef>
#include <list>
#include <unordered_map>
#include <utility>

namespace xsfq {

template <typename Key, typename Value>
class lru_map {
 public:
  /// The value under `key`, refreshed to most recently used; null if absent.
  Value* find(const Key& key) {
    const auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    items_.splice(items_.begin(), items_, it->second);
    return &it->second->second;
  }

  /// Stores `value` under `key` as the most recently used entry, replacing
  /// the value of a present key.  Returns true when the key was new.
  bool put(const Key& key, Value value) {
    if (Value* present = find(key)) {
      *present = std::move(value);
      return false;
    }
    items_.emplace_front(key, std::move(value));
    index_.emplace(key, items_.begin());
    return true;
  }

  /// Removes the least recently used entry and returns its value.
  /// Precondition: !empty().
  Value pop_lru() {
    Value value = std::move(items_.back().second);
    index_.erase(items_.back().first);
    items_.pop_back();
    return value;
  }

  [[nodiscard]] std::size_t size() const { return index_.size(); }
  [[nodiscard]] bool empty() const { return index_.empty(); }
  void clear() {
    index_.clear();
    items_.clear();
  }

 private:
  using item_list = std::list<std::pair<Key, Value>>;
  item_list items_;  ///< front = most recently used
  std::unordered_map<Key, typename item_list::iterator> index_;
};

}  // namespace xsfq
