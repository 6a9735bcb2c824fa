// Sorted-vector map and set with an append fast path for mostly-increasing
// keys.  Inserts of a key larger than every live key are appends, lookups
// binary searches over a contiguous sorted range, and removals of the
// smallest key advance a head cursor.  A warmed table reaches a steady
// state where no operation allocates: the backing vector's capacity is the
// high-water mark of live entries, and clear-on-empty recycles it forever.
//
// Free-list/cursor invariants (checked implicitly by the layout):
//   * entries in [head_, items_.size()) are alive and sorted by key;
//   * entries in [0, head_) are dead (popped) but not yet reclaimed;
//   * the dead prefix is reclaimed wholesale when the table drains
//     (cheap, frequent in steady state) or compacted when it outgrows the
//     live region (amortized O(1) per pop, bounds memory under sustained
//     non-empty operation).
//
// Users: the replica hot path's pending tables (core/pending_tables.h),
// the streaming checker's in-flight index (checker/streaming_checker.cpp),
// the trace op log's cold table (sim/trace.h) and the quorum engine's
// acceptor and chosen logs (degrade/quorum_engine.h).
// tests/test_pending_tables.cpp fuzzes both tables against std::map /
// std::set.
#pragma once

#include <algorithm>
#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

namespace linbound {

/// Sorted-vector map with a dead-prefix head cursor.  Keys must be totally
/// ordered; insertion of a key larger than every live key (the common case
/// on the replica hot path) is an append.
template <typename K, typename V>
class FlatMap {
 public:
  std::size_t size() const { return items_.size() - head_; }
  bool empty() const { return size() == 0; }

  void reserve(std::size_t n) { items_.reserve(n); }

  V* find(const K& key) {
    auto it = live_lower_bound(key);
    return (it != items_.end() && it->key == key) ? &it->val : nullptr;
  }
  const V* find(const K& key) const {
    return const_cast<FlatMap*>(this)->find(key);
  }

  /// map[key]: the value at `key`, default-constructed first when absent.
  /// An insert may move every entry, so the reference lasts until the next
  /// insert.
  V& operator[](const K& key) {
    if (items_.size() == head_ || items_.back().key < key) {
      return items_.emplace_back(Entry{key, V{}}).val;
    }
    auto it = live_lower_bound(key);
    if (it == items_.end() || !(it->key == key)) {
      it = items_.insert(it, Entry{key, V{}});
    }
    return it->val;
  }

  /// The largest live key; the map must not be empty.
  const K& max_key() const { return items_.back().key; }

  /// map[key] = value.
  void insert_or_assign(const K& key, V value) {
    if (items_.size() == head_ || items_.back().key < key) {
      items_.push_back(Entry{key, std::move(value)});
      return;
    }
    auto it = live_lower_bound(key);
    if (it != items_.end() && it->key == key) {
      it->val = std::move(value);
    } else {
      items_.insert(it, Entry{key, std::move(value)});
    }
  }

  /// Remove `key` and hand back its value; nullopt when absent.
  std::optional<V> extract(const K& key) {
    auto it = live_lower_bound(key);
    if (it == items_.end() || !(it->key == key)) return std::nullopt;
    std::optional<V> out(std::move(it->val));
    remove_at(it);
    return out;
  }

  bool erase(const K& key) {
    auto it = live_lower_bound(key);
    if (it == items_.end() || !(it->key == key)) return false;
    remove_at(it);
    return true;
  }

  void clear() {
    items_.clear();  // capacity kept: the steady-state pool
    head_ = 0;
  }

  /// Visit every live entry in ascending key order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = head_; i < items_.size(); ++i) {
      fn(items_[i].key, items_[i].val);
    }
  }

 private:
  struct Entry {
    K key;
    V val;
  };

  typename std::vector<Entry>::iterator live_lower_bound(const K& key) {
    return std::lower_bound(
        items_.begin() + static_cast<std::ptrdiff_t>(head_), items_.end(), key,
        [](const Entry& e, const K& k) { return e.key < k; });
  }

  void remove_at(typename std::vector<Entry>::iterator it) {
    if (it == items_.begin() + static_cast<std::ptrdiff_t>(head_)) {
      ++head_;  // min-key pop: the overwhelmingly common removal
      if (head_ == items_.size()) {
        items_.clear();
        head_ = 0;
      } else if (head_ >= 64 && head_ * 2 >= items_.size()) {
        // Dead prefix outgrew the live region: reclaim it (move-compaction,
        // no allocation) so sustained non-empty operation stays bounded.
        items_.erase(items_.begin(),
                     items_.begin() + static_cast<std::ptrdiff_t>(head_));
        head_ = 0;
      }
    } else {
      items_.erase(it);
    }
  }

  std::vector<Entry> items_;  ///< sorted by key in [head_, size)
  std::size_t head_ = 0;      ///< dead-prefix cursor
};

/// Sorted-vector set; append fast path for mostly-increasing keys.
template <typename K>
class FlatSet {
 public:
  /// True when `key` was not yet a member.
  bool insert(const K& key) {
    if (items_.empty() || items_.back() < key) {
      items_.push_back(key);
      return true;
    }
    auto it = std::lower_bound(items_.begin(), items_.end(), key);
    if (it != items_.end() && *it == key) return false;
    items_.insert(it, key);
    return true;
  }

  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }
  void reserve(std::size_t n) { items_.reserve(n); }
  void clear() { items_.clear(); }  // capacity kept

 private:
  std::vector<K> items_;
};

}  // namespace linbound
