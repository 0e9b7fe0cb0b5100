// Address-extent LRU cache.
//
// Maps [base, base+length) address ranges to a caller-supplied value and
// answers covering-range lookups: Lookup(addr, len) returns the value of any
// cached extent that fully contains [addr, addr+len). The transfer engine
// uses this in front of verbs memory registration (the §3.4 registration
// cache, after RDMAvisor): extents are page-aligned MR registrations, values
// carry the MemoryRegion plus pinning metadata.
//
// Recency is tracked with a strictly increasing internal tick — never with
// addresses — so eviction-victim selection is identical across runs even when
// the process allocator hands out different pointers (determinism contract of
// the simulation).
#ifndef RDMADL_SRC_TENSOR_EXTENT_CACHE_H_
#define RDMADL_SRC_TENSOR_EXTENT_CACHE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <utility>

namespace rdmadl {
namespace tensor {

template <typename V>
class ExtentLruCache {
 public:
  struct Entry {
    uint64_t base = 0;
    uint64_t length = 0;
    uint64_t last_use = 0;  // Internal tick; larger = more recent.
    V value{};
  };

  // Returns the entry of a cached extent covering [addr, addr+len), bumping
  // its recency, or nullptr on a miss. len == 0 matches any extent containing
  // addr.
  Entry* Lookup(uint64_t addr, uint64_t len) {
    Entry* e = Find(addr, len);
    if (e != nullptr) e->last_use = ++tick_;
    return e;
  }

  // Lookup without bumping recency.
  const Entry* Peek(uint64_t addr, uint64_t len) const {
    return const_cast<ExtentLruCache*>(this)->Find(addr, len);
  }

  // Inserts a new extent as most recently used. Overlapping extents are
  // allowed (registrations at different alignments); lookups return the
  // first cover found.
  void Insert(uint64_t base, uint64_t length, V value) {
    Entry e;
    e.base = base;
    e.length = length;
    e.last_use = ++tick_;
    e.value = std::move(value);
    by_base_[base] = std::move(e);
  }

  // Removes and returns the least-recently-used entry satisfying |evictable|
  // (e.g. "not used in the current step"); nullopt when none qualifies.
  template <typename Pred>
  std::optional<Entry> EvictLru(Pred evictable) {
    auto victim = by_base_.end();
    for (auto it = by_base_.begin(); it != by_base_.end(); ++it) {
      if (!evictable(it->second)) continue;
      if (victim == by_base_.end() || it->second.last_use < victim->second.last_use) {
        victim = it;
      }
    }
    if (victim == by_base_.end()) return std::nullopt;
    Entry out = std::move(victim->second);
    by_base_.erase(victim);
    return out;
  }

  // Visits every entry (teardown: deregister all cached MRs).
  template <typename Fn>
  void ForEach(Fn fn) const {
    for (const auto& [key, entry] : by_base_) fn(entry);
  }

  void Clear() { by_base_.clear(); }
  size_t size() const { return by_base_.size(); }
  bool empty() const { return by_base_.empty(); }

 private:
  Entry* Find(uint64_t addr, uint64_t len) {
    // Candidate extents start at or below addr: walk down from the greatest
    // base <= addr. Overlap means a farther-down extent can still cover addr,
    // so keep walking. Cache sizes are small (tens of entries); the scan is
    // bounded by that.
    auto it = by_base_.upper_bound(addr);
    while (it != by_base_.begin()) {
      --it;
      const Entry& e = it->second;
      if (addr >= e.base && addr - e.base <= e.length &&
          len <= e.length - (addr - e.base)) {
        return &it->second;
      }
    }
    return nullptr;
  }

  std::map<uint64_t, Entry> by_base_;
  uint64_t tick_ = 0;
};

}  // namespace tensor
}  // namespace rdmadl

#endif  // RDMADL_SRC_TENSOR_EXTENT_CACHE_H_
