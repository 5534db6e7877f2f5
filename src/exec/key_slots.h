// Dense slots for int64 join keys: the one key-to-slot mapping behind the
// hash join's build (exec/vectorized.cc) and the workload generator's
// counting pass over a join tree (workload/workload.cc).
#ifndef LPCE_SRC_EXEC_KEY_SLOTS_H_
#define LPCE_SRC_EXEC_KEY_SLOTS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace lpce::exec {

/// Maps every distinct key of a gathered key column to a dense slot in
/// [0, num_slots()), equal keys to the same slot. Keys whose span
/// (max - min) is at most 4n + 64 map by offset, slot = key - min; any other
/// int64 keys go through an open-addressing dictionary of the distinct keys,
/// numbered in first-seen order. Both rules read only the gathered copy, so
/// callers gather their keys through their row ids once.
class KeySlots {
 public:
  /// Builds the mapping over keys[0, n) and writes the slot of keys[i] to
  /// slots[i]. n must be below 2^32 - 2.
  void Build(const int64_t* keys, size_t n, uint32_t* slots);

  uint32_t num_slots() const { return num_slots_; }
  /// True when slots are key offsets; false when they come from the
  /// dictionary.
  bool by_offset() const { return by_offset_; }

  /// Slot of `key`, or num_slots() when the build never saw it: one lookup
  /// per mode, so batch loops choose the mode once.
  uint32_t FindByOffset(int64_t key) const {
    const uint64_t d = static_cast<uint64_t>(key) - static_cast<uint64_t>(lo_);
    return d < num_slots_ ? static_cast<uint32_t>(d) : num_slots_;
  }
  uint32_t FindInDictionary(int64_t key) const {
    uint64_t h = Hash(key);
    while (ids_[h] != 0 && keys_[h] != key) h = (h + 1) & mask_;
    return ids_[h] != 0 ? ids_[h] - 1 : num_slots_;
  }

 private:
  uint64_t Hash(int64_t key) const {
    return (static_cast<uint64_t>(key) * 0x9E3779B97F4A7C15ull) >> shift_;
  }

  bool by_offset_ = true;
  int64_t lo_ = 0;
  uint32_t num_slots_ = 0;
  int shift_ = 0;
  uint64_t mask_ = 0;
  std::vector<int64_t> keys_;  // dictionary: the key held by each cell
  std::vector<uint32_t> ids_;  // dictionary: slot + 1 per cell; 0 = empty
};

}  // namespace lpce::exec

#endif  // LPCE_SRC_EXEC_KEY_SLOTS_H_
