#include "exec/key_slots.h"

#include <algorithm>
#include <limits>

#include "common/check.h"

namespace lpce::exec {

void KeySlots::Build(const int64_t* keys, size_t n, uint32_t* slots) {
  by_offset_ = true;
  lo_ = 0;
  num_slots_ = 0;
  keys_.clear();
  ids_.clear();
  if (n == 0) return;
  // Slots and their one-past-the-end "absent" value must fit in uint32.
  LPCE_CHECK(n < std::numeric_limits<uint32_t>::max() - 1);
  int64_t lo = keys[0];
  int64_t hi = keys[0];
  for (size_t i = 1; i < n; ++i) {
    lo = std::min(lo, keys[i]);
    hi = std::max(hi, keys[i]);
  }
  const uint64_t span = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
  if (span <= 4 * static_cast<uint64_t>(n) + 64 &&
      span < std::numeric_limits<uint32_t>::max() - 1) {
    lo_ = lo;
    num_slots_ = static_cast<uint32_t>(span + 1);
    for (size_t i = 0; i < n; ++i) {
      slots[i] = static_cast<uint32_t>(static_cast<uint64_t>(keys[i]) -
                                       static_cast<uint64_t>(lo));
    }
    return;
  }
  by_offset_ = false;
  uint64_t capacity = 16;
  while (capacity < 2 * static_cast<uint64_t>(n)) capacity <<= 1;
  shift_ = __builtin_clzll(capacity) + 1;
  mask_ = capacity - 1;
  keys_.assign(capacity, 0);
  ids_.assign(capacity, 0);
  uint32_t next = 0;
  for (size_t i = 0; i < n; ++i) {
    const int64_t key = keys[i];
    uint64_t h = Hash(key);
    while (ids_[h] != 0 && keys_[h] != key) h = (h + 1) & mask_;
    if (ids_[h] == 0) {
      keys_[h] = key;
      ids_[h] = ++next;
    }
    slots[i] = ids_[h] - 1;
  }
  num_slots_ = next;
}

}  // namespace lpce::exec
