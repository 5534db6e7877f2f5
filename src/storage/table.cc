#include "storage/table.h"

#include <algorithm>
#include <limits>

namespace lpce::db {

void HashIndex::Build(const Table& table, size_t col) {
  map_.clear();
  const auto& values = table.column(col);
  map_.reserve(values.size() / 2 + 1);
  for (size_t row = 0; row < values.size(); ++row) {
    map_[values[row]].push_back(static_cast<uint32_t>(row));
  }
}

const std::vector<uint32_t>& HashIndex::Lookup(int64_t value) const {
  auto it = map_.find(value);
  if (it == map_.end()) return empty_;
  return it->second;
}

void SortedIndex::Build(const Table& table, size_t col) {
  const auto& values = table.column(col);
  entries_.clear();
  entries_.reserve(values.size());
  for (size_t row = 0; row < values.size(); ++row) {
    entries_.emplace_back(values[row], static_cast<uint32_t>(row));
  }
  std::sort(entries_.begin(), entries_.end());
}

std::pair<size_t, size_t> SortedIndex::Range(int64_t lo, int64_t hi) const {
  if (lo > hi) return {0, 0};
  auto begin = std::lower_bound(entries_.begin(), entries_.end(),
                                std::make_pair(lo, uint32_t{0}));
  auto end = std::upper_bound(
      begin, entries_.end(),
      std::make_pair(hi, std::numeric_limits<uint32_t>::max()));
  return {static_cast<size_t>(begin - entries_.begin()),
          static_cast<size_t>(end - entries_.begin())};
}

std::vector<uint32_t> SortedIndex::RangeLookup(int64_t lo, int64_t hi) const {
  const auto [begin, end] = Range(lo, hi);
  std::vector<uint32_t> out(end - begin);
  for (size_t i = begin; i < end; ++i) out[i - begin] = entries_[i].second;
  return out;
}

size_t SortedIndex::RangeCount(int64_t lo, int64_t hi) const {
  const auto [begin, end] = Range(lo, hi);
  return end - begin;
}

}  // namespace lpce::db
