// Columnar in-memory table and secondary indexes.
#ifndef LPCE_STORAGE_TABLE_H_
#define LPCE_STORAGE_TABLE_H_

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.h"

namespace lpce::db {

/// A column-oriented table: one int64 vector per column, row-aligned.
class Table {
 public:
  Table() = default;
  explicit Table(size_t num_columns) : columns_(num_columns) {}

  size_t num_columns() const { return columns_.size(); }
  size_t num_rows() const { return columns_.empty() ? 0 : columns_[0].size(); }

  const std::vector<int64_t>& column(size_t i) const {
    LPCE_DCHECK(i < columns_.size());
    return columns_[i];
  }
  std::vector<int64_t>& mutable_column(size_t i) {
    LPCE_DCHECK(i < columns_.size());
    return columns_[i];
  }

  int64_t at(size_t row, size_t col) const { return columns_[col][row]; }

  void Reserve(size_t rows) {
    for (auto& c : columns_) c.reserve(rows);
  }

  void AppendRow(const std::vector<int64_t>& values) {
    LPCE_DCHECK(values.size() == columns_.size());
    for (size_t i = 0; i < columns_.size(); ++i) columns_[i].push_back(values[i]);
  }

 private:
  std::vector<std::vector<int64_t>> columns_;
};

/// Equality index: value -> row ids. Used by hash-join-style lookups and by
/// the index-based join sampling estimator.
class HashIndex {
 public:
  HashIndex() = default;
  HashIndex(const Table& table, size_t col) { Build(table, col); }

  void Build(const Table& table, size_t col);

  /// Rows whose indexed column equals `value` (empty if none).
  const std::vector<uint32_t>& Lookup(int64_t value) const;

  size_t num_distinct() const { return map_.size(); }

 private:
  std::unordered_map<int64_t, std::vector<uint32_t>> map_;
  std::vector<uint32_t> empty_;
};

/// Ordered index: (value, row) pairs sorted by value. Supports range scans —
/// the "index scan" physical operator — and order statistics.
class SortedIndex {
 public:
  SortedIndex() = default;
  SortedIndex(const Table& table, size_t col) { Build(table, col); }

  void Build(const Table& table, size_t col);

  /// Row ids with lo <= value <= hi (inclusive bounds).
  std::vector<uint32_t> RangeLookup(int64_t lo, int64_t hi) const;
  /// Number of rows with lo <= value <= hi, without materializing them.
  size_t RangeCount(int64_t lo, int64_t hi) const;

  int64_t MinValue() const { return entries_.empty() ? 0 : entries_.front().first; }
  int64_t MaxValue() const { return entries_.empty() ? 0 : entries_.back().first; }

  const std::vector<std::pair<int64_t, uint32_t>>& entries() const { return entries_; }

 private:
  /// [begin, end) positions in entries_ of the values in [lo, hi].
  std::pair<size_t, size_t> Range(int64_t lo, int64_t hi) const;

  std::vector<std::pair<int64_t, uint32_t>> entries_;
};

}  // namespace lpce::db

#endif  // LPCE_STORAGE_TABLE_H_
