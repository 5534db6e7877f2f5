// Branch-free selection vectors for vectorized (batch-at-a-time) execution.
//
// A selection vector is a dense, ascending list of row indexes that survived
// the filters applied so far (MonetDB/X100 style). Building one is
// branch-free: every candidate index is stored unconditionally and the write
// cursor advances by the predicate's 0/1 result, so the inner loop carries no
// data-dependent branch for the CPU to mispredict. Because candidates are
// visited in ascending order and kept in place, a selection vector preserves
// the input row order exactly — the property the executor's bit-identity
// contract rests on (see DESIGN.md "Vectorized execution on row-id
// intermediates").
#ifndef LPCE_COMMON_SELVEC_H_
#define LPCE_COMMON_SELVEC_H_

#include <cstddef>
#include <cstdint>
#include <iterator>

namespace lpce::common {

/// Fills `sel` with every index i in [0, n) where pred(i) is truthy
/// (branch-free); returns how many were kept. `sel` must hold n entries.
template <typename Pred>
inline size_t BuildSelection(size_t n, uint32_t* sel, Pred pred) {
  size_t k = 0;
  for (size_t i = 0; i < n; ++i) {
    sel[k] = static_cast<uint32_t>(i);
    k += static_cast<size_t>(static_cast<bool>(pred(static_cast<uint32_t>(i))));
  }
  return k;
}

/// Compacts `sel_in` (length n) into `sel_out`, keeping the indexes where
/// pred(index) holds; returns the surviving count. In-place refinement
/// (sel_out == sel_in) is safe: the write cursor never passes the read
/// cursor.
template <typename Pred>
inline size_t RefineSelection(const uint32_t* sel_in, size_t n,
                              uint32_t* sel_out, Pred pred) {
  size_t k = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t idx = sel_in[i];
    sel_out[k] = idx;
    k += static_cast<size_t>(static_cast<bool>(pred(idx)));
  }
  return k;
}

/// Gathers col[sel[i]] for i in [0, n) into `dst` (must hold n values).
/// Works for payload columns (int64) and row-id columns (uint32) alike.
template <typename T>
inline void GatherSelected(const T* col, const uint32_t* sel, size_t n,
                           T* dst) {
  for (size_t i = 0; i < n; ++i) dst[i] = col[sel[i]];
}

/// Two-level gather: dst[i] = col[rid[sel[i]]] for i in [0, n). Reads payload
/// values through a row-id indirection column — the access pattern of late
/// materialization, where an intermediate carries base-table row ids and a
/// selection vector over them picks the candidates of the current batch.
template <typename T>
inline void GatherGathered(const T* col, const uint32_t* rid,
                           const uint32_t* sel, size_t n, T* dst) {
  for (size_t i = 0; i < n; ++i) dst[i] = col[rid[sel[i]]];
}

/// Random-access iterator over col[sel[i]]. Lets callers append a gather to a
/// std::vector via insert(end, begin, end) — one write per element, with no
/// value-initialization pass over the appended tail (resize would pay one).
template <typename T = int64_t>
class GatherIterator {
 public:
  using iterator_category = std::random_access_iterator_tag;
  using value_type = T;
  using difference_type = std::ptrdiff_t;
  using pointer = const T*;
  using reference = T;

  GatherIterator(const T* col, const uint32_t* sel, size_t i)
      : col_(col), sel_(sel), i_(i) {}

  T operator*() const { return col_[sel_[i_]]; }
  T operator[](difference_type d) const { return col_[sel_[i_ + d]]; }
  GatherIterator& operator++() { ++i_; return *this; }
  GatherIterator operator++(int) { auto t = *this; ++i_; return t; }
  GatherIterator& operator--() { --i_; return *this; }
  GatherIterator operator--(int) { auto t = *this; --i_; return t; }
  GatherIterator& operator+=(difference_type d) { i_ += d; return *this; }
  GatherIterator& operator-=(difference_type d) { i_ -= d; return *this; }
  GatherIterator operator+(difference_type d) const {
    return GatherIterator(col_, sel_, i_ + d);
  }
  GatherIterator operator-(difference_type d) const {
    return GatherIterator(col_, sel_, i_ - d);
  }
  difference_type operator-(const GatherIterator& o) const {
    return static_cast<difference_type>(i_) -
           static_cast<difference_type>(o.i_);
  }
  bool operator==(const GatherIterator& o) const { return i_ == o.i_; }
  bool operator!=(const GatherIterator& o) const { return i_ != o.i_; }
  bool operator<(const GatherIterator& o) const { return i_ < o.i_; }
  bool operator<=(const GatherIterator& o) const { return i_ <= o.i_; }
  bool operator>(const GatherIterator& o) const { return i_ > o.i_; }
  bool operator>=(const GatherIterator& o) const { return i_ >= o.i_; }

 private:
  const T* col_;
  const uint32_t* sel_;
  size_t i_;
};

}  // namespace lpce::common

#endif  // LPCE_COMMON_SELVEC_H_
