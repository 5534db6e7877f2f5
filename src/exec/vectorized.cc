#include "exec/vectorized.h"

#include <algorithm>

#include "common/check.h"
#include "common/metrics.h"
#include "common/profiler.h"
#include "common/selvec.h"

namespace lpce::exec {

namespace {

constexpr size_t kBatch = static_cast<size_t>(kDefaultBatchSize);

/// Refines the selection vector `sel` (global row ids, length n) in place
/// against `col[r] op lit`, one branch-free pass per predicate. The switch
/// is hoisted out of the loop so each comparison compiles to a flag-setting
/// compare feeding the cursor increment, with no per-row branch.
size_t RefineCmp(const std::vector<int64_t>& col, qry::CmpOp op, int64_t lit,
                 uint32_t* sel, size_t n) {
  switch (op) {
    case qry::CmpOp::kLt:
      return common::RefineSelection(sel, n, sel,
                                     [&](uint32_t r) { return col[r] < lit; });
    case qry::CmpOp::kLe:
      return common::RefineSelection(sel, n, sel,
                                     [&](uint32_t r) { return col[r] <= lit; });
    case qry::CmpOp::kEq:
      return common::RefineSelection(sel, n, sel,
                                     [&](uint32_t r) { return col[r] == lit; });
    case qry::CmpOp::kGe:
      return common::RefineSelection(sel, n, sel,
                                     [&](uint32_t r) { return col[r] >= lit; });
    case qry::CmpOp::kGt:
      return common::RefineSelection(sel, n, sel,
                                     [&](uint32_t r) { return col[r] > lit; });
    case qry::CmpOp::kNe:
      return common::RefineSelection(sel, n, sel,
                                     [&](uint32_t r) { return col[r] != lit; });
  }
  return n;
}

/// Fills `sel` with scan batch `batch` — candidates [batch*B, min((batch+1)*B,
/// n)) of the table (or of the driving index's row list) — refined against
/// every predicate; returns the surviving count. Shared by the batch scan and
/// the fused scan→probe, so both see identical candidate batches.
size_t FilterScanBatch(const db::Table& table,
                       const std::vector<uint32_t>* index_rows,
                       const std::vector<qry::Predicate>& residual, size_t n,
                       size_t batch, uint32_t* sel) {
  const size_t lo = batch * kBatch;
  const size_t count = std::min(kBatch, n - lo);
  if (index_rows != nullptr) {
    std::copy(index_rows->data() + lo, index_rows->data() + lo + count, sel);
  } else {
    for (size_t i = 0; i < count; ++i) sel[i] = static_cast<uint32_t>(lo + i);
  }
  size_t live = count;
  for (const auto& f : residual) {
    if (live == 0) break;
    live = RefineCmp(table.column(f.col.column), f.op, f.value, sel, live);
  }
  return live;
}

common::Counter* BatchesCounter() {
  static common::Counter* batches =
      common::MetricsRegistry::Global().counter("executor.batches_total");
  return batches;
}

}  // namespace

RowSetPtr BatchScan(const db::Table& table, int32_t table_id,
                    const std::vector<uint32_t>* index_rows,
                    const std::vector<qry::Predicate>& residual,
                    const std::vector<db::ColRef>& required) {
  LPCE_PROFILE_SCOPE("exec.batch_scan");
  const size_t B = kBatch;
  const size_t n = index_rows != nullptr ? index_rows->size() : table.num_rows();
  auto out = std::make_shared<RowSet>();
  out->schema = required;
  for (const auto& ref : required) LPCE_CHECK(ref.table == table_id);
  out->rid_tables.push_back(table_id);

  // A dense scan with no predicates is an identity row-id column — 4 bytes
  // per row, regardless of how many columns the parent will eventually read.
  if (index_rows == nullptr && residual.empty()) {
    out->row_count = n;
    auto& rid = out->rid_cols.emplace_back();
    rid.resize(n);
    for (size_t i = 0; i < n; ++i) rid[i] = static_cast<uint32_t>(i);
    return out;
  }

  // Filter batch-at-a-time: batch k covers candidates [k*B, min((k+1)*B, n)),
  // so the surviving rows keep the input order.
  const size_t num_batches = (n + B - 1) / B;
  std::vector<uint32_t> rows;
  rows.reserve(n);
  std::vector<uint32_t> sel(B);
  for (size_t batch = 0; batch < num_batches; ++batch) {
    const size_t live =
        FilterScanBatch(table, index_rows, residual, n, batch, sel.data());
    rows.insert(rows.end(), sel.data(), sel.data() + live);
  }
  BatchesCounter()->Increment(num_batches);

  // The surviving selection vector *is* the result — no payload gather at
  // all. Payload reads happen downstream through the row-id indirection.
  out->row_count = rows.size();
  out->rid_cols.push_back(std::move(rows));
  return out;
}

// ---- Joins on row-id intermediates -----------------------------------------
//
// A join's inputs and output carry base-table row-id columns instead of
// payload columns. Every payload read — join keys at probe time, residual-key
// values — goes through the row-id indirection (common/selvec.h
// GatherGathered).

namespace {

/// Payload column read through a row-id indirection. `rid == nullptr` means
/// the candidate handles already are base rows (the fused scan side), so the
/// read is a one-level gather.
struct LateKeyCol {
  const int64_t* base = nullptr;
  const uint32_t* rid = nullptr;
};

/// Source of one output row-id column: a side's rid column gathered through
/// the match list, or (outer side with `rid == nullptr`) the outer candidate
/// handle itself.
struct LateRidSource {
  bool from_outer = false;
  const uint32_t* rid = nullptr;
};

/// Flattened bucket-segment table over the inner side's (gathered) keys,
/// built by counting sort: every bucket's (key, row) pairs land in one
/// contiguous segment written in ascending inner-row order, so a key's
/// matches enumerate exactly like the oracle's per-key insertion-order list.
/// Key equality is re-checked per entry, so the bucket count and hash
/// function are invisible in the output.
struct LateBuildTable {
  uint64_t mask = 0;
  std::vector<uint32_t> off;
  std::vector<int64_t> flat_keys;
  std::vector<uint32_t> flat_rows;
};

LateBuildTable BuildLateHashTable(const int64_t* key_base,
                                  const uint32_t* key_rid, size_t n_inner) {
  LateBuildTable t;
  size_t nbuckets = 16;
  while (nbuckets < 2 * n_inner) nbuckets <<= 1;
  t.mask = nbuckets - 1;
  // Gather the inner keys through the row-id indirection once; the bucket
  // pass and the flat fill both read the gathered copy sequentially.
  std::vector<int64_t> ikeys(n_inner);
  std::vector<uint32_t> bucket(n_inner);
  for (size_t r = 0; r < n_inner; ++r) {
    ikeys[r] = key_base[key_rid[r]];
    bucket[r] = static_cast<uint32_t>(MixJoinKey(ikeys[r]) & t.mask);
  }
  t.off.assign(nbuckets + 1, 0);
  for (size_t r = 0; r < n_inner; ++r) ++t.off[bucket[r] + 1];
  for (size_t b = 0; b < nbuckets; ++b) t.off[b + 1] += t.off[b];
  t.flat_keys.resize(n_inner);
  t.flat_rows.resize(n_inner);
  {
    std::vector<uint32_t> cursor(t.off.begin(), t.off.end() - 1);
    for (size_t r = 0; r < n_inner; ++r) {
      const uint32_t p = cursor[bucket[r]]++;
      t.flat_keys[p] = ikeys[r];
      t.flat_rows[p] = static_cast<uint32_t>(r);
    }
  }
  return t;
}

struct LateProbeArgs {
  const int64_t* okey_base = nullptr;
  const uint32_t* okey_rid = nullptr;  // nullptr: candidates are base rows
  std::vector<std::pair<LateKeyCol, LateKeyCol>> residual;  // (outer, inner)
  std::vector<LateRidSource> out_rids;
  size_t max_rows = 0;
  size_t n_cand = 0;  // candidate domain size (pre-filter for fused)
};

/// Shared probe loop of the hash-join kernels. `fill(batch, cand)` writes
/// the batch's candidate handles (rowset rows for the unfused kernel, filter-
/// surviving base rows for the fused one) and returns how many there are;
/// batch k covers candidate domain [k*B, (k+1)*B). Matches are emitted in
/// candidate order, then ascending inner-row order per candidate.
///
/// Three probe modes share the branch-free segment scan (every entry is
/// stored/summed unconditionally, the cursor advances by the key-equality
/// result): count-only (no residual keys, no output columns — a root join)
/// sums hits; expand (no residual keys) collects inner row ids only when an
/// inner table is emitted, plus per-candidate match counts for run-length
/// outer emission; pairs (residual keys) collects (outer, inner) candidate
/// pairs and refines them. When `collected` is set, every batch's
/// candidates are also accumulated into it in order (the fused scan's row-id
/// output). Returns false on overflow.
template <typename FillBatch>
bool LateProbeDrive(const LateBuildTable& build, const LateProbeArgs& a,
                    FillBatch fill, RowSet* out,
                    std::vector<uint32_t>* collected) {
  const size_t B = kBatch;
  const uint64_t mask = build.mask;
  const std::vector<uint32_t>& off = build.off;
  const std::vector<int64_t>& flat_keys = build.flat_keys;
  const std::vector<uint32_t>& flat_rows = build.flat_rows;
  const size_t num_batches = (a.n_cand + B - 1) / B;
  size_t emitted = 0;

  const bool count_only = a.residual.empty() && a.out_rids.empty();
  const bool expand = a.residual.empty() && !count_only;
  bool need_inner_rows = !expand;
  for (const LateRidSource& s : a.out_rids) need_inner_rows |= !s.from_outer;

  std::vector<uint32_t> cand(B);
  std::vector<uint32_t> m_outer(expand || count_only ? 0 : B);
  std::vector<uint32_t> m_inner(need_inner_rows ? B : 0);
  std::vector<uint32_t> counts(expand ? B : 0);
  std::vector<uint32_t> buckets(B);
  std::vector<int64_t> okey_buf(B);
  std::vector<int64_t> res_outer, res_inner;

  // Refines the m pending matches against the residual keys, charges the
  // survivors to the row budget, and only then appends their row ids.
  // Expand-mode matches belong to candidates [cand_lo, cand_hi) of the
  // batch (their per-candidate counts drive the run-length outer emit).
  // Every emitted row is charged exactly once, so overflow fires iff the
  // join's total output exceeds max_rows — checked before anything past
  // the budget is appended. Returns false on overflow.
  auto flush = [&](size_t cand_lo, size_t cand_hi, size_t m) {
    // Residual equi-join keys evaluate through the same indirection:
    // gather both sides' candidate values (two-level on the rid-backed
    // sides), then refine branch-free.
    for (const auto& [res_o, res_i] : a.residual) {
      if (m == 0) break;
      if (res_outer.size() < m) {
        res_outer.resize(m);
        res_inner.resize(m);
      }
      if (res_o.rid != nullptr) {
        common::GatherGathered(res_o.base, res_o.rid, m_outer.data(), m,
                               res_outer.data());
      } else {
        common::GatherSelected(res_o.base, m_outer.data(), m,
                               res_outer.data());
      }
      common::GatherGathered(res_i.base, res_i.rid, m_inner.data(), m,
                             res_inner.data());
      size_t k = 0;
      for (size_t j = 0; j < m; ++j) {
        m_outer[k] = m_outer[j];
        m_inner[k] = m_inner[j];
        k += static_cast<size_t>(res_outer[j] == res_inner[j]);
      }
      m = k;
    }
    emitted += m;
    if (a.max_rows > 0 && emitted > a.max_rows) return false;
    // Emit row-id columns only: one uint32 column per still-referenced
    // table instead of one int64 column per payload.
    for (size_t s = 0; s < a.out_rids.size(); ++s) {
      auto& dst = out->rid_cols[s];
      const LateRidSource& src = a.out_rids[s];
      if (src.from_outer && expand) {
        // Run-length emit: each outer handle repeats once per match, in
        // match order — identical to gathering through explicit pairs.
        for (size_t i = cand_lo; i < cand_hi; ++i) {
          const uint32_t cnt = counts[i];
          if (cnt > 0) {
            dst.insert(dst.end(), cnt,
                       src.rid != nullptr ? src.rid[cand[i]] : cand[i]);
          }
        }
      } else if (src.from_outer) {
        if (src.rid != nullptr) {
          dst.insert(dst.end(),
                     common::GatherIterator<uint32_t>(src.rid,
                                                      m_outer.data(), 0),
                     common::GatherIterator<uint32_t>(src.rid,
                                                      m_outer.data(), m));
        } else {
          dst.insert(dst.end(), m_outer.data(), m_outer.data() + m);
        }
      } else {
        dst.insert(dst.end(),
                   common::GatherIterator<uint32_t>(src.rid, m_inner.data(),
                                                    0),
                   common::GatherIterator<uint32_t>(src.rid, m_inner.data(),
                                                    m));
      }
    }
    return true;
  };
  BatchesCounter()->Increment(num_batches);
  for (size_t batch = 0; batch < num_batches; ++batch) {
    const size_t live = fill(batch, cand.data());
    if (collected != nullptr) {
      collected->insert(collected->end(), cand.data(), cand.data() + live);
    }
    if (live == 0) continue;
    // Join-key access gathers through the row-id indirection — the
    // deferred payload read late materialization trades the emission
    // copies for.
    if (a.okey_rid != nullptr) {
      common::GatherGathered(a.okey_base, a.okey_rid, cand.data(), live,
                             okey_buf.data());
    } else {
      common::GatherSelected(a.okey_base, cand.data(), live, okey_buf.data());
    }
    for (size_t i = 0; i < live; ++i) {
      buckets[i] = static_cast<uint32_t>(MixJoinKey(okey_buf[i]) & mask);
    }
    if (count_only) {
      size_t hits = 0;
      for (size_t i = 0; i < live; ++i) {
        const int64_t key = okey_buf[i];
        const uint64_t b = buckets[i];
        const uint32_t seg_end = off[b + 1];
        for (uint32_t j = off[b]; j < seg_end; ++j) {
          hits += static_cast<size_t>(flat_keys[j] == key);
        }
      }
      emitted += hits;
      if (a.max_rows > 0 && emitted > a.max_rows) return false;
      continue;
    }
    // Candidate collection. Capacity is checked ahead of each candidate's
    // segment so the scan carries no bounds check. A full buffer is
    // flushed — refined, budget-checked, emitted — before it may grow, so
    // the match buffers never hold more than one batch's worth or one
    // bucket segment, however much a batch would emit.
    size_t m = 0, flush_lo = 0;
    for (size_t i = 0; i < live; ++i) {
      const int64_t key = okey_buf[i];
      const uint64_t b = buckets[i];
      const uint32_t seg_begin = off[b];
      const uint32_t seg_end = off[b + 1];
      const size_t seg = seg_end - seg_begin;
      if (need_inner_rows && m + seg > m_inner.size()) {
        if (!flush(flush_lo, i, m)) return false;
        m = 0;
        flush_lo = i;
        if (seg > m_inner.size()) {
          m_inner.resize(seg);
          if (!expand) m_outer.resize(seg);
        }
      }
      if (expand && !need_inner_rows) {
        size_t hits = 0;
        for (uint32_t j = seg_begin; j < seg_end; ++j) {
          hits += static_cast<size_t>(flat_keys[j] == key);
        }
        counts[i] = static_cast<uint32_t>(hits);
        m += hits;
      } else if (expand) {
        const size_t before = m;
        for (uint32_t j = seg_begin; j < seg_end; ++j) {
          m_inner[m] = flat_rows[j];
          m += static_cast<size_t>(flat_keys[j] == key);
        }
        counts[i] = static_cast<uint32_t>(m - before);
      } else {
        for (uint32_t j = seg_begin; j < seg_end; ++j) {
          m_outer[m] = cand[i];
          m_inner[m] = flat_rows[j];
          m += static_cast<size_t>(flat_keys[j] == key);
        }
      }
    }
    if (!flush(flush_lo, live, m)) return false;
  }
  out->row_count = emitted;
  return true;
}

/// Resolves a side's join-key accessor: base column data plus the side's
/// row-id column for the key's table.
LateKeyCol LateSideKey(const db::Database& db, const RowSet& side,
                       db::ColRef key) {
  const int idx = side.RidIndex(key.table);
  LPCE_CHECK_MSG(idx >= 0, "late join input missing the key table's row ids");
  return {db.table(key.table).column(key.column).data(),
          side.rid_cols[idx].data()};
}

std::vector<LateRidSource> ResolveRidSources(
    const RowSet* outer, const RowSet& inner, int32_t fused_outer_table,
    const std::vector<int32_t>& out_rid_tables) {
  std::vector<LateRidSource> sources;
  sources.reserve(out_rid_tables.size());
  for (int32_t table_id : out_rid_tables) {
    if (outer != nullptr) {
      const int oi = outer->RidIndex(table_id);
      if (oi >= 0) {
        sources.push_back({true, outer->rid_cols[oi].data()});
        continue;
      }
    } else if (table_id == fused_outer_table) {
      sources.push_back({true, nullptr});
      continue;
    }
    const int ii = inner.RidIndex(table_id);
    LPCE_CHECK_MSG(ii >= 0, "join output row-id table not found in either side");
    sources.push_back({false, inner.rid_cols[ii].data()});
  }
  return sources;
}

}  // namespace

RowSetPtr LateHashJoin(const db::Database& db, const RowSet& outer,
                       const RowSet& inner, db::ColRef outer_key,
                       db::ColRef inner_key,
                       const std::vector<std::pair<db::ColRef, db::ColRef>>&
                           residual_keys,
                       const std::vector<db::ColRef>& required,
                       const std::vector<int32_t>& out_rid_tables,
                       size_t max_rows, bool* overflow) {
  LPCE_PROFILE_SCOPE("exec.late_hash_join");

  auto out = std::make_shared<RowSet>();
  out->schema = required;
  out->rid_tables = out_rid_tables;
  out->rid_cols.resize(out_rid_tables.size());

  const LateKeyCol okey = LateSideKey(db, outer, outer_key);
  const LateKeyCol ikey = LateSideKey(db, inner, inner_key);
  const LateBuildTable build =
      BuildLateHashTable(ikey.base, ikey.rid, inner.row_count);

  LateProbeArgs args;
  args.okey_base = okey.base;
  args.okey_rid = okey.rid;
  for (const auto& [outer_col, inner_col] : residual_keys) {
    args.residual.emplace_back(LateSideKey(db, outer, outer_col),
                               LateSideKey(db, inner, inner_col));
  }
  args.out_rids = ResolveRidSources(&outer, inner, -1, out_rid_tables);
  args.max_rows = max_rows;
  args.n_cand = outer.row_count;

  const size_t n_outer = outer.row_count;
  auto fill = [n_outer](size_t batch, uint32_t* cand) -> size_t {
    const size_t lo = batch * kBatch;
    const size_t count = std::min(kBatch, n_outer - lo);
    for (size_t i = 0; i < count; ++i) {
      cand[i] = static_cast<uint32_t>(lo + i);
    }
    return count;
  };
  if (!LateProbeDrive(build, args, fill, out.get(), nullptr)) {
    *overflow = true;
  }
  return out;
}

RowSetPtr LateFusedScanJoin(
    const db::Database& db, const db::Table& outer_table,
    int32_t outer_table_id, const std::vector<uint32_t>* index_rows,
    const std::vector<qry::Predicate>& scan_filters,
    const std::vector<db::ColRef>& scan_required, RowSetPtr* scan_out,
    const RowSet& inner, db::ColRef outer_key, db::ColRef inner_key,
    const std::vector<std::pair<db::ColRef, db::ColRef>>& residual_keys,
    const std::vector<db::ColRef>& required,
    const std::vector<int32_t>& out_rid_tables, size_t max_rows,
    bool* overflow) {
  LPCE_PROFILE_SCOPE("exec.late_fused_scan_join");
  LPCE_CHECK(outer_key.table == outer_table_id);

  auto out = std::make_shared<RowSet>();
  out->schema = required;
  out->rid_tables = out_rid_tables;
  out->rid_cols.resize(out_rid_tables.size());

  const LateKeyCol ikey = LateSideKey(db, inner, inner_key);
  const LateBuildTable build =
      BuildLateHashTable(ikey.base, ikey.rid, inner.row_count);

  LateProbeArgs args;
  args.okey_base = outer_table.column(outer_key.column).data();
  args.okey_rid = nullptr;  // candidates are the scanned table's base rows
  for (const auto& [outer_col, inner_col] : residual_keys) {
    LPCE_CHECK(outer_col.table == outer_table_id);
    args.residual.emplace_back(
        LateKeyCol{db.table(outer_col.table).column(outer_col.column).data(),
                   nullptr},
        LateSideKey(db, inner, inner_col));
  }
  args.out_rids =
      ResolveRidSources(nullptr, inner, outer_table_id, out_rid_tables);
  args.max_rows = max_rows;
  args.n_cand =
      index_rows != nullptr ? index_rows->size() : outer_table.num_rows();

  // The fusion itself: each batch's surviving selection vector (base rows)
  // feeds the probe directly — no intermediate rowset between the scan's
  // filter and the first join — while a copy of it accumulates into the
  // scan's row-id output for checkpoint/re-planning bookkeeping.
  const size_t n_cand = args.n_cand;
  auto fill = [&](size_t batch, uint32_t* cand) -> size_t {
    return FilterScanBatch(outer_table, index_rows, scan_filters, n_cand,
                           batch, cand);
  };

  std::vector<uint32_t> kept;
  if (!LateProbeDrive(build, args, fill, out.get(), &kept)) {
    // Overflow abandons the run; the caller recomputes the scan honestly if
    // it still needs the outer node's bookkeeping.
    *overflow = true;
    *scan_out = nullptr;
    return out;
  }
  auto scan = std::make_shared<RowSet>();
  scan->schema = scan_required;
  for (const auto& ref : scan_required) LPCE_CHECK(ref.table == outer_table_id);
  scan->row_count = kept.size();
  scan->rid_tables.push_back(outer_table_id);
  scan->rid_cols.push_back(std::move(kept));
  *scan_out = std::move(scan);
  return out;
}

namespace {

/// Shared body of the merge and nested-loop kernels: gathers the join-key and
/// residual-key values of both sides through their row ids once, lets
/// `enumerate(okeys, ikeys, emit, over_budget)` produce candidate (outer,
/// inner) position pairs in the algorithm's order, keeps the pairs whose
/// residual keys agree, and gathers the output row-id columns through them.
/// `over_budget()` is polled by the algorithm after every outer row; once it
/// reports true the join is abandoned with *overflow set.
template <typename Enumerate>
RowSetPtr LateGatheredJoin(
    const db::Database& db, const RowSet& outer, const RowSet& inner,
    db::ColRef outer_key, db::ColRef inner_key,
    const std::vector<std::pair<db::ColRef, db::ColRef>>& residual_keys,
    const std::vector<db::ColRef>& required,
    const std::vector<int32_t>& out_rid_tables, size_t max_rows,
    bool* overflow, Enumerate enumerate) {
  auto values = [&db](const RowSet& side, db::ColRef ref) {
    const LateKeyCol col = LateSideKey(db, side, ref);
    std::vector<int64_t> v(side.row_count);
    common::GatherSelected(col.base, col.rid, side.row_count, v.data());
    return v;
  };
  const std::vector<int64_t> okeys = values(outer, outer_key);
  const std::vector<int64_t> ikeys = values(inner, inner_key);
  std::vector<std::pair<std::vector<int64_t>, std::vector<int64_t>>> residual;
  residual.reserve(residual_keys.size());
  for (const auto& [outer_col, inner_col] : residual_keys) {
    residual.emplace_back(values(outer, outer_col), values(inner, inner_col));
  }

  std::vector<uint32_t> m_outer, m_inner;
  auto emit = [&](uint32_t o, uint32_t i) {
    for (const auto& [ov, iv] : residual) {
      if (ov[o] != iv[i]) return;
    }
    m_outer.push_back(o);
    m_inner.push_back(i);
  };
  auto over_budget = [&] { return max_rows > 0 && m_outer.size() > max_rows; };

  auto out = std::make_shared<RowSet>();
  out->schema = required;
  out->rid_tables = out_rid_tables;
  out->rid_cols.resize(out_rid_tables.size());
  if (!enumerate(okeys, ikeys, emit, over_budget)) {
    *overflow = true;
    return out;
  }
  out->row_count = m_outer.size();
  const std::vector<LateRidSource> sources =
      ResolveRidSources(&outer, inner, -1, out_rid_tables);
  for (size_t s = 0; s < sources.size(); ++s) {
    const std::vector<uint32_t>& sel = sources[s].from_outer ? m_outer : m_inner;
    auto& dst = out->rid_cols[s];
    dst.resize(sel.size());
    common::GatherSelected(sources[s].rid, sel.data(), sel.size(), dst.data());
  }
  return out;
}

std::vector<uint32_t> SortedPositions(const std::vector<int64_t>& keys) {
  std::vector<uint32_t> perm(keys.size());
  for (size_t i = 0; i < perm.size(); ++i) perm[i] = static_cast<uint32_t>(i);
  std::sort(perm.begin(), perm.end(),
            [&](uint32_t a, uint32_t b) { return keys[a] < keys[b]; });
  return perm;
}

}  // namespace

RowSetPtr LateMergeJoin(const db::Database& db, const RowSet& outer,
                        const RowSet& inner, db::ColRef outer_key,
                        db::ColRef inner_key,
                        const std::vector<std::pair<db::ColRef, db::ColRef>>&
                            residual_keys,
                        const std::vector<db::ColRef>& required,
                        const std::vector<int32_t>& out_rid_tables,
                        size_t max_rows, bool* overflow) {
  LPCE_PROFILE_SCOPE("exec.late_merge_join");
  return LateGatheredJoin(
      db, outer, inner, outer_key, inner_key, residual_keys, required,
      out_rid_tables, max_rows, overflow,
      [](const std::vector<int64_t>& okeys, const std::vector<int64_t>& ikeys,
         auto& emit, auto& over_budget) {
        const std::vector<uint32_t> operm = SortedPositions(okeys);
        const std::vector<uint32_t> iperm = SortedPositions(ikeys);
        size_t oi = 0, ii = 0;
        while (oi < operm.size() && ii < iperm.size()) {
          const int64_t ov = okeys[operm[oi]];
          const int64_t iv = ikeys[iperm[ii]];
          if (ov < iv) {
            ++oi;
          } else if (ov > iv) {
            ++ii;
          } else {
            size_t oe = oi;
            while (oe < operm.size() && okeys[operm[oe]] == ov) ++oe;
            size_t ie = ii;
            while (ie < iperm.size() && ikeys[iperm[ie]] == iv) ++ie;
            for (size_t a = oi; a < oe; ++a) {
              for (size_t b = ii; b < ie; ++b) emit(operm[a], iperm[b]);
              if (over_budget()) return false;
            }
            oi = oe;
            ii = ie;
          }
        }
        return true;
      });
}

RowSetPtr LateNestLoopJoin(
    const db::Database& db, const RowSet& outer, const RowSet& inner,
    db::ColRef outer_key, db::ColRef inner_key,
    const std::vector<std::pair<db::ColRef, db::ColRef>>& residual_keys,
    const std::vector<db::ColRef>& required,
    const std::vector<int32_t>& out_rid_tables, size_t max_rows,
    bool* overflow) {
  LPCE_PROFILE_SCOPE("exec.late_nestloop_join");
  return LateGatheredJoin(
      db, outer, inner, outer_key, inner_key, residual_keys, required,
      out_rid_tables, max_rows, overflow,
      [](const std::vector<int64_t>& okeys, const std::vector<int64_t>& ikeys,
         auto& emit, auto& over_budget) {
        // Deliberately quadratic — the paper's running example is that a
        // mistaken nested loop on a large outer is slow.
        for (size_t o = 0; o < okeys.size(); ++o) {
          const int64_t key = okeys[o];
          for (size_t i = 0; i < ikeys.size(); ++i) {
            if (ikeys[i] == key) {
              emit(static_cast<uint32_t>(o), static_cast<uint32_t>(i));
            }
          }
          if (over_budget()) return false;
        }
        return true;
      });
}

}  // namespace lpce::exec
