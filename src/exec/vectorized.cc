#include "exec/vectorized.h"

#include <algorithm>

#include "common/check.h"
#include "common/metrics.h"
#include "common/profiler.h"
#include "common/selvec.h"
#include "exec/key_slots.h"

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

/// Build side of a hash join. Every distinct inner key owns one slot
/// (exec/key_slots.h), and a counting sort by slot lays the inner rows out
/// as one segment per key, rows[off[s], off[s + 1]), written in ascending
/// inner-row order: a key's matches enumerate exactly like the oracle's
/// per-key insertion-order list, and a segment holds nothing but matches.
/// `off` has num_slots + 2 entries; the last segment, at slot num_slots, is
/// the empty one that every key the build never saw finds.
struct SlotTable {
  KeySlots slots;
  std::vector<uint32_t> off;
  std::vector<uint32_t> rows;
};

SlotTable BuildSlotTable(const LateKeyCol& key, size_t n_inner) {
  LPCE_PROFILE_SCOPE("exec.hash_join.build");
  SlotTable t;
  // Gather the inner keys through the row-id indirection once; the slot
  // mapping reads the gathered copy.
  std::vector<int64_t> keys(n_inner);
  common::GatherSelected(key.base, key.rid, n_inner, keys.data());
  std::vector<uint32_t> slot(n_inner);
  t.slots.Build(keys.data(), n_inner, slot.data());
  // Counts land two entries up, so after the prefix sum off[s + 1] is the
  // start of slot s; the fill advances it to the end of slot s, which is
  // the start of slot s + 1.
  t.off.assign(static_cast<size_t>(t.slots.num_slots()) + 2, 0);
  for (size_t r = 0; r < n_inner; ++r) ++t.off[slot[r] + 2];
  for (size_t s = 1; s < t.off.size(); ++s) t.off[s] += t.off[s - 1];
  t.rows.resize(n_inner);
  for (size_t r = 0; r < n_inner; ++r) {
    t.rows[t.off[slot[r] + 1]++] = static_cast<uint32_t>(r);
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

/// The probe's first pass: every outer candidate with at least one match,
/// in candidate order, with its segment of the build (start, count), and
/// the sum of the counts. Holds one entry per candidate at most, whatever
/// the join would emit.
struct Matches {
  std::vector<uint32_t> cand, start, count;
  size_t size = 0;
  size_t total = 0;

  void Reserve(size_t need) {
    if (cand.size() >= need) return;
    const size_t cap = std::max(need, 2 * cand.size());
    cand.resize(cap);
    start.resize(cap);
    count.resize(cap);
  }
};

/// Locates each batch's outer keys in the build: `fill(batch, cand)` writes
/// the batch's candidate handles (rowset rows for the unfused kernel,
/// filter-surviving base rows for the fused one) and returns how many there
/// are; batch k covers candidate domain [k*B, (k+1)*B). Count-only probes
/// (`m->cand` unused) only sum the counts. Without residual keys the sum
/// is the join's output size, so the row budget is tested after every
/// batch. When `collected` is set, every batch's candidates are also
/// accumulated into it in order (the fused scan's row-id output). Returns
/// false on overflow; *probed counts the candidates looked up.
template <typename FillBatch>
bool LocateMatches(const SlotTable& build, const LateProbeArgs& a,
                   bool count_only, FillBatch fill, Matches* m,
                   std::vector<uint32_t>* collected, size_t* probed) {
  LPCE_PROFILE_SCOPE("exec.hash_join.locate");
  const size_t B = kBatch;
  const size_t num_batches = (a.n_cand + B - 1) / B;
  const bool charge = a.residual.empty() && a.max_rows > 0;
  const uint32_t* off = build.off.data();
  std::vector<uint32_t> cand(B);
  std::vector<int64_t> okeys(B);
  std::vector<uint32_t> slots(B);
  BatchesCounter()->Increment(num_batches);
  for (size_t batch = 0; batch < num_batches; ++batch) {
    const size_t live = fill(batch, cand.data());
    if (collected != nullptr) {
      collected->insert(collected->end(), cand.data(), cand.data() + live);
    }
    *probed += live;
    if (live == 0) continue;
    // Join-key access gathers through the row-id indirection — the
    // deferred payload read late materialization trades the emission
    // copies for.
    if (a.okey_rid != nullptr) {
      common::GatherGathered(a.okey_base, a.okey_rid, cand.data(), live,
                             okeys.data());
    } else {
      common::GatherSelected(a.okey_base, cand.data(), live, okeys.data());
    }
    if (build.slots.by_offset()) {
      for (size_t i = 0; i < live; ++i) {
        slots[i] = build.slots.FindByOffset(okeys[i]);
      }
    } else {
      for (size_t i = 0; i < live; ++i) {
        slots[i] = build.slots.FindInDictionary(okeys[i]);
      }
    }
    if (count_only) {
      size_t hits = 0;
      for (size_t i = 0; i < live; ++i) hits += off[slots[i] + 1] - off[slots[i]];
      m->total += hits;
    } else {
      // Branch-free: every candidate is written, and the cursor advances
      // only past those with a non-empty segment.
      m->Reserve(m->size + live);
      uint32_t* out_cand = m->cand.data();
      uint32_t* out_start = m->start.data();
      uint32_t* out_count = m->count.data();
      size_t k = m->size;
      size_t hits = 0;
      for (size_t i = 0; i < live; ++i) {
        const uint32_t begin = off[slots[i]];
        const uint32_t n = off[slots[i] + 1] - begin;
        out_cand[k] = cand[i];
        out_start[k] = begin;
        out_count[k] = n;
        k += static_cast<size_t>(n != 0);
        hits += n;
      }
      m->size = k;
      m->total += hits;
    }
    if (charge && m->total > a.max_rows) return false;
  }
  return true;
}

/// The second pass without residual keys: the first pass's total is the
/// output size, so each output row-id column is allocated once at that size
/// and filled in one sweep over the matches.
void EmitMatches(const SlotTable& build, const LateProbeArgs& a,
                 const Matches& m, RowSet* out) {
  LPCE_PROFILE_SCOPE("exec.hash_join.emit");
  const uint32_t* cand = m.cand.data();
  const uint32_t* start = m.start.data();
  const uint32_t* count = m.count.data();
  const uint32_t* rows = build.rows.data();
  for (size_t s = 0; s < a.out_rids.size(); ++s) {
    std::vector<uint32_t>& dst_col = out->rid_cols[s];
    dst_col.resize(m.total);
    uint32_t* dst = dst_col.data();
    const uint32_t* rid = a.out_rids[s].rid;
    if (a.out_rids[s].from_outer) {
      if (rid == nullptr) {
        for (size_t k = 0; k < m.size; ++k) {
          dst = std::fill_n(dst, count[k], cand[k]);
        }
      } else {
        for (size_t k = 0; k < m.size; ++k) {
          dst = std::fill_n(dst, count[k], rid[cand[k]]);
        }
      }
    } else {
      for (size_t k = 0; k < m.size; ++k) {
        const uint32_t* seg = rows + start[k];
        for (uint32_t j = 0; j < count[k]; ++j) dst[j] = rid[seg[j]];
        dst += count[k];
      }
    }
  }
  out->row_count = m.total;
}

/// The second pass with residual keys: the matches are expanded into
/// (outer candidate, inner row) pairs one batch at a time, refined
/// branch-free against every residual key (both sides read through their
/// row ids), and only the survivors are charged to the row budget and
/// appended. Every emitted row is charged exactly once, so overflow fires
/// iff the refined output exceeds max_rows, before anything past the budget
/// is appended; the pair buffers never hold more than one batch. Returns
/// false on overflow.
bool EmitRefinedMatches(const SlotTable& build, const LateProbeArgs& a,
                        const Matches& m, RowSet* out) {
  LPCE_PROFILE_SCOPE("exec.hash_join.emit");
  const size_t B = kBatch;
  std::vector<uint32_t> m_outer(B), m_inner(B);
  std::vector<int64_t> res_outer(B), res_inner(B);
  size_t emitted = 0;
  auto flush = [&](size_t n) {
    for (const auto& [res_o, res_i] : a.residual) {
      if (n == 0) break;
      if (res_o.rid != nullptr) {
        common::GatherGathered(res_o.base, res_o.rid, m_outer.data(), n,
                               res_outer.data());
      } else {
        common::GatherSelected(res_o.base, m_outer.data(), n, res_outer.data());
      }
      common::GatherGathered(res_i.base, res_i.rid, m_inner.data(), n,
                             res_inner.data());
      size_t k = 0;
      for (size_t j = 0; j < n; ++j) {
        m_outer[k] = m_outer[j];
        m_inner[k] = m_inner[j];
        k += static_cast<size_t>(res_outer[j] == res_inner[j]);
      }
      n = k;
    }
    emitted += n;
    if (a.max_rows > 0 && emitted > a.max_rows) return false;
    for (size_t s = 0; s < a.out_rids.size(); ++s) {
      std::vector<uint32_t>& dst = out->rid_cols[s];
      const LateRidSource& src = a.out_rids[s];
      const uint32_t* handles = src.from_outer ? m_outer.data() : m_inner.data();
      if (src.rid != nullptr) {
        dst.insert(dst.end(), common::GatherIterator<uint32_t>(src.rid, handles, 0),
                   common::GatherIterator<uint32_t>(src.rid, handles, n));
      } else {
        dst.insert(dst.end(), handles, handles + n);
      }
    }
    return true;
  };
  size_t n = 0;
  for (size_t k = 0; k < m.size; ++k) {
    const uint32_t begin = m.start[k];
    const uint32_t end = begin + m.count[k];
    for (uint32_t j = begin; j < end; ++j) {
      if (n == B) {
        if (!flush(n)) return false;
        n = 0;
      }
      m_outer[n] = m.cand[k];
      m_inner[n] = build.rows[j];
      ++n;
    }
  }
  if (!flush(n)) return false;
  out->row_count = emitted;
  return true;
}

/// Shared probe of the hash-join kernels: the first pass locates every
/// candidate's matches (LocateMatches), the second emits them — nothing
/// for a count-only root join (no residual keys, no output columns),
/// exact-size columns without residual keys, refined pairs with them.
/// Matches come out in candidate order, then ascending inner-row order per
/// candidate. A join that finishes adds its inner, probed and emitted rows
/// to the executor's work counters. Returns false on overflow.
template <typename FillBatch>
bool LateProbeDrive(const SlotTable& build, const LateProbeArgs& a,
                    FillBatch fill, RowSet* out,
                    std::vector<uint32_t>* collected) {
  const bool count_only = a.residual.empty() && a.out_rids.empty();
  Matches m;
  size_t probed = 0;
  if (!LocateMatches(build, a, count_only, fill, &m, collected, &probed)) {
    return false;
  }
  if (count_only) {
    out->row_count = m.total;
  } else if (a.residual.empty()) {
    EmitMatches(build, a, m, out);
  } else if (!EmitRefinedMatches(build, a, m, out)) {
    return false;
  }
  static common::Counter* built = common::MetricsRegistry::Global().counter(
      "executor.hash_join_build_rows_total");
  static common::Counter* probed_rows =
      common::MetricsRegistry::Global().counter(
          "executor.hash_join_probe_rows_total");
  static common::Counter* emitted = common::MetricsRegistry::Global().counter(
      "executor.hash_join_emit_rows_total");
  built->Increment(build.rows.size());
  probed_rows->Increment(probed);
  emitted->Increment(out->row_count);
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
  const SlotTable build = BuildSlotTable(ikey, inner.row_count);

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
  const SlotTable build = BuildSlotTable(ikey, inner.row_count);

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
