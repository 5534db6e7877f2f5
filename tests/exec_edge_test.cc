// Executor edge cases: empty inputs, all-filtered scans, duplicate-heavy
// merge joins, row-limit aborts and the memory an exploding join may hold,
// peak-memory accounting, and the vectorized kernels' selection-vector
// corners (empty batches, all-rows-pass filters, inputs one row either side
// of the batch size, batch boundaries straddling join partition chunks,
// merge/nested-loop joins and residual keys on row-id intermediates, and
// re-planned rounds over row-id pseudo relations) — each checked against the
// row-at-a-time oracle.
#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <functional>
#include <limits>
#include <new>
#include <utility>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "exec/executor.h"
#include "exec/vectorized.h"
#include "storage/database.h"
#include "testing/row_executor.h"

// Counting hook for the overflow-memory test: while armed, records the
// largest single heap allocation any thread requests.
namespace {
std::atomic<bool> g_track_allocs{false};
std::atomic<size_t> g_max_alloc{0};
}  // namespace

// Out of line, so the compiler never pairs an inlined malloc with a free.
__attribute__((noinline)) void* operator new(size_t n) {
  if (g_track_allocs.load(std::memory_order_relaxed)) {
    size_t seen = g_max_alloc.load(std::memory_order_relaxed);
    while (n > seen && !g_max_alloc.compare_exchange_weak(seen, n)) {
    }
  }
  void* p = std::malloc(n > 0 ? n : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, size_t) noexcept {
  std::free(p);
}

namespace lpce::exec {
namespace {

class ExecEdgeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    a_ = database_.AddTable({"a", {{"k"}, {"v"}}});
    b_ = database_.AddTable({"b", {{"k"}, {"w"}}});
    database_.catalog().AddJoinEdge({a_, 0}, {b_, 0});
    query_.tables = {a_, b_};
    query_.joins = {{{a_, 0}, {b_, 0}}};
  }

  static std::unique_ptr<PlanNode> Scan(
      int pos, std::vector<qry::Predicate> filters = {}) {
    auto node = std::make_unique<PlanNode>();
    node->op = PhysOp::kSeqScan;
    node->rels = qry::Bit(pos);
    node->table_pos = pos;
    node->filters = std::move(filters);
    return node;
  }

  static std::unique_ptr<PlanNode> JoinOn(
      PhysOp op, std::unique_ptr<PlanNode> outer,
      std::unique_ptr<PlanNode> inner, db::ColRef outer_key,
      db::ColRef inner_key,
      std::vector<std::pair<db::ColRef, db::ColRef>> residual_keys = {}) {
    auto node = std::make_unique<PlanNode>();
    node->op = op;
    node->rels = outer->rels | inner->rels;
    node->outer = std::move(outer);
    node->inner = std::move(inner);
    node->outer_key = outer_key;
    node->inner_key = inner_key;
    node->residual_keys = std::move(residual_keys);
    return node;
  }

  std::unique_ptr<PlanNode> Join(PhysOp op, std::unique_ptr<PlanNode> outer,
                                 std::unique_ptr<PlanNode> inner) {
    return JoinOn(op, std::move(outer), std::move(inner), {a_, 0}, {b_, 0});
  }

  struct Outcome {
    std::vector<RowSetPtr> rowsets;  // post-order, materialized
    std::vector<uint64_t> actuals;
    bool aborted = false;
  };

  /// Runs `plan` on the oracle or the production executor and collects every
  /// finished node's rowset (production row ids gathered into payloads).
  static Outcome RunPlan(const db::Database& db, const qry::Query& query,
                         PlanNode* plan, bool oracle, int pool,
                         size_t max_node_rows = 0) {
    common::SetGlobalPoolSize(pool);
    std::unique_ptr<Executor> executor =
        oracle ? ::lpce::testing::RowExecutor::Make(&db, &query)
               : std::make_unique<Executor>(&db, &query);
    Executor::Options options;
    options.max_node_rows = max_node_rows;
    Executor::RunResult result = executor->Run(plan, options);
    common::SetGlobalPoolSize(0);
    Outcome out;
    out.aborted = result.aborted;
    std::vector<PlanNode*> nodes;
    PostOrderPlan(plan, &nodes);
    for (PlanNode* node : nodes) {
      auto it = result.finished.find(node);
      out.rowsets.push_back(
          it != result.finished.end()
              ? ::lpce::testing::MaterializeRowSet(db, it->second)
              : nullptr);
      out.actuals.push_back(node->actual_card);
    }
    return out;
  }

  static void ExpectSameOutcome(const Outcome& got, const Outcome& oracle) {
    EXPECT_EQ(got.aborted, oracle.aborted);
    ASSERT_EQ(got.rowsets.size(), oracle.rowsets.size());
    for (size_t i = 0; i < oracle.rowsets.size(); ++i) {
      EXPECT_EQ(got.actuals[i], oracle.actuals[i]) << "node " << i;
      ASSERT_EQ(got.rowsets[i] == nullptr, oracle.rowsets[i] == nullptr)
          << "node " << i;
      if (oracle.rowsets[i] == nullptr) continue;
      EXPECT_TRUE(got.rowsets[i]->schema == oracle.rowsets[i]->schema)
          << "node " << i;
      EXPECT_EQ(got.rowsets[i]->row_count, oracle.rowsets[i]->row_count)
          << "node " << i;
      EXPECT_TRUE(got.rowsets[i]->cols == oracle.rowsets[i]->cols)
          << "node " << i;
    }
  }

  /// Runs `make_plan()` on the row-at-a-time oracle and on the production
  /// executor at every requested pool size, requiring every finished node's
  /// rowset to be bit-identical to the oracle's (production rowsets are
  /// gathered through their row ids first).
  void ExpectMatchesOracle(const db::Database& db, const qry::Query& query,
                           const std::function<std::unique_ptr<PlanNode>()>&
                               make_plan,
                           std::initializer_list<int> pools = {1}) {
    auto oracle_plan = make_plan();
    const Outcome oracle = RunPlan(db, query, oracle_plan.get(), true, 1);
    EXPECT_FALSE(oracle.aborted);
    for (int pool : pools) {
      SCOPED_TRACE("pool=" + std::to_string(pool));
      auto plan = make_plan();
      ExpectSameOutcome(RunPlan(db, query, plan.get(), false, pool), oracle);
    }
  }
  void ExpectMatchesOracle(
      const std::function<std::unique_ptr<PlanNode>()>& make_plan,
      std::initializer_list<int> pools = {1}) {
    ExpectMatchesOracle(database_, query_, make_plan, pools);
  }

  db::Database database_;
  qry::Query query_;
  int32_t a_ = -1, b_ = -1;
};

TEST_F(ExecEdgeTest, EmptyTablesJoinToEmpty) {
  database_.BuildAllIndexes();
  for (auto op : {PhysOp::kHashJoin, PhysOp::kMergeJoin, PhysOp::kNestLoopJoin}) {
    auto plan = Join(op, Scan(0), Scan(1));
    Executor executor(&database_, &query_);
    EXPECT_EQ(executor.Execute(plan.get())->num_rows(), 0u) << PhysOpName(op);
  }
}

TEST_F(ExecEdgeTest, AllFilteredScanYieldsEmptyJoin) {
  for (int64_t i = 0; i < 10; ++i) {
    database_.table(a_).AppendRow({i, i});
    database_.table(b_).AppendRow({i, i});
  }
  database_.BuildAllIndexes();
  qry::Predicate impossible{{a_, 1}, qry::CmpOp::kGt, 1000};
  auto plan = Join(PhysOp::kHashJoin, Scan(0, {impossible}), Scan(1));
  Executor executor(&database_, &query_);
  EXPECT_EQ(executor.Execute(plan.get())->num_rows(), 0u);
}

TEST_F(ExecEdgeTest, DuplicateKeysCrossProductInMergeJoin) {
  // 3 copies of key 7 on each side -> 9 output rows; merge join must emit
  // the full group cross product.
  for (int i = 0; i < 3; ++i) {
    database_.table(a_).AppendRow({7, i});
    database_.table(b_).AppendRow({7, i + 10});
  }
  database_.table(a_).AppendRow({1, 0});
  database_.table(b_).AppendRow({2, 0});
  database_.BuildAllIndexes();
  for (auto op : {PhysOp::kHashJoin, PhysOp::kMergeJoin, PhysOp::kNestLoopJoin}) {
    auto plan = Join(op, Scan(0), Scan(1));
    Executor executor(&database_, &query_);
    EXPECT_EQ(executor.Execute(plan.get())->num_rows(), 9u) << PhysOpName(op);
  }
}

TEST_F(ExecEdgeTest, RowLimitAbortsExplodingJoin) {
  // 100x100 same-key rows -> 10000-row join; limit 1000 must abort, for
  // every join algorithm.
  for (int i = 0; i < 100; ++i) {
    database_.table(a_).AppendRow({5, i});
    database_.table(b_).AppendRow({5, i});
  }
  database_.BuildAllIndexes();
  for (auto op : {PhysOp::kHashJoin, PhysOp::kMergeJoin, PhysOp::kNestLoopJoin}) {
    auto plan = Join(op, Scan(0), Scan(1));
    Executor executor(&database_, &query_);
    Executor::Options options;
    options.max_node_rows = 1000;
    Executor::RunResult run = executor.Run(plan.get(), options);
    EXPECT_TRUE(run.aborted) << PhysOpName(op);
    EXPECT_EQ(run.result, nullptr) << PhysOpName(op);
  }
}

TEST_F(ExecEdgeTest, RowLimitDoesNotTriggerBelowThreshold) {
  for (int i = 0; i < 20; ++i) {
    database_.table(a_).AppendRow({i, i});
    database_.table(b_).AppendRow({i, i});
  }
  database_.BuildAllIndexes();
  auto plan = Join(PhysOp::kHashJoin, Scan(0), Scan(1));
  Executor executor(&database_, &query_);
  Executor::Options options;
  options.max_node_rows = 1000;
  Executor::RunResult run = executor.Run(plan.get(), options);
  EXPECT_FALSE(run.aborted);
  ASSERT_NE(run.result, nullptr);
  EXPECT_EQ(run.result->num_rows(), 20u);
}

TEST_F(ExecEdgeTest, PeakIntermediateBytesSumsLiveResults) {
  for (int i = 0; i < 50; ++i) {
    database_.table(a_).AppendRow({i % 5, i});
    database_.table(b_).AppendRow({i % 5, i});
  }
  database_.BuildAllIndexes();
  auto plan = Join(PhysOp::kHashJoin, Scan(0), Scan(1));
  Executor executor(&database_, &query_);
  Executor::Options options;
  Executor::RunResult run = executor.Run(plan.get(), options);
  ASSERT_NE(run.result, nullptr);
  // Every finished intermediate stays retained for the run (checkpoints may
  // re-plan around it), so the peak is the *sum* of live rowsets — nothing is
  // ever released mid-run, making the peak exactly the sum of the finished
  // results. The old largest-single-rowset accounting under-reported this as
  // one scan. Computing the expectation from the retained rowsets themselves
  // keeps the assertion valid in every representation (the oracle's payload
  // columns, the production row-id intermediates).
  size_t finished_sum = 0;
  for (const auto& [node, rs] : run.finished) finished_sum += rs->ByteSize();
  EXPECT_EQ(executor.peak_intermediate_bytes(), finished_sum);
  // Both scans carry at least their 50-row row-id column.
  EXPECT_GE(executor.peak_intermediate_bytes(), 2 * 50 * sizeof(uint32_t));
}

TEST_F(ExecEdgeTest, PeakBytesAccountingAgreesAcrossPathsOn3JoinQuery) {
  // Regression for the peak_intermediate_bytes contract on a known 3-join
  // query: the oracle and the production executor both count the sum of
  // their retained rowsets; production must come in strictly lower — uint32
  // row ids versus int64 payload columns.
  db::Database db;
  std::vector<int32_t> tables;
  for (int t = 0; t < 4; ++t) {
    tables.push_back(
        db.AddTable({"t" + std::to_string(t), {{"k"}, {"v"}}}));
  }
  qry::Query query;
  query.tables = tables;
  for (int t = 0; t + 1 < 4; ++t) {
    db.catalog().AddJoinEdge({tables[t], 0}, {tables[t + 1], 0});
    query.joins.push_back({{tables[t], 0}, {tables[t + 1], 0}});
  }
  for (int t = 0; t < 4; ++t) {
    for (int64_t i = 0; i < 200; ++i) {
      db.table(tables[t]).AppendRow({i % 10, i});
    }
  }
  db.BuildAllIndexes();

  auto make_plan = [&] {
    auto scan = [&](int pos) {
      auto node = std::make_unique<PlanNode>();
      node->op = PhysOp::kSeqScan;
      node->rels = qry::Bit(pos);
      node->table_pos = pos;
      return node;
    };
    std::unique_ptr<PlanNode> plan = scan(0);
    for (int t = 1; t < 4; ++t) {
      auto join = std::make_unique<PlanNode>();
      join->op = PhysOp::kHashJoin;
      join->rels = plan->rels | qry::Bit(t);
      join->outer = std::move(plan);
      join->inner = scan(t);
      join->outer_key = {tables[t - 1], 0};
      join->inner_key = {tables[t], 0};
      plan = std::move(join);
    }
    return plan;
  };

  auto run_peak = [&](bool oracle, uint64_t* rows) {
    auto plan = make_plan();
    std::unique_ptr<Executor> executor =
        oracle ? ::lpce::testing::RowExecutor::Make(&db, &query)
               : std::make_unique<Executor>(&db, &query);
    Executor::RunResult run = executor->Run(plan.get(), {});
    EXPECT_NE(run.result, nullptr);
    *rows = run.result != nullptr ? run.result->num_rows() : 0;
    size_t finished_sum = 0;
    for (const auto& [node, rs] : run.finished) finished_sum += rs->ByteSize();
    EXPECT_EQ(executor->peak_intermediate_bytes(), finished_sum);
    return executor->peak_intermediate_bytes();
  };

  uint64_t oracle_rows = 0, rows = 0;
  const size_t oracle_peak = run_peak(/*oracle=*/true, &oracle_rows);
  const size_t peak = run_peak(/*oracle=*/false, &rows);
  EXPECT_EQ(rows, oracle_rows);
  EXPECT_LT(peak, oracle_peak);
  EXPECT_GT(peak, 0u);
}

TEST_F(ExecEdgeTest, IndexScanLtAtInt64MinIsEmptyNotUB) {
  // x < INT64_MIN matches nothing; the old bound arithmetic computed
  // `INT64_MIN - 1` (signed overflow, UB) which in practice wrapped to
  // INT64_MAX and returned every row.
  for (int64_t i = 0; i < 10; ++i) {
    database_.table(a_).AppendRow({i, i});
    database_.table(b_).AppendRow({i, i});
  }
  database_.BuildAllIndexes();
  qry::Predicate lt_min{{a_, 0}, qry::CmpOp::kLt,
                        std::numeric_limits<int64_t>::min()};
  auto scan = Scan(0, {lt_min});
  scan->op = PhysOp::kIndexScan;
  scan->index_col = {a_, 0};
  auto plan = Join(PhysOp::kHashJoin, std::move(scan), Scan(1));
  Executor executor(&database_, &query_);
  EXPECT_EQ(executor.Execute(plan.get())->num_rows(), 0u);
}

TEST_F(ExecEdgeTest, IndexScanGtAtInt64MaxIsEmptyNotUB) {
  for (int64_t i = 0; i < 10; ++i) {
    database_.table(a_).AppendRow({i, i});
    database_.table(b_).AppendRow({i, i});
  }
  database_.BuildAllIndexes();
  qry::Predicate gt_max{{a_, 0}, qry::CmpOp::kGt,
                        std::numeric_limits<int64_t>::max()};
  auto scan = Scan(0, {gt_max});
  scan->op = PhysOp::kIndexScan;
  scan->index_col = {a_, 0};
  auto plan = Join(PhysOp::kHashJoin, std::move(scan), Scan(1));
  Executor executor(&database_, &query_);
  EXPECT_EQ(executor.Execute(plan.get())->num_rows(), 0u);
}

TEST_F(ExecEdgeTest, IndexScanInclusiveBoundsAtExtremesKeepAllRows) {
  // The inclusive operators at the extreme literals must still return
  // everything (no clamping side effects).
  for (int64_t i = 0; i < 10; ++i) {
    database_.table(a_).AppendRow({i, i});
    database_.table(b_).AppendRow({i, i});
  }
  database_.BuildAllIndexes();
  for (auto [op, value] :
       {std::pair{qry::CmpOp::kLe, std::numeric_limits<int64_t>::max()},
        std::pair{qry::CmpOp::kGe, std::numeric_limits<int64_t>::min()}}) {
    qry::Predicate pred{{a_, 0}, op, value};
    auto scan = Scan(0, {pred});
    scan->op = PhysOp::kIndexScan;
    scan->index_col = {a_, 0};
    auto plan = Join(PhysOp::kHashJoin, std::move(scan), Scan(1));
    Executor executor(&database_, &query_);
    EXPECT_EQ(executor.Execute(plan.get())->num_rows(), 10u);
  }
}

TEST_F(ExecEdgeTest, IndexScanOnEqualityBound) {
  for (int64_t i = 0; i < 30; ++i) database_.table(a_).AppendRow({i % 3, i});
  for (int64_t i = 0; i < 5; ++i) database_.table(b_).AppendRow({1, i});
  database_.BuildAllIndexes();
  qry::Predicate eq{{a_, 0}, qry::CmpOp::kEq, 1};
  auto scan = Scan(0, {eq});
  scan->op = PhysOp::kIndexScan;
  scan->index_col = {a_, 0};
  auto plan = Join(PhysOp::kHashJoin, std::move(scan), Scan(1));
  Executor executor(&database_, &query_);
  // 10 a-rows with key 1, each matching 5 b-rows.
  EXPECT_EQ(executor.Execute(plan.get())->num_rows(), 50u);
}

TEST_F(ExecEdgeTest, NeFilterIsResidualOnIndexScan) {
  for (int64_t i = 0; i < 20; ++i) database_.table(a_).AppendRow({i, i % 4});
  for (int64_t i = 0; i < 20; ++i) database_.table(b_).AppendRow({i, 0});
  database_.BuildAllIndexes();
  qry::Predicate range{{a_, 0}, qry::CmpOp::kLt, 10};
  qry::Predicate ne{{a_, 1}, qry::CmpOp::kNe, 0};
  auto scan = Scan(0, {range, ne});
  scan->op = PhysOp::kIndexScan;
  scan->index_col = {a_, 0};
  auto plan = Join(PhysOp::kHashJoin, std::move(scan), Scan(1));
  Executor executor(&database_, &query_);
  // a rows with k < 10 and v != 0: k in {1,2,3,5,6,7,9} -> 7 rows, each
  // joining exactly one b row.
  EXPECT_EQ(executor.Execute(plan.get())->num_rows(), 7u);
}

TEST_F(ExecEdgeTest, BatchEmptyTablesBitIdentical) {
  // Zero input rows -> zero batches; every join algorithm must still produce
  // the same (empty) rowsets and cardinalities as the oracle.
  database_.BuildAllIndexes();
  for (auto op : {PhysOp::kHashJoin, PhysOp::kMergeJoin, PhysOp::kNestLoopJoin}) {
    SCOPED_TRACE(PhysOpName(op));
    ExpectMatchesOracle([&] { return Join(op, Scan(0), Scan(1)); });
  }
}

TEST_F(ExecEdgeTest, BatchAllRowsPassFilterBitIdentical) {
  // A filter every row passes exercises the full-selection path (the
  // selection vector is the identity), distinct from the dense no-filter
  // identity-row-id fast path — both must match the oracle bit for bit.
  for (int64_t i = 0; i < 10; ++i) {
    database_.table(a_).AppendRow({i, i});
    database_.table(b_).AppendRow({i, i});
  }
  database_.BuildAllIndexes();
  qry::Predicate all_pass{{a_, 1}, qry::CmpOp::kGe, 0};
  ExpectMatchesOracle(
      [&] { return Join(PhysOp::kHashJoin, Scan(0, {all_pass}), Scan(1)); });
  ExpectMatchesOracle([&] { return Join(PhysOp::kHashJoin, Scan(0), Scan(1)); });
}

TEST_F(ExecEdgeTest, BatchBoundaryInputSizesBitIdentical) {
  // Inputs one row short of, exactly at, and one row past the batch size:
  // a partial single batch, one full batch with no tail, and a one-row tail
  // batch. The shape must be invisible in the output of the fused scan→probe
  // (filtered outer scan), the unfused probe (join over a join), and the
  // merge / nested-loop kernels, on both sides of the join.
  constexpr int64_t kB = kDefaultBatchSize;
  for (int64_t n : {kB - 1, kB, kB + 1}) {
    SCOPED_TRACE("rows=" + std::to_string(n));
    db::Database db;
    const int32_t a = db.AddTable({"a", {{"k"}, {"v"}}});
    const int32_t b = db.AddTable({"b", {{"k"}, {"w"}}});
    const int32_t c = db.AddTable({"c", {{"k"}}});
    qry::Query query;
    query.tables = {a, b, c};
    query.joins = {{{a, 0}, {b, 0}}, {{b, 1}, {c, 0}}};
    for (int64_t i = 0; i < n; ++i) {
      db.table(a).AppendRow({i % 50, i});
      db.table(b).AppendRow({i % 50, i % 7});
    }
    for (int64_t i = 0; i < 7; ++i) db.table(c).AppendRow({i});
    db.BuildAllIndexes();
    qry::Predicate keep_most{{a, 1}, qry::CmpOp::kNe, 500};
    for (auto op :
         {PhysOp::kHashJoin, PhysOp::kMergeJoin, PhysOp::kNestLoopJoin}) {
      SCOPED_TRACE(PhysOpName(op));
      auto ab = [&] {
        return JoinOn(op, Scan(0, {keep_most}), Scan(1), {a, 0}, {b, 0});
      };
      // (a ⋈ b) ⋈ c: the lower join feeds b's row ids up to the root.
      ExpectMatchesOracle(db, query, [&] {
        return JoinOn(op, ab(), Scan(2), {b, 1}, {c, 0});
      });
      // c ⋈ (a ⋈ b): the join result is the build side.
      ExpectMatchesOracle(db, query, [&] {
        return JoinOn(op, Scan(2), ab(), {c, 0}, {b, 1});
      });
    }
  }
}

TEST_F(ExecEdgeTest, BatchBoundariesStraddleJoinPartitionChunks) {
  // Enough rows to engage the pool (>= 4096) with duplicate-key groups of 7
  // that never align with the 1024-row batch boundaries or the pool's chunk
  // boundaries: match groups straddle both, and the output must still
  // concatenate back to the sequential row order at every pool size.
  for (int64_t i = 0; i < 6000; ++i) {
    database_.table(a_).AppendRow({i / 7, i});
    database_.table(b_).AppendRow({i / 7, i + 100000});
  }
  database_.BuildAllIndexes();
  ExpectMatchesOracle([&] { return Join(PhysOp::kHashJoin, Scan(0), Scan(1)); },
                      {1, 2, 4});
}

TEST_F(ExecEdgeTest, BatchIndexScanNeResidualBitIdentical) {
  // Index-driven scan with a kNe residual: the scan seeds its selection
  // vector from the index row list (not the identity) and refines it
  // branch-free; fused into a hash probe or feeding merge / nested loop, it
  // must match the oracle.
  for (int64_t i = 0; i < 200; ++i) database_.table(a_).AppendRow({i, i % 4});
  for (int64_t i = 0; i < 200; ++i) database_.table(b_).AppendRow({i, 0});
  database_.BuildAllIndexes();
  qry::Predicate range{{a_, 0}, qry::CmpOp::kLt, 100};
  qry::Predicate ne{{a_, 1}, qry::CmpOp::kNe, 0};
  for (auto op : {PhysOp::kHashJoin, PhysOp::kMergeJoin, PhysOp::kNestLoopJoin}) {
    SCOPED_TRACE(PhysOpName(op));
    ExpectMatchesOracle([&] {
      auto scan = Scan(0, {range, ne});
      scan->op = PhysOp::kIndexScan;
      scan->index_col = {a_, 0};
      return Join(op, std::move(scan), Scan(1));
    });
  }
}

TEST_F(ExecEdgeTest, ResidualKeysOnEveryJoinAlgorithmBitIdentical) {
  // Multigraph cuts: a.k = b.k drives the middle join and a.v = b.w rides
  // along as a residual key read through both sides' row ids (the outer side
  // a rid-backed intermediate, not base rows); the root joins d on b.k = d.k
  // with residual a.v = d.v, so the middle join must emit both a's and b's
  // row ids. Duplicate-heavy keys make most candidates fail the residual;
  // the survivors must come out in the oracle's order for every algorithm,
  // at pool sizes that split the probe.
  db::Database db;
  const int32_t a = db.AddTable({"a", {{"k"}, {"v"}}});
  const int32_t b = db.AddTable({"b", {{"k"}, {"w"}}});
  const int32_t c = db.AddTable({"c", {{"k"}}});
  const int32_t d = db.AddTable({"d", {{"k"}, {"v"}}});
  qry::Query query;
  query.tables = {a, b, c, d};
  query.joins = {{{a, 0}, {b, 0}}, {{a, 1}, {b, 1}}, {{a, 0}, {c, 0}},
                 {{b, 0}, {d, 0}}, {{a, 1}, {d, 1}}};
  for (int64_t i = 0; i < 2500; ++i) {
    db.table(a).AppendRow({i % 40, i % 9});
    db.table(b).AppendRow({i % 40, i % 11});
  }
  for (int64_t i = 0; i < 40; ++i) {
    db.table(c).AppendRow({i});
    db.table(d).AppendRow({i, i % 9});
  }
  db.BuildAllIndexes();
  for (auto op : {PhysOp::kHashJoin, PhysOp::kMergeJoin, PhysOp::kNestLoopJoin}) {
    SCOPED_TRACE(PhysOpName(op));
    ExpectMatchesOracle(
        db, query,
        [&] {
          // ((a ⋈ c) ⋈ b) ⋈ d.
          auto ac = JoinOn(PhysOp::kHashJoin, Scan(0), Scan(2), {a, 0}, {c, 0});
          auto acb = JoinOn(op, std::move(ac), Scan(1), {a, 0}, {b, 0},
                            {{{a, 1}, {b, 1}}});
          return JoinOn(PhysOp::kHashJoin, std::move(acb), Scan(3), {b, 0},
                        {d, 0}, {{{a, 1}, {d, 1}}});
        },
        {1, 2, 4});
  }
}

TEST_F(ExecEdgeTest, ReplannedRoundOverRowIdPseudoRelationBitIdentical) {
  // A re-optimization round: the first round's (a ⋈ b) intermediate becomes
  // a pseudo relation, and the re-planned remainder joins it with c by every
  // algorithm. Production replays its own row-id intermediate (pruned to the
  // tables the remainder still references); the oracle replays its own
  // materialized one — and, to pin that both describe the same rows, the
  // production one too.
  db::Database db;
  const int32_t a = db.AddTable({"a", {{"k"}, {"v"}}});
  const int32_t b = db.AddTable({"b", {{"k"}, {"w"}}});
  const int32_t c = db.AddTable({"c", {{"k"}}});
  qry::Query query;
  query.tables = {a, b, c};
  query.joins = {{{a, 0}, {b, 0}}, {{b, 1}, {c, 0}}};
  for (int64_t i = 0; i < 3000; ++i) {
    db.table(a).AppendRow({i % 60, i});
    db.table(b).AppendRow({i % 60, i % 13});
  }
  for (int64_t i = 0; i < 20; ++i) db.table(c).AppendRow({i % 10});
  db.BuildAllIndexes();
  auto first_round = [&] {
    return JoinOn(PhysOp::kHashJoin,
                  JoinOn(PhysOp::kHashJoin, Scan(0), Scan(1), {a, 0}, {b, 0}),
                  Scan(2), {b, 1}, {c, 0});
  };
  // The first round's (a ⋈ b) result on each executor.
  auto intermediate = [&](bool oracle) {
    auto plan = first_round();
    std::unique_ptr<Executor> executor =
        oracle ? ::lpce::testing::RowExecutor::Make(&db, &query)
               : std::make_unique<Executor>(&db, &query);
    Executor::RunResult run = executor->Run(plan.get(), {});
    EXPECT_NE(run.result, nullptr);
    return run.finished.at(plan->outer.get());
  };
  const RowSetPtr production_ab = intermediate(/*oracle=*/false);
  const RowSetPtr oracle_ab = intermediate(/*oracle=*/true);
  ASSERT_TRUE(production_ab->late());
  ASSERT_FALSE(oracle_ab->late());

  for (auto op : {PhysOp::kHashJoin, PhysOp::kMergeJoin, PhysOp::kNestLoopJoin}) {
    for (bool pseudo_outer : {true, false}) {
      SCOPED_TRACE(std::string(PhysOpName(op)) +
                   (pseudo_outer ? " pseudo outer" : " pseudo inner"));
      auto second_round = [&](RowSetPtr ab) {
        auto pseudo = std::make_unique<PlanNode>();
        pseudo->op = PhysOp::kPseudoScan;
        pseudo->rels = qry::Bit(0) | qry::Bit(1);
        pseudo->pseudo = std::move(ab);
        return pseudo_outer
                   ? JoinOn(op, std::move(pseudo), Scan(2), {b, 1}, {c, 0})
                   : JoinOn(op, Scan(2), std::move(pseudo), {c, 0}, {b, 1});
      };
      auto oracle_plan = second_round(oracle_ab);
      const Outcome oracle =
          RunPlan(db, query, oracle_plan.get(), /*oracle=*/true, 1);
      auto replay_plan = second_round(production_ab);
      ExpectSameOutcome(
          RunPlan(db, query, replay_plan.get(), /*oracle=*/true, 1), oracle);
      for (int pool : {1, 2, 4}) {
        SCOPED_TRACE("pool=" + std::to_string(pool));
        auto plan = second_round(production_ab);
        ExpectSameOutcome(
            RunPlan(db, query, plan.get(), /*oracle=*/false, pool), oracle);
      }
    }
  }
}

TEST_F(ExecEdgeTest, BatchRowLimitAbortsLikeRowPath) {
  // The overflow contract is part of bit-identity: production must trip the
  // row limit on exactly the same plans as the oracle, for every join
  // algorithm and pool size — strictly-greater, so a join of exactly the
  // limit completes.
  for (int i = 0; i < 100; ++i) {
    database_.table(a_).AppendRow({5, i});
    database_.table(b_).AppendRow({5, i});
  }
  database_.BuildAllIndexes();
  for (auto op : {PhysOp::kHashJoin, PhysOp::kMergeJoin, PhysOp::kNestLoopJoin}) {
    for (int pool : {1, 4}) {
      SCOPED_TRACE(std::string(PhysOpName(op)) + " pool=" +
                   std::to_string(pool));
      for (size_t limit : {size_t{1000}, size_t{10000}}) {
        auto oracle_plan = Join(op, Scan(0), Scan(1));
        const Outcome oracle =
            RunPlan(database_, query_, oracle_plan.get(), true, 1, limit);
        EXPECT_EQ(oracle.aborted, limit < 10000);
        auto plan = Join(op, Scan(0), Scan(1));
        ExpectSameOutcome(
            RunPlan(database_, query_, plan.get(), false, pool, limit), oracle);
      }
    }
  }

  // An exploding non-root join: every a row and the kSegment b rows share
  // one key, so a single 1024-row batch of a would emit 1024 * kSegment rows,
  // over 100x the row budget. The join must abort exactly like the oracle
  // while never holding more than the budget plus one bucket segment of row
  // handles: no allocation may scale with what the batch would emit — only
  // with the inputs (a gathered key or row-id column) or with the budget.
  // The residual-key variant filters every candidate down to kSegment rows
  // and must complete, under the same memory bound.
  constexpr size_t kOuterRows = 4096;
  constexpr size_t kSegment = 100;
  constexpr size_t kMaxRows = 1000;
  static_assert(kDefaultBatchSize * kSegment >= 100 * kMaxRows);
  db::Database db;
  const int32_t a = db.AddTable({"a", {{"k"}, {"v"}}});
  const int32_t b = db.AddTable({"b", {{"k"}, {"w"}}});
  const int32_t c = db.AddTable({"c", {{"k"}}});
  for (size_t i = 0; i < kOuterRows; ++i) {
    db.table(a).AppendRow({5, static_cast<int64_t>(i)});
  }
  for (size_t i = 0; i < kSegment; ++i) {
    db.table(b).AppendRow({5, static_cast<int64_t>(i)});
  }
  for (int64_t i = 0; i < 10; ++i) db.table(c).AppendRow({i});
  db.BuildAllIndexes();
  const size_t bound =
      std::max(kOuterRows * sizeof(int64_t),
               2 * (kMaxRows + kSegment) * sizeof(uint32_t));
  for (bool residual : {false, true}) {
    qry::Query query;
    query.tables = {a, b, c};
    query.joins = {{{a, 0}, {b, 0}}, {{b, 1}, {c, 0}}};
    if (residual) query.joins.push_back({{a, 1}, {b, 1}});
    std::vector<std::pair<db::ColRef, db::ColRef>> residual_keys;
    if (residual) residual_keys = {{{a, 1}, {b, 1}}};
    for (auto op :
         {PhysOp::kHashJoin, PhysOp::kMergeJoin, PhysOp::kNestLoopJoin}) {
      auto make_plan = [&] {
        // (a ⋈ b) ⋈ c: the exploding join emits b's row ids to the root.
        return JoinOn(PhysOp::kHashJoin,
                      JoinOn(op, Scan(0), Scan(1), {a, 0}, {b, 0},
                             residual_keys),
                      Scan(2), {b, 1}, {c, 0});
      };
      auto oracle_plan = make_plan();
      const Outcome oracle =
          RunPlan(db, query, oracle_plan.get(), true, 1, kMaxRows);
      EXPECT_EQ(oracle.aborted, !residual);
      for (int pool : {1, 4}) {
        SCOPED_TRACE(std::string(PhysOpName(op)) +
                     (residual ? " residual" : "") +
                     " pool=" + std::to_string(pool));
        auto plan = make_plan();
        common::SetGlobalPoolSize(pool);
        Executor executor(&db, &query);
        Executor::Options options;
        options.max_node_rows = kMaxRows;
        g_max_alloc.store(0);
        g_track_allocs.store(true);
        Executor::RunResult run = executor.Run(plan.get(), options);
        g_track_allocs.store(false);
        common::SetGlobalPoolSize(0);
        EXPECT_EQ(run.aborted, oracle.aborted);
        EXPECT_EQ(run.result == nullptr, oracle.aborted);
        std::vector<PlanNode*> nodes;
        PostOrderPlan(plan.get(), &nodes);
        ASSERT_EQ(nodes.size(), oracle.actuals.size());
        for (size_t i = 0; i < nodes.size(); ++i) {
          EXPECT_EQ(nodes[i]->actual_card, oracle.actuals[i]) << "node " << i;
          EXPECT_EQ(run.finished.count(nodes[i]) > 0,
                    oracle.rowsets[i] != nullptr)
              << "node " << i;
        }
        EXPECT_LE(g_max_alloc.load(), bound);
      }
    }
  }
}

}  // namespace
}  // namespace lpce::exec
