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
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

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

struct KeyJoinWorld;

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
                         PlanNode* plan, bool oracle,
                         size_t max_node_rows = 0) {
    std::unique_ptr<Executor> executor =
        oracle ? ::lpce::testing::RowExecutor::Make(&db, &query)
               : std::make_unique<Executor>(&db, &query);
    Executor::Options options;
    options.max_node_rows = max_node_rows;
    Executor::RunResult result = executor->Run(plan, options);
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
  /// executor, requiring every finished node's rowset to be bit-identical to
  /// the oracle's (production rowsets are gathered through their row ids
  /// first).
  void ExpectMatchesOracle(const db::Database& db, const qry::Query& query,
                           const std::function<std::unique_ptr<PlanNode>()>&
                               make_plan) {
    auto oracle_plan = make_plan();
    const Outcome oracle = RunPlan(db, query, oracle_plan.get(), true);
    EXPECT_FALSE(oracle.aborted);
    auto plan = make_plan();
    ExpectSameOutcome(RunPlan(db, query, plan.get(), false), oracle);
  }
  void ExpectMatchesOracle(
      const std::function<std::unique_ptr<PlanNode>()>& make_plan) {
    ExpectMatchesOracle(database_, query_, make_plan);
  }

  // Key-slot join cases, defined with KeyJoinWorld below.
  struct PlanCase {
    std::string name;
    qry::Query query;
    std::function<std::unique_ptr<PlanNode>()> make_plan;
    bool fused;  // fused plans: every join outputs |a ⋈ b| rows
  };
  static std::vector<PlanCase> PlanCases(const KeyJoinWorld& w,
                                         bool residual);
  static uint64_t ExpectKeyJoinMatchesOracle(const KeyJoinWorld& w,
                                             bool residual,
                                             size_t max_node_rows = 0);
  static void ExpectKeyJoinMatchesOracleWithBudgets(const KeyJoinWorld& w,
                                                    bool residual);

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

TEST_F(ExecEdgeTest, DuplicateKeyGroupsStraddleBatchBoundaries) {
  // Six batches of rows with duplicate-key groups of 7 that never align with
  // the 1024-row batch boundaries: match groups straddle them, and the
  // output must keep the oracle's row order.
  for (int64_t i = 0; i < 6000; ++i) {
    database_.table(a_).AppendRow({i / 7, i});
    database_.table(b_).AppendRow({i / 7, i + 100000});
  }
  database_.BuildAllIndexes();
  ExpectMatchesOracle([&] { return Join(PhysOp::kHashJoin, Scan(0), Scan(1)); });
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
  // the survivors must come out in the oracle's order for every algorithm.
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
        });
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
          RunPlan(db, query, oracle_plan.get(), /*oracle=*/true);
      auto replay_plan = second_round(production_ab);
      ExpectSameOutcome(
          RunPlan(db, query, replay_plan.get(), /*oracle=*/true), oracle);
      auto plan = second_round(production_ab);
      ExpectSameOutcome(RunPlan(db, query, plan.get(), /*oracle=*/false),
                        oracle);
    }
  }
}

TEST_F(ExecEdgeTest, BatchRowLimitAbortsLikeRowPath) {
  // The overflow contract is part of bit-identity: production must trip the
  // row limit on exactly the same plans as the oracle, for every join
  // algorithm — strictly-greater, so a join of exactly the limit completes.
  for (int i = 0; i < 100; ++i) {
    database_.table(a_).AppendRow({5, i});
    database_.table(b_).AppendRow({5, i});
  }
  database_.BuildAllIndexes();
  for (auto op : {PhysOp::kHashJoin, PhysOp::kMergeJoin, PhysOp::kNestLoopJoin}) {
    SCOPED_TRACE(PhysOpName(op));
    for (size_t limit : {size_t{1000}, size_t{10000}}) {
      auto oracle_plan = Join(op, Scan(0), Scan(1));
      const Outcome oracle =
          RunPlan(database_, query_, oracle_plan.get(), true, limit);
      EXPECT_EQ(oracle.aborted, limit < 10000);
      auto plan = Join(op, Scan(0), Scan(1));
      ExpectSameOutcome(RunPlan(database_, query_, plan.get(), false, limit),
                        oracle);
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
          RunPlan(db, query, oracle_plan.get(), true, kMaxRows);
      EXPECT_EQ(oracle.aborted, !residual);
      SCOPED_TRACE(std::string(PhysOpName(op)) +
                   (residual ? " residual" : ""));
      auto plan = make_plan();
      Executor executor(&db, &query);
      Executor::Options options;
      options.max_node_rows = kMaxRows;
      g_max_alloc.store(0);
      g_track_allocs.store(true);
      Executor::RunResult run = executor.Run(plan.get(), options);
      g_track_allocs.store(false);
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

// ---- Key-slot hash join against the oracle ----------------------------------
//
// The hash join maps the build side's distinct keys to slots by offset when
// their span is at most 4n + 64 (n build rows) and through a dictionary
// otherwise. Every case below runs the join a.k = b.k (b the build side) in
// four plans, bit for bit against the row-at-a-time oracle:
//   fused:   a ⋈ b (a count-only root), and ((a ⋈ b) ⋈ c) ⋈ u, where the
//            fused scan→probe join emits a's and b's row ids;
//   unfused: (a ⋈ u) ⋈ b (a count-only root), and ((a ⋈ u) ⋈ b) ⋈ c, where
//            the probe reads a join result and emits b's row ids.
// u and c hold one row per row of a and of b (a.v = u.k, b.w = c.k), so
// joining them keeps every row and its order. With `residual`, a.r = b.r
// rides along as a residual key.

/// Tables a(k, v, r), b(k, w, r), u(k), c(k): a.k and b.k from the case's
/// keys, a.v = b.w = the row number, a.r = row % 3, b.r = row % 2.
struct KeyJoinWorld {
  db::Database db;
  int32_t a, b, u, c;

  KeyJoinWorld(const std::vector<int64_t>& a_keys,
               const std::vector<int64_t>& b_keys) {
    a = db.AddTable({"a", {{"k"}, {"v"}, {"r"}}});
    b = db.AddTable({"b", {{"k"}, {"w"}, {"r"}}});
    u = db.AddTable({"u", {{"k"}}});
    c = db.AddTable({"c", {{"k"}}});
    for (size_t i = 0; i < a_keys.size(); ++i) {
      const int64_t row = static_cast<int64_t>(i);
      db.table(a).AppendRow({a_keys[i], row, row % 3});
      db.table(u).AppendRow({row});
    }
    for (size_t j = 0; j < b_keys.size(); ++j) {
      const int64_t row = static_cast<int64_t>(j);
      db.table(b).AppendRow({b_keys[j], row, row % 2});
      db.table(c).AppendRow({row});
    }
    db.BuildAllIndexes();
  }

  /// A query over `tables` (positions in that order) with every edge among
  /// them.
  qry::Query QueryOf(std::vector<int32_t> tables, bool residual) const {
    auto has = [&](int32_t t) {
      return std::find(tables.begin(), tables.end(), t) != tables.end();
    };
    qry::Query query;
    query.joins.push_back({{a, 0}, {b, 0}});
    if (residual) query.joins.push_back({{a, 2}, {b, 2}});
    if (has(u)) query.joins.push_back({{a, 1}, {u, 0}});
    if (has(c)) query.joins.push_back({{b, 1}, {c, 0}});
    query.tables = std::move(tables);
    return query;
  }
};

/// The four plans over `w`. Positions: a 0, b 1, then u and c as listed.
std::vector<ExecEdgeTest::PlanCase> ExecEdgeTest::PlanCases(
    const KeyJoinWorld& w, bool residual) {
  std::vector<std::pair<db::ColRef, db::ColRef>> res;
  if (residual) res = {{{w.a, 2}, {w.b, 2}}};
  const db::ColRef ak{w.a, 0}, bk{w.b, 0};
  const db::ColRef av{w.a, 1}, bw{w.b, 1}, uk{w.u, 0}, ck{w.c, 0};
  constexpr PhysOp kHash = PhysOp::kHashJoin;
  std::vector<PlanCase> cases;
  cases.push_back({"fused count-only root", w.QueryOf({w.a, w.b}, residual),
                   [=] { return JoinOn(kHash, Scan(0), Scan(1), ak, bk, res); },
                   true});
  cases.push_back({"fused emitting", w.QueryOf({w.a, w.b, w.c, w.u}, residual),
                   [=] {
                     auto ab = JoinOn(kHash, Scan(0), Scan(1), ak, bk, res);
                     auto abc = JoinOn(kHash, std::move(ab), Scan(2), bw, ck);
                     return JoinOn(kHash, std::move(abc), Scan(3), av, uk);
                   },
                   true});
  cases.push_back({"unfused count-only root",
                   w.QueryOf({w.a, w.b, w.u}, residual),
                   [=] {
                     auto au = JoinOn(kHash, Scan(0), Scan(2), av, uk);
                     return JoinOn(kHash, std::move(au), Scan(1), ak, bk, res);
                   },
                   false});
  cases.push_back({"unfused emitting",
                   w.QueryOf({w.a, w.b, w.u, w.c}, residual),
                   [=] {
                     auto au = JoinOn(kHash, Scan(0), Scan(2), av, uk);
                     auto aub =
                         JoinOn(kHash, std::move(au), Scan(1), ak, bk, res);
                     return JoinOn(kHash, std::move(aub), Scan(3), bw, ck);
                   },
                   false});
  return cases;
}

/// Runs every plan on both executors under `max_node_rows` and requires
/// bit-identical outcomes; returns |a ⋈ b| as the oracle counted it.
uint64_t ExecEdgeTest::ExpectKeyJoinMatchesOracle(const KeyJoinWorld& w,
                                                  bool residual,
                                                  size_t max_node_rows) {
  uint64_t joined = 0;
  for (const PlanCase& c : PlanCases(w, residual)) {
    SCOPED_TRACE(c.name);
    auto oracle_plan = c.make_plan();
    const Outcome oracle =
        RunPlan(w.db, c.query, oracle_plan.get(), true, max_node_rows);
    auto plan = c.make_plan();
    ExpectSameOutcome(RunPlan(w.db, c.query, plan.get(), false, max_node_rows),
                      oracle);
    if (c.fused && !oracle.aborted) joined = oracle.actuals.back();
  }
  return joined;
}

/// ExpectKeyJoinMatchesOracle without a budget, then with the row budget at
/// |a ⋈ b| (the fused plans complete) and one below it (they abort),
/// production tripping exactly where the oracle does in every plan.
void ExecEdgeTest::ExpectKeyJoinMatchesOracleWithBudgets(const KeyJoinWorld& w,
                                                         bool residual) {
  const uint64_t joined = ExpectKeyJoinMatchesOracle(w, residual);
  ASSERT_GE(joined, 2u);  // a budget of 0 would mean unlimited
  for (size_t budget : {static_cast<size_t>(joined),
                        static_cast<size_t>(joined - 1)}) {
    SCOPED_TRACE("budget " + std::to_string(budget));
    for (const PlanCase& c : PlanCases(w, residual)) {
      SCOPED_TRACE(c.name);
      auto oracle_plan = c.make_plan();
      const Outcome oracle =
          RunPlan(w.db, c.query, oracle_plan.get(), true, budget);
      if (c.fused) EXPECT_EQ(oracle.aborted, budget < joined);
      auto plan = c.make_plan();
      ExpectSameOutcome(RunPlan(w.db, c.query, plan.get(), false, budget),
                        oracle);
    }
  }
}

TEST_F(ExecEdgeTest, KeySlotJoinExtremeAndNegativeInt64Keys) {
  // INT64_MIN, INT64_MAX and negative keys on both sides: the span overflows
  // any offset, so the build uses the dictionary.
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  const std::vector<int64_t> b_keys = {kMax, -1,       kMin,     0,  -7, kMin,
                                       kMax, kMin + 1, kMax - 1, -7, 42};
  const std::vector<int64_t> a_keys = {kMin,     5,        kMax, -7, kMin + 2,
                                       -1,       kMin,     0,    kMax - 1,
                                       kMax - 2, 42,       -8,   kMin + 1};
  for (bool residual : {false, true}) {
    SCOPED_TRACE(residual ? "residual" : "plain");
    ExpectKeyJoinMatchesOracleWithBudgets(KeyJoinWorld(a_keys, b_keys), residual);
  }
}

TEST_F(ExecEdgeTest, KeySlotJoinSpanAtTheOffsetLimitAndOnePast) {
  // n build rows whose keys span 4n + 64 map by offset; a span of 4n + 65
  // goes through the dictionary. The build keys start negative and repeat
  // at both ends; the probe keys hit both ends of the range, one past each
  // end, and the int64 extremes.
  constexpr int64_t kLo = -300;
  constexpr int64_t kN = 40;
  for (int64_t extra : {0, 1}) {
    SCOPED_TRACE("span 4n + " + std::to_string(64 + extra));
    const int64_t hi = kLo + 4 * kN + 64 + extra;
    std::vector<int64_t> b_keys = {kLo, hi};
    for (int64_t j = 2; j < kN; ++j) {
      b_keys.push_back(kLo + (j * 37) % (hi - kLo));
    }
    b_keys[7] = kLo;
    b_keys[11] = hi;
    std::vector<int64_t> a_keys = {kLo - 1, kLo, hi, hi + 1, 0,
                                   std::numeric_limits<int64_t>::min(),
                                   std::numeric_limits<int64_t>::max()};
    for (int64_t j = 2; j < kN; j += 3) a_keys.push_back(b_keys[j]);
    for (int64_t k = kLo - 3; k <= hi + 3; k += 17) a_keys.push_back(k);
    for (bool residual : {false, true}) {
      SCOPED_TRACE(residual ? "residual" : "plain");
      ExpectKeyJoinMatchesOracleWithBudgets(KeyJoinWorld(a_keys, b_keys), residual);
    }
  }
}

TEST_F(ExecEdgeTest, KeySlotJoinProbeKeysOutsideTheBuildRange) {
  // Every probe key lies below or above the build keys: nothing matches.
  const std::vector<int64_t> b_keys = {10, 11, 12, 12, 13};
  const std::vector<int64_t> a_keys = {9, 14, -1, 100, 9, int64_t{1} << 40};
  EXPECT_EQ(ExpectKeyJoinMatchesOracle(KeyJoinWorld(a_keys, b_keys), false), 0u);
}

TEST_F(ExecEdgeTest, KeySlotJoinEmptyBuildSideAndEmptyProbeSide) {
  const std::vector<int64_t> keys = {3, 1, 4, 1, 5};
  for (bool residual : {false, true}) {
    SCOPED_TRACE(residual ? "residual" : "plain");
    EXPECT_EQ(ExpectKeyJoinMatchesOracle(KeyJoinWorld(keys, {}), residual), 0u);
    EXPECT_EQ(ExpectKeyJoinMatchesOracle(KeyJoinWorld({}, keys), residual), 0u);
  }
}

TEST_F(ExecEdgeTest, KeySlotJoinOneKeyStraddlesABatch) {
  // Probe rows 1000-1099 share one key, so its duplicates straddle the
  // 1024-row batch boundary, and the build holds 1500 rows of that key: a
  // segment longer than a batch, split across refinement batches when a
  // residual key rides along.
  constexpr int64_t kKey = 3;
  std::vector<int64_t> a_keys, b_keys;
  for (int64_t i = 0; i < 2100; ++i) {
    a_keys.push_back(i >= 1000 && i < 1100 ? kKey : 100 + i % 50);
  }
  for (int64_t j = 0; j < 1600; ++j) {
    b_keys.push_back(j < 1500 ? kKey : 100 + j);
  }
  for (bool residual : {false, true}) {
    SCOPED_TRACE(residual ? "residual" : "plain");
    ExpectKeyJoinMatchesOracleWithBudgets(KeyJoinWorld(a_keys, b_keys), residual);
  }
}

TEST_F(ExecEdgeTest, KeySlotJoinDuplicateHeavyKeys) {
  // Several matches for most candidates and keys every probe batch repeats:
  // the segment fill and the residual refinement see multi-row segments
  // throughout.
  std::vector<int64_t> a_keys, b_keys;
  for (int64_t i = 0; i < 3000; ++i) a_keys.push_back(-(i % 97));
  for (int64_t j = 0; j < 800; ++j) b_keys.push_back(-(j % 61));
  for (bool residual : {false, true}) {
    SCOPED_TRACE(residual ? "residual" : "plain");
    ExpectKeyJoinMatchesOracleWithBudgets(KeyJoinWorld(a_keys, b_keys), residual);
  }
}

}  // namespace
}  // namespace lpce::exec
