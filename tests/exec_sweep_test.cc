// Parameterized executor sweep on the synthetic schema: every (join
// algorithm x scan type x predicate operator) combination must agree with
// the canonical hash plan on randomly generated queries, and with the
// row-at-a-time oracle bit for bit.
#include <gtest/gtest.h>

#include "engine/trace.h"
#include "exec/executor.h"
#include "testing/row_executor.h"
#include "workload/workload.h"

namespace lpce::exec {
namespace {

struct SweepParam {
  PhysOp join_op;
  bool index_scans;
  uint64_t seed;
};

class ExecSweepTest : public ::testing::TestWithParam<SweepParam> {
 protected:
  static void SetUpTestSuite() {
    db::SynthImdbOptions opts;
    opts.scale = 0.03;
    database_ = db::BuildSynthImdb(opts).release();
  }
  static void TearDownTestSuite() {
    delete database_;
    database_ = nullptr;
  }

  static db::Database* database_;
};

db::Database* ExecSweepTest::database_ = nullptr;

TEST_P(ExecSweepTest, MatchesCanonicalCount) {
  const SweepParam param = GetParam();
  wk::GeneratorOptions gen;
  gen.seed = param.seed;
  wk::QueryGenerator generator(database_, gen);
  for (int joins : {2, 4, 6}) {
    wk::LabeledQuery labeled;
    labeled.query = generator.Generate(joins);
    wk::LabelQuery(*database_, &labeled);

    auto plan = BuildCanonicalHashPlan(labeled.query);
    std::vector<PlanNode*> nodes;
    PostOrderPlan(plan.get(), &nodes);
    for (PlanNode* node : nodes) {
      if (node->is_join()) {
        node->op = param.join_op;
      } else if (param.index_scans && !node->filters.empty() &&
                 node->filters.front().op != qry::CmpOp::kNe) {
        node->op = PhysOp::kIndexScan;
        node->index_col = node->filters.front().col;
      }
    }
    Executor executor(database_, &labeled.query);
    RowSetPtr result = executor.Execute(plan.get());
    ASSERT_NE(result, nullptr);
    EXPECT_EQ(result->num_rows(), labeled.FinalCard())
        << PhysOpName(param.join_op) << " index=" << param.index_scans
        << " joins=" << joins << " seed=" << param.seed;
  }
}

// Differential harness: every finished operator's rowset (gathered through
// its row ids) and actual cardinality and the deterministic trace must match
// the row-at-a-time oracle's run bit for bit — for hash joins (fused and
// unfused) and for the merge and nested-loop kernels alike. Checkpoints are
// enabled with a threshold no synthetic cardinality can reach (1e300 rather
// than infinity — the Release build uses -ffast-math), so checkpoint events
// are evaluated and traced at every node without ever tripping.
TEST_P(ExecSweepTest, MatchesRowOracleBitIdentically) {
  const SweepParam param = GetParam();
  wk::GeneratorOptions gen;
  gen.seed = param.seed;
  wk::QueryGenerator generator(database_, gen);
  for (int joins : {2, 4, 6}) {
    wk::LabeledQuery labeled;
    labeled.query = generator.Generate(joins);

    auto make_plan = [&]() {
      auto plan = BuildCanonicalHashPlan(labeled.query);
      std::vector<PlanNode*> nodes;
      PostOrderPlan(plan.get(), &nodes);
      for (PlanNode* node : nodes) {
        if (node->is_join()) {
          node->op = param.join_op;
        } else if (param.index_scans && !node->filters.empty() &&
                   node->filters.front().op != qry::CmpOp::kNe) {
          node->op = PhysOp::kIndexScan;
          node->index_col = node->filters.front().col;
        }
      }
      return plan;
    };

    struct Outcome {
      std::vector<RowSetPtr> rowsets;  // post-order
      std::vector<uint64_t> actuals;
      std::string trace_json;
    };
    auto run = [&](bool oracle) {
      auto plan = make_plan();
      eng::QueryTrace trace;
      Executor::Options options;
      options.enable_checkpoints = true;
      options.qerror_threshold = 1e300;
      options.trace = &trace;
      std::unique_ptr<Executor> executor =
          oracle ? testing::RowExecutor::Make(database_, &labeled.query)
                 : std::make_unique<Executor>(database_, &labeled.query);
      Executor::RunResult result = executor->Run(plan.get(), options);
      EXPECT_EQ(result.tripped, nullptr);
      EXPECT_FALSE(result.aborted);
      Outcome out;
      std::vector<PlanNode*> nodes;
      PostOrderPlan(plan.get(), &nodes);
      for (PlanNode* node : nodes) {
        auto it = result.finished.find(node);
        EXPECT_NE(it, result.finished.end());
        // Production intermediates carry row ids; the deferred gather must
        // reproduce the oracle's payload columns bit for bit.
        out.rowsets.push_back(
            it != result.finished.end()
                ? testing::MaterializeRowSet(*database_, it->second)
                : nullptr);
        out.actuals.push_back(node->actual_card);
      }
      out.trace_json = trace.ToJson(eng::TraceJsonMode::kDeterministic);
      return out;
    };

    SCOPED_TRACE("joins=" + std::to_string(joins) +
                 " seed=" + std::to_string(param.seed));
    const Outcome oracle = run(/*oracle=*/true);
    const Outcome got = run(/*oracle=*/false);
    ASSERT_EQ(got.rowsets.size(), oracle.rowsets.size());
    for (size_t i = 0; i < oracle.rowsets.size(); ++i) {
      EXPECT_EQ(got.actuals[i], oracle.actuals[i]) << "node " << i;
      ASSERT_NE(got.rowsets[i], nullptr);
      ASSERT_NE(oracle.rowsets[i], nullptr);
      EXPECT_TRUE(got.rowsets[i]->schema == oracle.rowsets[i]->schema)
          << "node " << i;
      EXPECT_EQ(got.rowsets[i]->row_count, oracle.rowsets[i]->row_count)
          << "node " << i;
      EXPECT_TRUE(got.rowsets[i]->cols == oracle.rowsets[i]->cols)
          << "node " << i;
    }
    EXPECT_EQ(got.trace_json, oracle.trace_json);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ExecSweepTest,
    ::testing::Values(SweepParam{PhysOp::kHashJoin, false, 11},
                      SweepParam{PhysOp::kHashJoin, true, 12},
                      SweepParam{PhysOp::kMergeJoin, false, 13},
                      SweepParam{PhysOp::kMergeJoin, true, 14},
                      SweepParam{PhysOp::kNestLoopJoin, false, 15},
                      SweepParam{PhysOp::kNestLoopJoin, true, 16},
                      SweepParam{PhysOp::kHashJoin, true, 17},
                      SweepParam{PhysOp::kMergeJoin, true, 18}),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      std::string name = PhysOpName(info.param.join_op);
      name += info.param.index_scans ? "Index" : "Seq";
      name += "S" + std::to_string(info.param.seed);
      return name;
    });

}  // namespace
}  // namespace lpce::exec
