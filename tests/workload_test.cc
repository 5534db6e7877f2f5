// Workload generator and labeling tests, including the differential suite
// of the connected-subset pass (wk::AcceptQuery under validate_all_subsets)
// against the reference validator and the exact-cardinality oracle kept with
// the tests.
#include <gtest/gtest.h>

#include "exec/executor.h"
#include "query/join_graph.h"
#include "testing/exact_card.h"
#include "testing/reference_generator.h"
#include "workload/workload.h"

namespace lpce::wk {
namespace {

class WorkloadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db::SynthImdbOptions opts;
    opts.scale = 0.03;
    database_ = db::BuildSynthImdb(opts);
  }

  std::unique_ptr<db::Database> database_;
};

TEST_F(WorkloadTest, GeneratesRequestedJoinCounts) {
  GeneratorOptions opts;
  QueryGenerator generator(database_.get(), opts);
  for (int joins = 2; joins <= 8; ++joins) {
    qry::Query query = generator.Generate(joins);
    EXPECT_EQ(query.num_joins(), joins);
    EXPECT_EQ(query.num_tables(), joins + 1);
    EXPECT_TRUE(query.IsConnected(query.AllRels()));
    // Tables are distinct.
    std::set<int32_t> distinct(query.tables.begin(), query.tables.end());
    EXPECT_EQ(distinct.size(), query.tables.size());
  }
}

TEST_F(WorkloadTest, LabelsEveryCanonicalNode) {
  GeneratorOptions opts;
  QueryGenerator generator(database_.get(), opts);
  auto workload = generator.GenerateLabeled(5, 3, 5);
  ASSERT_EQ(workload.size(), 5u);
  for (const auto& labeled : workload) {
    // 2k-1 nodes for k tables.
    EXPECT_EQ(labeled.true_cards.size(),
              static_cast<size_t>(2 * labeled.query.num_tables() - 1));
    EXPECT_TRUE(labeled.true_cards.count(labeled.query.AllRels()) > 0);
  }
}

TEST_F(WorkloadTest, LabelsMatchIndependentExecution) {
  GeneratorOptions opts;
  opts.seed = 42;
  QueryGenerator generator(database_.get(), opts);
  auto workload = generator.GenerateLabeled(3, 2, 4);
  for (const auto& labeled : workload) {
    auto plan = exec::BuildCanonicalHashPlan(labeled.query);
    exec::Executor executor(database_.get(), &labeled.query);
    EXPECT_EQ(executor.Execute(plan.get())->num_rows(), labeled.FinalCard());
  }
}

TEST_F(WorkloadTest, RequireNonemptyProducesNonzeroResults) {
  GeneratorOptions opts;
  opts.require_nonempty = true;
  opts.seed = 9;
  QueryGenerator generator(database_.get(), opts);
  auto workload = generator.GenerateLabeled(5, 2, 6);
  for (const auto& labeled : workload) {
    EXPECT_GT(labeled.FinalCard(), 0u);
  }
}

TEST_F(WorkloadTest, DeterministicAcrossRuns) {
  GeneratorOptions opts;
  opts.seed = 77;
  QueryGenerator g1(database_.get(), opts);
  QueryGenerator g2(database_.get(), opts);
  auto w1 = g1.GenerateLabeled(4, 2, 5);
  auto w2 = g2.GenerateLabeled(4, 2, 5);
  for (size_t i = 0; i < w1.size(); ++i) {
    EXPECT_EQ(w1[i].query.tables, w2[i].query.tables);
    EXPECT_EQ(w1[i].FinalCard(), w2[i].FinalCard());
  }
}

TEST_F(WorkloadTest, SaveLoadRoundTrip) {
  GeneratorOptions opts;
  QueryGenerator generator(database_.get(), opts);
  auto workload = generator.GenerateLabeled(6, 2, 6);
  const std::string path = ::testing::TempDir() + "/workload.bin";
  ASSERT_TRUE(SaveWorkload(workload, path).ok());
  std::vector<LabeledQuery> loaded;
  ASSERT_TRUE(LoadWorkload(path, &loaded).ok());
  ASSERT_EQ(loaded.size(), workload.size());
  for (size_t i = 0; i < workload.size(); ++i) {
    EXPECT_EQ(loaded[i].query.tables, workload[i].query.tables);
    EXPECT_EQ(loaded[i].query.joins.size(), workload[i].query.joins.size());
    EXPECT_EQ(loaded[i].query.predicates.size(),
              workload[i].query.predicates.size());
    EXPECT_EQ(loaded[i].true_cards, workload[i].true_cards);
  }
}

TEST_F(WorkloadTest, LoadRejectsGarbage) {
  const std::string path = ::testing::TempDir() + "/garbage.bin";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  const char junk[] = "not a workload";
  std::fwrite(junk, 1, sizeof(junk), f);
  std::fclose(f);
  std::vector<LabeledQuery> loaded;
  EXPECT_FALSE(LoadWorkload(path, &loaded).ok());
}

TEST_F(WorkloadTest, MaxCardinalityIsMaxOverAllNodes) {
  GeneratorOptions opts;
  QueryGenerator generator(database_.get(), opts);
  auto workload = generator.GenerateLabeled(4, 2, 5);
  const uint64_t max_card = MaxCardinality(workload);
  uint64_t expect = 1;
  for (const auto& labeled : workload) {
    for (const auto& [rels, card] : labeled.true_cards) {
      expect = std::max(expect, card);
    }
  }
  EXPECT_EQ(max_card, expect);
}

// ---- validate_all_subsets: the subset pass vs the reference validator ----

class SubsetValidationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db::SynthImdbOptions opts;
    opts.scale = 0.01;  // tables of a few hundred rows: brute-force friendly
    database_ = db::BuildSynthImdb(opts);
  }

  /// The generator's raw draws for `joins`: a validator that keeps every
  /// candidate, so the stream is the candidates themselves.
  std::vector<qry::Query> Candidates(uint64_t seed, int joins, int count) {
    GeneratorOptions opts;
    opts.seed = seed;
    QueryGenerator generator(
        database_.get(), opts,
        [](const db::Database&, const GeneratorOptions&, LabeledQuery*) {
          return true;
        });
    std::vector<qry::Query> out;
    for (int i = 0; i < count; ++i) out.push_back(generator.Generate(joins));
    return out;
  }

  /// Production and reference generation from the same options must yield
  /// the same queries with the same labels.
  std::vector<LabeledQuery> ExpectSameGeneration(const GeneratorOptions& opts,
                                                 int count, int min_joins,
                                                 int max_joins) {
    auto prod = QueryGenerator(database_.get(), opts)
                    .GenerateLabeled(count, min_joins, max_joins);
    auto ref = QueryGenerator(database_.get(), opts,
                              testing::ReferenceAcceptQuery)
                   .GenerateLabeled(count, min_joins, max_joins);
    EXPECT_EQ(prod.size(), ref.size());
    for (size_t i = 0; i < prod.size() && i < ref.size(); ++i) {
      EXPECT_TRUE(prod[i].query == ref[i].query) << "query " << i;
      EXPECT_EQ(prod[i].true_cards, ref[i].true_cards) << "query " << i;
    }
    return prod;
  }

  std::unique_ptr<db::Database> database_;
};

TEST_F(SubsetValidationTest, SingleTableAndOneJoinQueriesSeeTheScanCount) {
  GeneratorOptions opts;
  opts.seed = 5;
  opts.validate_all_subsets = true;
  opts.require_nonempty = true;
  opts.max_node_rows = 200;
  const auto workload = ExpectSameGeneration(opts, 24, 0, 1);
  int single_tables = 0;
  for (const auto& labeled : workload) {
    EXPECT_GT(labeled.FinalCard(), 0u);
    // A one-table query's result is its scan: nothing else can reject it.
    if (labeled.query.num_tables() == 1) {
      ++single_tables;
      EXPECT_EQ(labeled.FinalCard(),
                testing::ExactCardinality(*database_, labeled.query, 1));
    }
  }
  EXPECT_GT(single_tables, 0);
}

TEST_F(SubsetValidationTest, RowCapRejectsLikeTheReference) {
  GeneratorOptions opts;
  opts.validate_all_subsets = true;
  opts.max_node_rows = 300;
  int accepted = 0, rejected = 0;
  for (const qry::Query& query : Candidates(/*seed=*/8, /*joins=*/4, 40)) {
    LabeledQuery prod, ref;
    prod.query = ref.query = query;
    const bool ok = AcceptQuery(*database_, opts, &prod);
    EXPECT_EQ(ok, testing::ReferenceAcceptQuery(*database_, opts, &ref));
    (ok ? accepted : rejected)++;
  }
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);  // the cap must bite for the case to mean anything
  opts.seed = 8;
  ExpectSameGeneration(opts, 12, 2, 6);
}

TEST_F(SubsetValidationTest, RequireNonemptyWithValidation) {
  GeneratorOptions opts;
  opts.seed = 12;
  opts.validate_all_subsets = true;
  opts.require_nonempty = true;
  opts.max_node_rows = 2000;
  for (const auto& labeled : ExpectSameGeneration(opts, 16, 1, 7)) {
    EXPECT_GT(labeled.FinalCard(), 0u);
  }
}

TEST_F(SubsetValidationTest, ZeroRowCapTurnsValidationOff) {
  GeneratorOptions opts;
  opts.seed = 21;
  opts.validate_all_subsets = true;
  opts.max_node_rows = 0;
  for (const auto& labeled : ExpectSameGeneration(opts, 12, 1, 6)) {
    LabeledQuery relabeled;
    relabeled.query = labeled.query;
    LabelQuery(*database_, &relabeled);
    EXPECT_EQ(labeled.true_cards, relabeled.true_cards);
  }
}

TEST_F(SubsetValidationTest, DecisionsLabelsAndCountsMatchReferenceAndOracle) {
  // Seeds x 1-8 joins x row caps (the small ones reject) x require_nonempty:
  // the production decision and labels must equal the reference's, and
  // every subset the pass counted must equal the exact oracle; an accepting
  // pass must have counted every connected subset.
  const size_t kCaps[] = {40, 400, 4000};
  int accepted = 0, rejected = 0;
  int accepted_scan_over_cap = 0;     // scans are not capped
  int accepted_with_empty_subset = 0; // empty subsets only matter if required
  for (uint64_t seed : {3, 17, 29}) {
    for (int joins = 1; joins <= 8; ++joins) {
      for (const qry::Query& query : Candidates(seed, joins, 5)) {
        const qry::JoinGraph graph(query);
        int connected = 0;
        for (qry::RelSet s = 1; s <= query.AllRels(); ++s) {
          connected += graph.IsConnected(s) ? 1 : 0;
        }
        for (size_t cap : kCaps) {
          for (bool nonempty : {false, true}) {
            GeneratorOptions opts;
            opts.validate_all_subsets = true;
            opts.max_node_rows = cap;
            opts.require_nonempty = nonempty;
            const std::string context =
                "seed " + std::to_string(seed) + " joins " +
                std::to_string(joins) + " cap " + std::to_string(cap) +
                (nonempty ? " nonempty" : "");
            LabeledQuery prod, ref;
            prod.query = ref.query = query;
            const bool ok = AcceptQuery(*database_, opts, &prod);
            ASSERT_EQ(ok, testing::ReferenceAcceptQuery(*database_, opts, &ref))
                << context;
            EXPECT_EQ(prod.true_cards, ref.true_cards) << context;

            std::unordered_map<qry::RelSet, uint64_t> counts;
            EXPECT_EQ(CountConnectedSubsets(*database_, query, cap, nonempty,
                                            &counts),
                      ok)
                << context;
            bool scan_over_cap = false, empty_subset = false;
            for (const auto& [rels, count] : counts) {
              EXPECT_EQ(count,
                        testing::ExactCardinality(*database_, query, rels))
                  << context << " rels " << rels;
              scan_over_cap |= qry::PopCount(rels) == 1 && count > cap;
              empty_subset |= count == 0;
            }
            if (!ok) {
              ++rejected;
              continue;
            }
            ++accepted;
            EXPECT_EQ(counts.size(), static_cast<size_t>(connected)) << context;
            accepted_scan_over_cap += scan_over_cap ? 1 : 0;
            accepted_with_empty_subset += empty_subset ? 1 : 0;
          }
        }
      }
    }
  }
  // The suite must exercise every branch it guards.
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
  EXPECT_GT(accepted_scan_over_cap, 0);
  EXPECT_GT(accepted_with_empty_subset, 0);
}

}  // namespace
}  // namespace lpce::wk
