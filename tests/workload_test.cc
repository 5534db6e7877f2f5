// Workload generator and labeling tests, including the differential suite
// of the counting pass over the join tree (wk::AcceptQuery,
// wk::CountConnectedSubsets, wk::TryLabelQuery) against the oracles kept with
// the tests: the hash-join DFS and the canonical-plan run
// (testing/reference_generator.h) and the exact-cardinality oracle. Counts
// that overflow 64 bits and queries that are not trees fail closed.
#include <gtest/gtest.h>

#include <limits>

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
    ASSERT_TRUE(testing::CanonicalPlanLabel(*database_, &relabeled, 0));
    EXPECT_EQ(labeled.true_cards, relabeled.true_cards);
  }
}

TEST_F(SubsetValidationTest, DecisionsLabelsAndCountsMatchReferenceAndOracle) {
  // Seeds x 1-8 joins x row caps (the small ones reject) x require_nonempty:
  // the production decision and labels must equal the reference's, the
  // counting pass must decide as the hash-join DFS does and, when both
  // accept, count the same subsets; every subset it counted must equal the
  // exact oracle, and an accepting pass must have counted every connected
  // subset.
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

            std::unordered_map<qry::RelSet, uint64_t> counts, dfs_counts;
            EXPECT_EQ(CountConnectedSubsets(*database_, query, cap, nonempty,
                                            &counts),
                      ok)
                << context;
            EXPECT_EQ(testing::HashJoinCountConnectedSubsets(
                          *database_, query, cap, nonempty, &dfs_counts),
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
            EXPECT_EQ(counts, dfs_counts) << context;
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

TEST_F(SubsetValidationTest, ValidationOffMatchesTheCanonicalPlan) {
  // Without validate_all_subsets only the canonical plan's joins are capped,
  // and require_nonempty looks at the final count only: decisions and labels
  // must equal the canonical plan's run through the executor.
  const size_t kCaps[] = {0, 40, 400, 4000};
  int accepted = 0, rejected = 0;
  int accepted_with_subset_over_cap = 0;  // a non-canonical subset only
  for (uint64_t seed : {4, 23}) {
    for (int joins = 1; joins <= 8; ++joins) {
      for (const qry::Query& query : Candidates(seed, joins, 5)) {
        std::unordered_map<qry::RelSet, uint64_t> all;
        ASSERT_TRUE(CountConnectedSubsets(*database_, query, 0, false, &all));
        for (size_t cap : kCaps) {
          const std::string context = "seed " + std::to_string(seed) +
                                      " joins " + std::to_string(joins) +
                                      " cap " + std::to_string(cap);
          LabeledQuery prod, ref;
          prod.query = ref.query = query;
          const bool ok = TryLabelQuery(*database_, &prod, cap);
          ASSERT_EQ(ok, testing::CanonicalPlanLabel(*database_, &ref, cap))
              << context;
          EXPECT_EQ(prod.true_cards, ref.true_cards) << context;
          for (bool nonempty : {false, true}) {
            GeneratorOptions opts;
            opts.max_node_rows = cap;
            opts.require_nonempty = nonempty;
            LabeledQuery accept_prod, accept_ref;
            accept_prod.query = accept_ref.query = query;
            const bool accept = AcceptQuery(*database_, opts, &accept_prod);
            ASSERT_EQ(accept, testing::ReferenceAcceptQuery(*database_, opts,
                                                            &accept_ref))
                << context << (nonempty ? " nonempty" : "");
            if (accept) {
              EXPECT_EQ(accept_prod.true_cards, accept_ref.true_cards)
                  << context;
            }
          }
          if (!ok) {
            ++rejected;
            continue;
          }
          ++accepted;
          bool subset_over_cap = false;
          for (const auto& [rels, count] : all) {
            subset_over_cap |= cap > 0 && qry::PopCount(rels) > 1 && count > cap;
          }
          accepted_with_subset_over_cap += subset_over_cap ? 1 : 0;
        }
      }
    }
  }
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
  EXPECT_GT(accepted_with_subset_over_cap, 0);
}

TEST_F(SubsetValidationTest, ArbitraryInt64KeysMatchTheOracles) {
  // The same data with every key column sent through a bijection of int64
  // (odd multiplier, wrapping): keys spread over the whole range, negative
  // ones included, so slots come from hashing instead of key offsets.
  auto spread = std::make_unique<db::Database>();
  const db::Catalog& catalog = database_->catalog();
  auto is_key = [&](int32_t table, int32_t column) {
    if (column == 0) return true;
    for (const auto& edge : catalog.join_edges()) {
      if ((edge.left.table == table && edge.left.column == column) ||
          (edge.right.table == table && edge.right.column == column)) {
        return true;
      }
    }
    return false;
  };
  for (int32_t t = 0; t < catalog.num_tables(); ++t) {
    const int32_t id = spread->AddTable(catalog.table(t));
    const db::Table& src = database_->table(t);
    for (int32_t c = 0; c < static_cast<int32_t>(src.num_columns()); ++c) {
      std::vector<int64_t>& dst = spread->table(id).mutable_column(c);
      dst = src.column(static_cast<size_t>(c));
      if (!is_key(t, c)) continue;
      for (int64_t& v : dst) {
        v = static_cast<int64_t>(static_cast<uint64_t>(v) * 0x9E3779B97F4A7C15ull +
                                 0x7F4A7C15ull);
      }
    }
  }
  for (const auto& edge : catalog.join_edges()) {
    spread->catalog().AddJoinEdge(edge.left, edge.right);
  }
  spread->BuildAllIndexes();

  GeneratorOptions draw;
  int accepted = 0;
  for (int joins = 1; joins <= 7; ++joins) {
    draw.seed = 40 + static_cast<uint64_t>(joins);
    QueryGenerator generator(
        spread.get(), draw,
        [](const db::Database&, const GeneratorOptions&, LabeledQuery*) {
          return true;
        });
    for (int i = 0; i < 5; ++i) {
      const qry::Query query = generator.Generate(joins);
      std::unordered_map<qry::RelSet, uint64_t> counts, dfs_counts;
      const bool ok = CountConnectedSubsets(*spread, query, 4000, false, &counts);
      ASSERT_EQ(ok, testing::HashJoinCountConnectedSubsets(*spread, query, 4000,
                                                           false, &dfs_counts));
      for (const auto& [rels, count] : counts) {
        EXPECT_EQ(count, testing::ExactCardinality(*spread, query, rels))
            << "joins " << joins << " rels " << rels;
      }
      if (ok) {
        ++accepted;
        EXPECT_EQ(counts, dfs_counts) << "joins " << joins;
      }
      LabeledQuery prod, ref;
      prod.query = ref.query = query;
      ASSERT_EQ(TryLabelQuery(*spread, &prod, 4000),
                testing::CanonicalPlanLabel(*spread, &ref, 4000));
      EXPECT_EQ(prod.true_cards, ref.true_cards) << "joins " << joins;
    }
  }
  EXPECT_GT(accepted, 0);
}

// ---- Fail-closed shapes and overflow -----------------------------------------

TEST_F(SubsetValidationTest, NonTreeQueriesFailClosed) {
  const db::Catalog& catalog = database_->catalog();
  const int32_t mi = catalog.FindTable("movie_info");
  const int32_t midx = catalog.FindTable("movie_info_idx");
  const int32_t title = catalog.FindTable("title");
  // Parallel edges: movie_id = movie_id AND info_type_id = info_type_id.
  qry::Query parallel;
  parallel.tables = {mi, midx};
  parallel.joins.push_back({{mi, 1}, {midx, 1}});
  parallel.joins.push_back({{mi, 2}, {midx, 2}});
  // A cycle: title joins both satellites, which also join each other.
  qry::Query triangle;
  triangle.tables = {title, mi, midx};
  triangle.joins.push_back({{mi, 1}, {title, 0}});
  triangle.joins.push_back({{midx, 1}, {title, 0}});
  triangle.joins.push_back({{mi, 2}, {midx, 2}});
  for (const qry::Query& query : {parallel, triangle}) {
    LabeledQuery labeled;
    labeled.query = query;
    std::unordered_map<qry::RelSet, uint64_t> counts;
    EXPECT_DEATH(CountConnectedSubsets(*database_, query, 0, false, &counts),
                 "counting needs a tree query");
    EXPECT_DEATH(TryLabelQuery(*database_, &labeled, 0),
                 "counting needs a tree query");
    EXPECT_DEATH(LabelQuery(*database_, &labeled),
                 "counting needs a tree query");
    GeneratorOptions opts;
    opts.validate_all_subsets = true;
    opts.max_node_rows = 1000;
    EXPECT_DEATH(AcceptQuery(*database_, opts, &labeled),
                 "counting needs a tree query");
    // The oracles take any shape.
    EXPECT_TRUE(testing::HashJoinCountConnectedSubsets(*database_, query, 0,
                                                       false, &counts));
    EXPECT_EQ(counts.at(query.AllRels()),
              testing::ExactCardinality(*database_, query, query.AllRels()));
  }
}

/// A star of `leaves` tables around a two-row hub, every table joined on a
/// key that takes two values far apart (so slots come from hashing): each
/// leaf has `rows` rows, half per key, so the whole query counts
/// 2 * (rows / 2)^leaves rows.
class CountOverflowTest : public ::testing::Test {
 protected:
  static constexpr int64_t kKeys[2] = {std::numeric_limits<int64_t>::min() + 7,
                                       (int64_t{1} << 62) + 12345};

  void SetUp() override {
    database_ = std::make_unique<db::Database>();
    hub_ = AddTable("hub", 2);
    for (int i = 0; i < 7; ++i) leaves_.push_back(AddTable("leaf", 3000));
  }

  int32_t AddTable(const std::string& name, size_t rows) {
    const int32_t id = database_->AddTable({name, {{"id"}, {"key"}}});
    for (size_t r = 0; r < rows; ++r) {
      database_->table(id).AppendRow({static_cast<int64_t>(r), kKeys[r % 2]});
    }
    return id;
  }

  qry::Query Star(int leaves) const {
    qry::Query query;
    query.tables = {hub_};
    for (int i = 0; i < leaves; ++i) {
      query.tables.push_back(leaves_[static_cast<size_t>(i)]);
      query.joins.push_back({{leaves_[static_cast<size_t>(i)], 1}, {hub_, 1}});
    }
    return query;
  }

  std::unique_ptr<db::Database> database_;
  int32_t hub_ = -1;
  std::vector<int32_t> leaves_;
};

TEST_F(CountOverflowTest, CountsThatFitAreExact) {
  // 2 * 1500^5 < 2^64: labelled exactly, through the hashed slots.
  LabeledQuery labeled;
  labeled.query = Star(5);
  LabelQuery(*database_, &labeled);
  uint64_t expected = 2;
  for (int i = 0; i < 5; ++i) expected *= 1500;
  EXPECT_EQ(labeled.FinalCard(), expected);
  EXPECT_EQ(labeled.true_cards.at(qry::Bit(0) | qry::Bit(1)), 3000u);
}

TEST_F(CountOverflowTest, OverflowingCountsFailClosed) {
  // 2 * 1500^7 > 2^64: the whole query's product overflows.
  const qry::Query query = Star(7);
  for (bool validate : {false, true}) {
    GeneratorOptions opts;
    opts.validate_all_subsets = validate;
    opts.max_node_rows = validate ? std::numeric_limits<size_t>::max() : 0;
    LabeledQuery labeled;
    labeled.query = query;
    EXPECT_FALSE(AcceptQuery(*database_, opts, &labeled)) << validate;
    EXPECT_TRUE(labeled.true_cards.empty());
  }
  LabeledQuery labeled;
  labeled.query = query;
  EXPECT_FALSE(TryLabelQuery(*database_, &labeled, 0));
  EXPECT_TRUE(labeled.true_cards.empty());
  EXPECT_DEATH(LabelQuery(*database_, &labeled), "overflows 64 bits");

  // Every count recorded before the pass stopped is exact: the hub with j
  // leaves counts 2 * 1500^j.
  std::unordered_map<qry::RelSet, uint64_t> counts;
  EXPECT_FALSE(CountConnectedSubsets(*database_, query, 0, false, &counts));
  EXPECT_EQ(counts.count(query.AllRels()), 0u);
  for (const auto& [rels, count] : counts) {
    uint64_t expected = qry::PopCount(rels) == 1 && rels != qry::Bit(0) ? 3000 : 2;
    if (qry::Contains(rels, 0)) {
      for (int j = 1; j < qry::PopCount(rels); ++j) expected *= 1500;
    }
    EXPECT_EQ(count, expected) << "rels " << rels;
  }
}

}  // namespace
}  // namespace lpce::wk
