// Deterministic fuzz tests: malformed inputs must produce clean errors,
// never crashes or hangs.
//  - SQL parser: random garbage, token soup, and mutated valid queries;
//  - workload deserializer: truncations and bit flips of a valid file;
//  - parameter loader: truncations of a valid parameter file;
//  - concurrent serving: randomized queries through a 4-worker EngineServer,
//    every result cross-checked against the exact-cardinality oracle;
//  - executor: randomized queries (plus hand-built multigraph /
//    residual-key shapes) through the engine's vectorized row-id executor,
//    cross-checked against the same oracle and against an engine running the
//    row-at-a-time executor oracle (results and deterministic traces).
#include <cstdio>
#include <future>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "card/histogram_estimator.h"
#include "common/rng.h"
#include "engine/engine.h"
#include "engine/server.h"
#include "nn/layers.h"
#include "query/parser.h"
#include "storage/database.h"
#include "testing/exact_card.h"
#include "testing/row_executor.h"
#include "workload/workload.h"

namespace lpce {
namespace {

class FuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db::SynthImdbOptions opts;
    opts.scale = 0.02;
    database_ = db::BuildSynthImdb(opts);
  }

  std::unique_ptr<db::Database> database_;
};

TEST_F(FuzzTest, ParserSurvivesRandomBytes) {
  Rng rng(1);
  for (int trial = 0; trial < 300; ++trial) {
    std::string input;
    const size_t len = rng.Uniform(120);
    for (size_t i = 0; i < len; ++i) {
      input.push_back(static_cast<char>(rng.UniformInt(1, 126)));
    }
    qry::Query query;
    // Must return (almost surely an error) without crashing.
    (void)qry::ParseQuery(database_->catalog(), input, &query);
  }
}

TEST_F(FuzzTest, ParserSurvivesTokenSoup) {
  Rng rng(2);
  const std::vector<std::string> tokens = {
      "select", "count", "(", ")", "*", "from", "where", "and", "title",
      "movie_companies", "cast_info", ".", ",", "id", "movie_id", "kind_id",
      "<", "<=", "=", ">=", ">", "<>", "42", "-7", "bogus"};
  for (int trial = 0; trial < 300; ++trial) {
    std::string input;
    const size_t len = rng.Uniform(30);
    for (size_t i = 0; i < len; ++i) {
      input += tokens[rng.Uniform(tokens.size())];
      input += " ";
    }
    qry::Query query;
    (void)qry::ParseQuery(database_->catalog(), input, &query);
  }
}

TEST_F(FuzzTest, ParserSurvivesMutationsOfValidQuery) {
  const std::string valid =
      "SELECT COUNT(*) FROM title, movie_companies WHERE "
      "movie_companies.movie_id = title.id AND title.kind_id < 4";
  Rng rng(3);
  for (int trial = 0; trial < 300; ++trial) {
    std::string mutated = valid;
    const int edits = static_cast<int>(rng.Uniform(4)) + 1;
    for (int e = 0; e < edits; ++e) {
      const size_t pos = rng.Uniform(mutated.size());
      switch (rng.Uniform(3)) {
        case 0:
          mutated[pos] = static_cast<char>(rng.UniformInt(32, 126));
          break;
        case 1:
          mutated.erase(pos, 1);
          break;
        default:
          mutated.insert(pos, 1, static_cast<char>(rng.UniformInt(32, 126)));
      }
      if (mutated.empty()) break;
    }
    qry::Query query;
    Status status = qry::ParseQuery(database_->catalog(), mutated, &query);
    if (status.ok()) {
      // If it still parses, the result must satisfy the planner contract.
      EXPECT_TRUE(query.IsConnected(query.AllRels()));
      EXPECT_EQ(query.num_joins(), query.num_tables() - 1);
    }
  }
}

TEST_F(FuzzTest, WorkloadLoaderSurvivesTruncation) {
  wk::GeneratorOptions gen;
  gen.seed = 4;
  wk::QueryGenerator generator(database_.get(), gen);
  auto workload = generator.GenerateLabeled(3, 2, 4);
  const std::string path = ::testing::TempDir() + "/fuzz_workload.bin";
  ASSERT_TRUE(wk::SaveWorkload(workload, path).ok());

  // Read the full bytes.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::string bytes(static_cast<size_t>(size), '\0');
  ASSERT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);

  const std::string trunc_path = ::testing::TempDir() + "/fuzz_trunc.bin";
  // Truncate at a spread of prefixes (every ~7 bytes to keep runtime sane).
  for (size_t cut = 0; cut < bytes.size(); cut += 7) {
    std::FILE* out = std::fopen(trunc_path.c_str(), "wb");
    std::fwrite(bytes.data(), 1, cut, out);
    std::fclose(out);
    std::vector<wk::LabeledQuery> loaded;
    EXPECT_FALSE(wk::LoadWorkload(trunc_path, &loaded).ok()) << "cut=" << cut;
  }
  // The untruncated file still loads.
  std::vector<wk::LabeledQuery> loaded;
  EXPECT_TRUE(wk::LoadWorkload(path, &loaded).ok());
}

TEST_F(FuzzTest, WorkloadLoaderSurvivesBitFlips) {
  wk::GeneratorOptions gen;
  gen.seed = 5;
  wk::QueryGenerator generator(database_.get(), gen);
  auto workload = generator.GenerateLabeled(2, 2, 3);
  const std::string path = ::testing::TempDir() + "/fuzz_flip_base.bin";
  ASSERT_TRUE(wk::SaveWorkload(workload, path).ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::string bytes(static_cast<size_t>(size), '\0');
  ASSERT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);

  Rng rng(6);
  const std::string flip_path = ::testing::TempDir() + "/fuzz_flip.bin";
  for (int trial = 0; trial < 100; ++trial) {
    std::string mutated = bytes;
    mutated[rng.Uniform(mutated.size())] ^=
        static_cast<char>(1 << rng.Uniform(8));
    std::FILE* out = std::fopen(flip_path.c_str(), "wb");
    std::fwrite(mutated.data(), 1, mutated.size(), out);
    std::fclose(out);
    std::vector<wk::LabeledQuery> loaded;
    // Either a clean error or a (possibly corrupted) successful parse —
    // never a crash. Loaded data is not used further.
    (void)wk::LoadWorkload(flip_path, &loaded);
  }
}

TEST_F(FuzzTest, ConcurrentServerMatchesExactOracle) {
  // Randomized queries through a 4-worker EngineServer, each cross-checked
  // against the brute-force oracle (tests/testing/exact_card.h) — a third
  // implementation, independent of both the executor and the labeler. Random
  // per-query run configs mix plain and re-optimizing executions across the
  // workers. Oracle cost is exponential, so this uses a smaller database and
  // 1-3 joins.
  db::SynthImdbOptions opts;
  opts.scale = 0.01;
  auto database = db::BuildSynthImdb(opts);
  stats::DatabaseStats stats;
  stats.Build(*database);

  eng::ServerOptions options;
  options.num_workers = 4;
  options.max_queue = 256;
  eng::EngineServer server(
      database.get(), opt::CostModel{},
      [&stats](int worker_id) {
        (void)worker_id;
        eng::EngineServer::Session session;
        session.initial = std::make_unique<card::HistogramEstimator>(&stats);
        return session;
      },
      options);

  Rng rng(9);
  std::vector<uint64_t> expected;
  std::vector<std::shared_future<eng::RunStats>> futures;
  for (int round = 0; round < 4; ++round) {
    wk::GeneratorOptions gen;
    gen.seed = 1000 + static_cast<uint64_t>(round);
    wk::QueryGenerator generator(database.get(), gen);
    for (int i = 0; i < 15; ++i) {
      const qry::Query query =
          generator.Generate(1 + static_cast<int>(rng.Uniform(3)));
      expected.push_back(
          testing::ExactCardinality(*database, query, query.AllRels()));
      eng::RunConfig config;
      if (rng.Uniform(2) == 0) {
        config.enable_reopt = true;
        config.qerror_threshold = 2.0 + rng.UniformDouble(0.0, 20.0);
      }
      Result<std::shared_future<eng::RunStats>> admitted =
          server.Submit(query, config);
      ASSERT_TRUE(admitted.ok()) << admitted.status().ToString();
      futures.push_back(admitted.value());
    }
  }
  for (size_t q = 0; q < futures.size(); ++q) {
    EXPECT_EQ(futures[q].get().result_count, expected[q]) << "query " << q;
  }
  server.Shutdown();
  const eng::EngineServer::Counters counters = server.counters();
  EXPECT_EQ(counters.submitted, futures.size());
  EXPECT_EQ(counters.completed, futures.size());
  EXPECT_EQ(counters.rejected, 0u);
}

/// The hand-built multigraph shapes (a pair joined on two edges, and a
/// triangle): every join cut carries residual equi-join keys.
std::vector<qry::Query> MultigraphQueries(const db::Database& database) {
  const int32_t mi = database.catalog().FindTable("movie_info");
  const int32_t midx = database.catalog().FindTable("movie_info_idx");
  const int32_t title = database.catalog().FindTable("title");
  EXPECT_GE(mi, 0);
  EXPECT_GE(midx, 0);
  EXPECT_GE(title, 0);
  qry::Query pair;
  pair.tables = {mi, midx};
  pair.joins.push_back({{mi, 1}, {midx, 1}});   // movie_id
  pair.joins.push_back({{mi, 2}, {midx, 2}});   // info_type_id
  qry::Query triangle;
  triangle.tables = {title, mi, midx};
  triangle.joins.push_back({{mi, 1}, {title, 0}});
  triangle.joins.push_back({{midx, 1}, {title, 0}});
  triangle.joins.push_back({{mi, 2}, {midx, 2}});
  return {pair, triangle};
}

TEST_F(FuzzTest, BatchExecutorMatchesExactOracle) {
  // Executor lane of the oracle fuzz: randomized queries through the engine,
  // each result cross-checked against the brute-force exact-cardinality
  // oracle and — result count and deterministic trace bytes — against the
  // same engine running the row-at-a-time executor oracle. Mixes plain and
  // re-optimizing configs so checkpoint-interrupted runs, and re-planned
  // rounds over row-id pseudo relations (which may pick merge or nested-loop
  // joins), are covered too.
  db::SynthImdbOptions opts;
  opts.scale = 0.01;
  auto database = db::BuildSynthImdb(opts);
  stats::DatabaseStats stats;
  stats.Build(*database);

  eng::Engine engine(database.get(), opt::CostModel{});
  eng::Engine oracle_engine(database.get(), opt::CostModel{});
  oracle_engine.set_executor_factory(&testing::RowExecutor::Make);
  card::HistogramEstimator estimator(&stats);
  Rng rng(21);
  wk::GeneratorOptions gen;
  gen.seed = 2100;
  wk::QueryGenerator generator(database.get(), gen);
  std::vector<qry::Query> queries;
  for (int i = 0; i < 40; ++i) {
    queries.push_back(generator.Generate(1 + static_cast<int>(rng.Uniform(3))));
  }
  for (const qry::Query& query : MultigraphQueries(*database)) {
    queries.push_back(query);
  }
  int reopts = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    const qry::Query& query = queries[i];
    const uint64_t expected =
        testing::ExactCardinality(*database, query, query.AllRels());
    eng::RunConfig config;
    if (rng.Uniform(2) == 0) {
      config.enable_reopt = true;
      config.qerror_threshold = 2.0 + rng.UniformDouble(0.0, 20.0);
    }
    const eng::RunStats got =
        engine.RunQuery(query, &estimator, nullptr, config);
    const eng::RunStats oracle =
        oracle_engine.RunQuery(query, &estimator, nullptr, config);
    EXPECT_EQ(got.result_count, expected)
        << "query " << i << " reopt=" << config.enable_reopt;
    EXPECT_EQ(got.result_count, oracle.result_count) << "query " << i;
    EXPECT_EQ(got.num_reopts, oracle.num_reopts) << "query " << i;
    EXPECT_EQ(got.trace->ToJson(eng::TraceJsonMode::kDeterministic),
              oracle.trace->ToJson(eng::TraceJsonMode::kDeterministic))
        << "query " << i;
    reopts += got.num_reopts;
  }
  EXPECT_GT(reopts, 0);  // the re-planned rounds were actually exercised
}

TEST_F(FuzzTest, BatchExecutorMatchesRowOracleWithNarrowerIntermediates) {
  // Randomized queries plus the multigraph / residual-key shapes, each
  // result differentially checked against BOTH the brute-force
  // exact-cardinality oracle and the engine running the row-at-a-time
  // executor oracle (result count and deterministic trace bytes). The
  // residual keys must refine through the row-id indirection; row-id
  // intermediates must never be wider than the oracle's materialized
  // payloads.
  db::SynthImdbOptions opts;
  opts.scale = 0.01;
  auto database = db::BuildSynthImdb(opts);
  stats::DatabaseStats stats;
  stats.Build(*database);

  eng::Engine engine(database.get(), opt::CostModel{});
  eng::Engine oracle_engine(database.get(), opt::CostModel{});
  oracle_engine.set_executor_factory(&testing::RowExecutor::Make);
  card::HistogramEstimator estimator(&stats);
  Rng rng(33);
  wk::GeneratorOptions gen;
  gen.seed = 3300;
  wk::QueryGenerator generator(database.get(), gen);
  std::vector<qry::Query> queries;
  for (int i = 0; i < 12; ++i) {
    queries.push_back(
        generator.Generate(1 + static_cast<int>(rng.Uniform(3))));
  }
  for (const qry::Query& query : MultigraphQueries(*database)) {
    queries.push_back(query);
  }

  for (size_t q = 0; q < queries.size(); ++q) {
    const qry::Query& query = queries[q];
    const uint64_t expected =
        testing::ExactCardinality(*database, query, query.AllRels());
    eng::RunConfig config;
    config.enable_reopt = q % 2 == 1;
    const eng::RunStats oracle =
        oracle_engine.RunQuery(query, &estimator, nullptr, config);
    const eng::RunStats got =
        engine.RunQuery(query, &estimator, nullptr, config);
    EXPECT_EQ(got.result_count, expected) << "query " << q;
    EXPECT_EQ(got.result_count, oracle.result_count) << "query " << q;
    EXPECT_EQ(got.trace->ToJson(eng::TraceJsonMode::kDeterministic),
              oracle.trace->ToJson(eng::TraceJsonMode::kDeterministic))
        << "query " << q;
    // Row-id intermediates are never wider than the materialized payloads
    // they replace (uint32 handles vs int64 values, one handle column per
    // table instead of one column per required ref).
    EXPECT_LE(got.peak_intermediate_bytes, oracle.peak_intermediate_bytes)
        << "query " << q;
  }
}

TEST_F(FuzzTest, ParamLoaderSurvivesTruncation) {
  Rng rng(7);
  nn::ParamStore store;
  store.GetOrCreate("w1", 4, 4, 1.0f, &rng);
  store.GetOrCreate("w2", 2, 8, 1.0f, &rng);
  const std::string path = ::testing::TempDir() + "/fuzz_params.bin";
  ASSERT_TRUE(store.SaveToFile(path).ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::string bytes(static_cast<size_t>(size), '\0');
  ASSERT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);

  const std::string trunc_path = ::testing::TempDir() + "/fuzz_params_trunc.bin";
  for (size_t cut = 0; cut + 1 < bytes.size(); cut += 5) {
    std::FILE* out = std::fopen(trunc_path.c_str(), "wb");
    std::fwrite(bytes.data(), 1, cut, out);
    std::fclose(out);
    nn::ParamStore fresh;
    Rng rng2(8);
    fresh.GetOrCreate("w1", 4, 4, 1.0f, &rng2);
    fresh.GetOrCreate("w2", 2, 8, 1.0f, &rng2);
    EXPECT_FALSE(fresh.LoadFromFile(trunc_path).ok()) << "cut=" << cut;
  }
}

}  // namespace
}  // namespace lpce
