// Serving-layer stress suite, built to run under ThreadSanitizer (the CI
// `serving` job): concurrent admission, bounded-queue rejection, drain
// semantics, exact counter accounting, and the read-only-after-training
// contracts the server relies on (shared TreeModel inference, the world's
// TrainStatsCache).
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "card/histogram_estimator.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "engine/engine.h"
#include "engine/server.h"
#include "lpce/estimators.h"
#include "lpce/train_stats.h"
#include "lpce/tree_model.h"
#include "storage/database.h"
#include "workload/workload.h"

namespace lpce::eng {
namespace {

/// Adversarial underestimator (engine_test.cc's shape, owning) so the
/// stressed server also exercises the re-optimization paths.
class UnderEstimator : public card::CardinalityEstimator {
 public:
  explicit UnderEstimator(const stats::DatabaseStats* stats)
      : histogram_(stats) {}
  std::string name() const override { return "under"; }
  void PrepareQuery(const qry::Query& query) override {
    histogram_.PrepareQuery(query);
  }
  double EstimateSubset(const qry::Query& query, qry::RelSet rels) override {
    const double base = histogram_.EstimateSubset(query, rels);
    return qry::PopCount(rels) > 1 ? std::max(1.0, base / 1e4) : base;
  }

 private:
  card::HistogramEstimator histogram_;
};

/// Blocks every query in PrepareQuery until `gate` resolves — lets the tests
/// fill the admission queue deterministically while all workers are parked.
class GatedEstimator : public card::CardinalityEstimator {
 public:
  GatedEstimator(const stats::DatabaseStats* stats,
                 std::shared_future<void> gate)
      : histogram_(stats), gate_(std::move(gate)) {}
  std::string name() const override { return "gated"; }
  void PrepareQuery(const qry::Query& query) override {
    gate_.wait();
    histogram_.PrepareQuery(query);
  }
  double EstimateSubset(const qry::Query& query, qry::RelSet rels) override {
    return histogram_.EstimateSubset(query, rels);
  }

 private:
  card::HistogramEstimator histogram_;
  std::shared_future<void> gate_;
};

class ServingStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    common::SetGlobalPoolSize(2);
    db::SynthImdbOptions opts;
    opts.scale = 0.02;
    database_ = db::BuildSynthImdb(opts);
    stats_.Build(*database_);
    wk::GeneratorOptions gen;
    gen.seed = 512;
    wk::QueryGenerator generator(database_.get(), gen);
    workload_ = generator.GenerateLabeled(60, 2, 4);
  }
  void TearDown() override { common::SetGlobalPoolSize(0); }

  EngineServer::SessionFactory UnderFactory() {
    return [this](int worker_id) {
      (void)worker_id;
      EngineServer::Session session;
      session.initial = std::make_unique<UnderEstimator>(&stats_);
      return session;
    };
  }

  std::unique_ptr<db::Database> database_;
  stats::DatabaseStats stats_;
  std::vector<wk::LabeledQuery> workload_;
};

TEST_F(ServingStressTest, QueueFullRejectsWithCleanStatusAndExactCounts) {
  constexpr int kWorkers = 2;
  constexpr size_t kQueue = 4;
  constexpr int kOverflow = 5;

  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  ServerOptions options;
  options.num_workers = kWorkers;
  options.max_queue = kQueue;
  const common::MetricsSnapshot before =
      common::MetricsRegistry::Global().Snapshot();
  EngineServer server(
      database_.get(), opt::CostModel{},
      [this, gate](int worker_id) {
        (void)worker_id;
        EngineServer::Session session;
        session.initial = std::make_unique<GatedEstimator>(&stats_, gate);
        return session;
      },
      options);

  // Park every worker on a gated query...
  std::vector<std::shared_future<RunStats>> futures;
  for (int i = 0; i < kWorkers; ++i) {
    Result<std::shared_future<RunStats>> r =
        server.Submit(workload_[static_cast<size_t>(i)].query);
    ASSERT_TRUE(r.ok());
    futures.push_back(r.value());
  }
  while (server.queue_depth() > 0) std::this_thread::yield();
  // ...fill the queue to the brim...
  for (size_t i = 0; i < kQueue; ++i) {
    Result<std::shared_future<RunStats>> r =
        server.Submit(workload_[kWorkers + i].query);
    ASSERT_TRUE(r.ok());
    futures.push_back(r.value());
  }
  ASSERT_EQ(server.queue_depth(), kQueue);
  // ...and every further submission is cleanly refused.
  for (int i = 0; i < kOverflow; ++i) {
    Result<std::shared_future<RunStats>> r = server.Submit(workload_[0].query);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted)
        << r.status().ToString();
    EXPECT_FALSE(r.status().message().empty());
  }

  release.set_value();
  for (size_t i = 0; i < futures.size(); ++i) {
    EXPECT_EQ(futures[i].get().result_count, workload_[i].FinalCard());
  }
  server.Shutdown();

  const EngineServer::Counters counters = server.counters();
  EXPECT_EQ(counters.submitted, kWorkers + kQueue);
  EXPECT_EQ(counters.rejected, kOverflow);
  EXPECT_EQ(counters.completed, counters.submitted);
  EXPECT_EQ(server.queue_depth(), 0u);

  // The process-global lpce.serve.* metrics moved by exactly the same
  // amounts (this binary runs one server at a time).
  const common::MetricsSnapshot delta = common::Delta(
      before, common::MetricsRegistry::Global().Snapshot());
  EXPECT_EQ(delta.counters.at("lpce.serve.submitted_total"),
            counters.submitted);
  EXPECT_EQ(delta.counters.at("lpce.serve.rejected_total"), counters.rejected);
  EXPECT_EQ(delta.counters.at("lpce.serve.completed_total"),
            counters.completed);
  EXPECT_EQ(delta.histograms.at("lpce.serve.wait_seconds").count,
            counters.submitted);
  EXPECT_EQ(delta.histograms.at("lpce.serve.e2e_seconds").count,
            counters.completed);
  EXPECT_EQ(delta.gauges.at("lpce.serve.queue_depth"), 0.0);
}

TEST_F(ServingStressTest, WorkerCountResolvesFromEnvKnob) {
  // Explicit option > LPCE_SERVE_WORKERS > default 1.
  ASSERT_EQ(setenv("LPCE_SERVE_WORKERS", "3", /*overwrite=*/1), 0);
  EXPECT_EQ(ServerOptions::FromEnv().num_workers, 3);
  {
    ServerOptions options;  // num_workers = 0 → env
    EngineServer server(database_.get(), opt::CostModel{}, UnderFactory(),
                        options);
    EXPECT_EQ(server.num_workers(), 3);
    Result<RunStats> run = server.RunSync(workload_[0].query);
    ASSERT_TRUE(run.ok());
    EXPECT_EQ(run.value().result_count, workload_[0].FinalCard());
  }
  {
    ServerOptions options;
    options.num_workers = 2;  // explicit wins over env
    EngineServer server(database_.get(), opt::CostModel{}, UnderFactory(),
                        options);
    EXPECT_EQ(server.num_workers(), 2);
  }
  ASSERT_EQ(setenv("LPCE_SERVE_WORKERS", "not-a-number", 1), 0);
  EXPECT_EQ(ServerOptions::FromEnv().num_workers, 0);  // invalid → default
  {
    ServerOptions options;
    EngineServer server(database_.get(), opt::CostModel{}, UnderFactory(),
                        options);
    EXPECT_EQ(server.num_workers(), 1);
  }
  ASSERT_EQ(unsetenv("LPCE_SERVE_WORKERS"), 0);
}

TEST_F(ServingStressTest, SubmitAfterShutdownFailsCleanly) {
  ServerOptions options;
  options.num_workers = 1;
  EngineServer server(database_.get(), opt::CostModel{}, UnderFactory(),
                      options);
  Result<RunStats> ok = server.RunSync(workload_[0].query);
  ASSERT_TRUE(ok.ok());
  server.Shutdown();
  Result<std::shared_future<RunStats>> r = server.Submit(workload_[0].query);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
  const EngineServer::Counters counters = server.counters();
  EXPECT_EQ(counters.submitted, 1u);
  EXPECT_EQ(counters.completed, 1u);
  EXPECT_EQ(counters.rejected, 1u);
  server.Shutdown();  // idempotent
}

TEST_F(ServingStressTest, ConcurrentSubmittersDrainCorrectly) {
  // TSan target: several submitter threads race Submit against 8 workers
  // running re-optimizing queries, with monitoring reads mixed in. Every
  // admitted query must complete with the labeled row count; admission
  // arithmetic must balance exactly.
  constexpr int kSubmitters = 4;
  constexpr int kPerSubmitter = 30;

  ServerOptions options;
  options.num_workers = 8;
  options.max_queue = 16;
  options.run_config.enable_reopt = true;
  options.run_config.qerror_threshold = 10.0;
  EngineServer server(database_.get(), opt::CostModel{}, UnderFactory(),
                      options);

  std::atomic<uint64_t> attempted{0};
  std::atomic<uint64_t> admitted{0};
  std::atomic<uint64_t> refused{0};
  std::atomic<uint64_t> mismatches{0};
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      for (int i = 0; i < kPerSubmitter; ++i) {
        const size_t pick =
            (static_cast<size_t>(s) * kPerSubmitter + static_cast<size_t>(i)) %
            workload_.size();
        attempted.fetch_add(1);
        Result<std::shared_future<RunStats>> r =
            server.Submit(workload_[pick].query);
        if (!r.ok()) {
          // Back-pressure path: the only acceptable refusal is queue-full.
          if (r.status().code() != StatusCode::kResourceExhausted) {
            mismatches.fetch_add(1);
            continue;
          }
          refused.fetch_add(1);
          std::this_thread::yield();
          continue;
        }
        admitted.fetch_add(1);
        if (r.value().get().result_count != workload_[pick].FinalCard()) {
          mismatches.fetch_add(1);
        }
        (void)server.queue_depth();
        (void)server.counters();
      }
    });
  }
  for (auto& t : submitters) t.join();
  server.Shutdown();

  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(attempted.load(), admitted.load() + refused.load());
  const EngineServer::Counters counters = server.counters();
  EXPECT_EQ(counters.submitted, admitted.load());
  EXPECT_EQ(counters.rejected, refused.load());
  EXPECT_EQ(counters.completed, admitted.load());
}

TEST_F(ServingStressTest, SharedTreeModelInferenceIsBitIdenticalAcrossThreads) {
  // Pins the read-only-after-training contract (lpce/tree_model.h): a single
  // trained TreeModel served from many threads at once must reproduce the
  // serial estimates bit-for-bit. A data race on the weights shows up here
  // under TSan; a logic race shows up as a mismatched double.
  model::FeatureEncoder encoder(&database_->catalog(), &stats_);
  wk::GeneratorOptions gen;
  gen.seed = 99;
  wk::QueryGenerator generator(database_.get(), gen);
  auto train = generator.GenerateLabeled(20, 2, 4);

  model::TreeModelConfig config;
  config.feature_dim = encoder.dim();
  config.dim = 16;
  config.embed_hidden = 16;
  config.out_hidden = 32;
  config.log_max_card =
      std::log1p(static_cast<double>(wk::MaxCardinality(train)));
  model::TreeModel model(&encoder, config);
  model::TrainOptions topt;
  topt.epochs = 2;
  model::TrainTreeModel(&model, *database_, train, topt);

  // Serial reference: full-query estimates for the whole workload.
  std::vector<double> reference;
  {
    model::TreeModelEstimator estimator("ref", &model, database_.get());
    for (const auto& labeled : workload_) {
      estimator.PrepareQuery(labeled.query);
      reference.push_back(
          estimator.EstimateSubset(labeled.query, labeled.query.AllRels()));
    }
  }

  constexpr int kThreads = 8;
  std::atomic<uint64_t> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      model::TreeModelEstimator estimator("worker", &model, database_.get());
      for (size_t q = 0; q < workload_.size(); ++q) {
        estimator.PrepareQuery(workload_[q].query);
        const double estimate = estimator.EstimateSubset(
            workload_[q].query, workload_[q].query.AllRels());
        if (estimate != reference[q]) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

TEST_F(ServingStressTest, TrainStatsCacheSurvivesConcurrentRecordAndFind) {
  // The world's training-telemetry store must tolerate recorders racing
  // readers (the bare-map predecessor was a latent data race).
  model::TrainStatsCache cache;
  constexpr int kWriters = 4;
  constexpr int kTagsPerWriter = 25;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> corrupt{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        (void)cache.empty();
        (void)cache.size();
        for (const std::string& tag : cache.tags()) {
          model::TrainStats found;
          if (!cache.Find(tag, &found)) continue;
          // Tag "w<i>_t<j>" always carries total_seconds == j.
          const double expected =
              static_cast<double>(std::stoi(tag.substr(tag.find("_t") + 2)));
          if (found.total_seconds != expected) corrupt.fetch_add(1);
        }
      }
    });
  }
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kTagsPerWriter; ++i) {
        model::TrainStats stats;
        stats.model_tag = "w" + std::to_string(w);
        stats.total_seconds = static_cast<double>(i);
        cache.Record("w" + std::to_string(w) + "_t" + std::to_string(i),
                     std::move(stats));
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true);
  for (auto& t : readers) t.join();

  EXPECT_EQ(corrupt.load(), 0u);
  EXPECT_EQ(cache.size(), static_cast<size_t>(kWriters * kTagsPerWriter));
  EXPECT_FALSE(cache.empty());
  const std::vector<std::string> tags = cache.tags();
  EXPECT_TRUE(std::is_sorted(tags.begin(), tags.end()));
}

}  // namespace
}  // namespace lpce::eng
