// The training side of the online feedback loop (engine/finetune.h):
// fine-tuning on harvested post-drift feedback restores estimator accuracy
// (the EXPERIMENTS.md drift scenario), drift flags kick the background
// worker end-to-end (telemetry windows -> monitor -> listener -> publish),
// a fine-tune racing a live workload never rejects or drops a query, and
// a malformed fine-tune knob is a fatal error, not a silent default.
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/telemetry.h"
#include "common/thread_pool.h"
#include "engine/drift_monitor.h"
#include "engine/engine.h"
#include "engine/finetune.h"
#include "engine/server.h"
#include "feedback/feedback_store.h"
#include "lpce/estimators.h"
#include "lpce/model_registry.h"
#include "lpce/tree_model.h"
#include "storage/database.h"
#include "workload/workload.h"

namespace lpce::eng {
namespace {

model::TreeModelConfig TinyConfig(const model::FeatureEncoder& encoder,
                                  double log_max_card) {
  model::TreeModelConfig config;
  config.feature_dim = encoder.dim();
  config.dim = 16;
  config.embed_hidden = 16;
  config.out_hidden = 32;
  config.log_max_card = log_max_card;
  return config;
}

/// Median root q-error of `model` over `eval` (full-query estimate vs label).
double MedianRootQError(const model::TreeModel& model,
                        const db::Database& database,
                        const std::vector<wk::LabeledQuery>& eval) {
  model::TreeModelEstimator estimator("LPCE-I", &model, &database);
  std::vector<double> qerrors;
  for (const auto& labeled : eval) {
    const uint64_t truth = labeled.FinalCard();
    if (truth == 0) continue;
    estimator.PrepareQuery(labeled.query);
    const double est =
        std::max(1.0, estimator.EstimateSubset(labeled.query,
                                               labeled.query.AllRels()));
    qerrors.push_back(std::max(est / truth, truth / est));
  }
  EXPECT_GT(qerrors.size(), 20u);
  std::sort(qerrors.begin(), qerrors.end());
  return qerrors[qerrors.size() / 2];
}

void FillStore(fb::FeedbackStore* store,
               const std::vector<wk::LabeledQuery>& examples) {
  uint64_t fss = 1;
  for (const auto& labeled : examples) {
    fb::FeedbackQuery record;
    record.fss_hash = fss++;  // distinct templates: no cap eviction
    record.query = labeled.query;
    record.actuals.assign(labeled.true_cards.begin(),
                          labeled.true_cards.end());
    store->Append(record);
  }
}

TEST(FineTuneTest, DriftScenarioRecoversQError) {
  // The EXPERIMENTS.md data-drift scenario end to end: train on the original
  // distribution, append drifted rows, harvest ~200 post-drift queries into
  // the feedback store, fine-tune through the worker, and require the
  // published model to beat the stale one on post-drift data by a margin.
  common::SetGlobalPoolSize(4);
  db::SynthImdbOptions opts;
  opts.scale = 0.02;
  auto database = db::BuildSynthImdb(opts);
  stats::DatabaseStats stats;
  stats.Build(*database);
  model::FeatureEncoder encoder(&database->catalog(), &stats);

  wk::GeneratorOptions gen;
  gen.seed = 31;
  auto pre_train =
      wk::QueryGenerator(database.get(), gen).GenerateLabeled(160, 3, 6);
  const double log_max =
      std::log1p(static_cast<double>(wk::MaxCardinality(pre_train))) + 2.0;

  // Train to convergence: fine-tuning continues from settled weights (a
  // half-trained model recovers from *any* extra training, which would prove
  // nothing about the feedback loop).
  auto stale = std::make_shared<model::TreeModel>(
      &encoder, TinyConfig(encoder, log_max));
  model::TrainOptions topt;
  topt.epochs = 60;
  model::TrainTreeModel(stale.get(), *database, pre_train, topt);

  // The world changes: drifted rows append, the trained weights go stale.
  // (Encoder and statistics deliberately stay stale too — the feedback loop
  // adapts parameters, not features.)
  db::AppendSynthImdbDrift(database.get(), 0.8, 97);

  gen.seed = 631;
  auto post_feedback =
      wk::QueryGenerator(database.get(), gen).GenerateLabeled(200, 3, 6);
  gen.seed = 929;
  gen.require_nonempty = true;
  auto post_eval =
      wk::QueryGenerator(database.get(), gen).GenerateLabeled(60, 3, 6);

  fb::FeedbackStoreOptions store_options;
  store_options.per_template_cap = 4096;
  fb::FeedbackStore store(store_options);
  FillStore(&store, post_feedback);

  model::ModelRegistry registry;
  registry.Publish(stale, nullptr, "initial");

  FineTuneOptions ft;  // the documented recipe: 10 epochs, lr 5e-4
  FineTuneWorker worker(&registry, &store, database.get(), ft);
  const uint64_t published = worker.RunOnce();
  EXPECT_EQ(published, 2u);
  EXPECT_EQ(worker.counters().published, 1u);

  auto tuned = registry.Current();
  ASSERT_NE(tuned, nullptr);
  EXPECT_EQ(tuned->version, 2u);
  EXPECT_EQ(tuned->tag, "finetune@v1");

  const double stale_q = MedianRootQError(*stale, *database, post_eval);
  const double tuned_q = MedianRootQError(*tuned->model, *database, post_eval);
  // Fine-tuning must recover a real margin on post-drift data, not a
  // rounding blip. Training is bit-deterministic at fixed seeds (the repo's
  // standing contract), so the margin only guards cross-toolchain FP skew:
  // measured ~0.74x here (11.9 -> 8.9), asserted at 0.85x.
  EXPECT_LT(tuned_q, stale_q * 0.85)
      << "stale median q-error " << stale_q << " vs tuned " << tuned_q;
  common::SetGlobalPoolSize(0);
}

TEST(FineTuneTest, DriftFlagsKickBackgroundWorkerToPublish) {
  // The trigger edge: telemetry windows complete -> DriftMonitor::Run flags
  // the template -> global listener kicks the worker -> a new version
  // publishes, all without any manual Kick.
  common::SetGlobalPoolSize(2);
  db::SynthImdbOptions opts;
  opts.scale = 0.01;
  auto database = db::BuildSynthImdb(opts);
  stats::DatabaseStats stats;
  stats.Build(*database);
  model::FeatureEncoder encoder(&database->catalog(), &stats);
  wk::GeneratorOptions gen;
  gen.seed = 11;
  auto train =
      wk::QueryGenerator(database.get(), gen).GenerateLabeled(40, 2, 3);

  auto base = std::make_shared<model::TreeModel>(
      &encoder,
      TinyConfig(encoder,
                 std::log1p(static_cast<double>(wk::MaxCardinality(train)))));
  model::ModelRegistry registry;
  registry.Publish(base, nullptr, "initial");

  fb::FeedbackStoreOptions store_options;
  store_options.per_template_cap = 4096;
  fb::FeedbackStore store(store_options);
  FillStore(&store, train);

  FineTuneOptions ft;
  ft.epochs = 1;  // the kick path is under test, not convergence
  ft.min_records = 1;
  FineTuneWorker worker(&registry, &store, database.get(), ft);
  worker.Start();

  // Two completed windows for template 42: a tame baseline, then a drifted
  // current window (every q-error 10x the baseline's).
  const bool was_enabled = common::TelemetryEnabled();
  common::TelemetryOptions telemetry;
  telemetry.window_size = 4;
  telemetry.mode = common::TelemetryMode::kDeterministic;
  auto& hub = common::TelemetryHub::Global();
  hub.Configure(telemetry);
  common::SetTelemetryEnabled(true);
  auto publish_window = [&hub](float qerror) {
    for (int i = 0; i < 4; ++i) {
      common::TelemetryRecord record;
      record.fss_hash = 42;
      record.num_qerrors = 2;
      record.qerrors[0] = qerror;
      record.qerrors[1] = qerror + 0.5f;
      record.max_qerror = qerror + 0.5f;
      ASSERT_TRUE(hub.Publish(record));
    }
    hub.DrainNow();
  };
  publish_window(1.5f);   // baseline window
  publish_window(15.0f);  // drifted window

  DriftMonitorOptions monitor_options;
  monitor_options.ratio_threshold = 2.0;
  monitor_options.min_samples = 8;  // 4 records x 2 q-errors per window
  monitor_options.quantile = 0.5;
  DriftMonitor(monitor_options).Run(hub);

  // The listener ran on this thread (Run is synchronous), so the kick has
  // landed; the publish itself happens on the worker thread — poll for it.
  EXPECT_GE(worker.counters().kicks, 1u);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (registry.CurrentVersionNumber() < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(registry.CurrentVersionNumber(), 2u);
  worker.Stop();
  EXPECT_GE(worker.counters().published, 1u);
  EXPECT_EQ(registry.Current()->tag, "finetune@v1");

  common::SetTelemetryEnabled(was_enabled);
  hub.Configure(common::TelemetryOptions::FromEnv());
  common::SetGlobalPoolSize(0);
}

TEST(FineTuneTest, BackgroundFineTuneDropsNoConcurrentQueries) {
  // Zero-downtime contract: fine-tunes publishing mid-workload never reject
  // or drop a query; workers absorb the new versions between queries.
  common::SetGlobalPoolSize(4);
  db::SynthImdbOptions opts;
  opts.scale = 0.01;
  auto database = db::BuildSynthImdb(opts);
  stats::DatabaseStats stats;
  stats.Build(*database);
  model::FeatureEncoder encoder(&database->catalog(), &stats);
  wk::GeneratorOptions gen;
  gen.seed = 505;
  auto workload =
      wk::QueryGenerator(database.get(), gen).GenerateLabeled(40, 2, 3);

  auto base = std::make_shared<model::TreeModel>(
      &encoder,
      TinyConfig(encoder, std::log1p(static_cast<double>(
                              wk::MaxCardinality(workload)))));
  model::ModelRegistry registry;
  registry.Publish(base, nullptr, "initial");

  fb::FeedbackStoreOptions store_options;
  store_options.per_template_cap = 4096;
  fb::FeedbackStore store(store_options);

  // The server's own worker reads the fine-tune recipe from the env.
  ::setenv("LPCE_FINETUNE_EPOCHS", "1", 1);
  ::setenv("LPCE_FINETUNE_MIN_RECORDS", "1", 1);
  {
    ServerOptions options;
    options.num_workers = 4;
    options.max_queue = workload.size();
    options.run_config.enable_reopt = true;
    options.run_config.qerror_threshold = 10.0;
    options.model_registry = &registry;
    options.feedback_store = &store;
    options.enable_finetune = true;
    const db::Database* db = database.get();
    EngineServer server(
        db, opt::CostModel{},
        [db](int, const model::ModelVersion& version) {
          EngineServer::Session session;
          session.initial = std::make_unique<model::TreeModelEstimator>(
              "LPCE-I", version.model.get(), db);
          return session;
        },
        options);
    ASSERT_NE(server.finetune_worker(), nullptr);

    std::vector<std::shared_future<RunStats>> futures;
    for (const auto& labeled : workload) {
      auto admitted = server.Submit(labeled.query);
      ASSERT_TRUE(admitted.ok()) << admitted.status().ToString();
      futures.push_back(admitted.value());
    }
    // Kick fine-tunes while the queue drains: the store fills as queries
    // complete, so at least one run finds records and publishes.
    while (server.counters().completed < workload.size() / 2) {
      std::this_thread::yield();
    }
    server.finetune_worker()->Kick();
    for (size_t q = 0; q < futures.size(); ++q) {
      const RunStats stats_q = futures[q].get();
      EXPECT_EQ(stats_q.result_count, workload[q].FinalCard()) << "query " << q;
      EXPECT_GE(stats_q.model_version, 1u);
    }
    server.finetune_worker()->Kick();  // one more with the full store
    server.Shutdown();  // stops the worker; an in-progress run publishes first

    const EngineServer::Counters counters = server.counters();
    EXPECT_EQ(counters.submitted, workload.size());
    EXPECT_EQ(counters.completed, workload.size());
    EXPECT_EQ(counters.rejected, 0u);
    EXPECT_EQ(store.counters().appended, workload.size());
  }
  // At least one fine-tune published (version > initial), and every version
  // a query reported actually exists in the registry's history.
  EXPECT_GE(registry.CurrentVersionNumber(), 2u);
  EXPECT_EQ(registry.Current()->tag.rfind("finetune@", 0), 0u);
  ::unsetenv("LPCE_FINETUNE_EPOCHS");
  ::unsetenv("LPCE_FINETUNE_MIN_RECORDS");
  common::SetGlobalPoolSize(0);
}

TEST(FineTuneTest, KnobsParseWholeValues) {
  ::setenv("LPCE_FINETUNE_EPOCHS", "3", 1);
  ::setenv("LPCE_FINETUNE_LR", "1e-3", 1);
  ::setenv("LPCE_FINETUNE_MIN_RECORDS", "7", 1);
  const FineTuneOptions options = FineTuneOptions::FromEnv();
  EXPECT_EQ(options.epochs, 3);
  EXPECT_EQ(options.lr, 1e-3f);
  EXPECT_EQ(options.min_records, 7u);
  ::unsetenv("LPCE_FINETUNE_EPOCHS");
  ::unsetenv("LPCE_FINETUNE_LR");
  ::unsetenv("LPCE_FINETUNE_MIN_RECORDS");
  const FineTuneOptions defaults = FineTuneOptions::FromEnv();
  EXPECT_EQ(defaults.epochs, FineTuneOptions().epochs);
  EXPECT_EQ(defaults.lr, FineTuneOptions().lr);
  EXPECT_EQ(defaults.min_records, FineTuneOptions().min_records);
}

TEST(FineTuneDeathTest, MalformedKnobsAreFatal) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (const char* knob : {"LPCE_FINETUNE_EPOCHS", "LPCE_FINETUNE_LR",
                           "LPCE_FINETUNE_MIN_RECORDS"}) {
    for (const char* value : {"3x", "abc", "0", "-1", "nan", "inf"}) {
      SCOPED_TRACE(std::string(knob) + "=" + value);
      ::setenv(knob, value, 1);
      EXPECT_DEATH(FineTuneOptions::FromEnv(), knob);
      ::unsetenv(knob);
    }
  }
}

}  // namespace
}  // namespace lpce::eng
