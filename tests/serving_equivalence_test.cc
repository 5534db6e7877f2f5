// The serving layer's determinism contract (engine/server.h): a workload
// executed through the concurrent EngineServer produces, for every query,
// exactly the result the serial engine produces — same row counts, same
// estimate counts, same chosen plans, same re-optimization decisions, and a
// byte-identical deterministic trace — at every worker count. Estimators are
// per-query deterministic (estimates depend only on the query, never on
// which queries ran before or on which worker the query landed), so this is
// an exact equality suite, not a tolerance suite.
#include <cmath>
#include <future>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "card/histogram_estimator.h"
#include "common/telemetry.h"
#include "common/thread_pool.h"
#include "engine/engine.h"
#include "engine/server.h"
#include "engine/trace.h"
#include "lpce/estimators.h"
#include "lpce/lpce_r.h"
#include "lpce/tree_model.h"
#include "storage/database.h"
#include "workload/workload.h"

namespace lpce::eng {
namespace {

/// Everything the equivalence contract pins, extracted from one run.
struct Outcome {
  uint64_t result_count = 0;
  int num_reopts = 0;
  size_t num_estimates = 0;
  std::string initial_plan;
  std::string final_plan;
  std::string trace_json;  // TraceJsonMode::kDeterministic
};

/// Strips the wall-clock annotations (" time=0.12ms") from a pretty-printed
/// plan, leaving the deterministic structure: operators, join keys, est/actual
/// cardinalities.
std::string StripPlanTimes(const std::string& plan) {
  std::string out;
  out.reserve(plan.size());
  size_t pos = 0;
  while (pos < plan.size()) {
    const size_t hit = plan.find(" time=", pos);
    if (hit == std::string::npos) {
      out.append(plan, pos, plan.size() - pos);
      break;
    }
    out.append(plan, pos, hit - pos);
    size_t end = hit + 6;
    while (end < plan.size() && plan[end] != '\n' && plan[end] != ' ') ++end;
    pos = end;
  }
  return out;
}

Outcome Summarize(const RunStats& stats) {
  Outcome outcome;
  outcome.result_count = stats.result_count;
  outcome.num_reopts = stats.num_reopts;
  outcome.num_estimates = stats.num_estimates;
  outcome.initial_plan = StripPlanTimes(stats.initial_plan);
  outcome.final_plan = StripPlanTimes(stats.final_plan);
  outcome.trace_json = stats.trace->ToJson(TraceJsonMode::kDeterministic);
  return outcome;
}

void ExpectSameOutcome(const Outcome& expected, const Outcome& actual,
                       const std::string& context) {
  EXPECT_EQ(actual.result_count, expected.result_count) << context;
  EXPECT_EQ(actual.num_reopts, expected.num_reopts) << context;
  EXPECT_EQ(actual.num_estimates, expected.num_estimates) << context;
  EXPECT_EQ(actual.initial_plan, expected.initial_plan) << context;
  EXPECT_EQ(actual.final_plan, expected.final_plan) << context;
  EXPECT_EQ(actual.trace_json, expected.trace_json)
      << context << ":\n"
      << DiffTraceJson(expected.trace_json, actual.trace_json);
}

/// Owning adversarial estimator (same shape as engine_test.cc): grossly
/// underestimates joins so checkpoints trip and the multi-round
/// re-optimization paths run under the server.
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

class ServingEquivalenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // A multi-thread pool beside the worker threads: the trained pipeline's
    // matrix products run on it, and results must not depend on it.
    common::SetGlobalPoolSize(4);
    db::SynthImdbOptions opts;
    opts.scale = 0.02;
    database_ = db::BuildSynthImdb(opts).release();
    stats_ = new stats::DatabaseStats();
    stats_->Build(*database_);
    wk::GeneratorOptions gen;
    gen.seed = 1207;
    wk::QueryGenerator generator(database_, gen);
    workload_ = new std::vector<wk::LabeledQuery>(
        generator.GenerateLabeled(200, 2, 5));
  }

  static void TearDownTestSuite() {
    delete workload_;
    workload_ = nullptr;
    delete stats_;
    stats_ = nullptr;
    delete database_;
    database_ = nullptr;
    common::SetGlobalPoolSize(0);
  }

  /// Runs the whole workload through a server and returns per-query
  /// outcomes in submission order.
  static std::vector<Outcome> RunServed(
      EngineServer::SessionFactory factory, int workers,
      const RunConfig& config, const std::vector<wk::LabeledQuery>& queries) {
    ServerOptions options;
    options.num_workers = workers;
    options.max_queue = queries.size();  // no rejections in this suite
    options.run_config = config;
    EngineServer server(database_, opt::CostModel{}, std::move(factory),
                        options);
    std::vector<std::shared_future<RunStats>> futures;
    futures.reserve(queries.size());
    for (const auto& labeled : queries) {
      Result<std::shared_future<RunStats>> admitted =
          server.Submit(labeled.query);
      EXPECT_TRUE(admitted.ok()) << admitted.status().ToString();
      futures.push_back(admitted.value());
    }
    std::vector<Outcome> outcomes;
    outcomes.reserve(futures.size());
    for (auto& future : futures) outcomes.push_back(Summarize(future.get()));
    return outcomes;
  }

  static db::Database* database_;
  static stats::DatabaseStats* stats_;
  static std::vector<wk::LabeledQuery>* workload_;
};

db::Database* ServingEquivalenceTest::database_ = nullptr;
stats::DatabaseStats* ServingEquivalenceTest::stats_ = nullptr;
std::vector<wk::LabeledQuery>* ServingEquivalenceTest::workload_ = nullptr;

TEST_F(ServingEquivalenceTest, ReoptWorkloadIdenticalAtAllWorkerCounts) {
  RunConfig config;
  config.enable_reopt = true;
  config.qerror_threshold = 10.0;

  // Serial baseline: one engine, one estimator, workload order.
  std::vector<Outcome> serial;
  {
    UnderEstimator under(stats_);
    Engine engine(database_, opt::CostModel{});
    for (const auto& labeled : *workload_) {
      serial.push_back(
          Summarize(engine.RunQuery(labeled.query, &under, nullptr, config)));
      EXPECT_EQ(serial.back().result_count, labeled.FinalCard());
    }
  }

  auto factory = [](int worker_id) {
    (void)worker_id;
    EngineServer::Session session;
    session.initial = std::make_unique<UnderEstimator>(stats_);
    return session;
  };
  for (int workers : {1, 2, 4}) {
    const std::vector<Outcome> served =
        RunServed(factory, workers, config, *workload_);
    ASSERT_EQ(served.size(), serial.size());
    for (size_t q = 0; q < serial.size(); ++q) {
      ExpectSameOutcome(serial[q], served[q],
                        "query " + std::to_string(q) + " at " +
                            std::to_string(workers) + " workers");
    }
  }
}

TEST_F(ServingEquivalenceTest, TrainedLpcePipelineIdenticalAtAllWorkerCounts) {
  // Tiny LPCE-I + LPCE-R: covers the NN inference paths (batched prepare,
  // thread-local arenas, refinement encodings) across worker threads. The
  // trained models are shared read-only; every worker builds fresh estimator
  // state over them.
  model::FeatureEncoder encoder(&database_->catalog(), stats_);
  wk::GeneratorOptions gen;
  gen.seed = 77;
  wk::QueryGenerator generator(database_, gen);
  auto train = generator.GenerateLabeled(30, 2, 5);

  model::TreeModelConfig model_config;
  model_config.feature_dim = encoder.dim();
  model_config.dim = 16;
  model_config.embed_hidden = 16;
  model_config.out_hidden = 32;
  model_config.log_max_card =
      std::log1p(static_cast<double>(wk::MaxCardinality(train)));
  model::TreeModel lpce_i(&encoder, model_config);
  model::TrainOptions topt;
  topt.epochs = 4;
  model::TrainTreeModel(&lpce_i, *database_, train, topt);

  model::LpceR lpce_r(&encoder, model_config);
  model::LpceRTrainOptions ropt;
  ropt.pretrain.epochs = 3;
  ropt.refine_epochs = 2;
  ropt.pretrained_content = &lpce_i;
  model::TrainLpceR(&lpce_r, *database_, train, ropt);

  RunConfig config;
  config.enable_reopt = true;
  config.qerror_threshold = 20.0;

  const std::vector<wk::LabeledQuery> queries(workload_->begin(),
                                              workload_->begin() + 40);
  std::vector<Outcome> serial;
  {
    model::TreeModelEstimator initial("LPCE-I", &lpce_i, database_);
    model::LpceREstimator refiner(&lpce_r, database_);
    Engine engine(database_, opt::CostModel{});
    for (const auto& labeled : queries) {
      serial.push_back(Summarize(
          engine.RunQuery(labeled.query, &initial, &refiner, config)));
      EXPECT_EQ(serial.back().result_count, labeled.FinalCard());
    }
  }

  auto factory = [&lpce_i, &lpce_r](int worker_id) {
    (void)worker_id;
    EngineServer::Session session;
    session.initial = std::make_unique<model::TreeModelEstimator>(
        "LPCE-I", &lpce_i, database_);
    session.refiner =
        std::make_unique<model::LpceREstimator>(&lpce_r, database_);
    return session;
  };
  for (int workers : {1, 2, 4}) {
    const std::vector<Outcome> served =
        RunServed(factory, workers, config, queries);
    ASSERT_EQ(served.size(), serial.size());
    for (size_t q = 0; q < serial.size(); ++q) {
      ExpectSameOutcome(serial[q], served[q],
                        "query " + std::to_string(q) + " at " +
                            std::to_string(workers) + " workers");
    }
  }
}

TEST_F(ServingEquivalenceTest, TelemetryOnOffBitIdenticalAtAllWorkerCounts) {
  // The telemetry pipeline's standing invariant (common/telemetry.h):
  // publishing per-query records — and the fingerprint computed to key them
  // — must not change any result, plan, estimate count, or deterministic
  // trace byte, at any worker count.
  RunConfig config;
  config.enable_reopt = true;
  config.qerror_threshold = 10.0;
  auto factory = [](int worker_id) {
    (void)worker_id;
    EngineServer::Session session;
    session.initial = std::make_unique<UnderEstimator>(stats_);
    return session;
  };
  const std::vector<wk::LabeledQuery> queries(workload_->begin(),
                                              workload_->begin() + 80);

  const bool was_enabled = common::TelemetryEnabled();
  common::SetTelemetryEnabled(false);
  std::vector<std::vector<Outcome>> off;
  for (int workers : {1, 2, 4}) {
    off.push_back(RunServed(factory, workers, config, queries));
  }

  common::TelemetryOptions options;
  options.ring_capacity = 1 << 12;
  options.mode = common::TelemetryMode::kDeterministic;
  common::TelemetryHub::Global().Configure(options);
  common::SetTelemetryEnabled(true);
  size_t idx = 0;
  for (int workers : {1, 2, 4}) {
    const std::vector<Outcome> on = RunServed(factory, workers, config, queries);
    ASSERT_EQ(on.size(), off[idx].size());
    for (size_t q = 0; q < on.size(); ++q) {
      ExpectSameOutcome(off[idx][q], on[q],
                        "telemetry on vs off, query " + std::to_string(q) +
                            " at " + std::to_string(workers) + " workers");
    }
    ++idx;
  }
  // The records actually flowed (per-template windows exist) — this is an
  // equivalence test, not a telemetry-disabled one.
  auto& hub = common::TelemetryHub::Global();
  hub.DrainNow();
  EXPECT_GT(hub.published(), 0u);
  EXPECT_FALSE(hub.Snapshot().templates.empty());
  common::SetTelemetryEnabled(was_enabled);
  hub.Configure(common::TelemetryOptions::FromEnv());
}

TEST_F(ServingEquivalenceTest, RunSyncMatchesSubmit) {
  RunConfig config;
  config.enable_reopt = true;
  config.qerror_threshold = 10.0;
  auto factory = [](int worker_id) {
    (void)worker_id;
    EngineServer::Session session;
    session.initial = std::make_unique<UnderEstimator>(stats_);
    return session;
  };
  ServerOptions options;
  options.num_workers = 2;
  options.run_config = config;
  EngineServer server(database_, opt::CostModel{}, factory, options);
  for (size_t q = 0; q < 8; ++q) {
    const auto& labeled = (*workload_)[q];
    Result<RunStats> sync = server.RunSync(labeled.query);
    ASSERT_TRUE(sync.ok());
    Result<std::shared_future<RunStats>> submitted =
        server.Submit(labeled.query);
    ASSERT_TRUE(submitted.ok());
    ExpectSameOutcome(Summarize(sync.value()),
                      Summarize(submitted.value().get()),
                      "query " + std::to_string(q));
    EXPECT_EQ(sync.value().result_count, labeled.FinalCard());
  }
}

}  // namespace
}  // namespace lpce::eng
