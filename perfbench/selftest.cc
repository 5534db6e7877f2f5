// Self-tests of the benchmark's helpers (bench_lib.h): the percentile rule,
// span self time, the tracer's parent links, and the timing decorator —
// which must forward every call unchanged and leave engine results and
// deterministic traces bit-identical. Exits 0 when every check passes.
//
//   python3 perfbench/run.py --selftest
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_lib.h"
#include "common/logging.h"
#include "engine/engine.h"
#include "lpce/estimators.h"
#include "lpce/lpce_r.h"
#include "lpce/tree_model.h"
#include "stats/column_stats.h"
#include "storage/database.h"
#include "workload/workload.h"

namespace lpce::perfbench {
namespace {

int g_failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "%s:%d: check failed: %s\n", __FILE__,      \
                   __LINE__, #cond);                                   \
      ++g_failures;                                                    \
    }                                                                  \
  } while (0)

void TestTailPercentile() {
  EXPECT(TailPercentile(0) == 0.0);
  EXPECT(TailPercentile(19) == 0.0);
  EXPECT(TailPercentile(20) == 50.0);
  EXPECT(TailPercentile(99) == 50.0);
  EXPECT(TailPercentile(100) == 90.0);
  EXPECT(TailPercentile(999) == 90.0);
  EXPECT(TailPercentile(1000) == 99.0);
  EXPECT(TailPercentile(1000000) == 99.0);
}

void TestQuantile() {
  std::vector<double> v;
  for (int i = 10; i >= 1; --i) v.push_back(i);
  EXPECT(Quantile(v, 50.0) == 5.0);
  EXPECT(Quantile(v, 90.0) == 9.0);
  EXPECT(Quantile(v, 99.0) == 10.0);
  EXPECT(Quantile(v, 100.0) == 10.0);
  EXPECT(Quantile(v, 0.0) == 1.0);
  EXPECT(Quantile({}, 50.0) == 0.0);
  // With n = 100 the p90 leaves exactly 10 samples beyond it.
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  EXPECT(Quantile(hundred, TailPercentile(hundred.size())) == 90.0);
}

void TestSelfTime() {
  Span parent;
  parent.start_ns = 0;
  parent.end_ns = 100;
  EXPECT(SelfTimeNs(parent, {}) == 100);
  // Overlapping children count once; parts outside the parent not at all:
  // covered = [0,5) + [10,40) + [90,100) = 45.
  EXPECT(SelfTimeNs(parent, {{10, 30}, {20, 40}, {90, 120}, {-5, 5}}) == 55);
  EXPECT(SelfTimeNs(parent, {{10, 20}, {10, 20}, {12, 15}}) == 90);
  EXPECT(SelfTimeNs(parent, {{0, 100}}) == 0);
  EXPECT(SelfTimeNs(parent, {{200, 300}}) == 100);

  std::vector<Span> spans(3);
  spans[0] = {0, kNoId, 7, SpanKind::kQuery, SpanSource::kNone, 0, 100};
  spans[1] = {1, 0, 7, SpanKind::kEstimate, SpanSource::kLpceI, 10, 30};
  spans[2] = {2, 0, 7, SpanKind::kEstimate, SpanSource::kLpceI, 20, 50};
  const SpanSummary sum = Summarize(spans);
  EXPECT(sum.at(SpanKind::kQuery, SpanSource::kNone).count == 1);
  EXPECT(sum.at(SpanKind::kQuery, SpanSource::kNone).total_ns == 100);
  EXPECT(sum.at(SpanKind::kQuery, SpanSource::kNone).self_ns == 60);
  EXPECT(sum.at(SpanKind::kEstimate, SpanSource::kLpceI).count == 2);
  EXPECT(sum.at(SpanKind::kEstimate, SpanSource::kLpceI).self_ns == 50);
}

// Records every call it receives and answers with distinctive values.
class FakeEstimator : public card::CardinalityEstimator {
 public:
  struct Log {
    int prepares = 0;
    int estimates = 0;
    int observes = 0;
    int resets = 0;
    qry::RelSet last_rels = 0;
    double last_actual = 0.0;
  };
  explicit FakeEstimator(Log* log) : log_(log) {}
  std::string name() const override { return "fake"; }
  void PrepareQuery(const qry::Query&) override { ++log_->prepares; }
  double EstimateSubset(const qry::Query&, qry::RelSet rels) override {
    ++log_->estimates;
    log_->last_rels = rels;
    return 0.1 + 3.0 * rels;
  }
  void ObserveActual(const qry::Query&, qry::RelSet rels, double actual) override {
    ++log_->observes;
    log_->last_rels = rels;
    log_->last_actual = actual;
  }
  void ResetObservations() override { ++log_->resets; }
  bool SupportsRefinement() const override { return true; }
  qry::PredicateSignature FingerprintPredicate(const qry::Query&,
                                               const qry::Predicate& pred) const override {
    qry::PredicateSignature sig;
    sig.exact = static_cast<uint64_t>(pred.value) * 31 + 5;
    sig.bucket = 3;
    return sig;
  }

 private:
  Log* log_;
};

qry::Query SmallQuery() {
  qry::Query q;
  q.tables = {0, 1};
  q.joins.push_back({{0, 0}, {1, 1}});
  q.predicates.push_back({{0, 2}, qry::CmpOp::kLt, 17});
  return q;
}

void TestDecoratorForwards() {
  for (bool traced : {false, true}) {
    FakeEstimator::Log log;
    Tracer tracer(1000);
    TimedEstimator timed(std::make_unique<FakeEstimator>(&log),
                         traced ? &tracer : nullptr, SpanSource::kLpceR);
    const qry::Query q = SmallQuery();
    EXPECT(timed.name() == "fake");
    EXPECT(timed.SupportsRefinement());
    timed.ResetObservations();
    timed.PrepareQuery(q);
    EXPECT(timed.EstimateSubset(q, 3) == 0.1 + 3.0 * 3);
    EXPECT(log.last_rels == 3u);
    timed.ObserveActual(q, 1, 42.5);
    EXPECT(log.last_rels == 1u && log.last_actual == 42.5);
    const qry::PredicateSignature sig = timed.FingerprintPredicate(q, q.predicates[0]);
    EXPECT(sig.exact == 17u * 31 + 5 && sig.bucket == 3);
    EXPECT(log.prepares == 1 && log.estimates == 1 && log.observes == 1 && log.resets == 1);
    const std::vector<Span> spans = tracer.Collect();
    EXPECT(spans.size() == (traced ? 3u : 0u));
    for (const Span& s : spans) EXPECT(s.source == SpanSource::kLpceR && s.end_ns >= s.start_ns);
  }
}

void TestTracerParents() {
  Tracer tracer(1000);
  FakeEstimator::Log log;
  TimedEstimator timed(std::make_unique<FakeEstimator>(&log), &tracer,
                       SpanSource::kLpceI);
  const qry::Query q = SmallQuery();
  uint32_t serial_root = kNoId;
  {
    // Same thread: the open query span is the parent.
    ScopedSpan root(&tracer, SpanKind::kQuery, SpanSource::kNone, 5);
    serial_root = root.span().id;
    timed.PrepareQuery(q);
    timed.EstimateSubset(q, 1);
  }
  uint32_t served_root = kNoId;
  {
    // Another thread: the in-flight span registered for the same content.
    ScopedSpan root(&tracer, SpanKind::kQuery, SpanSource::kNone, 6);
    served_root = root.span().id;
    tracer.RegisterInFlight(q, root.span());
    std::thread worker([&] {
      timed.ResetObservations();
      timed.PrepareQuery(q);
      timed.EstimateSubset(q, 2);
    });
    worker.join();
    tracer.UnregisterInFlight(q, root.span());
  }
  EXPECT(tracer.FindInFlight(q).second == kNoId);
  const std::vector<Span> spans = tracer.Collect();
  EXPECT(spans.size() == 6u);
  for (const Span& s : spans) {
    if (s.kind == SpanKind::kQuery) {
      EXPECT(s.parent == kNoId);
    } else if (s.query == 5) {
      EXPECT(s.parent == serial_root);
    } else {
      EXPECT(s.query == 6 && s.parent == served_root);
    }
  }
}

// Drops the wall-clock " time=...ms" fields of PlanNode::ToString.
std::string StripTimes(std::string plan) {
  for (size_t pos = plan.find(" time="); pos != std::string::npos;
       pos = plan.find(" time=", pos)) {
    plan.erase(pos, plan.find("ms", pos) + 2 - pos);
  }
  return plan;
}

// Engine runs with the decorator on and off must agree bit for bit.
void TestDecoratorBitIdentical() {
  db::SynthImdbOptions db_options;
  db_options.scale = 0.02;
  auto database = db::BuildSynthImdb(db_options);
  stats::DatabaseStats stats(*database);
  model::FeatureEncoder encoder(&database->catalog(), &stats);
  model::TreeModelConfig config;
  config.feature_dim = encoder.dim();
  config.dim = 16;
  config.embed_hidden = 16;
  config.out_hidden = 32;
  config.log_max_card = 14.0;
  config.seed = 3;
  wk::GeneratorOptions gen;
  gen.seed = 99;
  const auto queries = wk::QueryGenerator(database.get(), gen).GenerateLabeled(24, 2, 6);
  model::TreeModel lpce_i(&encoder, config);
  model::TrainOptions train;
  train.epochs = 1;
  model::TrainTreeModel(&lpce_i, *database, queries, train);
  model::LpceR lpce_r(&encoder, config, model::RefinerMode::kFull);

  eng::Engine engine(database.get(), opt::CostModel{});
  eng::RunConfig run_config;
  run_config.enable_reopt = true;
  run_config.qerror_threshold = 2.0;  // trip often: exercise ObserveActual
  Tracer tracer(1 << 20);
  int reopts = 0;
  for (const auto& q : queries) {
    model::TreeModelEstimator plain_i("LPCE-I", &lpce_i, database.get());
    model::LpceREstimator plain_r(&lpce_r, database.get());
    TimedEstimator timed_i(std::make_unique<model::TreeModelEstimator>(
                               "LPCE-I", &lpce_i, database.get()),
                           &tracer, SpanSource::kLpceI);
    TimedEstimator timed_r(std::make_unique<model::LpceREstimator>(&lpce_r, database.get()),
                           &tracer, SpanSource::kLpceR);
    const eng::RunStats off = engine.RunQuery(q.query, &plain_i, &plain_r, run_config);
    eng::RunStats on;
    {
      ScopedSpan root(&tracer, SpanKind::kQuery, SpanSource::kNone, 0);
      on = engine.RunQuery(q.query, &timed_i, &timed_r, run_config);
    }
    EXPECT(off.result_count == q.FinalCard());
    EXPECT(on.result_count == off.result_count);
    EXPECT(on.num_estimates == off.num_estimates);
    EXPECT(on.num_reopts == off.num_reopts);
    EXPECT(on.initial_plan == off.initial_plan);
    EXPECT(StripTimes(on.final_plan) == StripTimes(off.final_plan));
    EXPECT(on.trace->ToJson(eng::TraceJsonMode::kDeterministic) ==
           off.trace->ToJson(eng::TraceJsonMode::kDeterministic));
    reopts += off.num_reopts;
  }
  EXPECT(reopts > 0);
  const SpanSummary sum = Summarize(tracer.Collect());
  EXPECT(sum.at(SpanKind::kPrepare, SpanSource::kLpceI).count == queries.size());
  EXPECT(sum.at(SpanKind::kObserve, SpanSource::kLpceR).count > 0);
}

}  // namespace
}  // namespace lpce::perfbench

int main() {
  using namespace lpce::perfbench;
  lpce::GlobalLogLevel() = lpce::LogLevel::kWarn;
  TestTailPercentile();
  TestQuantile();
  TestSelfTime();
  TestDecoratorForwards();
  TestTracerParents();
  TestDecoratorBitIdentical();
  if (g_failures > 0) {
    std::fprintf(stderr, "perfbench selftest: %d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench selftest: all checks passed\n");
  return 0;
}
