// The plan cache's equivalence contract (optimizer/plan_cache.h): a
// template-skewed workload produces bit-identical results, plans, and
// re-optimization decisions with the cache on or off — the only permitted
// differences are the cache's own bookkeeping (the kPlan event's cache/fss
// fields and its num_estimates dropping to 0 on a hit, the "replay" mark on
// re-optimization rounds replayed from the entry's recorded rounds) and the
// wall-clock the cache exists to save. Every re-optimization round, replayed
// or live, keeps its plan, costs, decision and estimate count. Also pinned:
// the serial hit/miss sequence is deterministic, repeats of an exact query
// replay its rounds while a same-template query with other literals never
// replays them, hit and miss counts are exact under concurrent EngineServer
// workers, and a mid-workload invalidation never serves a stale skeleton or
// round.
#include <future>
#include <random>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "card/histogram_estimator.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "engine/engine.h"
#include "engine/server.h"
#include "engine/trace.h"
#include "lpce/estimators.h"
#include "optimizer/plan_cache.h"
#include "storage/database.h"
#include "testing/row_executor.h"
#include "workload/workload.h"

namespace lpce::eng {
namespace {

/// Everything the contract pins for one query.
struct Outcome {
  uint64_t result_count = 0;
  int num_reopts = 0;
  size_t num_estimates = 0;
  std::string initial_plan;
  std::string final_plan;
  std::shared_ptr<QueryTrace> trace;
};

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
  outcome.trace = stats.trace;
  return outcome;
}

/// RunStats::num_estimates less the initial plan's: the estimates of the
/// re-optimization rounds.
size_t ReoptEstimates(const Outcome& outcome) {
  return outcome.num_estimates -
         outcome.trace->events().front().num_estimates;
}

/// Bit-identity modulo the cache's own bookkeeping: spans compare fully;
/// events compare fully except the kPlan event's num_estimates (0 on a hit)
/// and cache/fss fields and the re-optimization events' replay mark.
/// Everything else — every checkpoint q-error, every re-opt decision, cost
/// and estimate count, every span cardinality — must match exactly.
void ExpectEquivalentModuloCache(const Outcome& off, const Outcome& on,
                                 const std::string& context) {
  EXPECT_EQ(on.result_count, off.result_count) << context;
  EXPECT_EQ(on.num_reopts, off.num_reopts) << context;
  EXPECT_EQ(ReoptEstimates(on), ReoptEstimates(off)) << context;
  EXPECT_EQ(on.initial_plan, off.initial_plan) << context;
  EXPECT_EQ(on.final_plan, off.final_plan) << context;

  const auto& spans_off = off.trace->spans();
  const auto& spans_on = on.trace->spans();
  ASSERT_EQ(spans_on.size(), spans_off.size()) << context;
  for (size_t i = 0; i < spans_off.size(); ++i) {
    const TraceSpan& a = spans_off[i];
    const TraceSpan& b = spans_on[i];
    const std::string at = context + " span " + std::to_string(i);
    EXPECT_EQ(b.id, a.id) << at;
    EXPECT_EQ(b.round, a.round) << at;
    EXPECT_EQ(b.seq, a.seq) << at;
    EXPECT_EQ(b.op, a.op) << at;
    EXPECT_EQ(b.rels, a.rels) << at;
    EXPECT_EQ(b.est_card, a.est_card) << at;
    EXPECT_EQ(b.actual_card, a.actual_card) << at;
    EXPECT_EQ(b.qerror, a.qerror) << at;
    EXPECT_EQ(b.outer_span, a.outer_span) << at;
    EXPECT_EQ(b.inner_span, a.inner_span) << at;
    EXPECT_EQ(b.outer_rows, a.outer_rows) << at;
    EXPECT_EQ(b.inner_rows, a.inner_rows) << at;
  }

  const auto& events_off = off.trace->events();
  const auto& events_on = on.trace->events();
  ASSERT_EQ(events_on.size(), events_off.size()) << context;
  for (size_t i = 0; i < events_off.size(); ++i) {
    const TraceEvent& a = events_off[i];
    const TraceEvent& b = events_on[i];
    const std::string at = context + " event " + std::to_string(i);
    EXPECT_EQ(b.kind, a.kind) << at;
    EXPECT_EQ(b.round, a.round) << at;
    EXPECT_EQ(b.seq, a.seq) << at;
    EXPECT_EQ(b.rels, a.rels) << at;
    EXPECT_EQ(b.est_card, a.est_card) << at;
    EXPECT_EQ(b.actual_card, a.actual_card) << at;
    EXPECT_EQ(b.qerror, a.qerror) << at;
    EXPECT_EQ(b.threshold, a.threshold) << at;
    EXPECT_EQ(b.policy_allows, a.policy_allows) << at;
    EXPECT_EQ(b.tripped, a.tripped) << at;
    EXPECT_EQ(b.plan_cost, a.plan_cost) << at;
    EXPECT_EQ(b.before_cost, a.before_cost) << at;
    EXPECT_EQ(b.decision, a.decision) << at;
    if (a.kind != TraceEventKind::kPlan) {
      EXPECT_EQ(b.num_estimates, a.num_estimates) << at;
    }
  }
}

/// The kPlan event's cache outcome ("hit"/"miss"; "" when caching is off).
std::string CacheDecision(const Outcome& outcome) {
  if (outcome.trace->events().empty()) return "";
  const TraceEvent& plan = outcome.trace->events().front();
  EXPECT_EQ(plan.kind, TraceEventKind::kPlan);
  return plan.cache_decision;
}

/// Re-optimization rounds replayed from the plan cache.
int Replays(const Outcome& outcome) {
  int replays = 0;
  for (const TraceEvent& event : outcome.trace->events()) {
    if (event.kind == TraceEventKind::kReoptimization &&
        event.cache_decision == "replay") {
      ++replays;
    }
  }
  return replays;
}

/// Adversarial estimator (same shape as serving_equivalence_test.cc):
/// underestimates joins so checkpoints trip and the cache's interaction with
/// re-optimization — lazy estimator preparation on a hit, replayed rounds
/// and live re-planning — is actually exercised.
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

 protected:
  card::HistogramEstimator histogram_;
};

/// UnderEstimator keyed like the histogram: literals of equal selectivity
/// share a cache entry (and get bitwise-equal estimates).
class SelectivityKeyedUnder : public UnderEstimator {
 public:
  using UnderEstimator::UnderEstimator;
  qry::PredicateSignature FingerprintPredicate(
      const qry::Query& query, const qry::Predicate& pred) const override {
    return histogram_.FingerprintPredicate(query, pred);
  }
};

/// A refiner that reads the literals: the sum of the query's literals picks
/// one table whose supersets it inflates a millionfold, so two literal
/// variants of one template can re-plan differently over the same
/// observations. Still a function of the query and the observations, as
/// the cache's replay contract requires.
class LiteralSkewedRefiner : public card::CardinalityEstimator {
 public:
  explicit LiteralSkewedRefiner(const stats::DatabaseStats* stats)
      : histogram_(stats) {}
  std::string name() const override { return "literal-skewed"; }
  double EstimateSubset(const qry::Query& query, qry::RelSet rels) override {
    int64_t sum = 0;
    for (const qry::Predicate& pred : query.predicates) sum += pred.value;
    const int64_t n = query.num_tables();
    const int pos = static_cast<int>(((sum % n) + n) % n);
    const double base = histogram_.EstimateSubset(query, rels);
    return qry::Contains(rels, pos) ? base * 1e6 : base;
  }

 private:
  card::HistogramEstimator histogram_;
};

constexpr int kNumTemplates = 20;
constexpr int kWorkloadSize = 200;

/// Parameterized over the executor of the cache-off baseline (the
/// row-at-a-time oracle, or the production executor); the cache-on runs
/// always use production. The contract must hold against both — in
/// particular a cache hit must rebind the skeleton's scan filters to the
/// query's literals before the scan's selection vectors consume them, and
/// re-planned rounds over row-id pseudo relations must match the oracle's
/// rounds over materialized ones.
class PlanCacheEquivalenceTest : public ::testing::TestWithParam<bool> {
 protected:
  static void SetUpTestSuite() {
    common::SetGlobalPoolSize(4);
    db::SynthImdbOptions opts;
    opts.scale = 0.02;
    database_ = db::BuildSynthImdb(opts).release();
    stats_ = new stats::DatabaseStats();
    stats_->Build(*database_);

    // Template pool: 20 distinct generated queries. The serving workload
    // draws 200 queries from the pool with Zipf-style skew (weight 1/rank) —
    // the template-heavy regime the cache targets. Exact repeats are the
    // honest model for the default fingerprint (identical literals); the
    // cross-literal case is covered by plan_cache_test.cc.
    wk::GeneratorOptions gen;
    gen.seed = 1207;
    wk::QueryGenerator generator(database_, gen);
    pool_ = new std::vector<wk::LabeledQuery>(
        generator.GenerateLabeled(kNumTemplates, 2, 5));

    sequence_ = new std::vector<int>();
    std::mt19937 rng(4242);
    std::vector<double> weights;
    for (int i = 0; i < kNumTemplates; ++i) weights.push_back(1.0 / (i + 1));
    std::discrete_distribution<int> dist(weights.begin(), weights.end());
    for (int i = 0; i < kWorkloadSize; ++i) sequence_->push_back(dist(rng));
  }

  static void TearDownTestSuite() {
    delete sequence_;
    sequence_ = nullptr;
    delete pool_;
    pool_ = nullptr;
    delete stats_;
    stats_ = nullptr;
    delete database_;
    database_ = nullptr;
    common::SetGlobalPoolSize(0);
  }

  static RunConfig Config() {
    RunConfig config;
    config.enable_reopt = true;
    config.qerror_threshold = 10.0;
    return config;
  }

  /// The cache-off serial baseline, one Outcome per workload position, on
  /// the row-at-a-time oracle when `oracle` is set.
  static std::vector<Outcome> Baseline(bool oracle) {
    std::vector<Outcome> outcomes;
    UnderEstimator under(stats_);
    Engine engine(database_, opt::CostModel{});
    if (oracle) engine.set_executor_factory(&testing::RowExecutor::Make);
    for (int idx : *sequence_) {
      const auto& labeled = (*pool_)[idx];
      outcomes.push_back(Summarize(
          engine.RunQuery(labeled.query, &under, nullptr, Config())));
      EXPECT_EQ(outcomes.back().result_count, labeled.FinalCard());
    }
    return outcomes;
  }

  static EngineServer::SessionFactory Factory() {
    return [](int worker_id) {
      (void)worker_id;
      EngineServer::Session session;
      session.initial = std::make_unique<UnderEstimator>(stats_);
      return session;
    };
  }

  /// Expected serial decisions: a template misses on first use, hits after.
  static std::vector<std::string> ExpectedDecisions() {
    std::vector<std::string> expected;
    std::set<int> seen;
    for (int idx : *sequence_) {
      expected.push_back(seen.insert(idx).second ? "miss" : "hit");
    }
    return expected;
  }

  static size_t NumDistinctUsed() {
    return std::set<int>(sequence_->begin(), sequence_->end()).size();
  }

  static db::Database* database_;
  static stats::DatabaseStats* stats_;
  static std::vector<wk::LabeledQuery>* pool_;
  static std::vector<int>* sequence_;
};

db::Database* PlanCacheEquivalenceTest::database_ = nullptr;
stats::DatabaseStats* PlanCacheEquivalenceTest::stats_ = nullptr;
std::vector<wk::LabeledQuery>* PlanCacheEquivalenceTest::pool_ = nullptr;
std::vector<int>* PlanCacheEquivalenceTest::sequence_ = nullptr;

TEST_P(PlanCacheEquivalenceTest, SerialCacheOnMatchesCacheOffBitIdentically) {
  const std::vector<Outcome> baseline = Baseline(GetParam());

  opt::PlanCache cache(64);
  UnderEstimator under(stats_);
  Engine engine(database_, opt::CostModel{});
  engine.set_plan_cache(&cache);
  const std::vector<std::string> expected_decisions = ExpectedDecisions();
  int replays = 0;
  for (size_t q = 0; q < sequence_->size(); ++q) {
    const auto& labeled = (*pool_)[(*sequence_)[q]];
    const Outcome on = Summarize(
        engine.RunQuery(labeled.query, &under, nullptr, Config()));
    ExpectEquivalentModuloCache(baseline[q], on, "query " + std::to_string(q));
    // The serial hit/miss sequence is fully determined by the workload.
    EXPECT_EQ(CacheDecision(on), expected_decisions[q])
        << "query " << q << " template " << (*sequence_)[q];
    // The cache-off baseline carries no cache fields at all.
    EXPECT_EQ(CacheDecision(baseline[q]), "");
    EXPECT_EQ(Replays(baseline[q]), 0);
    // Exact repeats: every round of a hit replays the previous run's.
    const bool hit = expected_decisions[q] == "hit";
    EXPECT_EQ(Replays(on), hit ? on.num_reopts : 0) << "query " << q;
    replays += Replays(on);
    // The replay mark is part of the trace schema; no other value is.
    const std::string json = on.trace->ToJson(TraceJsonMode::kDeterministic);
    EXPECT_TRUE(ValidateTraceJson(json).ok()) << "query " << q;
    const size_t mark = json.find("\"replay\"");
    EXPECT_EQ(mark != std::string::npos, Replays(on) > 0) << "query " << q;
    if (mark != std::string::npos) {
      std::string bogus = json;
      bogus.replace(mark, 8, "\"hit\"");
      EXPECT_FALSE(ValidateTraceJson(bogus).ok()) << "query " << q;
    }
  }
  EXPECT_GT(replays, 0);

  const auto counters = cache.counters();
  EXPECT_EQ(counters.misses, NumDistinctUsed());
  EXPECT_EQ(counters.hits, sequence_->size() - NumDistinctUsed());
  EXPECT_EQ(counters.inserts, NumDistinctUsed());
  EXPECT_EQ(counters.evictions, 0u);
  EXPECT_EQ(counters.size, NumDistinctUsed());
}

TEST_P(PlanCacheEquivalenceTest, ServedCacheOnMatchesBaselineAtAllWorkerCounts) {
  const std::vector<Outcome> baseline = Baseline(GetParam());

  for (int workers : {1, 2, 4}) {
    ServerOptions options;
    options.num_workers = workers;
    options.max_queue = sequence_->size();
    options.run_config = Config();
    options.plan_cache_capacity = 64;
    EngineServer server(database_, opt::CostModel{}, Factory(), options);
    ASSERT_NE(server.plan_cache(), nullptr);

    std::vector<std::shared_future<RunStats>> futures;
    for (int idx : *sequence_) {
      auto admitted = server.Submit((*pool_)[idx].query);
      ASSERT_TRUE(admitted.ok()) << admitted.status().ToString();
      futures.push_back(admitted.value());
    }
    int replays = 0;
    for (size_t q = 0; q < futures.size(); ++q) {
      const Outcome on = Summarize(futures[q].get());
      ExpectEquivalentModuloCache(
          baseline[q], on,
          "query " + std::to_string(q) + " at " + std::to_string(workers) +
              " workers");
      EXPECT_FALSE(CacheDecision(on).empty());
      if (CacheDecision(on) == "miss") EXPECT_EQ(Replays(on), 0);
      replays += Replays(on);
    }
    // Concurrent workers replay each other's recorded rounds.
    EXPECT_GT(replays, 0) << workers << " workers";

    // Exact accounting under any interleaving: every query either hit or
    // missed; two workers may race-miss the same template but only the first
    // insert lands, so resident entries == distinct templates, no evictions.
    const auto counters = server.plan_cache()->counters();
    EXPECT_EQ(counters.hits + counters.misses, sequence_->size());
    EXPECT_EQ(counters.inserts, NumDistinctUsed());
    EXPECT_GE(counters.misses, NumDistinctUsed());
    EXPECT_EQ(counters.evictions, 0u);
    EXPECT_EQ(counters.size, NumDistinctUsed());
  }
}

TEST_P(PlanCacheEquivalenceTest, WarmedCacheGivesExactHitCountsConcurrently) {
  // After deterministically warming every template, the 200-query skewed
  // workload over 4 workers is all hits — exactly 200, no race can miss.
  ServerOptions options;
  options.num_workers = 4;
  options.max_queue = sequence_->size() + kNumTemplates;
  options.run_config = Config();
  options.plan_cache_capacity = 64;
  EngineServer server(database_, opt::CostModel{}, Factory(), options);

  for (int t = 0; t < kNumTemplates; ++t) {
    auto warm = server.RunSync((*pool_)[t].query);
    ASSERT_TRUE(warm.ok());
  }
  const auto warmed = server.plan_cache()->counters();
  EXPECT_EQ(warmed.misses, static_cast<uint64_t>(kNumTemplates));
  EXPECT_EQ(warmed.hits, 0u);

  std::vector<std::shared_future<RunStats>> futures;
  for (int idx : *sequence_) {
    auto admitted = server.Submit((*pool_)[idx].query);
    ASSERT_TRUE(admitted.ok());
    futures.push_back(admitted.value());
  }
  for (size_t q = 0; q < futures.size(); ++q) {
    const Outcome on = Summarize(futures[q].get());
    EXPECT_EQ(on.result_count, (*pool_)[(*sequence_)[q]].FinalCard());
    EXPECT_EQ(CacheDecision(on), "hit") << "query " << q;
  }

  const auto counters = server.plan_cache()->counters();
  EXPECT_EQ(counters.hits, sequence_->size());
  EXPECT_EQ(counters.misses, static_cast<uint64_t>(kNumTemplates));
}

TEST_P(PlanCacheEquivalenceTest, MidWorkloadInvalidationNeverServesStale) {
  // A statistics-epoch bump halfway through the workload: the cache empties,
  // every template misses again on next use, and — the actual point — every
  // post-bump query still matches the cache-off baseline bit-for-bit, so no
  // stale skeleton was ever served.
  const std::vector<Outcome> baseline = Baseline(GetParam());

  ServerOptions options;
  options.num_workers = 1;  // deterministic decision sequence
  options.run_config = Config();
  options.plan_cache_capacity = 64;
  EngineServer server(database_, opt::CostModel{}, Factory(), options);

  const size_t half = sequence_->size() / 2;
  std::set<int> seen;
  int replays_after_bump = 0;
  for (size_t q = 0; q < sequence_->size(); ++q) {
    if (q == half) {
      server.InvalidatePlanCache();
      seen.clear();  // every template must miss again after the bump
    }
    const int idx = (*sequence_)[q];
    auto result = server.RunSync((*pool_)[idx].query);
    ASSERT_TRUE(result.ok());
    const Outcome on = Summarize(result.value());
    ExpectEquivalentModuloCache(baseline[q], on, "query " + std::to_string(q));
    const bool first_use = seen.insert(idx).second;
    EXPECT_EQ(CacheDecision(on), first_use ? "miss" : "hit") << "query " << q;
    // Rounds recorded before the bump went with their entries; after it, a
    // template replays again once a post-bump run has recorded its rounds.
    EXPECT_EQ(Replays(on), first_use ? 0 : on.num_reopts) << "query " << q;
    if (q >= half) replays_after_bump += Replays(on);
  }
  EXPECT_GT(replays_after_bump, 0);

  const auto counters = server.plan_cache()->counters();
  EXPECT_EQ(counters.invalidations, 1u);
  EXPECT_EQ(counters.hits + counters.misses, sequence_->size());
}

/// (round, operator, relation set) of every span after the initial plan:
/// what the re-optimization rounds chose to run.
std::vector<std::tuple<int, std::string, qry::RelSet>> ReplannedSpans(
    const Outcome& outcome) {
  std::vector<std::tuple<int, std::string, qry::RelSet>> spans;
  for (const TraceSpan& span : outcome.trace->spans()) {
    if (span.round > 0) spans.emplace_back(span.round, span.op, span.rels);
  }
  return spans;
}

TEST_P(PlanCacheEquivalenceTest, OtherLiteralsOfOneEntryNeverReplayItsRounds) {
  // Two variants of one pool query that differ only in the literal of an
  // added always-true filter (id >= a literal below every id): the
  // selectivity-keyed initial estimator gives both bitwise-equal estimates,
  // so they share one cache entry, and their executions report the same
  // observations. Only the literal-reading refiner tells them apart — it
  // re-plans them differently. A round recorded for one must therefore
  // never be replayed for the other, while exact repeats replay.
  SelectivityKeyedUnder under(stats_);
  LiteralSkewedRefiner refiner(stats_);
  auto run_off = [&](const qry::Query& query) {
    Engine engine(database_, opt::CostModel{});
    if (GetParam()) engine.set_executor_factory(&testing::RowExecutor::Make);
    return Summarize(engine.RunQuery(query, &under, &refiner, Config()));
  };
  // The filter goes on the first table without one (a query has at most
  // one predicate per table).
  auto variant = [](const qry::Query& query, int pos, int64_t literal) {
    qry::Query out = query;
    out.predicates.push_back(
        {{query.tables[pos], 0}, qry::CmpOp::kGe, literal});
    return out;
  };
  qry::Query a, b;
  Outcome off_a, off_b;
  bool found = false;
  for (const wk::LabeledQuery& labeled : *pool_) {
    const qry::Query& query = labeled.query;
    int pos = 0;
    while (pos < query.num_tables() && !query.PredicatesOf(pos).empty()) ++pos;
    if (query.num_tables() < 3 || pos == query.num_tables()) continue;
    a = variant(query, pos, -1000000);
    b = variant(query, pos, -1000001);
    ASSERT_EQ(opt::PlanCache::Fingerprint(a, under).canonical,
              opt::PlanCache::Fingerprint(b, under).canonical);
    off_a = run_off(a);
    off_b = run_off(b);
    ASSERT_EQ(off_a.result_count, labeled.FinalCard());
    ASSERT_EQ(off_b.result_count, labeled.FinalCard());
    if (off_a.num_reopts > 0 && off_b.num_reopts > 0 &&
        ReplannedSpans(off_a) != ReplannedSpans(off_b)) {
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found) << "no pool query re-plans differently per literal";

  opt::PlanCache cache(8);
  Engine engine(database_, opt::CostModel{});
  engine.set_plan_cache(&cache);
  struct Step {
    const qry::Query* query;
    const Outcome* off;
    const char* decision;
    bool replays;
  };
  const Step steps[] = {{&a, &off_a, "miss", false}, {&a, &off_a, "hit", true},
                        {&b, &off_b, "hit", false},  {&b, &off_b, "hit", true},
                        {&a, &off_a, "hit", false}};
  for (size_t i = 0; i < std::size(steps); ++i) {
    const Step& step = steps[i];
    const Outcome on =
        Summarize(engine.RunQuery(*step.query, &under, &refiner, Config()));
    const std::string context = "step " + std::to_string(i);
    ExpectEquivalentModuloCache(*step.off, on, context);
    EXPECT_EQ(CacheDecision(on), step.decision) << context;
    EXPECT_EQ(Replays(on), step.replays ? on.num_reopts : 0) << context;
  }
  EXPECT_EQ(cache.counters().size, 1u);
}

INSTANTIATE_TEST_SUITE_P(Baseline, PlanCacheEquivalenceTest,
                         ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return std::string(info.param ? "RowOracle"
                                                         : "Production");
                         });

TEST(PlanCacheDeferredPrepareTest, HitThenTripPreparesOnlyTheRefiner) {
  // A hit that trips prepares only the estimator the re-planning overlay
  // wraps. With LPCE-R refining, LPCE-I's prepared cards would never be read,
  // so LPCE-I is not prepared — and the run still equals the uncached one.
  db::SynthImdbOptions opts;
  opts.scale = 0.02;
  auto database = db::BuildSynthImdb(opts);
  stats::DatabaseStats stats;
  stats.Build(*database);
  model::FeatureEncoder encoder(&database->catalog(), &stats);
  wk::GeneratorOptions gen;
  gen.seed = 515;
  wk::QueryGenerator generator(database.get(), gen);
  const auto train = generator.GenerateLabeled(20, 2, 5);
  const auto queries = generator.GenerateLabeled(10, 3, 5);
  model::TreeModelConfig config;
  config.feature_dim = encoder.dim();
  config.dim = 16;
  config.embed_hidden = 16;
  config.out_hidden = 32;
  config.log_max_card =
      std::log1p(static_cast<double>(wk::MaxCardinality(train)));
  model::TreeModel lpce_i(&encoder, config);
  model::TrainOptions train_options;
  train_options.epochs = 2;
  model::TrainTreeModel(&lpce_i, *database, train, train_options);
  model::LpceR lpce_r(&encoder, config);
  model::LpceRTrainOptions refine_options;
  refine_options.pretrain.epochs = 1;
  refine_options.refine_epochs = 1;
  refine_options.pretrained_content = &lpce_i;
  model::TrainLpceR(&lpce_r, *database, train, refine_options);

  common::Counter* prepared = common::MetricsRegistry::Global().counter(
      "lpce.tree_model.prepared_queries_total");
  model::TreeModelEstimator initial("LPCE-I", &lpce_i, database.get());
  model::LpceREstimator refiner(&lpce_r, database.get());
  RunConfig run_config;
  run_config.enable_reopt = true;
  run_config.qerror_threshold = 2.0;  // trip often
  Engine uncached(database.get(), opt::CostModel{});
  opt::PlanCache cache(64);
  Engine cached(database.get(), opt::CostModel{});
  cached.set_plan_cache(&cache);
  int tripped_hits = 0;
  for (size_t q = 0; q < queries.size(); ++q) {
    const qry::Query& query = queries[q].query;
    const Outcome off =
        Summarize(uncached.RunQuery(query, &initial, &refiner, run_config));
    cached.RunQuery(query, &initial, &refiner, run_config);  // miss: insert
    const uint64_t before = prepared->value();
    const Outcome on =
        Summarize(cached.RunQuery(query, &initial, &refiner, run_config));
    ASSERT_EQ(CacheDecision(on), "hit") << "query " << q;
    EXPECT_EQ(prepared->value(), before) << "query " << q;
    // The exact repeat replays every round LPCE-R re-planned live.
    EXPECT_EQ(Replays(on), on.num_reopts) << "query " << q;
    EXPECT_EQ(on.result_count, queries[q].FinalCard()) << "query " << q;
    ExpectEquivalentModuloCache(off, on, "query " + std::to_string(q));
    if (on.num_reopts > 0) ++tripped_hits;
  }
  EXPECT_GT(tripped_hits, 0);
}

TEST(PlanCacheEnvTest, CapacityResolvesFromEnvKnobs) {
  // The deployment path: LPCE_PLAN_CACHE turns the shared cache on (default
  // capacity 1024), LPCE_PLAN_CACHE_CAP overrides the capacity, "0"/unset
  // leaves it off. Same setenv idiom as serving_stress_test's worker knob.
  unsetenv("LPCE_PLAN_CACHE");
  unsetenv("LPCE_PLAN_CACHE_CAP");
  EXPECT_EQ(ServerOptions::FromEnv().plan_cache_capacity, 0u);

  setenv("LPCE_PLAN_CACHE", "1", 1);
  EXPECT_EQ(ServerOptions::FromEnv().plan_cache_capacity, 1024u);

  setenv("LPCE_PLAN_CACHE_CAP", "77", 1);
  EXPECT_EQ(ServerOptions::FromEnv().plan_cache_capacity, 77u);

  setenv("LPCE_PLAN_CACHE_CAP", "garbage", 1);
  EXPECT_EQ(ServerOptions::FromEnv().plan_cache_capacity, 1024u);

  setenv("LPCE_PLAN_CACHE", "0", 1);
  EXPECT_EQ(ServerOptions::FromEnv().plan_cache_capacity, 0u);

  unsetenv("LPCE_PLAN_CACHE");
  unsetenv("LPCE_PLAN_CACHE_CAP");
}

}  // namespace
}  // namespace lpce::eng
