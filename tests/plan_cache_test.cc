// Unit tests for the template fingerprint (query/fingerprint.h) and the
// plan cache (optimizer/plan_cache.h): literal-insensitive
// template collision, exact-key separation of distinct templates, LRU
// eviction, the epoch guard that drops inserts staged before an
// invalidation, rebinding, and the engine-level hit path's stats coherence
// (hits report ~0 seconds and 0 estimates — satellite of Fig. 12's time
// decomposition staying truthful).
#include <algorithm>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "card/histogram_estimator.h"
#include "common/check.h"
#include "engine/engine.h"
#include "engine/server.h"
#include "engine/trace.h"
#include "lpce/model_registry.h"
#include "lpce/tree_model.h"
#include "optimizer/plan_cache.h"
#include "optimizer/planner.h"
#include "stats/column_stats.h"
#include "storage/database.h"
#include "workload/workload.h"

namespace lpce {
namespace {

/// Drops the wall-clock " time=..." tokens from a pretty-printed plan so
/// plans can be compared across runs.
std::string StripPlanTimes(const std::string& plan) {
  std::string out;
  size_t pos = 0;
  while (pos < plan.size()) {
    size_t t = plan.find(" time=", pos);
    if (t == std::string::npos) {
      out.append(plan, pos, plan.size() - pos);
      break;
    }
    out.append(plan, pos, t - pos);
    size_t end = t + 1;
    while (end < plan.size() && plan[end] != ' ' && plan[end] != '\n') ++end;
    pos = end;
  }
  return out;
}

class PlanCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db::SynthImdbOptions opts;
    opts.scale = 0.02;
    database_ = db::BuildSynthImdb(opts);
    stats_.Build(*database_);
    title_ = database_->catalog().FindTable("title");
    mi_ = database_->catalog().FindTable("movie_info");
    ASSERT_GE(title_, 0);
    ASSERT_GE(mi_, 0);
  }

  /// The classic parameterized template: title joins movie_info, equality
  /// on title.id (unique, so every literal is equally selective).
  qry::Query Template(int64_t literal) const {
    qry::Query query;
    query.tables = {title_, mi_};
    query.joins.push_back({{mi_, 1}, {title_, 0}});
    query.predicates.push_back({{title_, 0}, qry::CmpOp::kEq, literal});
    return query;
  }

  /// Two equality literals on title.id that are both non-MCV, so the
  /// histogram estimator assigns them bitwise-identical selectivity — the
  /// precondition for a cross-literal template hit.
  std::pair<int64_t, int64_t> NonMcvLiteralPair() const {
    const stats::ColumnStats& id_stats = stats_.column({title_, 0});
    auto is_mcv = [&](int64_t v) {
      return std::any_of(id_stats.mcvs.begin(), id_stats.mcvs.end(),
                         [&](const auto& mcv) { return mcv.first == v; });
    };
    std::vector<int64_t> picks;
    for (int64_t v = 0; picks.size() < 2 && v < 1000; ++v) {
      if (!is_mcv(v)) picks.push_back(v);
    }
    LPCE_CHECK(picks.size() == 2);
    return {picks[0], picks[1]};
  }

  std::unique_ptr<db::Database> database_;
  stats::DatabaseStats stats_;
  int32_t title_ = -1;
  int32_t mi_ = -1;
};

TEST_F(PlanCacheTest, FingerprintCollidesAcrossEquallySelectiveLiterals) {
  card::HistogramEstimator estimator(&stats_);
  const auto [a, b] = NonMcvLiteralPair();
  const auto fp_a = opt::PlanCache::Fingerprint(Template(a), estimator);
  const auto fp_b = opt::PlanCache::Fingerprint(Template(b), estimator);
  EXPECT_EQ(fp_a.canonical, fp_b.canonical)
      << "equally-selective literals must share a cache key";
  EXPECT_EQ(fp_a.fss_hash, fp_b.fss_hash);
  EXPECT_TRUE(fp_a.valid());
}

TEST_F(PlanCacheTest, FingerprintSeparatesDistinctTemplates) {
  card::HistogramEstimator estimator(&stats_);
  const auto base = opt::PlanCache::Fingerprint(Template(100), estimator);

  // Different comparison op: different template.
  qry::Query other_op = Template(100);
  other_op.predicates[0].op = qry::CmpOp::kGe;
  EXPECT_NE(opt::PlanCache::Fingerprint(other_op, estimator).canonical,
            base.canonical);

  // Different predicate column: different template.
  qry::Query other_col = Template(100);
  other_col.predicates[0].col = {title_, 2};
  EXPECT_NE(opt::PlanCache::Fingerprint(other_col, estimator).canonical,
            base.canonical);

  // No predicate at all: different template.
  qry::Query no_pred = Template(100);
  no_pred.predicates.clear();
  EXPECT_NE(opt::PlanCache::Fingerprint(no_pred, estimator).canonical,
            base.canonical);

  // Another estimator name: never cross-served.
  class Renamed : public card::HistogramEstimator {
   public:
    using HistogramEstimator::HistogramEstimator;
    std::string name() const override { return "renamed"; }
  };
  Renamed renamed(&stats_);
  EXPECT_NE(opt::PlanCache::Fingerprint(Template(100), renamed).canonical,
            base.canonical);
}

TEST_F(PlanCacheTest, HitServesBitIdenticalPlanWithReboundLiterals) {
  card::HistogramEstimator estimator(&stats_);
  opt::Planner planner(database_.get(), opt::CostModel{});
  opt::PlanCache cache(8);
  const auto [a, b] = NonMcvLiteralPair();

  const qry::Query query_a = Template(a);
  const auto fp_a = opt::PlanCache::Fingerprint(query_a, estimator);
  auto miss = cache.Lookup(fp_a, query_a);
  EXPECT_FALSE(miss.hit());
  opt::PlanResult planned = planner.Plan(query_a, &estimator);
  cache.Insert(fp_a, miss.epoch, *planned.plan);

  // The other literal hits and comes back rebound: bitwise the plan fresh
  // planning would build for query_b, literals included.
  const qry::Query query_b = Template(b);
  const auto fp_b = opt::PlanCache::Fingerprint(query_b, estimator);
  auto hit = cache.Lookup(fp_b, query_b);
  ASSERT_TRUE(hit.hit());
  opt::PlanResult fresh = planner.Plan(query_b, &estimator);
  EXPECT_EQ(hit.plan->ToString(database_->catalog(), query_b),
            fresh.plan->ToString(database_->catalog(), query_b));
  EXPECT_EQ(hit.plan->est_cost, fresh.plan->est_cost);

  const auto counters = cache.counters();
  EXPECT_EQ(counters.hits, 1u);
  EXPECT_EQ(counters.misses, 1u);
  EXPECT_EQ(counters.inserts, 1u);
  EXPECT_EQ(counters.size, 1u);
}

TEST_F(PlanCacheTest, LruEvictsLeastRecentlyUsedAtCapacity) {
  card::HistogramEstimator estimator(&stats_);
  opt::Planner planner(database_.get(), opt::CostModel{});
  opt::PlanCache cache(2);

  // Three distinct templates (different ops on the same column).
  std::vector<qry::Query> queries;
  for (qry::CmpOp op : {qry::CmpOp::kEq, qry::CmpOp::kGe, qry::CmpOp::kLe}) {
    qry::Query query = Template(50);
    query.predicates[0].op = op;
    queries.push_back(query);
  }
  std::vector<qry::TemplateFingerprint> fps;
  for (const auto& query : queries) {
    const auto fp = opt::PlanCache::Fingerprint(query, estimator);
    auto outcome = cache.Lookup(fp, query);
    opt::PlanResult planned = planner.Plan(query, &estimator);
    cache.Insert(fp, outcome.epoch, *planned.plan);
    fps.push_back(fp);
  }
  // Inserting the third evicted template 0 (LRU); 1 and 2 remain.
  EXPECT_EQ(cache.counters().evictions, 1u);
  EXPECT_EQ(cache.counters().size, 2u);
  EXPECT_FALSE(cache.Lookup(fps[0], queries[0]).hit());
  EXPECT_TRUE(cache.Lookup(fps[1], queries[1]).hit());
  // Touching 1 made 2 the LRU: re-inserting 0 now evicts 2.
  auto outcome = cache.Lookup(fps[0], queries[0]);
  opt::PlanResult planned = planner.Plan(queries[0], &estimator);
  cache.Insert(fps[0], outcome.epoch, *planned.plan);
  EXPECT_TRUE(cache.Lookup(fps[1], queries[1]).hit());
  EXPECT_FALSE(cache.Lookup(fps[2], queries[2]).hit());
}

TEST_F(PlanCacheTest, InvalidationDropsEntriesAndStaleInserts) {
  card::HistogramEstimator estimator(&stats_);
  opt::Planner planner(database_.get(), opt::CostModel{});
  opt::PlanCache cache(8);
  const qry::Query query = Template(42);
  const auto fp = opt::PlanCache::Fingerprint(query, estimator);

  auto before = cache.Lookup(fp, query);  // miss at epoch e
  opt::PlanResult planned = planner.Plan(query, &estimator);
  cache.Insert(fp, before.epoch, *planned.plan);
  ASSERT_TRUE(cache.Lookup(fp, query).hit());

  cache.Invalidate();
  EXPECT_EQ(cache.counters().size, 0u);
  EXPECT_EQ(cache.counters().invalidations, 1u);
  // The entry is gone...
  auto after = cache.Lookup(fp, query);
  EXPECT_FALSE(after.hit());
  // ...and an insert staged against the pre-bump epoch is dropped: a worker
  // that planned against old statistics can never publish a stale skeleton.
  cache.Insert(fp, before.epoch, *planned.plan);
  EXPECT_FALSE(cache.Lookup(fp, query).hit());
  // A fresh lookup/insert cycle at the new epoch works again.
  cache.Insert(fp, after.epoch, *planned.plan);
  EXPECT_TRUE(cache.Lookup(fp, query).hit());
}

TEST_F(PlanCacheTest, RoundChainsLiveWithTheirEntryAndEpoch) {
  card::HistogramEstimator estimator(&stats_);
  opt::Planner planner(database_.get(), opt::CostModel{});
  opt::PlanCache cache(8);
  const qry::Query query = Template(42);
  const auto fp = opt::PlanCache::Fingerprint(query, estimator);
  auto chain = std::make_shared<opt::ReoptChain>();
  chain->query = query;
  chain->rounds.resize(1);

  // No entry yet: the chain has nowhere to live.
  auto miss = cache.Lookup(fp, query);
  cache.RecordRounds(fp, miss.epoch, chain);
  opt::PlanResult planned = planner.Plan(query, &estimator);
  cache.Insert(fp, miss.epoch, *planned.plan);
  EXPECT_EQ(cache.Lookup(fp, query).rounds, nullptr);

  cache.RecordRounds(fp, miss.epoch, chain);
  EXPECT_EQ(cache.Lookup(fp, query).rounds, chain);

  // Invalidation drops the chain with its entry, and a chain staged
  // against the old epoch never lands on the re-inserted entry.
  cache.Invalidate();
  auto after = cache.Lookup(fp, query);
  cache.Insert(fp, after.epoch, *planned.plan);
  cache.RecordRounds(fp, miss.epoch, chain);
  EXPECT_EQ(cache.Lookup(fp, query).rounds, nullptr);
  cache.RecordRounds(fp, after.epoch, chain);
  EXPECT_EQ(cache.Lookup(fp, query).rounds, chain);
}

TEST_F(PlanCacheTest, ReoptRoundMatchesOnlyItsExactInputsAndBindsItsUnits) {
  card::HistogramEstimator estimator(&stats_);
  opt::Planner planner(database_.get(), opt::CostModel{});
  const qry::Query query = Template(42);
  // Round inputs: title scanned (a pseudo unit of 1 row), movie_info not.
  const opt::ReoptRound::Observations observed = {{qry::Bit(0), 1.0}};
  std::vector<opt::PlanUnit> units(2);
  units[0].rels = qry::Bit(0);
  units[0].materialized = std::make_shared<exec::RowSet>();
  units[0].known_card = 1.0;
  units[1].rels = qry::Bit(1);
  units[1].table_pos = 1;
  const opt::PlanResult planned = planner.PlanUnits(query, &estimator, units);

  opt::ReoptRound round;
  round.observations = observed;
  round.SetUnits(units);
  const long refs = units[0].materialized.use_count();
  round.plan = opt::PlanSkeleton(*planned.plan);
  EXPECT_EQ(units[0].materialized.use_count(), refs);
  EXPECT_TRUE(round.Matches(observed, units));

  // Any difference in an observation, or in the units, is a new round.
  EXPECT_FALSE(round.Matches({{qry::Bit(0), 2.0}}, units));
  EXPECT_FALSE(round.Matches({{qry::Bit(1), 1.0}}, units));
  EXPECT_FALSE(round.Matches({}, units));
  EXPECT_FALSE(
      round.Matches({{qry::Bit(0), 1.0}, {qry::Bit(0), 1.0}}, units));
  std::vector<opt::PlanUnit> other = units;
  other[0].known_card = 2.0;
  EXPECT_FALSE(round.Matches(observed, other));
  other = units;
  other.pop_back();
  EXPECT_FALSE(round.Matches(observed, other));

  // The skeleton holds no intermediate; binding reads this run's units.
  std::vector<const exec::PlanNode*> nodes;
  exec::PostOrderPlan(round.plan.get(), &nodes);
  int pseudo_leaves = 0;
  for (const exec::PlanNode* node : nodes) {
    if (node->op != exec::PhysOp::kPseudoScan) continue;
    ++pseudo_leaves;
    EXPECT_EQ(node->pseudo, nullptr);
  }
  EXPECT_EQ(pseudo_leaves, 1);
  std::vector<opt::PlanUnit> rerun = units;
  rerun[0].materialized = std::make_shared<exec::RowSet>();
  const std::unique_ptr<exec::PlanNode> bound = round.Bind(rerun);
  EXPECT_TRUE(exec::ValidatePlan(*bound, query).ok());
  EXPECT_EQ(bound->ToString(database_->catalog(), query),
            planned.plan->ToString(database_->catalog(), query));
  nodes.clear();
  exec::PostOrderPlan(bound.get(), &nodes);
  for (const exec::PlanNode* node : nodes) {
    if (node->op == exec::PhysOp::kPseudoScan) {
      EXPECT_EQ(node->pseudo, rerun[0].materialized);
    }
  }
}

TEST_F(PlanCacheTest, EngineHitReportsCoherentStatsAndTrace) {
  card::HistogramEstimator estimator(&stats_);
  eng::Engine engine(database_.get(), opt::CostModel{});
  opt::PlanCache cache(8);
  engine.set_plan_cache(&cache);
  eng::RunConfig config;

  const qry::Query query = Template(7);
  const eng::RunStats cold = engine.RunQuery(query, &estimator, nullptr, config);
  const eng::RunStats warm = engine.RunQuery(query, &estimator, nullptr, config);

  // Results and plans are bit-identical; the hit reports 0 estimates and no
  // inference time (stale/skipped observations would corrupt Fig. 12).
  EXPECT_EQ(warm.result_count, cold.result_count);
  EXPECT_EQ(StripPlanTimes(warm.final_plan), StripPlanTimes(cold.final_plan));
  EXPECT_EQ(StripPlanTimes(warm.initial_plan), StripPlanTimes(cold.initial_plan));
  EXPECT_GT(cold.num_estimates, 0u);
  EXPECT_EQ(warm.num_estimates, 0u);
  EXPECT_EQ(warm.inference_seconds, 0.0);
  EXPECT_GT(warm.plan_seconds, 0.0);  // the lookup itself is timed

  // Trace: both runs carry the cache outcome on the plan event, and the
  // event stream shape is otherwise identical.
  ASSERT_FALSE(cold.trace->events().empty());
  ASSERT_FALSE(warm.trace->events().empty());
  const eng::TraceEvent& cold_plan = cold.trace->events().front();
  const eng::TraceEvent& warm_plan = warm.trace->events().front();
  EXPECT_EQ(cold_plan.cache_decision, "miss");
  EXPECT_EQ(warm_plan.cache_decision, "hit");
  EXPECT_EQ(cold_plan.fss_hash, warm_plan.fss_hash);
  EXPECT_NE(warm_plan.fss_hash, 0u);
  EXPECT_EQ(warm_plan.num_estimates, 0u);
  EXPECT_EQ(warm_plan.plan_cost, cold_plan.plan_cost);

  // Both trace JSONs validate (the optional cache fields are schema-legal).
  EXPECT_TRUE(
      eng::ValidateTraceJson(cold.trace->ToJson(eng::TraceJsonMode::kDeterministic))
          .ok());
  EXPECT_TRUE(
      eng::ValidateTraceJson(warm.trace->ToJson(eng::TraceJsonMode::kDeterministic))
          .ok());

  const auto counters = cache.counters();
  EXPECT_EQ(counters.hits, 1u);
  EXPECT_EQ(counters.misses, 1u);
}

TEST_F(PlanCacheTest, CacheOffTracesHaveNoCacheFields) {
  // Golden traces must stay byte-identical when no cache is attached.
  card::HistogramEstimator estimator(&stats_);
  eng::Engine engine(database_.get(), opt::CostModel{});
  eng::RunConfig config;
  const eng::RunStats stats =
      engine.RunQuery(Template(7), &estimator, nullptr, config);
  const std::string json =
      stats.trace->ToJson(eng::TraceJsonMode::kDeterministic);
  EXPECT_EQ(json.find("\"cache\""), std::string::npos);
  EXPECT_EQ(json.find("\"fss\""), std::string::npos);
}

TEST_F(PlanCacheTest, ModelVersionPublishInvalidatesServerCache) {
  // Regression (the feedback loop's cache-coherence wire): a cached skeleton
  // was chosen on the estimates of the model version that planned it, so a
  // registry publish must empty the server's cache and bump its epoch —
  // before this hook existed, post-swap queries could serve pre-swap
  // skeletons with stale estimates.
  model::FeatureEncoder encoder(&database_->catalog(), &stats_);
  model::TreeModelConfig config;
  config.feature_dim = encoder.dim();
  config.dim = 8;
  config.embed_hidden = 8;
  config.out_hidden = 8;
  auto payload = std::make_shared<model::TreeModel>(&encoder, config);
  model::ModelRegistry registry;
  registry.Publish(payload, nullptr, "v1");

  eng::ServerOptions options;
  options.num_workers = 1;
  options.plan_cache_capacity = 8;
  options.model_registry = &registry;  // wires publish -> InvalidatePlanCache
  eng::EngineServer server(
      database_.get(), opt::CostModel{},
      [this](int) {
        eng::EngineServer::Session session;
        session.initial = std::make_unique<card::HistogramEstimator>(&stats_);
        return session;
      },
      options);

  const auto [a, b] = NonMcvLiteralPair();
  ASSERT_TRUE(server.RunSync(Template(a)).ok());
  ASSERT_TRUE(server.RunSync(Template(b)).ok());  // cross-literal hit
  const auto warm = server.plan_cache()->counters();
  EXPECT_GE(warm.hits, 1u);
  EXPECT_EQ(warm.invalidations, 0u);
  EXPECT_GE(warm.size, 1u);

  registry.Publish(payload, nullptr, "v2");
  const auto swapped = server.plan_cache()->counters();
  EXPECT_EQ(swapped.invalidations, 1u);
  EXPECT_EQ(swapped.size, 0u);

  // The next query re-plans (miss, not a stale hit) and repopulates the
  // cache under the new epoch.
  ASSERT_TRUE(server.RunSync(Template(a)).ok());
  const auto after = server.plan_cache()->counters();
  EXPECT_EQ(after.misses, warm.misses + 1);
  EXPECT_EQ(after.hits, warm.hits);
  EXPECT_GE(after.size, 1u);
}

}  // namespace
}  // namespace lpce
