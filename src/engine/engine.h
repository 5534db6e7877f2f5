// End-to-end query execution with LPCE (paper Fig. 3):
//   (i) initial estimation -> (ii) DP planning -> (iii) execution with
//   checkpoints -> (iv) refinement on large q-error -> (v) re-planning of
//   the remaining operators. Time is decomposed as T_end = T_P + T_I + T_R
//   + T_E (Eq. 7/8).
#ifndef LPCE_ENGINE_ENGINE_H_
#define LPCE_ENGINE_ENGINE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "card/estimator.h"
#include "engine/trace.h"
#include "exec/executor.h"
#include "feedback/feedback_store.h"
#include "optimizer/plan_cache.h"
#include "optimizer/planner.h"

namespace lpce::eng {

struct RunConfig {
  bool enable_reopt = false;
  double qerror_threshold = 50.0;  // paper Sec. 6.2: empirically 50
  int max_reopts = 3;              // paper Sec. 6.2: at most 3 re-optimizations
  /// When true, re-planning also considers restarting from scratch and takes
  /// the cheaper of continue/restart (Sec. 6.2).
  bool consider_restart = true;
  /// Trigger-policy refinements (Sec. 6.2 future work; see Executor::Options
  /// and the bench_ablation_trigger study).
  size_t min_trip_rows = 0;
  bool underestimates_only = false;
};

struct RunStats {
  uint64_t result_count = 0;
  double plan_seconds = 0.0;       // T_P: DP search (initial plan)
  double inference_seconds = 0.0;  // T_I: initial model inference
  double reopt_seconds = 0.0;      // T_R: refinement inference + re-planning
  double exec_seconds = 0.0;       // T_E: executor time
  int num_reopts = 0;
  size_t num_estimates = 0;
  /// Peak total bytes of retained executor intermediates, maximized across
  /// re-optimization rounds (each round's peak is the sum of the rowsets it
  /// retained; rounds after a trip keep their pseudo inputs alive, so the
  /// maximum round is the query's memory high-water mark). Row-id columns
  /// count at their 4-byte width — the Sec. 6.2 "overhead" axis the serving
  /// telemetry reports per window.
  size_t peak_intermediate_bytes = 0;
  /// Model-registry version every estimate of this query came from (0 when
  /// the serving layer runs without a registry). Stamped by EngineServer;
  /// the swap-equivalence suite uses it to pair each query with the
  /// single-version run it must be bit-identical to.
  uint64_t model_version = 0;
  std::string initial_plan;  // pretty-printed (case studies, Fig. 17)
  std::string final_plan;
  /// Structured trace of the run: one span per executed operator, one event
  /// per plan/checkpoint/refinement/re-optimization (always populated; see
  /// engine/trace.h for the serialization contract).
  std::shared_ptr<QueryTrace> trace;

  double TotalSeconds() const {
    return plan_seconds + inference_seconds + reopt_seconds + exec_seconds;
  }
};

/// Thread-compatible: an Engine holds no per-query state (the planner is
/// stateless over a const database), so distinct Engine instances may run
/// queries concurrently. The *estimators* passed to RunQuery carry per-query
/// mutable state and must not be shared across concurrent calls — the
/// serving layer (engine/server.h) gives each worker its own session.
class Engine {
 public:
  Engine(const db::Database* database, opt::CostModel cost_model)
      : db_(database), planner_(database, cost_model) {}

  /// Runs one query end to end. `initial` provides the before-execution
  /// estimates; `refiner` (nullable) provides the refined estimates during
  /// re-optimization — when null, re-planning re-uses `initial` plus the
  /// exact cardinalities of the executed sub-plans.
  RunStats RunQuery(const qry::Query& query, card::CardinalityEstimator* initial,
                    card::CardinalityEstimator* refiner, const RunConfig& config);

  /// Attaches a template-keyed plan cache (not owned; nullptr disables).
  /// On a hit, RunQuery skips estimator preparation and DP planning entirely
  /// — the cached skeleton is rebound to the query's literals and T_P + T_I
  /// collapse to the lookup. Re-optimization always replans against the live
  /// estimators, never the cache, so re-opt behavior is identical with the
  /// cache on or off. The cache may be shared across engines (thread-safe).
  void set_plan_cache(opt::PlanCache* cache) { plan_cache_ = cache; }

  /// Attaches a feedback store (not owned; nullptr disables). After each
  /// query, the exact cardinality of every executed operator (its trace
  /// span's actual rows; pseudo scans excluded — they replay a prior round's
  /// materialization) is harvested into the store, keyed by the query's
  /// template fingerprint. Harvesting happens after the trace is final, so
  /// it never perturbs results or deterministic trace bytes. The store may
  /// be shared across engines (thread-safe).
  void set_feedback_store(fb::FeedbackStore* store) { feedback_store_ = store; }

  /// Builds the executor each query runs on. Unset means exec::Executor; the
  /// differential suites install the row-at-a-time oracle
  /// (tests/testing/row_executor.h) to compare whole engine runs against it.
  using ExecutorFactory = std::function<std::unique_ptr<exec::Executor>(
      const db::Database*, const qry::Query*)>;
  void set_executor_factory(ExecutorFactory factory) {
    executor_factory_ = std::move(factory);
  }

 private:
  const db::Database* db_;
  opt::Planner planner_;
  opt::PlanCache* plan_cache_ = nullptr;
  fb::FeedbackStore* feedback_store_ = nullptr;
  ExecutorFactory executor_factory_;
};

}  // namespace lpce::eng

#endif  // LPCE_ENGINE_ENGINE_H_
