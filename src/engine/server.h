// Concurrent query-serving layer: an EngineServer owns one immutable shared
// snapshot (database tables/indexes, trained models, statistics) plus a
// bounded FIFO admission queue and a pool of worker threads that execute up
// to `num_workers` queries concurrently.
//
// Isolation model (see DESIGN.md "Serving layer"):
//   - Shared, read-only: the Database, DatabaseStats, trained TreeModel /
//     LpceR / MSCN weights and the cost model. None of these are mutated
//     while the server is running. A query runs start to finish on its
//     worker's thread.
//   - Per worker: one Session (the estimator pair produced by the session
//     factory) and one Engine. Estimators carry per-query mutable state
//     (PrepareQuery caches, LPCE-R observation roots), so they must never be
//     shared between workers.
//   - Per query: RunStats, QueryTrace, the re-optimization budget, and the
//     calling worker's thread-local nn::InferArena.
//
// Determinism contract: with per-query-deterministic estimators (histogram,
// tree models, LPCE-R — every estimate depends only on the query, not on
// which queries ran before), each query's RunStats/trace is bit-identical
// whether the workload runs serially or through any number of workers.
// Pinned by tests/serving_equivalence_test.cc.
#ifndef LPCE_ENGINE_SERVER_H_
#define LPCE_ENGINE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "card/estimator.h"
#include "common/status.h"
#include "common/timer.h"
#include "engine/engine.h"
#include "engine/finetune.h"
#include "feedback/feedback_store.h"
#include "lpce/model_registry.h"

namespace lpce::eng {

struct ServerOptions {
  /// Worker threads executing admitted queries (0 = the LPCE_SERVE_WORKERS
  /// environment knob, falling back to 1). Each worker owns one session and
  /// one Engine and runs one query at a time on its own thread.
  int num_workers = 0;
  /// Admission bound: Submit rejects with ResourceExhausted once this many
  /// admitted queries are waiting (queries already running do not count).
  size_t max_queue = 256;
  /// Default per-query engine configuration (Submit can override per query).
  RunConfig run_config;
  /// Template-keyed plan cache shared by all workers (see
  /// optimizer/plan_cache.h): maximum resident templates, 0 = disabled.
  size_t plan_cache_capacity = 0;
  /// Model registry for versioned serving (not owned; required by the
  /// versioned-session-factory constructor, ignored by the plain one). A
  /// publish-hook registered by the server invalidates the plan cache on
  /// every version bump, so cached estimate pools never outlive the model
  /// that produced them.
  model::ModelRegistry* model_registry = nullptr;
  /// Execution-feedback knowledge store every worker's engine harvests into
  /// (not owned; nullptr = the LPCE_FEEDBACK env knob decides — when set,
  /// the server owns a store built from FeedbackStoreOptions::FromEnv()).
  fb::FeedbackStore* feedback_store = nullptr;
  /// Run a background FineTuneWorker kicked by drift flags (needs a
  /// registry with a published version and a feedback store).
  bool enable_finetune = false;

  /// num_workers from LPCE_SERVE_WORKERS, the plan cache from
  /// LPCE_PLAN_CACHE (on/off) + LPCE_PLAN_CACHE_CAP (capacity, default 1024
  /// when enabled), enable_finetune from LPCE_FINETUNE. Absent/invalid
  /// values keep the defaults.
  static ServerOptions FromEnv();
};

class EngineServer {
 public:
  /// Per-worker estimator state over the shared model snapshot. `refiner`
  /// may be null (no LPCE-R refinement; re-planning then reuses `initial`
  /// plus exact cardinalities of executed sub-plans).
  struct Session {
    std::unique_ptr<card::CardinalityEstimator> initial;
    std::unique_ptr<card::CardinalityEstimator> refiner;
  };
  /// Builds one worker's session; invoked once per worker, from that
  /// worker's thread, before it serves its first query. `worker_id` is in
  /// [0, num_workers) for deterministic per-worker seeding when wanted.
  using SessionFactory = std::function<Session(int worker_id)>;
  /// Versioned variant: builds a worker's session over one pinned registry
  /// snapshot. Invoked from the worker's thread — once before its first
  /// query, then again whenever the worker observes a newer published
  /// version *between* queries. The estimators it returns must read only
  /// `version`'s models, which stay alive (shared_ptr-pinned) until the
  /// session is replaced; that is the version-pinning invariant — a query
  /// never mixes model versions between inference, refinement, and
  /// re-optimization.
  using VersionedSessionFactory =
      std::function<Session(int worker_id, const model::ModelVersion& version)>;

  EngineServer(const db::Database* database, opt::CostModel cost_model,
               SessionFactory session_factory, ServerOptions options);
  /// Versioned serving: options.model_registry must be non-null and must
  /// already have a published version (workers need a snapshot to build
  /// their first session from). RunStats::model_version reports the version
  /// each query ran under.
  EngineServer(const db::Database* database, opt::CostModel cost_model,
               VersionedSessionFactory session_factory, ServerOptions options);
  /// Drains admitted queries, then joins the workers (same as Shutdown).
  ~EngineServer();

  EngineServer(const EngineServer&) = delete;
  EngineServer& operator=(const EngineServer&) = delete;

  /// Non-blocking admission with the server's default RunConfig. Returns a
  /// future resolving to the query's RunStats, or a clean error Status:
  /// ResourceExhausted when the queue is full, FailedPrecondition after
  /// Shutdown. The query is copied; the caller's object need not outlive the
  /// call.
  Result<std::shared_future<RunStats>> Submit(const qry::Query& query);
  /// As above with a per-query RunConfig override.
  Result<std::shared_future<RunStats>> Submit(const qry::Query& query,
                                              const RunConfig& config);

  /// Blocking convenience: Submit + wait. Propagates admission errors.
  Result<RunStats> RunSync(const qry::Query& query);

  /// Stops admission, runs every already-admitted query to completion, and
  /// joins the workers. Idempotent; called by the destructor.
  void Shutdown();

  int num_workers() const { return num_workers_; }
  /// Admitted-but-unstarted queries right now (monitoring; racy by nature).
  size_t queue_depth() const;

  /// Per-instance admission counters (the process-global lpce.serve.*
  /// metrics aggregate across servers; these are exact for one instance).
  struct Counters {
    uint64_t submitted = 0;  // admitted into the queue
    uint64_t rejected = 0;   // refused: queue full or shut down
    uint64_t completed = 0;  // finished executing (== submitted after drain)
    /// Worker sessions rebuilt after observing a newer published version
    /// (excludes the initial per-worker builds). Always 0 without a registry.
    uint64_t session_rebuilds = 0;
  };
  Counters counters() const;

  /// The shared plan cache (nullptr when plan_cache_capacity was 0). All
  /// workers consult it; thread-safe.
  opt::PlanCache* plan_cache() { return plan_cache_.get(); }

  /// Invalidates the shared plan cache (statistics rebuild / model version
  /// bump): the cache empties and its epoch advances, so no query admitted
  /// after this call — and no in-flight insert staged before it — can
  /// publish or serve a pre-bump skeleton. No-op without a cache.
  void InvalidatePlanCache();

  /// The model registry serving sessions derive from (nullptr for the
  /// unversioned constructor).
  model::ModelRegistry* model_registry() { return options_.model_registry; }

  /// The feedback store worker engines harvest into: the injected one, the
  /// env-owned one, or nullptr when feedback is off.
  fb::FeedbackStore* feedback_store() { return feedback_store_; }

  /// The background fine-tune worker (nullptr unless enable_finetune was set
  /// with a registry and a feedback store present). Tests Kick() it.
  FineTuneWorker* finetune_worker() { return finetune_.get(); }

  /// On-demand Prometheus text exposition: drains the telemetry ring, then
  /// renders every MetricsRegistry instrument plus the per-template
  /// telemetry windows and drift flags (common/telemetry.h). Usable with
  /// telemetry off (instruments only, no per-template sections).
  std::string PrometheusText() const;

 private:
  struct Job {
    qry::Query query;
    RunConfig config;
    std::promise<RunStats> promise;
    WallTimer admitted;  // queue wait + service time, from admission
  };

  void Init();
  void WorkerLoop(int worker_id);

  const db::Database* db_;
  opt::CostModel cost_model_;
  SessionFactory session_factory_;
  VersionedSessionFactory versioned_factory_;
  ServerOptions options_;
  int num_workers_ = 1;
  std::unique_ptr<opt::PlanCache> plan_cache_;  // shared by all workers
  std::unique_ptr<fb::FeedbackStore> owned_feedback_store_;  // env-configured
  fb::FeedbackStore* feedback_store_ = nullptr;  // injected or owned
  std::unique_ptr<FineTuneWorker> finetune_;
  uint64_t publish_hook_id_ = 0;  // plan-cache invalidation hook

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<Job> queue_;
  bool shutdown_ = false;

  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> session_rebuilds_{0};

  std::vector<std::thread> workers_;
};

}  // namespace lpce::eng

#endif  // LPCE_ENGINE_SERVER_H_
