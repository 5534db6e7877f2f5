#include "engine/engine.h"

#include <algorithm>
#include <iterator>
#include <map>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/profiler.h"
#include "common/telemetry.h"
#include "common/timer.h"

namespace lpce::eng {

namespace {

/// Finds the maximal executed subtrees of a (partially executed) plan.
void CollectMaximalExecuted(exec::PlanNode* node,
                            std::vector<exec::PlanNode*>* out) {
  if (node == nullptr) return;
  if (node->executed) {
    out->push_back(node);
    return;
  }
  CollectMaximalExecuted(node->outer.get(), out);
  CollectMaximalExecuted(node->inner.get(), out);
}

}  // namespace

RunStats Engine::RunQuery(const qry::Query& query,
                          card::CardinalityEstimator* initial,
                          card::CardinalityEstimator* refiner,
                          const RunConfig& config) {
  LPCE_PROFILE_SCOPE("engine.run_query");
  WallTimer total_timer;
  RunStats stats;
  stats.trace = std::make_shared<QueryTrace>();
  QueryTrace* trace = stats.trace.get();
  trace->SetQuery(query);
  trace->SetThreshold(config.qerror_threshold);
  initial->ResetObservations();
  if (refiner != nullptr) refiner->ResetObservations();

  // Plan cache (optimizer/plan_cache.h): on a hit the skeleton below comes
  // back rebound to this query's literals and both estimator preparation and
  // DP planning are skipped — T_P becomes the lookup time, T_I and the
  // estimate count 0. `prepared` defers PrepareQuery to the first
  // re-optimization (hits that never trip never pay inference at all).
  qry::TemplateFingerprint fingerprint;
  uint64_t lookup_epoch = 0;
  bool cache_hit = false;
  bool prepared = false;
  // The entry's recorded re-optimization rounds, kept only when they were
  // recorded for this exact query under this restart policy
  // (optimizer/plan_cache.h "Replayed re-optimization rounds").
  std::shared_ptr<const opt::ReoptChain> recorded;
  const bool telemetry_on = common::TelemetryEnabled();
  std::unique_ptr<exec::PlanNode> plan;
  if (plan_cache_ != nullptr) {
    LPCE_PROFILE_SCOPE("T_P.cache_lookup");
    WallTimer timer;
    fingerprint = opt::PlanCache::Fingerprint(query, *initial);
    opt::PlanCache::LookupOutcome outcome =
        plan_cache_->Lookup(fingerprint, query);
    lookup_epoch = outcome.epoch;
    if (outcome.hit()) {
      cache_hit = true;
      plan = std::move(outcome.plan);
      if (outcome.rounds != nullptr &&
          outcome.rounds->consider_restart == config.consider_restart &&
          outcome.rounds->query == query) {
        recorded = std::move(outcome.rounds);
      }
      stats.plan_seconds += timer.ElapsedSeconds();
    }
  } else if (telemetry_on) {
    // Telemetry keys per-template windows by the same fss hash the plan
    // cache groups on, computed at the same point (before PrepareQuery —
    // FingerprintPredicate is const and preparation-independent, so this
    // cannot perturb results).
    fingerprint = opt::PlanCache::Fingerprint(query, *initial);
  }

  if (cache_hit) {
    // Satellite of the time decomposition (paper Fig. 12): a hit still
    // counts as a planning pass with ~0 seconds and 0 estimates, so
    // planner.plans_total stays equal to the number of queries planned and
    // the recorded T_P/T_I are the true (collapsed) costs.
    static common::Counter* plans_total =
        common::MetricsRegistry::Global().counter("planner.plans_total");
    static common::Histogram* search_seconds =
        common::MetricsRegistry::Global().histogram("planner.search_seconds");
    plans_total->Increment();
    search_seconds->Observe(stats.plan_seconds);
  } else {
    LPCE_PROFILE_SCOPE("T_I.prepare");
    WallTimer timer;
    initial->PrepareQuery(query);
    if (refiner != nullptr) refiner->PrepareQuery(query);
    stats.inference_seconds += timer.ElapsedSeconds();
    prepared = true;
  }

  opt::PlanResult planned;
  if (!cache_hit) {
    planned = [&] {
      LPCE_PROFILE_SCOPE("T_P.plan");
      return planner_.Plan(query, initial);
    }();
    stats.plan_seconds += planned.search_seconds;
    stats.inference_seconds += planned.inference_seconds;
    stats.num_estimates += planned.num_estimates;
    plan = std::move(planned.plan);
  }
  stats.initial_plan = plan->ToString(db_->catalog(), query);
  {
    TraceEvent event;
    event.kind = TraceEventKind::kPlan;
    event.plan_cost = plan->est_cost;
    event.num_estimates = cache_hit ? 0 : planned.num_estimates;
    event.decision = "initial";
    if (plan_cache_ != nullptr) {
      event.cache_decision = cache_hit ? "hit" : "miss";
      event.fss_hash = fingerprint.fss_hash;
    }
    event.wall_seconds = cache_hit
                             ? stats.plan_seconds
                             : planned.search_seconds + planned.inference_seconds;
    trace->AddEvent(std::move(event));
  }
  if (plan_cache_ != nullptr && !cache_hit) {
    // Publish right after planning so concurrent workers benefit before this
    // query even executes; the epoch guard drops the insert if statistics
    // were invalidated since the lookup.
    plan_cache_->Insert(fingerprint, lookup_epoch, *plan);
  }

  // The overlay pins executed subsets to their exact cardinalities; the
  // refinement model (when present) additionally adjusts the supersets.
  card::ObservedOverlay overlay(refiner != nullptr ? refiner : initial);

  std::unique_ptr<exec::Executor> executor =
      executor_factory_ ? executor_factory_(db_, &query)
                        : std::make_unique<exec::Executor>(db_, &query);
  exec::Executor::Options exec_opts;
  exec_opts.enable_checkpoints = config.enable_reopt;
  exec_opts.qerror_threshold = config.qerror_threshold;
  exec_opts.min_trip_rows = config.min_trip_rows;
  exec_opts.underestimates_only = config.underestimates_only;
  exec_opts.trace = trace;

  // Replay state: the leading rounds that matched `recorded` were replayed
  // and their observations buffered in `pending`; they reach the overlay
  // (after the deferred preparation) at the first round planned live, whose
  // output the refiner's state then equals. `live_rounds` are recorded
  // after the replayed prefix at query end.
  size_t replayed = 0;
  bool replaying = recorded != nullptr;
  opt::ReoptRound::Observations pending;
  std::vector<opt::ReoptRound> live_rounds;

  while (true) {
    LPCE_DCHECK(exec::ValidatePlan(*plan, query).ok());
    WallTimer exec_timer;
    exec::Executor::RunResult run = [&] {
      LPCE_PROFILE_SCOPE("T_E.execute");
      return executor->Run(plan.get(), exec_opts);
    }();
    stats.exec_seconds += exec_timer.ElapsedSeconds();
    stats.peak_intermediate_bytes = std::max(
        stats.peak_intermediate_bytes, executor->peak_intermediate_bytes());
    if (run.tripped == nullptr) {
      LPCE_CHECK(run.result != nullptr);
      stats.result_count = run.result->num_rows();
      break;
    }

    // ---- Re-optimization (paper Sec. 6.2). ------------------------------
    // Scope spans the rest of the loop body: observation reporting, unit
    // re-planning, optional restart, and trace bookkeeping.
    LPCE_PROFILE_SCOPE("T_R.reopt");
    WallTimer reopt_timer;
    ++stats.num_reopts;

    // Every finished operator, bottom-up (pseudo scans were already
    // observed in the round that materialized them).
    opt::ReoptRound::Observations observed;
    std::vector<exec::PlanNode*> nodes;
    exec::PostOrderPlan(plan.get(), &nodes);
    for (exec::PlanNode* node : nodes) {
      if (!node->executed || node->op == exec::PhysOp::kPseudoScan) continue;
      observed.emplace_back(node->rels, static_cast<double>(node->actual_card));
      TraceEvent event;
      event.kind = TraceEventKind::kRefinement;
      event.rels = node->rels;
      event.actual_card = static_cast<double>(node->actual_card);
      trace->AddEvent(std::move(event));
    }

    // Plan units: maximal executed subtrees become pseudo relations.
    std::vector<exec::PlanNode*> executed_roots;
    CollectMaximalExecuted(plan.get(), &executed_roots);
    std::vector<opt::PlanUnit> units;
    qry::RelSet covered = 0;
    for (exec::PlanNode* node : executed_roots) {
      opt::PlanUnit unit;
      unit.rels = node->rels;
      unit.materialized = run.finished.at(node);
      unit.known_card = static_cast<double>(node->actual_card);
      covered |= node->rels;
      units.push_back(std::move(unit));
    }
    for (int pos = 0; pos < query.num_tables(); ++pos) {
      if (qry::Contains(covered, pos)) continue;
      opt::PlanUnit unit;
      unit.rels = qry::Bit(pos);
      unit.table_pos = pos;
      units.push_back(std::move(unit));
    }

    const exec::PlanNode* tripped = run.tripped;
    const double tripped_est = tripped->est_card;
    const double tripped_actual = static_cast<double>(tripped->actual_card);
    const qry::RelSet tripped_rels = tripped->rels;
    const double before_cost = plan->est_cost;

    replaying = replaying && replayed < recorded->rounds.size() &&
                recorded->rounds[replayed].Matches(observed, units);
    size_t reopt_estimates = 0;
    bool restarted = false;
    if (replaying) {
      // Same query, same observations so far, same units: live re-planning
      // would choose the recorded plan, so bind it to this run's units.
      LPCE_PROFILE_SCOPE("T_R.replay");
      const opt::ReoptRound& round = recorded->rounds[replayed++];
      plan = round.Bind(units);
      reopt_estimates = round.num_estimates;
      restarted = round.restarted;
      pending.insert(pending.end(), observed.begin(), observed.end());
    } else {
      // Deferred estimator preparation (cache-hit path): re-planning needs
      // the overlay's estimator live, and observations must land on
      // prepared state exactly as they do in an uncached run. Only the
      // estimator the overlay wraps is read from here on, so only it is
      // prepared. Counted in T_R — it is re-optimization work the cache
      // could not avoid.
      if (!prepared) {
        LPCE_PROFILE_SCOPE("T_R.prepare");
        (refiner != nullptr ? refiner : initial)->PrepareQuery(query);
        prepared = true;
      }
      for (const auto& [rels, actual] : pending) {
        overlay.ObserveActual(query, rels, actual);
      }
      pending.clear();
      for (const auto& [rels, actual] : observed) {
        overlay.ObserveActual(query, rels, actual);
      }

      // Continue from the materialized progress...
      opt::PlanResult cont = planner_.PlanUnits(query, &overlay, units);
      reopt_estimates = cont.num_estimates;
      plan = std::move(cont.plan);
      // ...or restart from scratch if that now looks cheaper (Sec. 6.2).
      // The restart search is bounded by the continue plan's cost: it
      // returns a plan only when one costs less, and then the unbounded
      // search's plan.
      if (config.consider_restart) {
        opt::PlanResult restart =
            planner_.Plan(query, &overlay, plan->est_cost);
        reopt_estimates += restart.num_estimates;
        if (restart.plan != nullptr) {
          plan = std::move(restart.plan);
          restarted = true;
        }
      }
      if (plan_cache_ != nullptr) {
        opt::ReoptRound round;
        round.observations = std::move(observed);
        round.SetUnits(units);
        round.plan = opt::PlanSkeleton(*plan);
        round.num_estimates = reopt_estimates;
        round.restarted = restarted;
        live_rounds.push_back(std::move(round));
      }
    }
    stats.num_estimates += reopt_estimates;
    stats.reopt_seconds += reopt_timer.ElapsedSeconds();
    {
      TraceEvent event;
      event.kind = TraceEventKind::kReoptimization;
      event.rels = tripped_rels;
      event.qerror = exec::QError(tripped_est, tripped_actual);
      event.threshold = config.qerror_threshold;
      event.before_cost = before_cost;
      event.plan_cost = plan->est_cost;
      event.num_estimates = reopt_estimates;
      event.decision = restarted ? "restart" : "continue";
      if (replaying) event.cache_decision = "replay";
      event.wall_seconds = reopt_timer.ElapsedSeconds();
      trace->AddEvent(std::move(event));
    }
    trace->BeginRound();

    // Re-optimization budget exhausted: run the rest without checkpoints.
    if (stats.num_reopts >= config.max_reopts) {
      exec_opts.enable_checkpoints = false;
    }
  }

  if (!live_rounds.empty()) {
    // The entry keeps this run's rounds: the replayed prefix, then the
    // rounds planned live from the first difference on.
    auto chain = std::make_shared<opt::ReoptChain>();
    chain->query = query;
    chain->consider_restart = config.consider_restart;
    chain->rounds.reserve(replayed + live_rounds.size());
    if (replayed > 0) {
      chain->rounds.assign(recorded->rounds.begin(),
                           recorded->rounds.begin() + replayed);
    }
    std::move(live_rounds.begin(), live_rounds.end(),
              std::back_inserter(chain->rounds));
    plan_cache_->RecordRounds(fingerprint, lookup_epoch, std::move(chain));
  }

  stats.final_plan = plan->ToString(db_->catalog(), query);
  trace->SetResultRows(stats.result_count);
  {
    static common::Counter* queries_total =
        common::MetricsRegistry::Global().counter("engine.queries_total");
    static common::Counter* reopts_total =
        common::MetricsRegistry::Global().counter("engine.reopts_total");
    static common::Histogram* query_seconds =
        common::MetricsRegistry::Global().histogram("engine.query_seconds");
    // Byte-scale buckets (powers of four from 1 KiB to 1 GiB) — the default
    // latency bounds would put every query in the overflow bucket.
    static common::Histogram* peak_bytes_hist =
        common::MetricsRegistry::Global().histogram(
            "lpce.exec.peak_intermediate_bytes",
            {1024.0, 4096.0, 16384.0, 65536.0, 262144.0, 1048576.0, 4194304.0,
             16777216.0, 67108864.0, 268435456.0, 1073741824.0});
    queries_total->Increment();
    reopts_total->Increment(static_cast<uint64_t>(stats.num_reopts));
    query_seconds->Observe(total_timer.ElapsedSeconds());
    peak_bytes_hist->Observe(
        static_cast<double>(stats.peak_intermediate_bytes));
  }
  if (telemetry_on) {
    auto to_ns = [](double seconds) {
      return seconds <= 0.0 ? uint64_t{0}
                            : static_cast<uint64_t>(seconds * 1e9);
    };
    common::TelemetryRecord record;
    record.fss_hash = fingerprint.fss_hash;
    record.plan_ns = to_ns(stats.plan_seconds);
    record.infer_ns = to_ns(stats.inference_seconds);
    record.reopt_ns = to_ns(stats.reopt_seconds);
    record.exec_ns = to_ns(stats.exec_seconds);
    record.result_rows = stats.result_count;
    record.peak_bytes = stats.peak_intermediate_bytes;
    record.num_reopts = static_cast<uint32_t>(stats.num_reopts);
    record.cache_hit = cache_hit ? 1 : 0;
    for (const auto& e : trace->events()) {
      if (e.kind != TraceEventKind::kCheckpoint) continue;
      const float qerror = static_cast<float>(e.qerror);
      if (record.num_qerrors < common::TelemetryRecord::kMaxQErrors) {
        record.qerrors[record.num_qerrors] = qerror;
      }
      ++record.num_qerrors;
      if (qerror > record.max_qerror) record.max_qerror = qerror;
    }
    auto& hub = common::TelemetryHub::Global();
    hub.Publish(record);
    // The trace-visible summary. Appended after every deterministic event
    // (and only serialized in kFull mode), so deterministic trace bytes are
    // identical with telemetry on or off.
    const auto flag = hub.drift_flag(record.fss_hash);
    TraceEvent event;
    event.kind = TraceEventKind::kTelemetry;
    event.fss_hash = record.fss_hash;
    event.qerror = static_cast<double>(record.max_qerror);
    event.num_estimates = record.num_qerrors;
    if (plan_cache_ != nullptr) {
      event.cache_decision = cache_hit ? "hit" : "miss";
    }
    event.drifted = flag.drifted;
    event.drift_ratio = flag.ratio;
    trace->AddEvent(std::move(event));
  }
  if (feedback_store_ != nullptr) {
    // Knowledge-store harvest (ROADMAP item 1): every executed operator's
    // exact cardinality, deduplicated by relation subset. Spans from later
    // re-optimization rounds re-cover subsets already executed (pseudo scans
    // replay prior materializations and are skipped, like ObserveActual
    // above); the first span of a subset wins — they agree by construction.
    if (!fingerprint.valid()) {
      fingerprint = opt::PlanCache::Fingerprint(query, *initial);
    }
    fb::FeedbackQuery record;
    record.fss_hash = fingerprint.fss_hash;
    record.query = query;
    std::map<qry::RelSet, uint64_t> actuals;
    for (const TraceSpan& span : trace->spans()) {
      if (span.op == "PseudoScan") continue;
      actuals.emplace(span.rels, span.actual_card);
    }
    actuals.emplace(query.AllRels(), stats.result_count);
    record.actuals.assign(actuals.begin(), actuals.end());
    feedback_store_->Append(record);
  }
  MaybeDumpTrace(*trace);
  return stats;
}

}  // namespace lpce::eng
