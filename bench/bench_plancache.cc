// Plan-cache bench: the template-heavy serving regime the cache targets
// (ROADMAP item 2). A Zipf-skewed workload over a small template pool runs
// three ways — cache off (cold), cache on serially (hit/miss decomposition),
// and cache on through a warmed concurrent EngineServer — and reports the
// T_P + T_I (planning + initial inference) collapse on hits, the share of
// re-optimization rounds replayed from the cache and their cost against
// live rounds (µs per round), exact hit/miss accounting, QPS, and row-count
// verification against the workload labels. Every serial cache-on run must
// equal its cache-off run in result, plans and every deterministic trace
// field but the cache's own marks (exit 1 otherwise).
//
// Self-contained like bench_serving: builds its own synthetic database, runs
// in seconds.
//
// Flags:
//   --templates=N         distinct query templates in the pool (default 20)
//   --queries=N           Zipf-skewed workload size (default 400)
//   --skew=F              Zipf exponent (default 1.0; 0 = uniform)
//   --scale=F             synthetic database scale (default 0.05)
//   --workers=N           worker threads for the concurrent phase (default 4)
//   --cap=N               plan cache capacity (default 64)
//   --reopt=0|1           run with re-optimization on (default 1), at a
//                         q-error threshold of 2 so that rounds trip
//   --min_speedup=F       fail (exit 1) if hit-path T_P+T_I speedup over the
//                         cold path is below this (default 5; 0 disables)
//   --metrics_json=PATH   append one summary JSON line (timings, counters,
//                         lpce.plancache.* delta)
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench_world.h"
#include "card/histogram_estimator.h"
#include "common/metrics.h"
#include "common/timer.h"
#include "engine/engine.h"
#include "engine/server.h"
#include "engine/trace.h"
#include "storage/database.h"
#include "workload/workload.h"

namespace lpce::bench {
namespace {

std::string StripPlanTimes(const std::string& plan) {
  std::string out;
  size_t pos = 0;
  while (pos < plan.size()) {
    const size_t hit = plan.find(" time=", pos);
    if (hit == std::string::npos) {
      out.append(plan, pos, plan.size() - pos);
      break;
    }
    out.append(plan, pos, hit - pos);
    pos = plan.find_first_of(" \n", hit + 1);
    if (pos == std::string::npos) break;
  }
  return out;
}

/// True when the cache-on run `on` equals the cache-off run `off` in
/// everything but the cache's own bookkeeping: the kPlan event's estimate
/// count (0 on a hit) and the cache/fss/replay marks.
bool SameModuloCache(const eng::RunStats& off, const eng::RunStats& on) {
  const auto& off_events = off.trace->events();
  const auto& on_events = on.trace->events();
  const auto& off_spans = off.trace->spans();
  const auto& on_spans = on.trace->spans();
  if (on.result_count != off.result_count ||
      on.num_reopts != off.num_reopts ||
      on.num_estimates - on_events.front().num_estimates !=
          off.num_estimates - off_events.front().num_estimates ||
      StripPlanTimes(on.initial_plan) != StripPlanTimes(off.initial_plan) ||
      StripPlanTimes(on.final_plan) != StripPlanTimes(off.final_plan) ||
      on_spans.size() != off_spans.size() ||
      on_events.size() != off_events.size()) {
    return false;
  }
  for (size_t i = 0; i < off_spans.size(); ++i) {
    const eng::TraceSpan& a = off_spans[i];
    const eng::TraceSpan& b = on_spans[i];
    if (a.id != b.id || a.round != b.round || a.seq != b.seq ||
        a.op != b.op || a.rels != b.rels || a.est_card != b.est_card ||
        a.actual_card != b.actual_card || a.qerror != b.qerror ||
        a.outer_span != b.outer_span || a.inner_span != b.inner_span ||
        a.outer_rows != b.outer_rows || a.inner_rows != b.inner_rows) {
      return false;
    }
  }
  for (size_t i = 0; i < off_events.size(); ++i) {
    const eng::TraceEvent& a = off_events[i];
    const eng::TraceEvent& b = on_events[i];
    if (a.kind != b.kind || a.round != b.round || a.seq != b.seq ||
        a.rels != b.rels || a.est_card != b.est_card ||
        a.actual_card != b.actual_card || a.qerror != b.qerror ||
        a.threshold != b.threshold || a.policy_allows != b.policy_allows ||
        a.tripped != b.tripped || a.plan_cost != b.plan_cost ||
        a.before_cost != b.before_cost || a.decision != b.decision ||
        (a.kind != eng::TraceEventKind::kPlan &&
         a.num_estimates != b.num_estimates)) {
      return false;
    }
  }
  return true;
}

/// Re-optimization rounds of a run and their wall time, split by whether
/// the round was replayed from the plan cache.
struct RoundTally {
  uint64_t live = 0;
  uint64_t replayed = 0;
  double live_seconds = 0.0;
  double replayed_seconds = 0.0;

  void Add(const eng::QueryTrace& trace) {
    for (const eng::TraceEvent& e : trace.events()) {
      if (e.kind != eng::TraceEventKind::kReoptimization) continue;
      if (e.cache_decision == "replay") {
        ++replayed;
        replayed_seconds += e.wall_seconds;
      } else {
        ++live;
        live_seconds += e.wall_seconds;
      }
    }
  }
};

struct Flags {
  int templates = 20;
  int queries = 400;
  double skew = 1.0;
  double scale = 0.05;
  int workers = 4;
  int cap = 64;
  bool reopt = true;
  double min_speedup = 5.0;
  std::string metrics_json;
};

Flags ParseFlags(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&](const char* prefix) -> const char* {
      const size_t len = std::strlen(prefix);
      return arg.rfind(prefix, 0) == 0 ? arg.c_str() + len : nullptr;
    };
    if (const char* v = value_of("--templates=")) {
      flags.templates = std::atoi(v);
    } else if (const char* v = value_of("--queries=")) {
      flags.queries = std::atoi(v);
    } else if (const char* v = value_of("--skew=")) {
      flags.skew = std::atof(v);
    } else if (const char* v = value_of("--scale=")) {
      flags.scale = std::atof(v);
    } else if (const char* v = value_of("--workers=")) {
      flags.workers = std::atoi(v);
    } else if (const char* v = value_of("--cap=")) {
      flags.cap = std::atoi(v);
    } else if (const char* v = value_of("--reopt=")) {
      flags.reopt = std::atoi(v) != 0;
    } else if (const char* v = value_of("--min_speedup=")) {
      flags.min_speedup = std::atof(v);
    } else if (const char* v = value_of("--metrics_json=")) {
      flags.metrics_json = v;
    } else {
      std::fprintf(
          stderr,
          "unknown flag %s\nusage: %s [--templates=N] [--queries=N] "
          "[--skew=F] [--scale=F] [--workers=N] [--cap=N] [--reopt=0|1] "
          "[--min_speedup=F] [--metrics_json=PATH]\n",
          arg.c_str(), argv[0]);
      std::exit(2);
    }
  }
  if (flags.templates <= 0 || flags.queries <= 0 || flags.cap <= 0 ||
      flags.workers <= 0) {
    std::fprintf(stderr, "need positive --templates/--queries/--cap/--workers\n");
    std::exit(2);
  }
  return flags;
}

int Run(int argc, char** argv) {
  const Flags flags = ParseFlags(argc, argv);

  db::SynthImdbOptions opts;
  opts.scale = flags.scale;
  auto database = db::BuildSynthImdb(opts);
  stats::DatabaseStats stats;
  stats.Build(*database);
  wk::GeneratorOptions gen;
  gen.seed = 1106;
  wk::QueryGenerator generator(database.get(), gen);
  const auto pool = generator.GenerateLabeled(flags.templates, 2, 5);

  // Zipf(skew) draw sequence over the template pool.
  std::vector<int> sequence;
  {
    std::mt19937 rng(2718);
    std::vector<double> weights;
    for (int i = 0; i < flags.templates; ++i) {
      weights.push_back(1.0 / std::pow(static_cast<double>(i + 1), flags.skew));
    }
    std::discrete_distribution<int> dist(weights.begin(), weights.end());
    for (int i = 0; i < flags.queries; ++i) sequence.push_back(dist(rng));
  }

  eng::RunConfig config;
  config.enable_reopt = flags.reopt;
  config.qerror_threshold = 2.0;

  uint64_t mismatches = 0;

  // Phase 1 — cold: cache off, the price every query pays today.
  double cold_tp_ti = 0.0;
  std::vector<eng::RunStats> cold_runs;
  RoundTally cold_rounds;
  {
    card::HistogramEstimator estimator(&stats);
    eng::Engine engine(database.get(), opt::CostModel{});
    for (int idx : sequence) {
      eng::RunStats run =
          engine.RunQuery(pool[idx].query, &estimator, nullptr, config);
      cold_tp_ti += run.plan_seconds + run.inference_seconds;
      if (run.result_count != pool[idx].FinalCard()) ++mismatches;
      cold_rounds.Add(*run.trace);
      cold_runs.push_back(std::move(run));
    }
  }
  const double cold_us = cold_tp_ti / sequence.size() * 1e6;

  // Phase 2 — cache on, serial: decompose T_P + T_I by hit/miss.
  double hit_tp_ti = 0.0, miss_tp_ti = 0.0;
  uint64_t serial_hits = 0, serial_misses = 0;
  uint64_t differing = 0;
  RoundTally serial_rounds;
  {
    opt::PlanCache cache(static_cast<size_t>(flags.cap));
    card::HistogramEstimator estimator(&stats);
    eng::Engine engine(database.get(), opt::CostModel{});
    engine.set_plan_cache(&cache);
    for (size_t q = 0; q < sequence.size(); ++q) {
      const int idx = sequence[q];
      const eng::RunStats run =
          engine.RunQuery(pool[idx].query, &estimator, nullptr, config);
      if (run.result_count != pool[idx].FinalCard()) ++mismatches;
      if (!SameModuloCache(cold_runs[q], run)) ++differing;
      serial_rounds.Add(*run.trace);
      const double tp_ti = run.plan_seconds + run.inference_seconds;
      const std::string& decision = run.trace->events().front().cache_decision;
      if (decision == "hit") {
        hit_tp_ti += tp_ti;
        ++serial_hits;
      } else {
        miss_tp_ti += tp_ti;
        ++serial_misses;
      }
    }
  }
  const double hit_us = serial_hits > 0 ? hit_tp_ti / serial_hits * 1e6 : 0.0;
  const double miss_us =
      serial_misses > 0 ? miss_tp_ti / serial_misses * 1e6 : 0.0;
  const double speedup = hit_us > 0.0 ? cold_us / hit_us : 0.0;
  const uint64_t serial_round_count =
      serial_rounds.live + serial_rounds.replayed;
  const double replay_share =
      serial_round_count > 0
          ? static_cast<double>(serial_rounds.replayed) / serial_round_count
          : 0.0;
  const double live_round_us =
      cold_rounds.live > 0 ? cold_rounds.live_seconds / cold_rounds.live * 1e6
                           : 0.0;
  const double replayed_round_us =
      serial_rounds.replayed > 0
          ? serial_rounds.replayed_seconds / serial_rounds.replayed * 1e6
          : 0.0;

  // Phase 3 — concurrent: a warmed server must serve the whole workload as
  // exact hits regardless of worker interleaving.
  const common::MetricsSnapshot before =
      common::MetricsRegistry::Global().Snapshot();
  double concurrent_wall = 0.0;
  uint64_t concurrent_hits = 0, concurrent_misses = 0;
  {
    eng::ServerOptions options;
    options.num_workers = flags.workers;
    options.max_queue = sequence.size() + pool.size();
    options.run_config = config;
    options.plan_cache_capacity = static_cast<size_t>(flags.cap);
    eng::EngineServer server(
        database.get(), opt::CostModel{},
        [&stats](int worker_id) {
          (void)worker_id;
          eng::EngineServer::Session session;
          session.initial = std::make_unique<card::HistogramEstimator>(&stats);
          return session;
        },
        options);
    for (const auto& labeled : pool) {
      Result<eng::RunStats> warm = server.RunSync(labeled.query);
      if (!warm.ok() || warm.value().result_count != labeled.FinalCard()) {
        ++mismatches;
      }
    }
    const uint64_t warm_misses = server.plan_cache()->counters().misses;

    std::atomic<size_t> next{0};
    std::atomic<uint64_t> client_mismatches{0};
    WallTimer wall;
    std::vector<std::thread> clients;
    const int num_clients = std::max(4, 2 * flags.workers);
    for (int c = 0; c < num_clients; ++c) {
      clients.emplace_back([&] {
        for (;;) {
          const size_t pick = next.fetch_add(1);
          if (pick >= sequence.size()) return;
          const auto& labeled = pool[static_cast<size_t>(sequence[pick])];
          Result<eng::RunStats> run = server.RunSync(labeled.query);
          if (!run.ok() || run.value().result_count != labeled.FinalCard()) {
            client_mismatches.fetch_add(1);
          }
        }
      });
    }
    for (auto& t : clients) t.join();
    concurrent_wall = wall.ElapsedSeconds();
    mismatches += client_mismatches.load();

    const auto counters = server.plan_cache()->counters();
    concurrent_hits = counters.hits;
    concurrent_misses = counters.misses;
    // Exactness: warmup missed once per template, the workload is all hits.
    if (counters.misses != warm_misses ||
        counters.hits != sequence.size()) {
      std::printf("!! inexact hit/miss accounting: hits=%llu misses=%llu "
                  "(expected hits=%zu misses=%llu)\n",
                  static_cast<unsigned long long>(counters.hits),
                  static_cast<unsigned long long>(counters.misses),
                  sequence.size(),
                  static_cast<unsigned long long>(warm_misses));
      ++mismatches;
    }
  }
  const double qps =
      concurrent_wall > 0.0 ? sequence.size() / concurrent_wall : 0.0;

  std::printf("plan cache bench: %d templates, %d queries, Zipf(%.2f), "
              "cap %d\n",
              flags.templates, flags.queries, flags.skew, flags.cap);
  std::printf("%-28s %12s\n", "", "T_P+T_I/query");
  std::printf("%-28s %10.1fus\n", "cache off (cold)", cold_us);
  std::printf("%-28s %10.1fus  (%llu queries)\n", "cache on, miss", miss_us,
              static_cast<unsigned long long>(serial_misses));
  std::printf("%-28s %10.1fus  (%llu queries)\n", "cache on, hit", hit_us,
              static_cast<unsigned long long>(serial_hits));
  std::printf("hit-path speedup vs cold: %.1fx\n", speedup);
  std::printf("re-opt rounds (cache on): %llu, replayed %llu (%.1f%%); "
              "%.1fus per live round (cache off), %.1fus per replayed round\n",
              static_cast<unsigned long long>(serial_round_count),
              static_cast<unsigned long long>(serial_rounds.replayed),
              replay_share * 100.0, live_round_us, replayed_round_us);
  std::printf("concurrent (%d workers): %.1f qps, hits=%llu misses=%llu\n",
              flags.workers, qps,
              static_cast<unsigned long long>(concurrent_hits),
              static_cast<unsigned long long>(concurrent_misses));

  bool ok = true;
  if (mismatches > 0) {
    ok = false;
    std::printf("!! %llu result mismatches\n",
                static_cast<unsigned long long>(mismatches));
  }
  if (differing > 0) {
    ok = false;
    std::printf("!! %llu cache-on runs differ from cache off in a plan or "
                "trace field\n",
                static_cast<unsigned long long>(differing));
  }
  if (flags.min_speedup > 0.0 && speedup < flags.min_speedup) {
    ok = false;
    std::printf("!! hit-path speedup %.1fx below required %.1fx\n", speedup,
                flags.min_speedup);
  }

  if (!flags.metrics_json.empty()) {
    std::ofstream metrics_out(flags.metrics_json, std::ios::app);
    const common::MetricsSnapshot delta =
        common::Delta(before, common::MetricsRegistry::Global().Snapshot());
    char line[896];
    std::snprintf(
        line, sizeof(line),
        "{\"bench\":\"plancache\",\"templates\":%d,\"queries\":%d,"
        "\"skew\":%.2f,\"workers\":%d,\"cap\":%d,\"cold_tp_ti_us\":%.3f,"
        "\"miss_tp_ti_us\":%.3f,\"hit_tp_ti_us\":%.3f,\"hit_speedup\":%.3f,"
        "\"serial_hits\":%llu,\"serial_misses\":%llu,"
        "\"concurrent_hits\":%llu,\"concurrent_misses\":%llu,"
        "\"concurrent_qps\":%.3f,\"mismatches\":%llu,"
        "\"reopt_rounds\":%llu,\"replayed_rounds\":%llu,"
        "\"replay_share\":%.4f,\"live_round_us\":%.3f,"
        "\"replayed_round_us\":%.3f,\"differing\":%llu,\"delta\":",
        flags.templates, flags.queries, flags.skew, flags.workers, flags.cap,
        cold_us, miss_us, hit_us, speedup,
        static_cast<unsigned long long>(serial_hits),
        static_cast<unsigned long long>(serial_misses),
        static_cast<unsigned long long>(concurrent_hits),
        static_cast<unsigned long long>(concurrent_misses), qps,
        static_cast<unsigned long long>(mismatches),
        static_cast<unsigned long long>(serial_round_count),
        static_cast<unsigned long long>(serial_rounds.replayed), replay_share,
        live_round_us, replayed_round_us,
        static_cast<unsigned long long>(differing));
    metrics_out << line << delta.ToJson() << "}\n";
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace lpce::bench

int main(int argc, char** argv) { return lpce::bench::Run(argc, argv); }
