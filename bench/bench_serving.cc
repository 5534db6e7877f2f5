// Serving-throughput bench: closed-loop clients driving the EngineServer
// (engine/server.h) at a sweep of worker counts. Reports QPS and p50/p95/p99
// end-to-end latency per worker count plus the speedup over 1 worker, and
// verifies every served row count against the workload labels.
//
// Latency percentiles come from the shared log-bucket histogram
// (common/telemetry.h LogHistogram) — bounded memory no matter how long the
// closed loop runs; --check_percentiles=1 additionally stores raw samples
// and prints the exact sort-based percentiles next to the histogram ones
// (the agreement record in EXPERIMENTS.md). With telemetry on, per-phase
// (T_P/T_I/T_R/T_E) p50s sourced from the telemetry windows are appended to
// each row.
//
// Self-contained like bench_parallel_scaling: builds its own synthetic
// database (no GetWorld / no training), so it runs in seconds.
//
// Flags:
//   --workers=1,2,4       worker counts to sweep
//   --clients=N           closed-loop clients (0 = 2x workers, min 4)
//   --queries=N           workload size (default 300)
//   --scale=F             synthetic database scale (default 0.2)
//   --reopt=0|1           run queries with re-optimization on (default 1)
//   --telemetry=-1|0|1    -1 = follow LPCE_TELEMETRY (default), 0/1 = force
//   --check_percentiles=1 also compute exact sort-based percentiles
//   --overhead_gate=PCT   run the first worker count telemetry-off vs -on
//                         (best of --gate_repeats each) and exit 1 when the
//                         QPS overhead exceeds PCT percent
//   --gate_repeats=N      off/on pairs of the overhead gate (default 5)
//   --trace_json=PATH     append every query's full trace JSON line to PATH
//   --metrics_json=PATH   append one summary JSON line per worker count
//                         (QPS, latency percentiles, lpce.serve.* delta)
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_world.h"
#include "card/histogram_estimator.h"
#include "common/metrics.h"
#include "common/telemetry.h"
#include "common/timer.h"
#include "engine/server.h"
#include "engine/trace.h"
#include "storage/database.h"
#include "workload/workload.h"

namespace lpce::bench {
namespace {

struct Flags {
  std::vector<int> workers = {1, 2, 4};
  int clients = 0;  // 0 = max(4, 2 * workers)
  int queries = 300;
  double scale = 0.2;
  bool reopt = true;
  int telemetry = -1;  // -1 = follow env
  bool check_percentiles = false;
  double overhead_gate = 0.0;  // percent; 0 = no gate
  int gate_repeats = 5;
  std::string trace_json;
  std::string metrics_json;
};

std::vector<int> ParseIntList(const std::string& csv) {
  std::vector<int> out;
  size_t pos = 0;
  while (pos < csv.size()) {
    const size_t comma = csv.find(',', pos);
    const std::string item = csv.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    const int value = std::atoi(item.c_str());
    if (value > 0) out.push_back(value);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

Flags ParseFlags(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&](const char* prefix) -> const char* {
      const size_t len = std::strlen(prefix);
      return arg.rfind(prefix, 0) == 0 ? arg.c_str() + len : nullptr;
    };
    if (const char* v = value_of("--workers=")) {
      flags.workers = ParseIntList(v);
    } else if (const char* v = value_of("--clients=")) {
      flags.clients = std::atoi(v);
    } else if (const char* v = value_of("--queries=")) {
      flags.queries = std::atoi(v);
    } else if (const char* v = value_of("--scale=")) {
      flags.scale = std::atof(v);
    } else if (const char* v = value_of("--reopt=")) {
      flags.reopt = std::atoi(v) != 0;
    } else if (const char* v = value_of("--telemetry=")) {
      flags.telemetry = std::atoi(v);
    } else if (const char* v = value_of("--check_percentiles=")) {
      flags.check_percentiles = std::atoi(v) != 0;
    } else if (const char* v = value_of("--overhead_gate=")) {
      flags.overhead_gate = std::atof(v);
    } else if (const char* v = value_of("--gate_repeats=")) {
      flags.gate_repeats = std::max(1, std::atoi(v));
    } else if (const char* v = value_of("--trace_json=")) {
      flags.trace_json = v;
    } else if (const char* v = value_of("--metrics_json=")) {
      flags.metrics_json = v;
    } else {
      std::fprintf(stderr,
                   "unknown flag %s\nusage: %s [--workers=1,2,4] "
                   "[--clients=N] [--queries=N] [--scale=F] [--reopt=0|1] "
                   "[--telemetry=-1|0|1] [--check_percentiles=1] "
                   "[--overhead_gate=PCT] [--gate_repeats=N] "
                   "[--trace_json=PATH] [--metrics_json=PATH]\n",
                   arg.c_str(), argv[0]);
      std::exit(2);
    }
  }
  if (flags.workers.empty() || flags.queries <= 0) {
    std::fprintf(stderr, "need at least one worker count and one query\n");
    std::exit(2);
  }
  return flags;
}

struct SweepResult {
  int workers = 0;
  int clients = 0;
  double wall_seconds = 0.0;
  double qps = 0.0;
  double p50_ms = 0.0, p95_ms = 0.0, p99_ms = 0.0;
  // Exact sort-based percentiles (--check_percentiles=1 only).
  double exact_p50_ms = 0.0, exact_p95_ms = 0.0, exact_p99_ms = 0.0;
  // Per-phase p50 from the telemetry windows (telemetry on only), ms.
  bool has_phases = false;
  double phase_p50_ms[4] = {0, 0, 0, 0};
  // p50 peak intermediate bytes per query from the telemetry windows.
  uint64_t peak_bytes_p50 = 0;
  uint64_t telemetry_published = 0;
  uint64_t telemetry_dropped = 0;
  uint64_t mismatches = 0;
};

/// Histogram quantile in milliseconds; observations are microseconds.
double HistPctMs(const common::LogHistogram& hist, double q) {
  return static_cast<double>(hist.ValueAtQuantile(q)) / 1e3;
}

/// One closed-loop run: `clients` threads each submit a query, wait for its
/// result, then claim the next one, until the workload is drained.
/// `reset_hub=false` keeps the telemetry hub's template windows across runs
/// (the overhead gate measures steady state, not template cold-start).
SweepResult RunSweep(const db::Database& database,
                     const stats::DatabaseStats& stats,
                     const std::vector<wk::LabeledQuery>& workload, int workers,
                     const Flags& flags, std::ofstream* trace_out,
                     bool reset_hub = true) {
  SweepResult result;
  result.workers = workers;
  result.clients =
      flags.clients > 0 ? flags.clients : std::max(4, 2 * workers);

  const bool telemetry_on = common::TelemetryEnabled();
  if (telemetry_on && reset_hub) {
    // Fresh windows per sweep so each row's phase columns cover exactly its
    // own queries.
    common::TelemetryHub::Global().Configure(common::TelemetryOptions::FromEnv());
  }

  eng::ServerOptions options;
  options.num_workers = workers;
  options.max_queue = workload.size();
  options.run_config.enable_reopt = flags.reopt;
  eng::EngineServer server(
      &database, opt::CostModel{},
      [&stats](int worker_id) {
        (void)worker_id;
        eng::EngineServer::Session session;
        session.initial = std::make_unique<card::HistogramEstimator>(&stats);
        return session;
      },
      options);

  std::atomic<size_t> next{0};
  std::atomic<uint64_t> mismatches{0};
  // Per-client histograms (LogHistogram is not thread-safe), merged after
  // the join — memory stays bounded however long the loop runs.
  std::vector<common::LogHistogram> latencies(
      static_cast<size_t>(result.clients));
  std::vector<std::vector<double>> samples(
      flags.check_percentiles ? static_cast<size_t>(result.clients) : 0);
  std::mutex trace_mu;
  WallTimer wall;
  std::vector<std::thread> clients;
  for (int c = 0; c < result.clients; ++c) {
    clients.emplace_back([&, c] {
      for (;;) {
        const size_t pick = next.fetch_add(1);
        if (pick >= workload.size()) return;
        WallTimer latency;
        Result<eng::RunStats> run = server.RunSync(workload[pick].query);
        if (!run.ok() ||
            run.value().result_count != workload[pick].FinalCard()) {
          mismatches.fetch_add(1);
          continue;
        }
        const double seconds = latency.ElapsedSeconds();
        latencies[static_cast<size_t>(c)].Observe(
            seconds <= 0.0 ? 0 : static_cast<uint64_t>(seconds * 1e6));
        if (flags.check_percentiles) {
          samples[static_cast<size_t>(c)].push_back(seconds * 1e3);
        }
        if (trace_out != nullptr && trace_out->is_open()) {
          const std::string line =
              run.value().trace->ToJson(eng::TraceJsonMode::kFull);
          std::lock_guard<std::mutex> lock(trace_mu);
          *trace_out << line << "\n";
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  result.wall_seconds = wall.ElapsedSeconds();
  server.Shutdown();

  common::LogHistogram all;
  for (const auto& per_client : latencies) all.Merge(per_client);
  result.mismatches = mismatches.load();
  if (all.count() > 0) {
    result.qps = static_cast<double>(all.count()) / result.wall_seconds;
    result.p50_ms = HistPctMs(all, 0.50);
    result.p95_ms = HistPctMs(all, 0.95);
    result.p99_ms = HistPctMs(all, 0.99);
  }
  if (flags.check_percentiles) {
    std::vector<double> flat;
    for (const auto& per_client : samples) {
      flat.insert(flat.end(), per_client.begin(), per_client.end());
    }
    if (!flat.empty()) {
      result.exact_p50_ms = Percentile(flat, 50.0);
      result.exact_p95_ms = Percentile(flat, 95.0);
      result.exact_p99_ms = Percentile(flat, 99.0);
    }
  }

  if (telemetry_on) {
    auto& hub = common::TelemetryHub::Global();
    hub.DrainNow();
    const common::TelemetrySnapshot snapshot = hub.Snapshot();
    common::WindowStats merged;
    for (const auto& t : snapshot.templates) {
      for (int phase = 0; phase < 4; ++phase) {
        merged.phases[phase].Merge(t.lifetime.phases[phase]);
      }
      merged.peak_bytes.Merge(t.lifetime.peak_bytes);
    }
    result.has_phases = merged.phases[0].count() > 0;
    for (int phase = 0; phase < 4; ++phase) {
      result.phase_p50_ms[phase] =
          static_cast<double>(merged.phases[phase].ValueAtQuantile(0.50)) / 1e6;
    }
    result.peak_bytes_p50 = merged.peak_bytes.ValueAtQuantile(0.50);
    result.telemetry_published = snapshot.published;
    result.telemetry_dropped = snapshot.dropped;
  }
  return result;
}

int Run(int argc, char** argv) {
  const Flags flags = ParseFlags(argc, argv);
  if (flags.telemetry >= 0) {
    common::SetTelemetryEnabled(flags.telemetry != 0);
  }

  db::SynthImdbOptions opts;
  opts.scale = flags.scale;
  auto database = db::BuildSynthImdb(opts);
  stats::DatabaseStats stats;
  stats.Build(*database);
  wk::GeneratorOptions gen;
  gen.seed = 404;
  wk::QueryGenerator generator(database.get(), gen);
  const auto workload = generator.GenerateLabeled(flags.queries, 2, 5);

  std::ofstream trace_out;
  if (!flags.trace_json.empty()) {
    trace_out.open(flags.trace_json, std::ios::app);
  }
  std::ofstream metrics_out;
  if (!flags.metrics_json.empty()) {
    metrics_out.open(flags.metrics_json, std::ios::app);
  }

  // ---- Telemetry overhead gate (CI perf-smoke) ----------------------------
  // The gate must trip on real per-query publish cost, not scheduler
  // jitter. Paired design: each repeat measures off and on back to back so
  // slow drift in machine load cancels within the pair, and the median of
  // the per-pair ratios sheds the occasional repeat that landed on a bad
  // patch of a shared runner (an unpaired best-of-N was still ~5% noisy on
  // CI-class machines). Steady state: the hub keeps its template windows
  // across repeats, so template cold-start is paid once in the warm-up.
  if (flags.overhead_gate > 0.0) {
    const int workers = flags.workers.front();
    common::TelemetryHub::Global().Configure(
        common::TelemetryOptions::FromEnv());
    auto one_qps = [&](bool telemetry) {
      common::SetTelemetryEnabled(telemetry);
      return RunSweep(*database, stats, workload, workers, flags, nullptr,
                      /*reset_hub=*/false)
          .qps;
    };
    one_qps(false);  // warm-up: page in the tables and the code
    one_qps(true);   // warm-up: populate the telemetry template windows
    std::vector<double> ratios;  // on/off per pair
    double off_qps = 0.0, on_qps = 0.0;
    for (int r = 0; r < flags.gate_repeats; ++r) {
      const double off = one_qps(false);
      const double on = one_qps(true);
      if (off > 0.0) ratios.push_back(on / off);
      off_qps = std::max(off_qps, off);
      on_qps = std::max(on_qps, on);
    }
    std::sort(ratios.begin(), ratios.end());
    const double median_ratio =
        ratios.empty() ? 1.0 : ratios[ratios.size() / 2];
    const double overhead_pct = (1.0 - median_ratio) * 100.0;
    std::printf(
        "overhead gate: workers=%d best_off_qps=%.1f best_on_qps=%.1f "
        "median_pair_overhead=%.2f%% (limit %.2f%%)\n",
        workers, off_qps, on_qps, overhead_pct, flags.overhead_gate);
    if (overhead_pct > flags.overhead_gate) {
      std::printf("!! telemetry overhead above gate\n");
      return 1;
    }
    return 0;
  }

  const bool telemetry_cols =
      flags.telemetry > 0 ||
      (flags.telemetry < 0 && common::TelemetryEnabled());
  std::printf("%8s %8s %10s %10s %10s %10s %10s %9s", "workers", "clients",
              "wall(s)", "qps", "p50(ms)", "p95(ms)", "p99(ms)", "speedup");
  if (telemetry_cols) {
    std::printf(" %9s %9s %9s %9s %10s %6s", "plan50", "infer50", "reopt50",
                "exec50", "peakB50", "drops");
  }
  std::printf("\n");
  bool ok = true;
  double base_qps = 0.0;
  for (int workers : flags.workers) {
    const common::MetricsSnapshot before =
        common::MetricsRegistry::Global().Snapshot();
    const SweepResult r = RunSweep(*database, stats, workload, workers, flags,
                                   trace_out.is_open() ? &trace_out : nullptr);
    if (base_qps == 0.0) base_qps = r.qps;
    if (r.mismatches > 0) {
      ok = false;
      std::printf("!! %llu result mismatches at %d workers\n",
                  static_cast<unsigned long long>(r.mismatches), workers);
    }
    std::printf("%8d %8d %10.3f %10.1f %10.3f %10.3f %10.3f %8.2fx",
                r.workers, r.clients, r.wall_seconds, r.qps, r.p50_ms,
                r.p95_ms, r.p99_ms, base_qps > 0 ? r.qps / base_qps : 0.0);
    if (telemetry_cols) {
      std::printf(" %9.3f %9.3f %9.3f %9.3f %10llu %6llu", r.phase_p50_ms[0],
                  r.phase_p50_ms[1], r.phase_p50_ms[2], r.phase_p50_ms[3],
                  static_cast<unsigned long long>(r.peak_bytes_p50),
                  static_cast<unsigned long long>(r.telemetry_dropped));
    }
    std::printf("\n");
    if (flags.check_percentiles) {
      std::printf(
          "   exact-sort percentiles: p50=%.3f p95=%.3f p99=%.3f "
          "(histogram rel-err p50=%.1f%% p95=%.1f%% p99=%.1f%%)\n",
          r.exact_p50_ms, r.exact_p95_ms, r.exact_p99_ms,
          r.exact_p50_ms > 0 ? (r.p50_ms / r.exact_p50_ms - 1.0) * 100 : 0.0,
          r.exact_p95_ms > 0 ? (r.p95_ms / r.exact_p95_ms - 1.0) * 100 : 0.0,
          r.exact_p99_ms > 0 ? (r.p99_ms / r.exact_p99_ms - 1.0) * 100 : 0.0);
    }
    if (metrics_out.is_open()) {
      const common::MetricsSnapshot delta =
          common::Delta(before, common::MetricsRegistry::Global().Snapshot());
      char line[768];
      std::snprintf(line, sizeof(line),
                    "{\"bench\":\"serving\",\"workers\":%d,\"clients\":%d,"
                    "\"queries\":%zu,\"wall_seconds\":%.6f,\"qps\":%.3f,"
                    "\"p50_ms\":%.4f,\"p95_ms\":%.4f,\"p99_ms\":%.4f,"
                    "\"plan_p50_ms\":%.4f,\"infer_p50_ms\":%.4f,"
                    "\"reopt_p50_ms\":%.4f,\"exec_p50_ms\":%.4f,"
                    "\"peak_bytes_p50\":%llu,"
                    "\"telemetry_published\":%llu,\"telemetry_dropped\":%llu,"
                    "\"speedup_vs_1\":%.4f,\"delta\":",
                    r.workers, r.clients, workload.size(), r.wall_seconds,
                    r.qps, r.p50_ms, r.p95_ms, r.p99_ms, r.phase_p50_ms[0],
                    r.phase_p50_ms[1], r.phase_p50_ms[2], r.phase_p50_ms[3],
                    static_cast<unsigned long long>(r.peak_bytes_p50),
                    static_cast<unsigned long long>(r.telemetry_published),
                    static_cast<unsigned long long>(r.telemetry_dropped),
                    base_qps > 0 ? r.qps / base_qps : 0.0);
      metrics_out << line << delta.ToJson() << "}\n";
    }
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace lpce::bench

int main(int argc, char** argv) { return lpce::bench::Run(argc, argv); }
