// Executor bench: T_E on a join-heavy scan+filter+join workload, the
// production executor (vectorized kernels on row-id intermediates,
// exec/vectorized.h) vs the row-at-a-time oracle kept with the tests
// (tests/testing/row_executor.h), plus the bit-identity pin the speedup is
// only allowed to ride on: every finished operator's rowset must equal the
// oracle's output bit for bit (production intermediates gathered through
// their row ids first). Both executors run each query on one thread. Peak
// intermediate bytes are reported per executor; production must shrink them.
//
// Self-contained like bench_plancache: builds its own synthetic database,
// runs in seconds.
//
// Flags:
//   --scale=F             synthetic database scale (default 0.2)
//   --queries=N           generated queries (default 8)
//   --joins=N             joins per query (default 8 — the Join-eight shape)
//   --repeats=N           timing repeats per query; min is kept (default 5)
//   --min_speedup=F       fail (exit 1) if the production T_E speedup over
//                         the oracle is below this (default 2; 0 disables)
//   --metrics_json=PATH   append one summary JSON line
//
// The bench always fails (exit 1) on a bit-identity mismatch or when the
// production peak intermediate bytes are not below the oracle's.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/timer.h"
#include "exec/executor.h"
#include "storage/database.h"
#include "testing/row_executor.h"
#include "workload/workload.h"

namespace lpce::bench {
namespace {

struct Flags {
  double scale = 0.2;
  int queries = 8;
  int joins = 8;
  int repeats = 5;
  double min_speedup = 2.0;
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
    if (const char* v = value_of("--scale=")) {
      flags.scale = std::atof(v);
    } else if (const char* v = value_of("--queries=")) {
      flags.queries = std::atoi(v);
    } else if (const char* v = value_of("--joins=")) {
      flags.joins = std::atoi(v);
    } else if (const char* v = value_of("--repeats=")) {
      flags.repeats = std::atoi(v);
    } else if (const char* v = value_of("--min_speedup=")) {
      flags.min_speedup = std::atof(v);
    } else if (const char* v = value_of("--metrics_json=")) {
      flags.metrics_json = v;
    } else {
      std::fprintf(stderr,
                   "unknown flag %s\nusage: %s [--scale=F] [--queries=N] "
                   "[--joins=N] [--repeats=N] [--min_speedup=F] "
                   "[--metrics_json=PATH]\n",
                   arg.c_str(), argv[0]);
      std::exit(2);
    }
  }
  if (flags.queries <= 0 || flags.joins <= 0 || flags.repeats <= 0) {
    std::fprintf(stderr, "need positive --queries/--joins/--repeats\n");
    std::exit(2);
  }
  return flags;
}

/// Post-order finished rowsets + root count of one executor run.
struct Outcome {
  std::vector<exec::RowSetPtr> rowsets;
  uint64_t result_rows = 0;
  double exec_seconds = 0.0;
  size_t peak_bytes = 0;
};

Outcome RunOnce(const db::Database& database, const qry::Query& query,
                bool oracle) {
  Outcome outcome;
  auto plan = exec::BuildCanonicalHashPlan(query);
  std::unique_ptr<exec::Executor> executor =
      oracle ? testing::RowExecutor::Make(&database, &query)
             : std::make_unique<exec::Executor>(&database, &query);
  WallTimer timer;
  exec::Executor::RunResult result = executor->Run(plan.get(), {});
  outcome.exec_seconds = timer.ElapsedSeconds();
  outcome.peak_bytes = executor->peak_intermediate_bytes();
  std::vector<exec::PlanNode*> nodes;
  exec::PostOrderPlan(plan.get(), &nodes);
  for (exec::PlanNode* node : nodes) {
    auto it = result.finished.find(node);
    outcome.rowsets.push_back(it != result.finished.end() ? it->second
                                                          : nullptr);
  }
  if (std::getenv("LPCE_BENCH_PER_NODE") != nullptr) {
    for (exec::PlanNode* node : nodes) {
      std::printf("  [%s] %-12s card=%-10llu %.3fms\n",
                  oracle ? "oracle" : "production",
                  exec::PhysOpName(node->op),
                  static_cast<unsigned long long>(node->actual_card),
                  node->exec_seconds * 1e3);
    }
  }
  outcome.result_rows =
      result.result != nullptr ? result.result->num_rows() : 0;
  return outcome;
}

bool BitIdentical(const Outcome& a, const Outcome& b) {
  if (a.result_rows != b.result_rows) return false;
  if (a.rowsets.size() != b.rowsets.size()) return false;
  for (size_t i = 0; i < a.rowsets.size(); ++i) {
    if (a.rowsets[i] == nullptr || b.rowsets[i] == nullptr) {
      return a.rowsets[i] == b.rowsets[i];
    }
    if (!(a.rowsets[i]->schema == b.rowsets[i]->schema)) return false;
    if (a.rowsets[i]->row_count != b.rowsets[i]->row_count) return false;
    if (a.rowsets[i]->cols != b.rowsets[i]->cols) return false;
  }
  return true;
}

int Run(int argc, char** argv) {
  const Flags flags = ParseFlags(argc, argv);

  db::SynthImdbOptions opts;
  opts.scale = flags.scale;
  auto database = db::BuildSynthImdb(opts);
  wk::GeneratorOptions gen;
  gen.seed = 811;
  wk::QueryGenerator generator(database.get(), gen);
  std::vector<qry::Query> queries;
  for (int i = 0; i < flags.queries; ++i) {
    queries.push_back(generator.Generate(flags.joins));
  }

  const common::MetricsSnapshot before =
      common::MetricsRegistry::Global().Snapshot();

  // Timing: T_E, min of repeats, both executors over the same canonical hash
  // plans.
  double oracle_seconds = 0.0, prod_seconds = 0.0;
  uint64_t total_rows = 0;
  size_t oracle_peak = 0, prod_peak = 0;
  for (const qry::Query& query : queries) {
    double oracle_min = 0.0, prod_min = 0.0;
    for (int r = 0; r < flags.repeats; ++r) {
      const Outcome oracle = RunOnce(*database, query, /*oracle=*/true);
      if (r == 0 || oracle.exec_seconds < oracle_min) {
        oracle_min = oracle.exec_seconds;
      }
      const Outcome prod = RunOnce(*database, query, /*oracle=*/false);
      if (r == 0 || prod.exec_seconds < prod_min) prod_min = prod.exec_seconds;
      if (r == 0) {
        total_rows += oracle.result_rows;
        oracle_peak += oracle.peak_bytes;
        prod_peak += prod.peak_bytes;
      }
    }
    oracle_seconds += oracle_min;
    prod_seconds += prod_min;
  }
  const double speedup =
      prod_seconds > 0.0 ? oracle_seconds / prod_seconds : 0.0;

  // Bit-identity pin: production against the oracle's output, every
  // finished operator compared (production rowsets gathered back to payload
  // columns first).
  uint64_t mismatches = 0;
  for (size_t q = 0; q < queries.size(); ++q) {
    const Outcome oracle = RunOnce(*database, queries[q], /*oracle=*/true);
    Outcome got = RunOnce(*database, queries[q], /*oracle=*/false);
    for (exec::RowSetPtr& rs : got.rowsets) {
      rs = testing::MaterializeRowSet(*database, rs);
    }
    if (!BitIdentical(oracle, got)) {
      ++mismatches;
      std::printf("!! bit-identity mismatch: query %zu\n", q);
    }
  }

  std::printf("exec bench: %d queries x %d joins, scale %.2f, %llu result "
              "rows\n",
              flags.queries, flags.joins, flags.scale,
              static_cast<unsigned long long>(total_rows));
  std::printf("%-28s %10.1fms  peak %10llu B\n", "row-at-a-time oracle T_E",
              oracle_seconds * 1e3,
              static_cast<unsigned long long>(oracle_peak));
  std::printf("%-28s %10.1fms  peak %10llu B\n", "production T_E",
              prod_seconds * 1e3, static_cast<unsigned long long>(prod_peak));
  std::printf("production speedup over oracle: %.2fx, peak bytes %.1f%% of "
              "oracle\n",
              speedup,
              oracle_peak > 0
                  ? 100.0 * static_cast<double>(prod_peak) /
                        static_cast<double>(oracle_peak)
                  : 0.0);

  bool ok = true;
  if (mismatches > 0) {
    ok = false;
    std::printf("!! %llu bit-identity mismatches\n",
                static_cast<unsigned long long>(mismatches));
  }
  if (flags.min_speedup > 0.0 && speedup < flags.min_speedup) {
    ok = false;
    std::printf("!! production speedup %.2fx below required %.2fx\n",
                speedup, flags.min_speedup);
  }
  if (prod_peak >= oracle_peak) {
    ok = false;
    std::printf("!! production peak bytes %llu not below oracle peak %llu\n",
                static_cast<unsigned long long>(prod_peak),
                static_cast<unsigned long long>(oracle_peak));
  }

  if (!flags.metrics_json.empty()) {
    std::ofstream metrics_out(flags.metrics_json, std::ios::app);
    const common::MetricsSnapshot delta =
        common::Delta(before, common::MetricsRegistry::Global().Snapshot());
    char line[768];
    std::snprintf(
        line, sizeof(line),
        "{\"bench\":\"exec_batch\",\"queries\":%d,\"joins\":%d,"
        "\"scale\":%.3f,\"repeats\":%d,\"oracle_te_ms\":%.3f,"
        "\"te_ms\":%.3f,\"speedup\":%.3f,\"oracle_peak_bytes\":%llu,"
        "\"peak_bytes\":%llu,\"result_rows\":%llu,\"mismatches\":%llu,"
        "\"delta\":",
        flags.queries, flags.joins, flags.scale, flags.repeats,
        oracle_seconds * 1e3, prod_seconds * 1e3, speedup,
        static_cast<unsigned long long>(oracle_peak),
        static_cast<unsigned long long>(prod_peak),
        static_cast<unsigned long long>(total_rows),
        static_cast<unsigned long long>(mismatches));
    metrics_out << line << delta.ToJson() << "}\n";
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace lpce::bench

int main(int argc, char** argv) { return lpce::bench::Run(argc, argv); }
