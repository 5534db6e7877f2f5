// Executor bench: T_E on a join-heavy scan+filter+join workload, the
// production executor (vectorized kernels on row-id intermediates,
// exec/vectorized.h) vs the row-at-a-time oracle kept with the tests
// (tests/testing/row_executor.h), plus the bit-identity pin the speedup is
// only allowed to ride on: every finished operator's rowset must equal the
// oracle's output bit for bit (production intermediates gathered through
// their row ids first). Both executors run each query on one thread. Peak
// intermediate bytes are reported per executor; production must shrink them.
//
// Two query sets run through the same comparison: queries over the synthetic
// database as built (dense integer keys, so hash-join builds map keys to
// slots by offset), and queries over a copy whose join keys went through an
// int64 bijection (keys spread over the whole range, so builds go through
// the slot dictionary). Each set prints the rows its hash joins built,
// probed and emitted per query: work counts that stay fixed when a kernel
// only changes its cost per row.
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
//                         the oracle on the dense-key set is below this
//                         (default 2; 0 disables)
//   --metrics_json=PATH   append one summary JSON line
//
// The bench always fails (exit 1) on a bit-identity mismatch in either set
// or when the production peak intermediate bytes of the dense-key set are
// not below the oracle's.
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

/// Rows the production hash joins built, probed and emitted (the
/// executor's work counters). They count work, not time, so they are the
/// same on every host and for every join kernel that computes the same
/// joins.
struct JoinWork {
  uint64_t built = 0, probed = 0, emitted = 0;

  static JoinWork Now() {
    common::MetricsRegistry& registry = common::MetricsRegistry::Global();
    return {registry.counter("executor.hash_join_build_rows_total")->value(),
            registry.counter("executor.hash_join_probe_rows_total")->value(),
            registry.counter("executor.hash_join_emit_rows_total")->value()};
  }
  JoinWork Since(const JoinWork& before) const {
    return {built - before.built, probed - before.probed,
            emitted - before.emitted};
  }
  void Add(const JoinWork& other) {
    built += other.built;
    probed += other.probed;
    emitted += other.emitted;
  }
};

/// One query set's timings, peaks, bit-identity result and join work.
struct SetResult {
  double oracle_seconds = 0.0, prod_seconds = 0.0;
  uint64_t total_rows = 0;
  size_t oracle_peak = 0, prod_peak = 0;
  uint64_t mismatches = 0;
  JoinWork work;

  double speedup() const {
    return prod_seconds > 0.0 ? oracle_seconds / prod_seconds : 0.0;
  }
};

SetResult RunSet(const db::Database& database,
                 const std::vector<qry::Query>& queries, const Flags& flags,
                 const char* label) {
  SetResult set;
  // Timing: T_E, min of repeats, both executors over the same canonical hash
  // plans.
  for (const qry::Query& query : queries) {
    double oracle_min = 0.0, prod_min = 0.0;
    for (int r = 0; r < flags.repeats; ++r) {
      const Outcome oracle = RunOnce(database, query, /*oracle=*/true);
      if (r == 0 || oracle.exec_seconds < oracle_min) {
        oracle_min = oracle.exec_seconds;
      }
      const Outcome prod = RunOnce(database, query, /*oracle=*/false);
      if (r == 0 || prod.exec_seconds < prod_min) prod_min = prod.exec_seconds;
      if (r == 0) {
        set.total_rows += oracle.result_rows;
        set.oracle_peak += oracle.peak_bytes;
        set.prod_peak += prod.peak_bytes;
      }
    }
    set.oracle_seconds += oracle_min;
    set.prod_seconds += prod_min;
  }

  // Bit-identity pin: production against the oracle's output, every
  // finished operator compared (production rowsets gathered back to payload
  // columns first). The production run also reads the query's join work.
  std::printf("%s: join work per query (rows built / probed / emitted)\n",
              label);
  for (size_t q = 0; q < queries.size(); ++q) {
    const Outcome oracle = RunOnce(database, queries[q], /*oracle=*/true);
    const JoinWork before = JoinWork::Now();
    Outcome got = RunOnce(database, queries[q], /*oracle=*/false);
    const JoinWork work = JoinWork::Now().Since(before);
    set.work.Add(work);
    std::printf("  query %zu: %llu / %llu / %llu\n", q,
                static_cast<unsigned long long>(work.built),
                static_cast<unsigned long long>(work.probed),
                static_cast<unsigned long long>(work.emitted));
    for (exec::RowSetPtr& rs : got.rowsets) {
      rs = testing::MaterializeRowSet(database, rs);
    }
    if (!BitIdentical(oracle, got)) {
      ++set.mismatches;
      std::printf("!! %s: bit-identity mismatch: query %zu\n", label, q);
    }
  }

  std::printf("%s: %d queries x %d joins, scale %.2f, %llu result rows\n",
              label, flags.queries, flags.joins, flags.scale,
              static_cast<unsigned long long>(set.total_rows));
  std::printf("%-28s %10.1fms  peak %10llu B\n", "row-at-a-time oracle T_E",
              set.oracle_seconds * 1e3,
              static_cast<unsigned long long>(set.oracle_peak));
  std::printf("%-28s %10.1fms  peak %10llu B\n", "production T_E",
              set.prod_seconds * 1e3,
              static_cast<unsigned long long>(set.prod_peak));
  std::printf("production speedup over oracle: %.2fx, peak bytes %.1f%% of "
              "oracle\n",
              set.speedup(),
              set.oracle_peak > 0
                  ? 100.0 * static_cast<double>(set.prod_peak) /
                        static_cast<double>(set.oracle_peak)
                  : 0.0);
  std::printf("hash-join rows: %llu built, %llu probed, %llu emitted\n",
              static_cast<unsigned long long>(set.work.built),
              static_cast<unsigned long long>(set.work.probed),
              static_cast<unsigned long long>(set.work.emitted));
  if (set.mismatches > 0) {
    std::printf("!! %s: %llu bit-identity mismatches\n", label,
                static_cast<unsigned long long>(set.mismatches));
  }
  return set;
}

/// A copy of `src` with every join-key column (ids and the columns of the
/// catalog's join edges) sent through a bijection of int64 — an odd
/// multiplier, wrapping — so keys spread over the whole range, negative ones
/// included, and hash-join builds map them to slots through the dictionary
/// instead of by key offset. Join results are those of `src`.
std::unique_ptr<db::Database> SpreadJoinKeys(const db::Database& src) {
  auto spread = std::make_unique<db::Database>();
  const db::Catalog& catalog = src.catalog();
  auto is_key = [&](int32_t table, int32_t column) {
    if (column == 0) return true;
    for (const auto& edge : catalog.join_edges()) {
      if ((edge.left.table == table && edge.left.column == column) ||
          (edge.right.table == table && edge.right.column == column)) {
        return true;
      }
    }
    return false;
  };
  for (int32_t t = 0; t < catalog.num_tables(); ++t) {
    const int32_t id = spread->AddTable(catalog.table(t));
    const db::Table& table = src.table(t);
    for (int32_t c = 0; c < static_cast<int32_t>(table.num_columns()); ++c) {
      std::vector<int64_t>& dst = spread->table(id).mutable_column(c);
      dst = table.column(static_cast<size_t>(c));
      if (!is_key(t, c)) continue;
      for (int64_t& v : dst) {
        v = static_cast<int64_t>(static_cast<uint64_t>(v) * 0x9E3779B97F4A7C15ull +
                                 0x7F4A7C15ull);
      }
    }
  }
  for (const auto& edge : catalog.join_edges()) {
    spread->catalog().AddJoinEdge(edge.left, edge.right);
  }
  spread->BuildAllIndexes();
  return spread;
}

std::vector<qry::Query> GenerateQueries(const db::Database& database,
                                        const Flags& flags) {
  wk::GeneratorOptions gen;
  gen.seed = 811;
  wk::QueryGenerator generator(&database, gen);
  std::vector<qry::Query> queries;
  for (int i = 0; i < flags.queries; ++i) {
    queries.push_back(generator.Generate(flags.joins));
  }
  return queries;
}

std::string SetJson(const SetResult& set) {
  char line[512];
  std::snprintf(
      line, sizeof(line),
      "\"oracle_te_ms\":%.3f,\"te_ms\":%.3f,\"speedup\":%.3f,"
      "\"oracle_peak_bytes\":%llu,\"peak_bytes\":%llu,\"result_rows\":%llu,"
      "\"mismatches\":%llu,\"join_rows_built\":%llu,"
      "\"join_rows_probed\":%llu,\"join_rows_emitted\":%llu",
      set.oracle_seconds * 1e3, set.prod_seconds * 1e3, set.speedup(),
      static_cast<unsigned long long>(set.oracle_peak),
      static_cast<unsigned long long>(set.prod_peak),
      static_cast<unsigned long long>(set.total_rows),
      static_cast<unsigned long long>(set.mismatches),
      static_cast<unsigned long long>(set.work.built),
      static_cast<unsigned long long>(set.work.probed),
      static_cast<unsigned long long>(set.work.emitted));
  return line;
}

int Run(int argc, char** argv) {
  const Flags flags = ParseFlags(argc, argv);

  db::SynthImdbOptions opts;
  opts.scale = flags.scale;
  auto database = db::BuildSynthImdb(opts);
  auto spread = SpreadJoinKeys(*database);
  const std::vector<qry::Query> queries = GenerateQueries(*database, flags);
  const std::vector<qry::Query> spread_queries =
      GenerateQueries(*spread, flags);

  const common::MetricsSnapshot before =
      common::MetricsRegistry::Global().Snapshot();
  const SetResult dense = RunSet(*database, queries, flags, "exec bench");
  const SetResult wide =
      RunSet(*spread, spread_queries, flags, "int64-key exec bench");

  // The speed-up and peak gates read the dense-key set; every set must be
  // bit-identical to the oracle.
  bool ok = dense.mismatches == 0 && wide.mismatches == 0;
  if (flags.min_speedup > 0.0 && dense.speedup() < flags.min_speedup) {
    ok = false;
    std::printf("!! production speedup %.2fx below required %.2fx\n",
                dense.speedup(), flags.min_speedup);
  }
  if (dense.prod_peak >= dense.oracle_peak) {
    ok = false;
    std::printf("!! production peak bytes %llu not below oracle peak %llu\n",
                static_cast<unsigned long long>(dense.prod_peak),
                static_cast<unsigned long long>(dense.oracle_peak));
  }

  if (!flags.metrics_json.empty()) {
    std::ofstream metrics_out(flags.metrics_json, std::ios::app);
    const common::MetricsSnapshot delta =
        common::Delta(before, common::MetricsRegistry::Global().Snapshot());
    char head[256];
    std::snprintf(head, sizeof(head),
                  "{\"bench\":\"exec_batch\",\"queries\":%d,\"joins\":%d,"
                  "\"scale\":%.3f,\"repeats\":%d,",
                  flags.queries, flags.joins, flags.scale, flags.repeats);
    metrics_out << head << SetJson(dense) << ",\"int64_keys\":{"
                << SetJson(wide) << "},\"delta\":" << delta.ToJson() << "}\n";
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace lpce::bench

int main(int argc, char** argv) { return lpce::bench::Run(argc, argv); }
