// Workload labelling bench: ms per accepted query of generation with the
// production validator (wk::AcceptQuery: one counting pass over the join
// tree) against the hash-join labelling it replaced (one hash join per
// connected subset when validated, the canonical plan's executor run when
// not; tests/testing/reference_generator.h) and against the reference
// validator kept with the tests (one canonical plan per subset, then a
// second labelling run), plus the pin the speedup rides on: all three
// generators must return the same queries with the same labels, and on raw
// candidates all three validators must make the same decision.
//
// Self-contained like bench_planner_dp: builds its own synthetic database,
// runs in seconds.
//
// Fixed workload over a scale-0.05 database, global pool at one thread as in
// set-up, the fastest of 3 timing repeats kept:
// - one row per join count 4..8: 16 validated queries each
//   (validate_all_subsets + require_nonempty, at most 100k rows per connected
//   subset: the serve-cold pool's settings);
// - one row "2-8": 32 queries without validation at the training set's
//   settings (2-8 joins, at most 300k rows per canonical join,
//   require_nonempty).
// The decision pin draws 32 raw candidates per row and checks them at the
// row's cap and at 2k (which rejects many).
//
// Flags:
//   --metrics_json=PATH   append one summary JSON line
//
// Exits 1 on any differing query, decision or label.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/timer.h"
#include "storage/database.h"
#include "testing/reference_generator.h"
#include "workload/workload.h"

namespace lpce::bench {
namespace {

constexpr double kScale = 0.05;
constexpr int kQueries = 16;
constexpr int kMinJoins = 4;
constexpr int kMaxJoins = 8;
constexpr int kTrainQueries = 32;
constexpr int kTrainMinJoins = 2;
constexpr int kTrainMaxJoins = 8;
constexpr size_t kTrainMaxNodeRows = 300'000;
constexpr int kRepeats = 3;
constexpr int kCandidates = 32;
constexpr size_t kMaxNodeRows = 100'000;
constexpr size_t kRejectingMaxNodeRows = 2'000;
constexpr uint64_t kSeed = 1515;

/// The only flag: --metrics_json=PATH, or "" when absent.
std::string ParseMetricsJson(int argc, char** argv) {
  std::string metrics_json;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::string prefix = "--metrics_json=";
    if (arg.rfind(prefix, 0) == 0) {
      metrics_json = arg.substr(prefix.size());
    } else {
      std::fprintf(stderr, "unknown flag %s\nusage: %s [--metrics_json=PATH]\n",
                   arg.c_str(), argv[0]);
      std::exit(2);
    }
  }
  return metrics_json;
}

/// The validator the counting pass replaced: the hash-join DFS over every
/// connected subset when validated, else the canonical plan's executor run.
bool HashJoinAcceptQuery(const db::Database& database,
                         const wk::GeneratorOptions& options,
                         wk::LabeledQuery* labeled) {
  if (!options.validate_all_subsets || options.max_node_rows == 0) {
    if (!testing::CanonicalPlanLabel(database, labeled, options.max_node_rows)) {
      return false;
    }
    return !options.require_nonempty || labeled->FinalCard() > 0;
  }
  std::unordered_map<qry::RelSet, uint64_t> counts;
  if (!testing::HashJoinCountConnectedSubsets(
          database, labeled->query, options.max_node_rows,
          options.require_nonempty, &counts)) {
    return false;
  }
  const auto tree =
      qry::BuildCanonicalTree(labeled->query, labeled->query.AllRels());
  std::vector<const qry::LogicalNode*> nodes;
  qry::PostOrder(tree.get(), &nodes);
  for (const qry::LogicalNode* node : nodes) {
    labeled->true_cards[node->rels] = counts.at(node->rels);
  }
  return true;
}

constexpr wk::QueryValidator kValidators[] = {
    wk::AcceptQuery, HashJoinAcceptQuery, testing::ReferenceAcceptQuery};
constexpr int kNumValidators = 3;

bool SameWorkload(const std::vector<wk::LabeledQuery>& a,
                  const std::vector<wk::LabeledQuery>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a[i].query == b[i].query) || a[i].true_cards != b[i].true_cards) {
      return false;
    }
  }
  return true;
}

/// Raw candidates: the generator's draws with a validator that keeps all.
std::vector<qry::Query> Candidates(const db::Database& database,
                                   uint64_t seed, int min_joins,
                                   int max_joins) {
  wk::GeneratorOptions options;
  options.seed = seed;
  wk::QueryGenerator generator(
      &database, options,
      [](const db::Database&, const wk::GeneratorOptions&, wk::LabeledQuery*) {
        return true;
      });
  std::vector<qry::Query> out;
  for (int i = 0; i < kCandidates; ++i) {
    out.push_back(generator.Generate(min_joins + i % (max_joins - min_joins + 1)));
  }
  return out;
}

/// One table row: generation ms per query with each validator (the fastest
/// of kRepeats), and the number of differences from production.
struct RowResult {
  double ms[kNumValidators] = {};
  int decisions = 0;
  uint64_t mismatches = 0;
};

RowResult RunRow(const db::Database& database, const wk::GeneratorOptions& gen,
                 int queries, int min_joins, int max_joins, const char* label) {
  RowResult row;
  std::vector<wk::LabeledQuery> generated[kNumValidators];
  for (int r = 0; r < kRepeats; ++r) {
    for (int v = 0; v < kNumValidators; ++v) {
      WallTimer timer;
      generated[v] = wk::QueryGenerator(&database, gen, kValidators[v])
                         .GenerateLabeled(queries, min_joins, max_joins);
      const double ms = timer.ElapsedSeconds() * 1e3 / queries;
      if (r == 0 || ms < row.ms[v]) row.ms[v] = ms;
    }
  }
  for (int v = 1; v < kNumValidators; ++v) {
    if (!SameWorkload(generated[0], generated[v])) {
      ++row.mismatches;
      std::printf("!! generated queries or labels differ at %s (validator %d)\n",
                  label, v);
    }
  }

  // Decision pin on raw candidates, at the row's cap and at one that
  // rejects more.
  for (const qry::Query& query :
       Candidates(database, gen.seed + static_cast<uint64_t>(min_joins),
                  min_joins, max_joins)) {
    for (size_t cap : {gen.max_node_rows, kRejectingMaxNodeRows}) {
      wk::GeneratorOptions options = gen;
      options.max_node_rows = cap;
      wk::LabeledQuery prod;
      prod.query = query;
      const bool prod_ok = wk::AcceptQuery(database, options, &prod);
      ++row.decisions;
      for (int v = 1; v < kNumValidators; ++v) {
        wk::LabeledQuery other;
        other.query = query;
        const bool ok = kValidators[v](database, options, &other);
        if (ok != prod_ok || (ok && prod.true_cards != other.true_cards)) {
          ++row.mismatches;
          std::printf("!! decision or labels differ at %s, cap %zu "
                      "(validator %d)\n",
                      label, cap, v);
        }
      }
    }
  }
  std::printf("%6s %15.3f %15.3f %15.3f %8.2fx %8.2fx %10d\n", label,
              row.ms[0], row.ms[1], row.ms[2],
              row.ms[0] > 0.0 ? row.ms[1] / row.ms[0] : 0.0,
              row.ms[0] > 0.0 ? row.ms[2] / row.ms[0] : 0.0, row.decisions);
  return row;
}

int Run(int argc, char** argv) {
  const std::string metrics_json = ParseMetricsJson(argc, argv);

  db::SynthImdbOptions opts;
  opts.scale = kScale;
  auto database = db::BuildSynthImdb(opts);

  std::printf("Workload labelling bench: scale %.2f, min of %d repeats; rows "
              "%d-%d: %d validated queries (max_node_rows %zu); row %d-%d: "
              "%d queries without validation (max_node_rows %zu)\n",
              kScale, kRepeats, kMinJoins, kMaxJoins, kQueries, kMaxNodeRows,
              kTrainMinJoins, kTrainMaxJoins, kTrainQueries, kTrainMaxNodeRows);
  std::printf("%6s %15s %15s %15s %9s %9s %10s\n", "joins", "prod ms/query",
              "hjoin ms/query", "ref ms/query", "vs hjoin", "vs ref",
              "decisions");
  std::vector<double> ms[kNumValidators];
  uint64_t mismatches = 0;
  wk::GeneratorOptions gen;
  gen.seed = kSeed;
  gen.require_nonempty = true;
  gen.validate_all_subsets = true;
  gen.max_node_rows = kMaxNodeRows;
  for (int joins = kMinJoins; joins <= kMaxJoins; ++joins) {
    const RowResult row = RunRow(*database, gen, kQueries, joins, joins,
                                 std::to_string(joins).c_str());
    for (int v = 0; v < kNumValidators; ++v) ms[v].push_back(row.ms[v]);
    mismatches += row.mismatches;
  }
  wk::GeneratorOptions train = gen;
  train.validate_all_subsets = false;
  train.max_node_rows = kTrainMaxNodeRows;
  const RowResult off = RunRow(*database, train, kTrainQueries, kTrainMinJoins,
                               kTrainMaxJoins, "2-8");
  mismatches += off.mismatches;

  if (mismatches > 0) {
    std::printf("!! %llu differences between the validators\n",
                static_cast<unsigned long long>(mismatches));
  }
  if (!metrics_json.empty()) {
    auto join_list = [](const std::vector<double>& values) {
      std::string out = "[";
      char buf[32];
      for (size_t i = 0; i < values.size(); ++i) {
        std::snprintf(buf, sizeof(buf), "%s%.4f", i > 0 ? "," : "", values[i]);
        out += buf;
      }
      return out + "]";
    };
    std::ofstream metrics_out(metrics_json, std::ios::app);
    char head[256];
    std::snprintf(head, sizeof(head),
                  "{\"bench\":\"workload_label\",\"queries\":%d,"
                  "\"min_joins\":%d,\"max_joins\":%d,\"scale\":%.3f,"
                  "\"max_node_rows\":%zu,\"repeats\":%d,\"mismatches\":%llu,",
                  kQueries, kMinJoins, kMaxJoins, kScale, kMaxNodeRows,
                  kRepeats, static_cast<unsigned long long>(mismatches));
    metrics_out << head << "\"ms_per_query\":" << join_list(ms[0])
                << ",\"hash_join_ms_per_query\":" << join_list(ms[1])
                << ",\"reference_ms_per_query\":" << join_list(ms[2])
                << ",\"unvalidated_ms_per_query\":"
                << join_list({off.ms[0], off.ms[1], off.ms[2]}) << "}\n";
  }
  return mismatches > 0 ? 1 : 0;
}

}  // namespace
}  // namespace lpce::bench

int main(int argc, char** argv) { return lpce::bench::Run(argc, argv); }
