// Workload labelling bench: ms per accepted query of validated generation
// (validate_all_subsets + require_nonempty) with the production validator
// (wk::AcceptQuery: one hash join per connected subset) against the
// reference validator kept with the tests
// (tests/testing/reference_generator.h: one canonical plan per subset, then
// a second labelling run), per join count, plus the pin the speedup rides
// on: both generators must return the same queries with the same labels,
// and on raw candidates both validators must make the same decision.
//
// Self-contained like bench_planner_dp: builds its own synthetic database,
// runs in seconds.
//
// Fixed workload: 16 queries per join count 4..8 over a scale-0.05 database,
// at most 100k rows per connected subset (the serve-cold pool's settings),
// global pool at one thread as in set-up; the fastest of 3 timing repeats is
// kept. The decision pin draws 32 raw candidates per join count and checks
// them at row caps 100k and 2k (the smaller one rejects many).
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
std::vector<qry::Query> Candidates(const db::Database& database, int joins) {
  wk::GeneratorOptions options;
  options.seed = kSeed + static_cast<uint64_t>(joins);
  wk::QueryGenerator generator(
      &database, options,
      [](const db::Database&, const wk::GeneratorOptions&, wk::LabeledQuery*) {
        return true;
      });
  std::vector<qry::Query> out;
  for (int i = 0; i < kCandidates; ++i) out.push_back(generator.Generate(joins));
  return out;
}

int Run(int argc, char** argv) {
  const std::string metrics_json = ParseMetricsJson(argc, argv);

  db::SynthImdbOptions opts;
  opts.scale = kScale;
  auto database = db::BuildSynthImdb(opts);
  wk::GeneratorOptions gen;
  gen.seed = kSeed;
  gen.require_nonempty = true;
  gen.validate_all_subsets = true;
  gen.max_node_rows = kMaxNodeRows;

  std::printf("Workload labelling bench: %d validated queries per join count, "
              "scale %.2f, max_node_rows %zu, min of %d repeats\n",
              kQueries, kScale, kMaxNodeRows, kRepeats);
  std::printf("%6s %15s %15s %9s %10s\n", "joins", "prod ms/query",
              "ref ms/query", "speedup", "decisions");
  std::vector<double> prod_ms, ref_ms;
  uint64_t mismatches = 0;
  for (int joins = kMinJoins; joins <= kMaxJoins; ++joins) {
    double prod_best = 0.0, ref_best = 0.0;
    std::vector<wk::LabeledQuery> prod, ref;
    for (int r = 0; r < kRepeats; ++r) {
      WallTimer prod_timer;
      prod = wk::QueryGenerator(database.get(), gen)
                 .GenerateLabeled(kQueries, joins, joins);
      const double prod_seconds = prod_timer.ElapsedSeconds();
      WallTimer ref_timer;
      ref = wk::QueryGenerator(database.get(), gen,
                               testing::ReferenceAcceptQuery)
                .GenerateLabeled(kQueries, joins, joins);
      const double ref_seconds = ref_timer.ElapsedSeconds();
      if (r == 0 || prod_seconds < prod_best) prod_best = prod_seconds;
      if (r == 0 || ref_seconds < ref_best) ref_best = ref_seconds;
    }
    prod_ms.push_back(prod_best * 1e3 / kQueries);
    ref_ms.push_back(ref_best * 1e3 / kQueries);
    if (!SameWorkload(prod, ref)) {
      ++mismatches;
      std::printf("!! generated queries or labels differ at %d joins\n", joins);
    }

    // Decision pin on raw candidates, at the generation cap and at one that
    // rejects more.
    int decisions = 0;
    for (const qry::Query& query : Candidates(*database, joins)) {
      for (size_t cap : {kMaxNodeRows, kRejectingMaxNodeRows}) {
        wk::GeneratorOptions options = gen;
        options.max_node_rows = cap;
        wk::LabeledQuery p, q;
        p.query = q.query = query;
        const bool p_ok = wk::AcceptQuery(*database, options, &p);
        const bool q_ok = testing::ReferenceAcceptQuery(*database, options, &q);
        ++decisions;
        if (p_ok != q_ok || p.true_cards != q.true_cards) {
          ++mismatches;
          std::printf("!! decision or labels differ at %d joins, cap %zu\n",
                      joins, cap);
        }
      }
    }
    std::printf("%6d %15.3f %15.3f %8.2fx %10d\n", joins, prod_ms.back(),
                ref_ms.back(),
                prod_ms.back() > 0.0 ? ref_ms.back() / prod_ms.back() : 0.0,
                decisions);
  }

  if (mismatches > 0) {
    std::printf("!! %llu differences from the reference validator\n",
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
    metrics_out << head << "\"ms_per_query\":" << join_list(prod_ms)
                << ",\"reference_ms_per_query\":" << join_list(ref_ms)
                << "}\n";
  }
  return mismatches > 0 ? 1 : 0;
}

}  // namespace
}  // namespace lpce::bench

int main(int argc, char** argv) { return lpce::bench::Run(argc, argv); }
