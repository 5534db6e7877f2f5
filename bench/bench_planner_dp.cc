// DP search bench: µs per plan of the production planner
// (opt::Planner::Plan) against the reference DP kept with the tests
// (tests/testing/reference_planner.h), per join count, with the estimates
// memoized so the timing is search only, plus the bit-identity pin the
// speedup rides on: for every query the two must return the same plan with
// the same est_card/est_cost bits on every node, the same estimate count,
// the same pool and the same estimator call sequence.
//
// Self-contained like bench_exec_batch: builds its own synthetic database,
// runs in seconds.
//
// Fixed workload: 64 generated queries per join count 1..8 over a scale-0.05
// database; the fastest of 5 timing repeats is kept.
//
// Flags:
//   --metrics_json=PATH   append one summary JSON line
//
// Exits 1 on any difference between production and reference.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "card/histogram_estimator.h"
#include "common/timer.h"
#include "optimizer/planner.h"
#include "stats/column_stats.h"
#include "storage/database.h"
#include "testing/reference_planner.h"
#include "workload/workload.h"

namespace lpce::bench {
namespace {

constexpr double kScale = 0.05;
constexpr int kQueries = 64;
constexpr int kMaxJoins = 8;
constexpr int kRepeats = 5;

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

/// One query with its memoized estimates.
struct Case {
  qry::Query query;
  std::unique_ptr<card::OracleEstimator> memo;
};

int Run(int argc, char** argv) {
  const std::string metrics_json = ParseMetricsJson(argc, argv);

  db::SynthImdbOptions opts;
  opts.scale = kScale;
  auto database = db::BuildSynthImdb(opts);
  stats::DatabaseStats stats;
  stats.Build(*database);
  card::HistogramEstimator histogram(&stats);
  const opt::CostModel cost_model;
  opt::Planner planner(database.get(), cost_model);
  wk::GeneratorOptions gen;
  gen.seed = 1409;
  wk::QueryGenerator generator(database.get(), gen);

  std::printf("DP search bench: %d queries per join count, scale %.2f, "
              "memoized histogram estimates, min of %d repeats\n",
              kQueries, kScale, kRepeats);
  std::printf("%6s %14s %14s %9s\n", "joins", "prod us/plan", "ref us/plan",
              "speedup");
  std::vector<double> prod_us, ref_us;
  uint64_t mismatches = 0;
  for (int joins = 1; joins <= kMaxJoins; ++joins) {
    std::vector<Case> cases(static_cast<size_t>(kQueries));
    for (Case& c : cases) {
      c.query = generator.Generate(joins);
      c.memo = std::make_unique<card::OracleEstimator>(
          planner.Plan(c.query, &histogram).pool);
    }

    // Timing: every query once per repeat, each planner over the same
    // memoized estimates; the fastest repeat is kept.
    double prod_best = 0.0, ref_best = 0.0;
    for (int r = 0; r < kRepeats; ++r) {
      WallTimer prod_timer;
      for (const Case& c : cases) (void)planner.Plan(c.query, c.memo.get());
      const double prod_seconds = prod_timer.ElapsedSeconds();
      WallTimer ref_timer;
      for (const Case& c : cases) {
        (void)testing::ReferencePlan(*database, cost_model, c.query,
                                     c.memo.get());
      }
      const double ref_seconds = ref_timer.ElapsedSeconds();
      if (r == 0 || prod_seconds < prod_best) prod_best = prod_seconds;
      if (r == 0 || ref_seconds < ref_best) ref_best = ref_seconds;
    }
    const double n = static_cast<double>(kQueries);
    prod_us.push_back(prod_best * 1e6 / n);
    ref_us.push_back(ref_best * 1e6 / n);

    // Bit-identity pin.
    for (const Case& c : cases) {
      auto answer = [&](qry::RelSet rels) {
        return c.memo->EstimateSubset(c.query, rels);
      };
      testing::RecordingEstimator prod_est(answer);
      testing::RecordingEstimator ref_est(answer);
      const opt::PlanResult prod = planner.Plan(c.query, &prod_est);
      const opt::PlanResult ref =
          testing::ReferencePlan(*database, cost_model, c.query, &ref_est);
      if (testing::DescribePlanBits(*prod.plan) !=
              testing::DescribePlanBits(*ref.plan) ||
          prod.num_estimates != ref.num_estimates ||
          testing::DescribePoolBits(prod) != testing::DescribePoolBits(ref) ||
          prod_est.calls() != ref_est.calls()) {
        ++mismatches;
        std::printf("!! mismatch at %d joins\n", joins);
      }
    }
    std::printf("%6d %14.2f %14.2f %8.2fx\n", joins, prod_us.back(),
                ref_us.back(),
                prod_us.back() > 0.0 ? ref_us.back() / prod_us.back() : 0.0);
  }

  if (mismatches > 0) {
    std::printf("!! %llu plans differ from the reference DP\n",
                static_cast<unsigned long long>(mismatches));
  }
  if (!metrics_json.empty()) {
    auto join_list = [](const std::vector<double>& values) {
      std::string out = "[";
      char buf[32];
      for (size_t i = 0; i < values.size(); ++i) {
        std::snprintf(buf, sizeof(buf), "%s%.3f", i > 0 ? "," : "", values[i]);
        out += buf;
      }
      return out + "]";
    };
    std::ofstream metrics_out(metrics_json, std::ios::app);
    char head[256];
    std::snprintf(head, sizeof(head),
                  "{\"bench\":\"planner_dp\",\"queries\":%d,\"max_joins\":%d,"
                  "\"scale\":%.3f,\"repeats\":%d,\"mismatches\":%llu,",
                  kQueries, kMaxJoins, kScale, kRepeats,
                  static_cast<unsigned long long>(mismatches));
    metrics_out << head << "\"us_per_plan\":" << join_list(prod_us)
                << ",\"reference_us_per_plan\":" << join_list(ref_us)
                << "}\n";
  }
  return mismatches > 0 ? 1 : 0;
}

}  // namespace
}  // namespace lpce::bench

int main(int argc, char** argv) { return lpce::bench::Run(argc, argv); }
