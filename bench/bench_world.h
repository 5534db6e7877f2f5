// Shared world for all bench binaries: the synthetic database, labeled
// train/test workloads, and every trained model. Built once and cached on
// disk (directory from LPCE_CACHE_DIR, default ./lpce_cache_v1) so each
// bench binary starts fast; delete the directory to force a rebuild.
//
// Environment knobs:
//   LPCE_SCALE          dataset scale factor        (default 1.0)
//   LPCE_TRAIN_QUERIES  training workload size      (default 800)
//   LPCE_TEST_QUERIES   queries per test join-count (default 40)
//   LPCE_CACHE_DIR      cache directory             (default ./lpce_cache_v1)
//   LPCE_NUM_THREADS    worker pool size for training matmuls
//                       (default: hardware concurrency)
#ifndef LPCE_BENCH_BENCH_WORLD_H_
#define LPCE_BENCH_BENCH_WORLD_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "card/histogram_estimator.h"
#include "card/mscn.h"
#include "card/sampling.h"
#include "engine/engine.h"
#include "lpce/estimators.h"
#include "lpce/lpce_r.h"
#include "workload/workload.h"

namespace lpce::bench {

struct WorldOptions {
  double scale = 1.0;
  int train_queries = 800;
  int test_queries = 40;
  uint64_t seed = 42;
  std::string cache_dir = "lpce_cache_v1";

  static WorldOptions FromEnv();
};

/// Everything the paper's experiments need, trained and ready.
struct World {
  WorldOptions options;
  std::unique_ptr<db::Database> database;
  stats::DatabaseStats stats;
  std::unique_ptr<model::FeatureEncoder> encoder;

  std::vector<wk::LabeledQuery> train;
  /// Test workloads keyed by join count (2..8); Join-six/-eight/-three of
  /// the paper are test_by_joins.at(6/8/3).
  std::map<int, std::vector<wk::LabeledQuery>> test_by_joins;
  double log_max_card = 20.0;

  // Tree models (Sec. 7.3 naming):
  std::unique_ptr<model::TreeModel> lpce_s;  // SRU, large (the teacher)
  std::unique_ptr<model::TreeModel> lpce_t;  // LSTM, large, node-wise
  std::unique_ptr<model::TreeModel> lpce_c;  // SRU, small, direct training
  std::unique_ptr<model::TreeModel> lpce_i;  // SRU, small, distilled (LPCE-I)
  std::unique_ptr<model::TreeModel> lpce_q;  // SRU, large, query-wise loss
  std::unique_ptr<model::TreeModel> tlstm;   // LSTM, large, query-wise (TLSTM)

  std::unique_ptr<card::MscnModel> mscn;
  std::unique_ptr<card::MscnModel> flowloss;
  std::unique_ptr<card::MscnModel> hybrid_correction;  // UAE* correction net

  std::unique_ptr<model::LpceR> lpce_r;
  std::unique_ptr<model::LpceR> lpce_r_single;
  std::unique_ptr<model::LpceR> lpce_r_two;

  /// Telemetry of every tree-model/LPCE-R training run keyed by model tag
  /// (lpce_s, lpce_i, ...). Empty when the models came from the disk cache —
  /// nothing was trained in this process. Thread-safe (TrainStatsCache):
  /// serving workers may read while a late (re)training records.
  model::TrainStatsCache train_stats;

  /// Walk budgets of the sampling stand-ins (DeepDB*/NeuroCard*/FLAT*/UAE*).
  /// Larger budgets = more accurate and slower, mirroring each baseline's
  /// accuracy/latency profile in the paper's Table 1.
  int deepdb_walks = 8000;
  int neurocard_walks = 3000;
  int flat_walks = 1000;
  int uae_walks = 300;

  model::TreeModelConfig StudentConfig() const;
  model::TreeModelConfig TeacherConfig(bool lstm = false) const;
};

/// Builds (or loads from cache) the singleton world. Construction is
/// thread-safe (magic static); the returned snapshot is immutable afterwards
/// — serving-layer workers share it read-only (train_stats, the one member
/// with a mutation path, is internally synchronized).
const World& GetWorld();

/// One named estimator, optionally with a refiner for re-optimization runs.
struct EstimatorEntry {
  std::string name;
  std::unique_ptr<card::CardinalityEstimator> estimator;
  std::unique_ptr<card::CardinalityEstimator> refiner;  // LPCE-R only
  bool enable_reopt = false;
  /// Engine configuration for this entry's runs. The LPCE-R entry uses the
  /// refined trigger policy (underestimates-only with a size floor, no
  /// restart) — our implementation of the trigger-policy future work the
  /// paper's Sec. 6.2/8 calls for; at millisecond executions the paper's
  /// plain q-error>=50 rule fires on inconsequential nodes and its
  /// re-planning overhead is no longer negligible. bench_ablation_trigger
  /// quantifies the difference.
  eng::RunConfig run_config;
};

/// The paper's baseline lineup (Table 1/2 rows, in paper order):
/// PostgreSQL, DeepDB*, NeuroCard*, FLAT*, UAE*, MSCN, Flow-Loss, TLSTM,
/// LPCE-I, LPCE-R. Asterisks mark documented stand-ins (DESIGN.md).
std::vector<EstimatorEntry> MakeEstimatorLineup(const World& world);

/// Mean/percentile helpers shared by the bench printers.
double Percentile(std::vector<double> values, double pct);

/// Parses the bench command line. Call first thing in main(). Flags:
///   --trace_json=PATH    append every RunWorkload query's full trace JSON
///                        (engine/trace.h, kFull mode) as one line to PATH.
///   --metrics_json=PATH  append one JSON line per RunWorkload call holding
///                        the entry name and the metrics-registry delta
///                        (common/metrics.h Snapshot/Delta) over the run.
/// Unknown flags print usage and exit(2).
void ParseBenchFlags(int argc, char** argv);

/// Path given via --metrics_json (empty when the flag is absent). Benches
/// that don't route through RunWorkload append their own summary JSON lines
/// to this file.
const std::string& MetricsJsonPath();

/// Runs every query of a workload end-to-end with the entry's estimator
/// (+ refiner / re-optimization when the entry enables it), verifying result
/// counts against the labels. Returns one RunStats per query. With
/// --trace_json, each query's trace is appended to the flag's file; with
/// --metrics_json, the run's metric delta is appended to that file.
std::vector<eng::RunStats> RunWorkload(const World& world,
                                       const EstimatorEntry& entry,
                                       const std::vector<wk::LabeledQuery>& queries);

}  // namespace lpce::bench

#endif  // LPCE_BENCH_BENCH_WORLD_H_
