// Paper Figure 19: average model inference time for one cardinality
// estimation — LPCE-T (LSTM large), LPCE-S (SRU large), LPCE-C (SRU small,
// direct), LPCE-I (SRU small, distilled). Uses google-benchmark, then prints
// each model's training-cost summary (TrainStats) so inference speed can be
// read against what the model cost to train.
//
// Expected shape: SRU ~1.7x faster than LSTM at equal size; the compressed
// models another ~1.8x faster (paper Sec. 7.3).
// Inference-path comparison: per-node latency of the taped autograd forward
// (the tests' oracle, testing::TapedForward) and the level-batched Infer, plus
// a multi-tree batch lane; verifies the batched outputs are bit-identical to
// the taped ones. Then the LPCE-R round pass: µs per refined estimate of the
// shared-prefix pass vs one unit chain per subset, after every executed
// prefix of each Join-eight plan; exits 1 on any bit difference. One JSON
// summary line per model goes to the --metrics_json file.
#include <benchmark/benchmark.h>

#include <bit>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <set>
#include <vector>

#include "bench_world.h"
#include "common/logging.h"
#include "lpce/estimators.h"
#include "lpce/tree_model.h"
#include "testing/taped_trainer.h"

namespace lpce::bench {
namespace {

void EstimateOnce(benchmark::State& state, const model::TreeModel& tree_model) {
  const World& world = GetWorld();
  const auto& queries = world.test_by_joins.at(8);
  model::TreeModelEstimator estimator("bench", &tree_model, world.database.get());
  size_t i = 0;
  for (auto _ : state) {
    const auto& labeled = queries[i % queries.size()];
    benchmark::DoNotOptimize(
        estimator.EstimateSubset(labeled.query, labeled.query.AllRels()));
    ++i;
  }
}

void BM_LpceT(benchmark::State& state) { EstimateOnce(state, *GetWorld().lpce_t); }
void BM_LpceS(benchmark::State& state) { EstimateOnce(state, *GetWorld().lpce_s); }
void BM_LpceC(benchmark::State& state) { EstimateOnce(state, *GetWorld().lpce_c); }
void BM_LpceI(benchmark::State& state) { EstimateOnce(state, *GetWorld().lpce_i); }

BENCHMARK(BM_LpceT)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_LpceS)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_LpceC)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_LpceI)->Unit(benchmark::kMicrosecond);

// ---- Inference-path comparison ----

/// The join-8 test workload as estimation trees (canonical join order, true
/// cardinality labels attached), shared by the path lanes below.
struct TreeSet {
  std::vector<const qry::Query*> queries;
  std::vector<std::unique_ptr<model::EstNode>> trees;
  size_t total_nodes = 0;  // non-injected nodes across all trees
};

size_t CountNodes(const model::EstNode* n) {
  if (n == nullptr || n->is_injected()) return 0;
  return 1 + CountNodes(n->left.get()) + CountNodes(n->right.get());
}

const TreeSet& GetTreeSet() {
  static const TreeSet set = [] {
    TreeSet s;
    const World& world = GetWorld();
    for (const auto& labeled : world.test_by_joins.at(8)) {
      auto logical =
          qry::BuildCanonicalTree(labeled.query, labeled.query.AllRels());
      s.trees.push_back(model::MakeEstTree(labeled.query, logical.get(),
                                           *world.database,
                                           &labeled.true_cards));
      s.queries.push_back(&labeled.query);
      s.total_nodes += CountNodes(s.trees.back().get());
    }
    return s;
  }();
  return set;
}

enum class Path { kTaped, kBatched, kBatchedMultiTree };

/// One state iteration = one tree (or all trees for the multi-tree lane);
/// items processed = plan nodes, so benchmark's items/s is nodes/s and the
/// per-node latency is its inverse.
void PerNodeLane(benchmark::State& state, const model::TreeModel& m,
                 Path path) {
  const TreeSet& set = GetTreeSet();
  std::vector<std::pair<const qry::Query*, const model::EstNode*>> batch;
  for (size_t t = 0; t < set.trees.size(); ++t) {
    batch.emplace_back(set.queries[t], set.trees[t].get());
  }
  std::vector<std::vector<model::TreeModel::InferNodeOutput>> outs;
  int64_t items = 0;
  size_t i = 0;
  for (auto _ : state) {
    const size_t t = i % set.trees.size();
    switch (path) {
      case Path::kTaped:
        benchmark::DoNotOptimize(
            testing::TapedForward(m, *set.queries[t], set.trees[t].get()));
        break;
      case Path::kBatched:
        benchmark::DoNotOptimize(
            m.PredictCardFast(*set.queries[t], set.trees[t].get()));
        break;
      case Path::kBatchedMultiTree:
        m.InferTrees(batch, &outs);
        benchmark::DoNotOptimize(outs.data());
        break;
    }
    items += path == Path::kBatchedMultiTree
                 ? static_cast<int64_t>(set.total_nodes)
                 : static_cast<int64_t>(set.total_nodes / set.trees.size());
    ++i;
  }
  state.SetItemsProcessed(items);
}

void BM_PerNode_Taped(benchmark::State& s) {
  PerNodeLane(s, *GetWorld().lpce_s, Path::kTaped);
}
void BM_PerNode_Batched(benchmark::State& s) {
  PerNodeLane(s, *GetWorld().lpce_s, Path::kBatched);
}
void BM_PerNode_BatchedMultiTree(benchmark::State& s) {
  PerNodeLane(s, *GetWorld().lpce_s, Path::kBatchedMultiTree);
}

BENCHMARK(BM_PerNode_Taped)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_PerNode_Batched)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_PerNode_BatchedMultiTree)->Unit(benchmark::kMicrosecond);

/// Timed sweep over the whole tree set on one path; returns ns per node.
/// Takes the MINIMUM over `repeats` sweeps — the sweeps are deterministic, so
/// the fastest one is the least-perturbed measurement and the minimum is
/// robust against scheduler preemption on shared machines (mean/total are
/// not: one preempted sweep would poison the whole lane).
double TimePath(const model::TreeModel& m, Path path, int repeats) {
  const TreeSet& set = GetTreeSet();
  std::vector<std::pair<const qry::Query*, const model::EstNode*>> batch;
  for (size_t t = 0; t < set.trees.size(); ++t) {
    batch.emplace_back(set.queries[t], set.trees[t].get());
  }
  std::vector<std::vector<model::TreeModel::InferNodeOutput>> outs;
  double best_ns = std::numeric_limits<double>::infinity();
  for (int r = 0; r < repeats; ++r) {
    const auto start = std::chrono::steady_clock::now();
    if (path == Path::kBatchedMultiTree) {
      m.InferTrees(batch, &outs);
    } else {
      for (size_t t = 0; t < set.trees.size(); ++t) {
        switch (path) {
          case Path::kTaped:
            benchmark::DoNotOptimize(
                testing::TapedForward(m, *set.queries[t], set.trees[t].get()));
            break;
          default:
            benchmark::DoNotOptimize(
                m.PredictCardFast(*set.queries[t], set.trees[t].get()));
            break;
        }
      }
    }
    const auto end = std::chrono::steady_clock::now();
    const double ns =
        std::chrono::duration<double, std::nano>(end - start).count();
    if (ns < best_ns) best_ns = ns;
  }
  return best_ns / static_cast<double>(set.total_nodes);
}

/// Every non-injected node's sigmoid output must carry the same bits on the
/// taped forward (testing::TapedForward) and the level-batched Infer (the
/// acceptance criterion that lets the engine switch paths without
/// regenerating goldens).
bool BatchedOutputsBitIdentical(const model::TreeModel& m) {
  const TreeSet& set = GetTreeSet();
  std::vector<std::pair<const qry::Query*, const model::EstNode*>> batch;
  for (size_t t = 0; t < set.trees.size(); ++t) {
    batch.emplace_back(set.queries[t], set.trees[t].get());
  }
  std::vector<std::vector<model::TreeModel::InferNodeOutput>> outs;
  m.InferTrees(batch, &outs);
  for (size_t t = 0; t < set.trees.size(); ++t) {
    const auto fwd =
        testing::TapedForward(m, *set.queries[t], set.trees[t].get());
    if (fwd.size() != outs[t].size()) return false;
    for (size_t i = 0; i < fwd.size(); ++i) {
      if (outs[t][i].y != fwd[i].y->value().at(0, 0)) return false;
    }
  }
  return true;
}

/// Opens the --metrics_json file for appending (closed stream when unset).
std::ofstream OpenMetricsJson() {
  std::ofstream json;
  if (!MetricsJsonPath().empty()) {
    json.open(MetricsJsonPath(), std::ios::app);
    LPCE_CHECK_MSG(json.good(), "cannot open --metrics_json file");
  }
  return json;
}

/// Returns false when a batched output differs from the taped forward.
bool PrintInferencePathComparison() {
  const World& world = GetWorld();
  std::printf("\n=== per-node inference latency by path (join-8 workload, "
              "%zu nodes) ===\n", GetTreeSet().total_nodes);
  std::printf("%8s %12s %12s %12s %10s %8s\n", "model", "taped(ns)",
              "batched(ns)", "multi(ns)", "speedup", "exact");
  std::ofstream json = OpenMetricsJson();
  const int repeats = 20;
  const std::pair<const char*, const model::TreeModel*> models[] = {
      {"lpce_s", world.lpce_s.get()}, {"lpce_t", world.lpce_t.get()}};
  bool all_exact = true;
  for (const auto& [tag, m] : models) {
    const double taped = TimePath(*m, Path::kTaped, repeats);
    const double batched = TimePath(*m, Path::kBatched, repeats);
    const double multi = TimePath(*m, Path::kBatchedMultiTree, repeats);
    const bool exact = BatchedOutputsBitIdentical(*m);
    all_exact = all_exact && exact;
    std::printf("%8s %12.0f %12.0f %12.0f %9.2fx %8s\n", tag, taped, batched,
                multi, taped / batched, exact ? "yes" : "NO");
    if (json.is_open()) {
      json << "{\"bench\":\"fig19_inference_paths\",\"model\":\"" << tag
           << "\",\"taped_ns_per_node\":" << taped
           << ",\"batched_ns_per_node\":" << batched
           << ",\"batched_multi_tree_ns_per_node\":" << multi
           << ",\"speedup_batched_vs_taped\":" << taped / batched
           << ",\"bit_identical_to_taped\":" << (exact ? "true" : "false")
           << "}\n";
    }
  }
  std::printf("(speedup = taped / batched; 'exact' = batched outputs "
              "bit-identical to the taped Forward)\n");
  return all_exact;
}

// ---- LPCE-R: round pass vs per-subset chain ----

/// One refinement round: a Join-eight query after the first k post-order
/// operators of its canonical plan ran. `subsets` is every connected subset
/// except the executed roots, which the engine's overlay answers from the
/// observations instead.
struct RefineRound {
  const wk::LabeledQuery* labeled = nullptr;
  std::vector<qry::RelSet> observed;
  std::vector<qry::RelSet> subsets;
};

const std::vector<RefineRound>& GetRefineRounds() {
  static const std::vector<RefineRound> rounds = [] {
    std::vector<RefineRound> out;
    for (const auto& labeled : GetWorld().test_by_joins.at(8)) {
      const qry::Query& query = labeled.query;
      auto logical = qry::BuildCanonicalTree(query, query.AllRels());
      std::vector<const qry::LogicalNode*> nodes;
      qry::PostOrder(logical.get(), &nodes);
      for (size_t k = 0; k < nodes.size(); ++k) {
        RefineRound round;
        round.labeled = &labeled;
        std::set<qry::RelSet> roots;
        for (size_t i = 0; i < k; ++i) {
          round.observed.push_back(nodes[i]->rels);
          if (!nodes[i]->is_leaf()) {
            roots.erase(nodes[i]->left->rels);
            roots.erase(nodes[i]->right->rels);
          }
          roots.insert(nodes[i]->rels);
        }
        for (qry::RelSet rels = 1; rels <= query.AllRels(); ++rels) {
          if (query.IsConnected(rels) && roots.count(rels) == 0) {
            round.subsets.push_back(rels);
          }
        }
        out.push_back(std::move(round));
      }
    }
    return out;
  }();
  return rounds;
}

size_t CountRefineEstimates() {
  size_t n = 0;
  for (const RefineRound& round : GetRefineRounds()) n += round.subsets.size();
  return n;
}

void ObserveRound(const RefineRound& round, model::LpceREstimator* estimator) {
  estimator->ResetObservations();
  for (qry::RelSet rels : round.observed) {
    estimator->ObserveActual(
        round.labeled->query, rels,
        static_cast<double>(round.labeled->true_cards.at(rels)));
  }
}

/// Minimum over `repeats` sweeps of every round (observations included), in
/// µs per refined estimate; `chain` selects the per-subset chain.
double TimeRefinePath(const model::LpceR& lpce_r, bool chain, int repeats) {
  model::LpceREstimator estimator(&lpce_r, GetWorld().database.get());
  double best_ns = std::numeric_limits<double>::infinity();
  for (int r = 0; r < repeats; ++r) {
    const auto start = std::chrono::steady_clock::now();
    for (const RefineRound& round : GetRefineRounds()) {
      ObserveRound(round, &estimator);
      const qry::Query& query = round.labeled->query;
      for (qry::RelSet rels : round.subsets) {
        benchmark::DoNotOptimize(
            chain ? estimator.EstimateSubsetChain(query, rels)
                  : estimator.EstimateSubset(query, rels));
      }
    }
    const auto end = std::chrono::steady_clock::now();
    best_ns = std::min(
        best_ns, std::chrono::duration<double, std::nano>(end - start).count());
  }
  return best_ns / 1e3 / static_cast<double>(CountRefineEstimates());
}

/// Refined estimates whose round-pass bits differ from the chain's.
size_t RoundPassMismatches(const model::LpceR& lpce_r) {
  model::LpceREstimator pass(&lpce_r, GetWorld().database.get());
  model::LpceREstimator chain(&lpce_r, GetWorld().database.get());
  size_t mismatches = 0;
  for (const RefineRound& round : GetRefineRounds()) {
    ObserveRound(round, &pass);
    ObserveRound(round, &chain);
    const qry::Query& query = round.labeled->query;
    for (qry::RelSet rels : round.subsets) {
      const double a = pass.EstimateSubset(query, rels);
      const double b = chain.EstimateSubsetChain(query, rels);
      if (std::bit_cast<uint64_t>(a) != std::bit_cast<uint64_t>(b)) {
        ++mismatches;
      }
    }
  }
  return mismatches;
}

/// Returns false when a round-pass estimate differs from the chain's.
bool PrintRefinerRoundPass() {
  const World& world = GetWorld();
  const size_t estimates = CountRefineEstimates();
  std::printf("\n=== LPCE-R refined estimates: round pass vs per-subset chain "
              "(join-8, %zu rounds, %zu estimates) ===\n",
              GetRefineRounds().size(), estimates);
  std::printf("%12s %14s %14s %10s %10s\n", "model", "chain(us/est)",
              "pass(us/est)", "speedup", "mismatch");
  std::ofstream json = OpenMetricsJson();
  const int repeats = 5;
  const std::pair<const char*, const model::LpceR*> models[] = {
      {"lpce_r", world.lpce_r.get()}, {"lpce_r_two", world.lpce_r_two.get()}};
  bool all_exact = true;
  for (const auto& [tag, m] : models) {
    const double chain = TimeRefinePath(*m, /*chain=*/true, repeats);
    const double pass = TimeRefinePath(*m, /*chain=*/false, repeats);
    const size_t mismatches = RoundPassMismatches(*m);
    all_exact = all_exact && mismatches == 0;
    std::printf("%12s %14.2f %14.2f %9.2fx %10zu\n", tag, chain, pass,
                chain / pass, mismatches);
    if (json.is_open()) {
      json << "{\"bench\":\"fig19_lpce_r_round_pass\",\"model\":\"" << tag
           << "\",\"rounds\":" << GetRefineRounds().size()
           << ",\"estimates\":" << estimates
           << ",\"chain_us_per_estimate\":" << chain
           << ",\"pass_us_per_estimate\":" << pass
           << ",\"speedup_pass_vs_chain\":" << chain / pass
           << ",\"bit_identical_to_chain\":"
           << (mismatches == 0 ? "true" : "false") << "}\n";
    }
  }
  std::printf("(speedup = chain / pass; 'mismatch' = estimates whose bits "
              "differ from the chain's)\n");
  return all_exact;
}

void PrintTrainingSummary() {
  const World& world = GetWorld();
  if (world.train_stats.empty()) {
    std::printf("\n(training summary unavailable: models loaded from cache;"
                " delete %s to retrain)\n", world.options.cache_dir.c_str());
    return;
  }
  std::printf("\n=== training cost per model (this process) ===\n");
  std::printf("%8s %8s %10s %12s %12s\n", "model", "epochs", "best", "train(s)",
              "final loss");
  for (const char* tag : {"lpce_t", "lpce_s", "lpce_c", "lpce_i"}) {
    model::TrainStats s;
    if (!world.train_stats.Find(tag, &s)) continue;
    std::printf("%8s %8zu %10d %12.2f %12.4f\n", tag, s.epochs.size(),
                s.best_epoch, s.total_seconds, s.final_train_loss());
  }
}

}  // namespace
}  // namespace lpce::bench

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  lpce::bench::ParseBenchFlags(argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  const bool paths_exact = lpce::bench::PrintInferencePathComparison();
  const bool refiner_exact = lpce::bench::PrintRefinerRoundPass();
  lpce::bench::PrintTrainingSummary();
  if (!paths_exact || !refiner_exact) {
    std::fprintf(stderr, "bench_fig19: batched estimates are not bit-identical "
                         "to their reference path\n");
    return 1;
  }
  return 0;
}
