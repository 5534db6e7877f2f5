// Training bench: ms per epoch of the explicit-backward trainers against the
// taped oracle kept with the tests (tests/testing/taped_trainer.h: every
// sample alone through testing::TapedForward and nn::Backward), for the
// three trainers perfbench's set-up runs: the dim-96 node-wise teacher
// (TrainTreeModel), distillation into the dim-32 student (DistillTreeModel,
// one hint and one prediction epoch) and LPCE-R's stage 2 (TrainLpceR,
// kFull); plus two that only the paper benches train: a dim-96 query-wise
// TLSTM (TrainTreeModel on the LSTM cell) and MSCN (card::TrainMscn).
// Alongside, the pin the speedup rides on: both trainers must leave every
// parameter bit, epoch loss and gradient norm equal (MSCN reports only its
// last epoch's mean loss, compared to a relative 1e-12: its division may
// compile to a reciprocal multiply in one trainer only).
//
// Self-contained like bench_workload_label: builds its own synthetic
// database and runs in seconds.
//
// Fixed world: perfbench's training set-up (64 queries of 2-8 joins at
// scale 0.05, labelled under a 300k row cap; the same model shapes), global
// pool at one thread; the fastest of 3 repeats is kept.
//
// Flags:
//   --metrics_json=PATH   append one summary JSON line
//
// Exits 1 on any parameter bit, loss or gradient norm that differs.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "card/mscn.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "lpce/lpce_r.h"
#include "lpce/tree_model.h"
#include "stats/column_stats.h"
#include "storage/database.h"
#include "testing/taped_trainer.h"
#include "workload/workload.h"

namespace lpce::bench {
namespace {

constexpr double kScale = 0.05;
constexpr int kQueries = 64;
constexpr int kRepeats = 3;
constexpr uint64_t kSeed = 7;

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

std::vector<float> Snapshot(const std::vector<const nn::ParamStore*>& stores) {
  std::vector<float> out;
  for (const nn::ParamStore* store : stores) {
    for (const auto& name : store->names()) {
      const nn::Matrix& m = store->Get(name)->value();
      out.insert(out.end(), m.data(), m.data() + m.size());
    }
  }
  return out;
}

/// True when both runs left the same parameter bits and epoch stats.
bool SameRun(const std::vector<float>& level, const std::vector<float>& taped,
             const model::TrainStats& level_stats,
             const model::TrainStats& taped_stats) {
  if (level.size() != taped.size() ||
      std::memcmp(level.data(), taped.data(), level.size() * sizeof(float)) !=
          0 ||
      level_stats.epochs.size() != taped_stats.epochs.size()) {
    return false;
  }
  for (size_t e = 0; e < level_stats.epochs.size(); ++e) {
    const model::EpochStats& a = level_stats.epochs[e];
    const model::EpochStats& b = taped_stats.epochs[e];
    if (a.train_loss != b.train_loss || a.grad_norm != b.grad_norm ||
        a.samples != b.samples) {
      return false;
    }
  }
  return true;
}

double MsPerEpoch(const model::TrainStats& stats) {
  double seconds = 0.0;
  for (const model::EpochStats& e : stats.epochs) seconds += e.wall_seconds;
  return stats.epochs.empty() ? 0.0 : seconds * 1e3 / stats.epochs.size();
}

struct Row {
  const char* name;
  double level_ms = 0.0;
  double taped_ms = 0.0;
  bool same = true;
};

int Run(int argc, char** argv) {
  const std::string metrics_json = ParseMetricsJson(argc, argv);

  db::SynthImdbOptions opts;
  opts.scale = kScale;
  auto database = db::BuildSynthImdb(opts);
  common::SetGlobalPoolSize(1);
  stats::DatabaseStats stats(*database);
  model::FeatureEncoder encoder(&database->catalog(), &stats);
  wk::GeneratorOptions gen;
  gen.seed = kSeed;
  gen.require_nonempty = true;
  gen.max_node_rows = 300'000;
  const std::vector<wk::LabeledQuery> train =
      wk::QueryGenerator(database.get(), gen).GenerateLabeled(kQueries, 2, 8);

  model::TreeModelConfig student;
  student.feature_dim = encoder.dim();
  student.dim = 32;
  student.embed_hidden = 32;
  student.out_hidden = 64;
  student.log_max_card =
      std::log1p(static_cast<double>(wk::MaxCardinality(train)));
  student.seed = 11;
  model::TreeModelConfig teacher_config = student;
  teacher_config.dim = 96;
  teacher_config.embed_hidden = 96;
  teacher_config.out_hidden = 256;
  teacher_config.seed = 22;
  model::TrainOptions node_wise;
  node_wise.epochs = 2;

  std::printf("Training bench: %d queries (2-8 joins), scale %.2f, "
              "min of %d repeats\n",
              kQueries, kScale, kRepeats);
  constexpr int kRows = 5;
  Row rows[kRows] = {{"teacher"}, {"distill"}, {"lpce_r_refine"}, {"tlstm"},
                     {"mscn"}};
  model::TreeModelConfig tlstm_config = teacher_config;
  tlstm_config.use_lstm = true;
  model::TrainOptions query_wise = node_wise;
  query_wise.node_wise = false;
  card::MscnConfig mscn_config;
  mscn_config.log_max_card = student.log_max_card;
  card::MscnTrainOptions mscn_options;
  mscn_options.epochs = 2;
  // The teacher the distillation and LPCE-R rows start from.
  model::TreeModel teacher(&encoder, teacher_config);
  model::TrainTreeModel(&teacher, *database, train, node_wise);
  model::TreeModel distilled(&encoder, student);
  model::DistillOptions distill;
  distill.hint_epochs = 1;
  distill.predict_epochs = 1;
  model::DistillTreeModel(&distilled, teacher, *database, train, distill);

  for (int r = 0; r < kRepeats; ++r) {
    double ms[kRows][2];
    bool same[kRows];
    {
      model::TreeModel level(&encoder, teacher_config);
      model::TreeModel taped(&encoder, teacher_config);
      const auto a = model::TrainTreeModel(&level, *database, train, node_wise);
      const auto b =
          testing::TapedTrainTreeModel(&taped, *database, train, node_wise);
      ms[0][0] = MsPerEpoch(a);
      ms[0][1] = MsPerEpoch(b);
      same[0] = SameRun(Snapshot({&level.params()}),
                        Snapshot({&taped.params()}), a, b);
    }
    {
      model::TreeModel level(&encoder, student);
      model::TreeModel taped(&encoder, student);
      const auto a =
          model::DistillTreeModel(&level, teacher, *database, train, distill);
      const auto b = testing::TapedDistillTreeModel(&taped, teacher, *database,
                                                    train, distill);
      ms[1][0] = MsPerEpoch(a);
      ms[1][1] = MsPerEpoch(b);
      same[1] = SameRun(Snapshot({&level.params()}),
                        Snapshot({&taped.params()}), a, b);
    }
    {
      model::LpceRTrainOptions refiner;
      refiner.pretrain = node_wise;
      refiner.pretrain.epochs = 1;
      refiner.refine_epochs = 2;
      refiner.prefixes_per_query = 4;
      refiner.pretrained_content = &distilled;
      model::LpceR level(&encoder, student, model::RefinerMode::kFull);
      model::LpceR taped(&encoder, student, model::RefinerMode::kFull);
      const auto a = model::TrainLpceR(&level, *database, train, refiner);
      const auto b = testing::TapedTrainLpceR(&taped, *database, train, refiner);
      ms[2][0] = MsPerEpoch(a);
      ms[2][1] = MsPerEpoch(b);
      same[2] = SameRun(Snapshot({&level.refine().params(),
                                  &level.connect_params(),
                                  &level.cardinality().params()}),
                        Snapshot({&taped.refine().params(),
                                  &taped.connect_params(),
                                  &taped.cardinality().params()}),
                        a, b);
    }
    {
      model::TreeModel level(&encoder, tlstm_config);
      model::TreeModel taped(&encoder, tlstm_config);
      const auto a = model::TrainTreeModel(&level, *database, train, query_wise);
      const auto b =
          testing::TapedTrainTreeModel(&taped, *database, train, query_wise);
      ms[3][0] = MsPerEpoch(a);
      ms[3][1] = MsPerEpoch(b);
      same[3] = SameRun(Snapshot({&level.params()}),
                        Snapshot({&taped.params()}), a, b);
    }
    {
      card::MscnModel level(&database->catalog(), &encoder, mscn_config);
      card::MscnModel taped(&database->catalog(), &encoder, mscn_config);
      WallTimer level_timer;
      const double a = card::TrainMscn(&level, train, mscn_options);
      ms[4][0] = level_timer.ElapsedSeconds() * 1e3 / mscn_options.epochs;
      WallTimer taped_timer;
      const double b = testing::TapedTrainMscn(&taped, train, mscn_options);
      ms[4][1] = taped_timer.ElapsedSeconds() * 1e3 / mscn_options.epochs;
      const std::vector<float> pa = Snapshot({&level.params()});
      const std::vector<float> pb = Snapshot({&taped.params()});
      same[4] = pa.size() == pb.size() &&
                std::memcmp(pa.data(), pb.data(), pa.size() * sizeof(float)) ==
                    0 &&
                std::fabs(a - b) <= 1e-12 * std::fabs(b);
    }
    for (int i = 0; i < kRows; ++i) {
      if (r == 0 || ms[i][0] < rows[i].level_ms) rows[i].level_ms = ms[i][0];
      if (r == 0 || ms[i][1] < rows[i].taped_ms) rows[i].taped_ms = ms[i][1];
      rows[i].same = rows[i].same && same[i];
    }
  }

  std::printf("%-14s %15s %15s %9s %10s\n", "trainer", "level ms/epoch",
              "taped ms/epoch", "speedup", "bits");
  int mismatches = 0;
  for (const Row& row : rows) {
    std::printf("%-14s %15.2f %15.2f %8.2fx %10s\n", row.name, row.level_ms,
                row.taped_ms,
                row.level_ms > 0.0 ? row.taped_ms / row.level_ms : 0.0,
                row.same ? "equal" : "DIFFER");
    mismatches += row.same ? 0 : 1;
  }
  if (mismatches > 0) {
    std::printf("!! %d trainers differ from the taped oracle\n", mismatches);
  }
  if (!metrics_json.empty()) {
    std::ofstream metrics_out(metrics_json, std::ios::app);
    char line[768];
    std::snprintf(
        line, sizeof(line),
        "{\"bench\":\"train_level\",\"queries\":%d,\"scale\":%.3f,"
        "\"repeats\":%d,\"mismatches\":%d,"
        "\"teacher_ms_per_epoch\":%.3f,\"teacher_taped_ms_per_epoch\":%.3f,"
        "\"distill_ms_per_epoch\":%.3f,\"distill_taped_ms_per_epoch\":%.3f,"
        "\"lpce_r_refine_ms_per_epoch\":%.3f,"
        "\"lpce_r_refine_taped_ms_per_epoch\":%.3f,"
        "\"tlstm_ms_per_epoch\":%.3f,\"tlstm_taped_ms_per_epoch\":%.3f,"
        "\"mscn_ms_per_epoch\":%.3f,\"mscn_taped_ms_per_epoch\":%.3f}\n",
        kQueries, kScale, kRepeats, mismatches, rows[0].level_ms,
        rows[0].taped_ms, rows[1].level_ms, rows[1].taped_ms,
        rows[2].level_ms, rows[2].taped_ms, rows[3].level_ms,
        rows[3].taped_ms, rows[4].level_ms, rows[4].taped_ms);
    metrics_out << line;
  }
  return mismatches > 0 ? 1 : 0;
}

}  // namespace
}  // namespace lpce::bench

int main(int argc, char** argv) { return lpce::bench::Run(argc, argv); }
