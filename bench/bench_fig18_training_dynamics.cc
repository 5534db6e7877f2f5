// Paper Figure 18: how sample-collection time, model-training time, and the
// resulting end-to-end query time change with the number of training
// queries. Trains a fresh LPCE-I (teacher + distillation) per sweep point.
//
// Expected shape: collection + training time grow linearly; end-to-end time
// decreases with diminishing returns.
#include <cstdio>

#include "bench_world.h"
#include "common/timer.h"

namespace lpce::bench {
namespace {

void Run() {
  const World& world = GetWorld();
  const int full = static_cast<int>(world.train.size());
  const std::vector<int> sweep = {full / 8, full / 4, full / 2, full};

  // A small end-to-end evaluation set (Join-six and Join-eight heads).
  std::vector<wk::LabeledQuery> eval;
  for (int joins : {6, 8}) {
    const auto& set = world.test_by_joins.at(joins);
    for (size_t i = 0; i < std::min<size_t>(set.size(), 10); ++i) {
      eval.push_back(set[i]);
    }
  }

  std::printf("\n=== Figure 18: training dynamics vs number of samples ===\n");
  std::printf("%8s %14s %12s %10s %12s %14s\n", "samples", "collect(s)",
              "train(s)", "epochs", "final loss", "e2e eval(s)");
  for (int n : sweep) {
    if (n < 8) continue;
    // Sample collection: re-label the n training queries from scratch.
    // Paper Sec. 7.3 executes the canonical plans and observes that this
    // dominates training cost; here labels come from the counting pass over
    // each query's join tree, which builds no join result.
    WallTimer collect_timer;
    std::vector<wk::LabeledQuery> subset(world.train.begin(),
                                         world.train.begin() + n);
    for (auto& labeled : subset) {
      labeled.true_cards.clear();
      wk::LabelQuery(*world.database, &labeled);
    }
    const double collect_seconds = collect_timer.ElapsedSeconds();

    // Training cost and dynamics come straight from the TrainStats reports —
    // no bench-side timer around the calls.
    model::TreeModel teacher(world.encoder.get(), world.TeacherConfig());
    model::TrainOptions topt;
    topt.epochs = 12;
    topt.tag = "fig18_teacher@" + std::to_string(n);
    const model::TrainStats teacher_stats =
        model::TrainTreeModel(&teacher, *world.database, subset, topt);
    model::TreeModel student(world.encoder.get(), world.StudentConfig());
    model::DistillOptions distill;
    distill.hint_epochs = 8;
    distill.predict_epochs = 24;
    distill.tag = "fig18_distill@" + std::to_string(n);
    const model::TrainStats distill_stats = model::DistillTreeModel(
        &student, teacher, *world.database, subset, distill);
    const double train_seconds =
        teacher_stats.total_seconds + distill_stats.total_seconds;
    const size_t train_epochs =
        teacher_stats.epochs.size() + distill_stats.epochs.size();

    EstimatorEntry entry;
    entry.name = "LPCE-I@" + std::to_string(n);
    entry.estimator = std::make_unique<model::TreeModelEstimator>(
        entry.name, &student, world.database.get());
    const auto stats = RunWorkload(world, entry, eval);
    double e2e = 0.0;
    for (const auto& s : stats) e2e += s.TotalSeconds();

    std::printf("%8d %14.2f %12.2f %10zu %12.4f %14.3f\n", n, collect_seconds,
                train_seconds, train_epochs, distill_stats.final_train_loss(),
                e2e);
  }
  std::printf("\n(paper: collection dominates and grows linearly; execution"
              " time falls with diminishing returns)\n");
}

}  // namespace
}  // namespace lpce::bench

int main(int argc, char** argv) {
  lpce::bench::ParseBenchFlags(argc, argv);
  lpce::bench::Run();
  return 0;
}
