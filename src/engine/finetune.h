// Background fine-tune worker: the training side of the online feedback
// loop (ROADMAP item 1; paper Sec. 7.5's drift experiment — ~10 epochs on
// ~200 post-drift queries restores q-error parity).
//
// The worker owns one background thread that sleeps until Kick()ed — by the
// drift monitor's global listener (Start() registers it) or manually by
// tests/benches. A kicked run:
//   1. pins the registry's current version (never trains in place — the
//      published TreeModel stays read-only for concurrent inference),
//   2. harvests every persisted (sub-plan, true cardinality) pair from the
//      feedback store (deterministic order),
//   3. clones the pinned model (same encoder/config, CopyParamsFrom) and
//      fine-tunes the clone with TrainTreeModel — TrainStats telemetry and
//      the LPCE_TRAIN_LOG JSONL ride along, tagged "finetune",
//   4. publishes the clone through the registry; the refiner snapshot is
//      carried over unchanged.
// In-flight queries keep their pinned version throughout; workers pick the
// new version up between queries (engine/server.cc). No query is ever
// rejected or dropped on account of a fine-tune.
//
// Runs with fewer than `min_records` harvested pairs are skipped (counted);
// seeds are fixed and training is single-threaded by default, so a given
// store state fine-tunes to bit-identical parameters on every lane.
#ifndef LPCE_ENGINE_FINETUNE_H_
#define LPCE_ENGINE_FINETUNE_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

#include "feedback/feedback_store.h"
#include "lpce/model_registry.h"
#include "storage/database.h"

namespace lpce::eng {

struct FineTuneOptions {
  /// The drift-recovery recipe validated in EXPERIMENTS.md: a short
  /// low-learning-rate continuation of the stale parameters.
  int epochs = 10;
  float lr = 5e-4f;
  int batch_size = 32;
  /// Skip a run when the store holds fewer live records than this — a
  /// trickle of feedback is not worth a publish.
  size_t min_records = 32;
  /// TrainOptions::num_threads for the fine-tune passes (1 = sequential;
  /// training is bit-identical at any setting, this just caps pool use).
  int num_threads = 1;
  uint64_t seed = 4242;

  /// epochs/lr from LPCE_FINETUNE_EPOCHS / LPCE_FINETUNE_LR,
  /// min_records from LPCE_FINETUNE_MIN_RECORDS. Each set value must parse
  /// whole (std::from_chars) to a finite positive number; anything else is
  /// a fatal error naming the knob.
  static FineTuneOptions FromEnv();
};

/// True when LPCE_FINETUNE is set to a non-empty value other than "0".
bool FineTuneEnabledFromEnv();

class FineTuneWorker {
 public:
  /// `registry` must have a published version before the first run; all
  /// pointers are borrowed and must outlive the worker.
  FineTuneWorker(model::ModelRegistry* registry, fb::FeedbackStore* store,
                 const db::Database* database, FineTuneOptions options);
  /// Stops the background thread (same as Stop()).
  ~FineTuneWorker();

  FineTuneWorker(const FineTuneWorker&) = delete;
  FineTuneWorker& operator=(const FineTuneWorker&) = delete;

  /// Starts the background thread and registers the global drift listener
  /// (drift flags then kick fine-tuning process-wide). Idempotent.
  void Start();

  /// Requests a background run (coalesced: kicks during a run trigger one
  /// follow-up run, not one run each). Safe from any thread; non-blocking.
  void Kick();

  /// Unregisters the drift listener and joins the thread. A run in progress
  /// completes (and publishes) first. Idempotent; called by the destructor.
  void Stop();

  /// Synchronous single run, usable without Start() (tests, benches, or
  /// cron-style offline fine-tuning). Returns the published version, or 0
  /// when the run was skipped (too few records / no published version).
  uint64_t RunOnce();

  struct Counters {
    uint64_t kicks = 0;      // Kick() calls (incl. drift-listener kicks)
    uint64_t runs = 0;       // fine-tune attempts (background + RunOnce)
    uint64_t published = 0;  // runs that published a new version
    uint64_t skipped = 0;    // runs skipped (min_records gate, empty registry)
  };
  Counters counters() const;

 private:
  void Loop();

  model::ModelRegistry* registry_;
  fb::FeedbackStore* store_;
  const db::Database* db_;
  FineTuneOptions options_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool kicked_ = false;
  bool stop_ = false;
  bool started_ = false;
  std::thread thread_;
  Counters counters_;
};

}  // namespace lpce::eng

#endif  // LPCE_ENGINE_FINETUNE_H_
