#include "engine/finetune.h"

#include <charconv>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/fpclass.h"
#include "common/metrics.h"
#include "engine/drift_monitor.h"

namespace lpce::eng {

namespace {

struct FineTuneMetrics {
  common::Counter* kicks;
  common::Counter* runs;
  common::Counter* published;
  common::Counter* skipped;
  common::Histogram* train_seconds;
};

const FineTuneMetrics& Metrics() {
  static const FineTuneMetrics metrics = [] {
    auto& registry = common::MetricsRegistry::Global();
    FineTuneMetrics m;
    m.kicks = registry.counter("lpce.finetune.kicks_total");
    m.runs = registry.counter("lpce.finetune.runs_total");
    m.published = registry.counter("lpce.finetune.published_total");
    m.skipped = registry.counter("lpce.finetune.skipped_total");
    m.train_seconds = registry.histogram("lpce.finetune.train_seconds");
    return m;
  }();
  return metrics;
}

}  // namespace

namespace {

/// Parses `name`'s value as a whole number or a finite decimal, all of it,
/// through std::from_chars. Anything else, and any value <= 0, is a fatal
/// error naming the knob and its value. The finiteness test reads the bits
/// (common/fpclass.h): -ffast-math folds std::isfinite to true.
template <typename T>
T PositiveFromEnv(const char* name, T fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || value[0] == '\0') return fallback;
  const std::string_view text(value);
  T parsed{};
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), parsed);
  const bool ok = ec == std::errc() && ptr == text.data() + text.size() &&
                  common::IsFinite(static_cast<double>(parsed)) && parsed > T{0};
  const std::string msg = std::string(name) + "=\"" + value +
                          "\" is not a finite positive number";
  LPCE_CHECK_MSG(ok, msg.c_str());
  return parsed;
}

}  // namespace

FineTuneOptions FineTuneOptions::FromEnv() {
  FineTuneOptions options;
  options.epochs = PositiveFromEnv("LPCE_FINETUNE_EPOCHS", options.epochs);
  options.lr = PositiveFromEnv("LPCE_FINETUNE_LR", options.lr);
  options.min_records =
      PositiveFromEnv("LPCE_FINETUNE_MIN_RECORDS", options.min_records);
  return options;
}

bool FineTuneEnabledFromEnv() {
  const char* value = std::getenv("LPCE_FINETUNE");
  return value != nullptr && value[0] != '\0' && std::string(value) != "0";
}

FineTuneWorker::FineTuneWorker(model::ModelRegistry* registry,
                               fb::FeedbackStore* store,
                               const db::Database* database,
                               FineTuneOptions options)
    : registry_(registry), store_(store), db_(database), options_(options) {
  LPCE_CHECK_MSG(registry_ != nullptr && store_ != nullptr && db_ != nullptr,
                 "FineTuneWorker needs a registry, store, and database");
}

FineTuneWorker::~FineTuneWorker() { Stop(); }

void FineTuneWorker::Start() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (started_) return;
    started_ = true;
    stop_ = false;
  }
  thread_ = std::thread([this] { Loop(); });
  SetGlobalDriftListener(
      [this](const std::vector<DriftFinding>& findings) {
        (void)findings;  // any drifted template retrains the shared model
        Kick();
      });
}

void FineTuneWorker::Kick() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    kicked_ = true;
    ++counters_.kicks;
  }
  Metrics().kicks->Increment();
  cv_.notify_one();
}

void FineTuneWorker::Stop() {
  bool was_started = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    was_started = started_;
    started_ = false;
    stop_ = true;
  }
  if (!was_started) return;
  SetGlobalDriftListener(nullptr);
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void FineTuneWorker::Loop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || kicked_; });
      if (stop_ && !kicked_) return;
      kicked_ = false;  // coalesce kicks received before this run started
    }
    RunOnce();
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_ && !kicked_) return;
  }
}

uint64_t FineTuneWorker::RunOnce() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.runs;
  }
  Metrics().runs->Increment();

  // Pin the version the fine-tune continues from. A publish racing in after
  // this pin simply means the next kick continues from the newer version.
  std::shared_ptr<const model::ModelVersion> base = registry_->Current();
  std::vector<wk::LabeledQuery> train =
      store_ == nullptr ? std::vector<wk::LabeledQuery>{} : store_->HarvestAll();
  if (base == nullptr || train.size() < options_.min_records) {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.skipped;
    Metrics().skipped->Increment();
    return 0;
  }

  // Clone-then-train: the published snapshot is immutable, so concurrent
  // inference on `base` is untouched while the clone trains.
  auto tuned = std::make_shared<model::TreeModel>(base->model->encoder(),
                                                  base->model->config());
  tuned->CopyParamsFrom(*base->model);
  model::TrainOptions train_options;
  train_options.epochs = options_.epochs;
  train_options.lr = options_.lr;
  train_options.batch_size = options_.batch_size;
  train_options.seed = options_.seed;
  train_options.num_threads = options_.num_threads;
  train_options.tag = "finetune";
  const model::TrainStats stats =
      model::TrainTreeModel(tuned.get(), *db_, train, train_options);
  Metrics().train_seconds->Observe(stats.total_seconds);

  const uint64_t version = registry_->Publish(
      std::move(tuned), base->refiner,
      "finetune@v" + std::to_string(base->version));
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.published;
  }
  Metrics().published->Increment();
  return version;
}

FineTuneWorker::Counters FineTuneWorker::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

}  // namespace lpce::eng
