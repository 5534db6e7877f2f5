#include "bench_world.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/timer.h"

namespace lpce::bench {

namespace {

double EnvDouble(const char* name, double fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::atof(v) : fallback;
}

int EnvInt(const char* name, int fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::atoi(v) : fallback;
}

std::string EnvString(const char* name, const std::string& fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::string(v) : fallback;
}

constexpr int kCacheVersion = 5;

std::string MetaString(const WorldOptions& options) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "v%d scale=%.4f train=%d test=%d seed=%llu",
                kCacheVersion, options.scale, options.train_queries,
                options.test_queries,
                static_cast<unsigned long long>(options.seed));
  return buf;
}

bool CacheValid(const WorldOptions& options) {
  std::ifstream meta(options.cache_dir + "/meta.txt");
  if (!meta.good()) return false;
  std::string line;
  std::getline(meta, line);
  return line == MetaString(options);
}

}  // namespace

WorldOptions WorldOptions::FromEnv() {
  WorldOptions options;
  options.scale = EnvDouble("LPCE_SCALE", 1.0);
  options.train_queries = EnvInt("LPCE_TRAIN_QUERIES", 800);
  options.test_queries = EnvInt("LPCE_TEST_QUERIES", 40);
  options.cache_dir = EnvString("LPCE_CACHE_DIR", "lpce_cache_v1");
  return options;
}

model::TreeModelConfig World::StudentConfig() const {
  model::TreeModelConfig config;
  config.feature_dim = encoder->dim();
  config.dim = 32;
  config.embed_hidden = 32;
  config.out_hidden = 64;
  config.log_max_card = log_max_card;
  config.seed = 11;
  return config;
}

model::TreeModelConfig World::TeacherConfig(bool lstm) const {
  model::TreeModelConfig config;
  config.feature_dim = encoder->dim();
  config.dim = 96;
  config.embed_hidden = 96;
  config.out_hidden = 256;
  config.use_lstm = lstm;
  config.log_max_card = log_max_card;
  config.seed = 22;
  return config;
}

namespace {

void BuildWorkloads(World* world) {
  const WorldOptions& options = world->options;
  const std::string dir = options.cache_dir;
  if (CacheValid(options)) {
    LPCE_CHECK(wk::LoadWorkload(dir + "/train.bin", &world->train).ok());
    for (int joins = 2; joins <= 8; ++joins) {
      LPCE_CHECK(wk::LoadWorkload(dir + "/test_" + std::to_string(joins) + ".bin",
                                  &world->test_by_joins[joins])
                     .ok());
    }
    return;
  }
  LPCE_LOG(Info) << "bench world: generating workloads (no valid cache)";
  WallTimer timer;
  // Train: 6-8 joins, as in the paper (Sec. 7.1); the node-wise loss
  // provides supervision for the smaller sub-plans. Training queries are
  // drawn from the same non-empty-result distribution as the test sets (the
  // paper's workloads are result-producing queries with 1s-1500s runtimes).
  wk::GeneratorOptions gen;
  gen.seed = options.seed;
  gen.require_nonempty = true;
  wk::QueryGenerator train_gen(world->database.get(), gen);
  world->train = train_gen.GenerateLabeled(options.train_queries, 6, 8);
  // Test: one set per join count, non-empty results (the paper selects test
  // queries with non-trivial execution behaviour).
  for (int joins = 2; joins <= 8; ++joins) {
    wk::GeneratorOptions test_opts;
    test_opts.seed = options.seed + 1000 + static_cast<uint64_t>(joins);
    test_opts.require_nonempty = true;
    wk::QueryGenerator test_gen(world->database.get(), test_opts);
    world->test_by_joins[joins] =
        test_gen.GenerateLabeled(options.test_queries, joins, joins);
  }
  LPCE_LOG(Info) << "workload generation took " << timer.ElapsedSeconds() << "s";

  std::filesystem::create_directories(dir);
  LPCE_CHECK(wk::SaveWorkload(world->train, dir + "/train.bin").ok());
  for (int joins = 2; joins <= 8; ++joins) {
    LPCE_CHECK(wk::SaveWorkload(world->test_by_joins[joins],
                                dir + "/test_" + std::to_string(joins) + ".bin")
                   .ok());
  }
}

void BuildModels(World* world) {
  const std::string dir = world->options.cache_dir;
  const bool cached = CacheValid(world->options);

  world->lpce_s = std::make_unique<model::TreeModel>(world->encoder.get(),
                                                     world->TeacherConfig());
  {
    auto cfg = world->TeacherConfig(/*lstm=*/true);
    cfg.seed = 23;
    world->lpce_t = std::make_unique<model::TreeModel>(world->encoder.get(), cfg);
  }
  {
    auto cfg = world->StudentConfig();
    cfg.seed = 12;
    world->lpce_c = std::make_unique<model::TreeModel>(world->encoder.get(), cfg);
  }
  world->lpce_i = std::make_unique<model::TreeModel>(world->encoder.get(),
                                                     world->StudentConfig());
  {
    auto cfg = world->TeacherConfig();
    cfg.seed = 24;
    world->lpce_q = std::make_unique<model::TreeModel>(world->encoder.get(), cfg);
  }
  {
    auto cfg = world->TeacherConfig(/*lstm=*/true);
    cfg.seed = 25;
    world->tlstm = std::make_unique<model::TreeModel>(world->encoder.get(), cfg);
  }

  card::MscnConfig mscn_cfg;
  mscn_cfg.hidden = 64;
  mscn_cfg.log_max_card = world->log_max_card;
  world->mscn = std::make_unique<card::MscnModel>(&world->database->catalog(),
                                                  world->encoder.get(), mscn_cfg);
  mscn_cfg.seed = 10;
  world->flowloss = std::make_unique<card::MscnModel>(
      &world->database->catalog(), world->encoder.get(), mscn_cfg);
  mscn_cfg.seed = 13;
  mscn_cfg.extra_inputs = 1;
  world->hybrid_correction = std::make_unique<card::MscnModel>(
      &world->database->catalog(), world->encoder.get(), mscn_cfg);

  world->lpce_r = std::make_unique<model::LpceR>(
      world->encoder.get(), world->StudentConfig(), model::RefinerMode::kFull);
  world->lpce_r_single = std::make_unique<model::LpceR>(
      world->encoder.get(), world->StudentConfig(), model::RefinerMode::kSingle);
  world->lpce_r_two = std::make_unique<model::LpceR>(
      world->encoder.get(), world->StudentConfig(), model::RefinerMode::kTwo);

  if (cached) {
    LPCE_CHECK(world->lpce_s->params().LoadFromFile(dir + "/lpce_s.bin").ok());
    LPCE_CHECK(world->lpce_t->params().LoadFromFile(dir + "/lpce_t.bin").ok());
    LPCE_CHECK(world->lpce_c->params().LoadFromFile(dir + "/lpce_c.bin").ok());
    LPCE_CHECK(world->lpce_i->params().LoadFromFile(dir + "/lpce_i.bin").ok());
    LPCE_CHECK(world->lpce_q->params().LoadFromFile(dir + "/lpce_q.bin").ok());
    LPCE_CHECK(world->tlstm->params().LoadFromFile(dir + "/tlstm.bin").ok());
    LPCE_CHECK(world->mscn->params().LoadFromFile(dir + "/mscn.bin").ok());
    LPCE_CHECK(world->flowloss->params().LoadFromFile(dir + "/flowloss.bin").ok());
    LPCE_CHECK(
        world->hybrid_correction->params().LoadFromFile(dir + "/hybrid.bin").ok());
    LPCE_CHECK(world->lpce_r->Load(dir + "/lpce_r").ok());
    LPCE_CHECK(world->lpce_r_single->Load(dir + "/lpce_r_single").ok());
    LPCE_CHECK(world->lpce_r_two->Load(dir + "/lpce_r_two").ok());
    return;
  }

  const db::Database& database = *world->database;
  const auto& train = world->train;
  WallTimer timer;

  LPCE_LOG(Info) << "training LPCE-S (teacher, SRU large, node-wise)";
  model::TrainOptions node_wise;
  node_wise.epochs = 24;
  node_wise.tag = "lpce_s";
  world->train_stats.Record(
      "lpce_s", model::TrainTreeModel(world->lpce_s.get(), database, train,
                                      node_wise));

  LPCE_LOG(Info) << "training LPCE-T (LSTM large, node-wise)";
  node_wise.tag = "lpce_t";
  world->train_stats.Record(
      "lpce_t", model::TrainTreeModel(world->lpce_t.get(), database, train,
                                      node_wise));

  LPCE_LOG(Info) << "training LPCE-C (SRU small, direct)";
  node_wise.tag = "lpce_c";
  world->train_stats.Record(
      "lpce_c", model::TrainTreeModel(world->lpce_c.get(), database, train,
                                      node_wise));

  LPCE_LOG(Info) << "training LPCE-I (distilled from LPCE-S)";
  model::DistillOptions distill;
  distill.hint_epochs = 8;
  distill.predict_epochs = 60;
  distill.tag = "lpce_i";
  world->train_stats.Record(
      "lpce_i", model::DistillTreeModel(world->lpce_i.get(), *world->lpce_s,
                                        database, train, distill));

  LPCE_LOG(Info) << "training LPCE-Q (SRU large, query-wise)";
  model::TrainOptions query_wise = node_wise;
  query_wise.node_wise = false;
  query_wise.tag = "lpce_q";
  world->train_stats.Record(
      "lpce_q", model::TrainTreeModel(world->lpce_q.get(), database, train,
                                      query_wise));

  LPCE_LOG(Info) << "training TLSTM (LSTM large, query-wise)";
  query_wise.tag = "tlstm";
  world->train_stats.Record(
      "tlstm", model::TrainTreeModel(world->tlstm.get(), database, train,
                                     query_wise));

  LPCE_LOG(Info) << "training MSCN";
  card::MscnTrainOptions mscn_opts;
  mscn_opts.epochs = 8;
  card::TrainMscn(world->mscn.get(), train, mscn_opts);

  LPCE_LOG(Info) << "training Flow-Loss (cost-weighted MSCN)";
  mscn_opts.cost_weighted = true;
  card::TrainMscn(world->flowloss.get(), train, mscn_opts);

  LPCE_LOG(Info) << "training UAE* correction net (hybrid)";
  card::JoinSampleEstimator train_sampler("uae-train", world->database.get(),
                                          world->uae_walks, 555);
  card::MscnTrainOptions hybrid_opts;
  hybrid_opts.epochs = 8;
  hybrid_opts.extra_fn = [&](const qry::Query& q, qry::RelSet rels) {
    return std::vector<float>{static_cast<float>(
        world->hybrid_correction->CardToY(train_sampler.EstimateSubset(q, rels)))};
  };
  card::TrainMscn(world->hybrid_correction.get(), train, hybrid_opts);

  LPCE_LOG(Info) << "training LPCE-R (full, content from LPCE-I)";
  model::LpceRTrainOptions lpce_r_opts;
  lpce_r_opts.pretrain = node_wise;
  lpce_r_opts.pretrain.tag = "lpce_r_pretrain";
  lpce_r_opts.refine_epochs = 8;
  lpce_r_opts.prefixes_per_query = 4;
  lpce_r_opts.pretrained_content = world->lpce_i.get();
  lpce_r_opts.tag = "lpce_r";
  world->train_stats.Record(
      "lpce_r", model::TrainLpceR(world->lpce_r.get(), database, train,
                                  lpce_r_opts));

  LPCE_LOG(Info) << "training LPCE-R-Single (ablation)";
  model::LpceRTrainOptions single_opts = lpce_r_opts;
  single_opts.pretrained_content = nullptr;
  single_opts.tag = "lpce_r_single";
  world->train_stats.Record(
      "lpce_r_single", model::TrainLpceR(world->lpce_r_single.get(), database,
                                         train, single_opts));

  LPCE_LOG(Info) << "training LPCE-R-Two (ablation)";
  single_opts.tag = "lpce_r_two";
  world->train_stats.Record(
      "lpce_r_two", model::TrainLpceR(world->lpce_r_two.get(), database, train,
                                      single_opts));

  LPCE_LOG(Info) << "model training took " << timer.ElapsedSeconds() << "s";

  LPCE_CHECK(world->lpce_s->params().SaveToFile(dir + "/lpce_s.bin").ok());
  LPCE_CHECK(world->lpce_t->params().SaveToFile(dir + "/lpce_t.bin").ok());
  LPCE_CHECK(world->lpce_c->params().SaveToFile(dir + "/lpce_c.bin").ok());
  LPCE_CHECK(world->lpce_i->params().SaveToFile(dir + "/lpce_i.bin").ok());
  LPCE_CHECK(world->lpce_q->params().SaveToFile(dir + "/lpce_q.bin").ok());
  LPCE_CHECK(world->tlstm->params().SaveToFile(dir + "/tlstm.bin").ok());
  LPCE_CHECK(world->mscn->params().SaveToFile(dir + "/mscn.bin").ok());
  LPCE_CHECK(world->flowloss->params().SaveToFile(dir + "/flowloss.bin").ok());
  LPCE_CHECK(
      world->hybrid_correction->params().SaveToFile(dir + "/hybrid.bin").ok());
  LPCE_CHECK(world->lpce_r->Save(dir + "/lpce_r").ok());
  LPCE_CHECK(world->lpce_r_single->Save(dir + "/lpce_r_single").ok());
  LPCE_CHECK(world->lpce_r_two->Save(dir + "/lpce_r_two").ok());

  // Write meta last: its presence marks a complete cache.
  std::ofstream meta(dir + "/meta.txt");
  meta << MetaString(world->options) << "\n";
}

}  // namespace

const World& GetWorld() {
  static World* world = [] {
    auto* w = new World();
    w->options = WorldOptions::FromEnv();
    LPCE_LOG(Info) << "bench world: scale=" << w->options.scale
                   << " train=" << w->options.train_queries
                   << " test/joins=" << w->options.test_queries
                   << " cache=" << w->options.cache_dir
                   << " threads=" << common::GlobalPool().size();
    db::SynthImdbOptions db_opts;
    db_opts.seed = w->options.seed;
    db_opts.scale = w->options.scale;
    w->database = db::BuildSynthImdb(db_opts);
    w->stats.Build(*w->database);
    w->encoder = std::make_unique<model::FeatureEncoder>(&w->database->catalog(),
                                                         &w->stats);
    BuildWorkloads(w);
    w->log_max_card = std::log1p(static_cast<double>(wk::MaxCardinality(w->train)));
    BuildModels(w);
    return w;
  }();
  return *world;
}

std::vector<EstimatorEntry> MakeEstimatorLineup(const World& world) {
  std::vector<EstimatorEntry> lineup;
  auto add = [&](std::string name,
                 std::unique_ptr<card::CardinalityEstimator> estimator) {
    EstimatorEntry entry;
    entry.name = std::move(name);
    entry.estimator = std::move(estimator);
    lineup.push_back(std::move(entry));
  };
  add("PostgreSQL", std::make_unique<card::HistogramEstimator>(&world.stats));
  add("DeepDB*", std::make_unique<card::JoinSampleEstimator>(
                     "DeepDB*", world.database.get(), world.deepdb_walks, 101));
  add("NeuroCard*",
      std::make_unique<card::JoinSampleEstimator>(
          "NeuroCard*", world.database.get(), world.neurocard_walks, 102));
  add("FLAT*", std::make_unique<card::JoinSampleEstimator>(
                   "FLAT*", world.database.get(), world.flat_walks, 103));
  {
    // UAE*: the hybrid owns its sampler.
    struct OwningHybrid : public card::CardinalityEstimator {
      explicit OwningHybrid(const World& w)
          : sampler("uae-sampler", w.database.get(), w.uae_walks, 104),
            hybrid("UAE*", &sampler, w.hybrid_correction.get()) {}
      std::string name() const override { return "UAE*"; }
      void PrepareQuery(const qry::Query& q) override {
        hybrid.PrepareQuery(q);
      }
      double EstimateSubset(const qry::Query& q, qry::RelSet rels) override {
        return hybrid.EstimateSubset(q, rels);
      }
      card::JoinSampleEstimator sampler;
      card::HybridSampleEstimator hybrid;
    };
    add("UAE*", std::make_unique<OwningHybrid>(world));
  }
  add("MSCN", std::make_unique<card::MscnEstimator>("MSCN", world.mscn.get()));
  add("Flow-Loss",
      std::make_unique<card::MscnEstimator>("Flow-Loss", world.flowloss.get()));
  add("TLSTM", std::make_unique<model::TreeModelEstimator>(
                   "TLSTM", world.tlstm.get(), world.database.get()));
  add("LPCE-I", std::make_unique<model::TreeModelEstimator>(
                    "LPCE-I", world.lpce_i.get(), world.database.get()));
  {
    EstimatorEntry entry;
    entry.name = "LPCE-R";
    entry.estimator = std::make_unique<model::TreeModelEstimator>(
        "LPCE-I", world.lpce_i.get(), world.database.get());
    entry.refiner = std::make_unique<model::LpceREstimator>(world.lpce_r.get(),
                                                            world.database.get());
    entry.enable_reopt = true;
    entry.run_config.enable_reopt = true;
    entry.run_config.underestimates_only = true;
    entry.run_config.min_trip_rows = 2000;
    entry.run_config.consider_restart = false;
    lineup.push_back(std::move(entry));
  }
  return lineup;
}

namespace {
std::string g_trace_json_path;    // --trace_json=PATH; empty = off
std::string g_metrics_json_path;  // --metrics_json=PATH; empty = off
}  // namespace

void ParseBenchFlags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::string prefix = "--trace_json=";
    if (arg.rfind(prefix, 0) == 0) {
      g_trace_json_path = arg.substr(prefix.size());
      continue;
    }
    const std::string metrics_prefix = "--metrics_json=";
    if (arg.rfind(metrics_prefix, 0) == 0) {
      g_metrics_json_path = arg.substr(metrics_prefix.size());
      continue;
    }
    std::fprintf(stderr,
                 "unknown flag %s\nusage: %s [--trace_json=PATH] "
                 "[--metrics_json=PATH]\n",
                 arg.c_str(), argv[0]);
    std::exit(2);
  }
}

const std::string& MetricsJsonPath() { return g_metrics_json_path; }

std::vector<eng::RunStats> RunWorkload(const World& world,
                                       const EstimatorEntry& entry,
                                       const std::vector<wk::LabeledQuery>& queries) {
  eng::Engine engine(world.database.get(), opt::CostModel{});
  eng::RunConfig config = entry.run_config;
  config.enable_reopt = entry.enable_reopt;
  std::vector<eng::RunStats> out;
  out.reserve(queries.size());
  std::ofstream trace_out;
  if (!g_trace_json_path.empty()) {
    trace_out.open(g_trace_json_path, std::ios::app);
    LPCE_CHECK_MSG(trace_out.good(), "cannot open --trace_json file");
  }
  std::ofstream metrics_out;
  if (!g_metrics_json_path.empty()) {
    metrics_out.open(g_metrics_json_path, std::ios::app);
    LPCE_CHECK_MSG(metrics_out.good(), "cannot open --metrics_json file");
  }
  // Snapshot-diff instead of ResetAll: the registry is process-global and
  // other entries' runs accumulate into the same instruments.
  const common::MetricsSnapshot before =
      metrics_out.is_open() ? common::MetricsRegistry::Global().Snapshot()
                            : common::MetricsSnapshot{};
  for (const auto& labeled : queries) {
    eng::RunStats stats = engine.RunQuery(labeled.query, entry.estimator.get(),
                                          entry.refiner.get(), config);
    LPCE_CHECK_MSG(stats.result_count == labeled.FinalCard(),
                   "end-to-end result mismatch");
    if (trace_out.is_open()) {
      trace_out << stats.trace->ToJson(eng::TraceJsonMode::kFull) << "\n";
    }
    out.push_back(std::move(stats));
  }
  if (metrics_out.is_open()) {
    const common::MetricsSnapshot delta =
        common::Delta(before, common::MetricsRegistry::Global().Snapshot());
    metrics_out << "{\"entry\":\"" << entry.name
                << "\",\"queries\":" << queries.size()
                << ",\"delta\":" << delta.ToJson() << "}\n";
  }
  return out;
}

double Percentile(std::vector<double> values, double pct) {
  LPCE_CHECK(!values.empty());
  std::sort(values.begin(), values.end());
  const double rank = pct / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

}  // namespace lpce::bench
