#include "card/mscn.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.h"
#include "nn/kernels.h"

namespace lpce::card {

MscnModel::MscnModel(const db::Catalog* catalog,
                     const model::FeatureEncoder* encoder, MscnConfig config)
    : catalog_(catalog), encoder_(encoder), config_(config) {
  Rng rng(config_.seed);
  const size_t h = static_cast<size_t>(config_.hidden);
  const size_t n_cols = static_cast<size_t>(catalog_->TotalColumns());
  const size_t n_tables = static_cast<size_t>(catalog_->num_tables());
  const size_t pred_dim = n_cols + qry::kNumCmpOps + 1;
  table_mlp_ = nn::Mlp2(&params_, "tables", n_tables, h, h, &rng);
  join_mlp_ = nn::Mlp2(&params_, "joins", n_cols, h, h, &rng);
  pred_mlp_ = nn::Mlp2(&params_, "preds", pred_dim, h, h, &rng);
  out_mlp_ = nn::Mlp2(&params_, "out",
                      3 * h + static_cast<size_t>(config_.extra_inputs), h, 1, &rng);
}

double MscnModel::CardToY(double card) const {
  return std::clamp(std::log1p(std::max(0.0, card)) / config_.log_max_card, 0.0,
                    1.0);
}

double MscnModel::YToCard(double y) const {
  return std::expm1(std::clamp(y, 0.0, 1.0) * config_.log_max_card);
}

void MscnModel::SetFeatures(const qry::Query& query, qry::RelSet rels,
                            nn::Matrix* sets) const {
  const size_t n_cols = static_cast<size_t>(catalog_->TotalColumns());
  const size_t n_tables = static_cast<size_t>(catalog_->num_tables());
  const size_t pred_dim = n_cols + qry::kNumCmpOps + 1;
  std::vector<float> rows[kNumSets];
  auto add_row = [&](int set, size_t width) {
    rows[set].resize(rows[set].size() + width, 0.0f);
    return rows[set].data() + rows[set].size() - width;
  };
  for (int pos = 0; pos < query.num_tables(); ++pos) {
    if (!qry::Contains(rels, pos)) continue;
    add_row(0, n_tables)[query.tables[pos]] = 1.0f;
    for (const auto& pred : query.PredicatesOf(pos)) {
      float* feat = add_row(2, pred_dim);
      feat[catalog_->GlobalColumnId(pred.col)] = 1.0f;
      feat[n_cols + static_cast<size_t>(pred.op)] = 1.0f;
      feat[n_cols + qry::kNumCmpOps] =
          encoder_->NormalizeOperand(pred.col, pred.value);
    }
  }
  for (int join_idx : query.JoinsWithin(rels)) {
    const qry::Join& join = query.joins[join_idx];
    float* two_hot = add_row(1, n_cols);
    two_hot[catalog_->GlobalColumnId(join.left)] = 1.0f;
    two_hot[catalog_->GlobalColumnId(join.right)] = 1.0f;
  }
  const size_t widths[kNumSets] = {n_tables, n_cols, pred_dim};
  for (int set = 0; set < kNumSets; ++set) {
    const size_t count = rows[set].size() / widths[set];
    sets[set] = nn::Matrix(count, widths[set], std::move(rows[set]));
  }
}

void MscnModel::Run(const qry::Query& query, qry::RelSet rels,
                    const std::vector<float>& extra, Activations* acts) const {
  namespace k = nn::kernels;
  LPCE_CHECK(static_cast<int>(extra.size()) == config_.extra_inputs);
  const size_t h = static_cast<size_t>(config_.hidden);
  SetFeatures(query, rels, acts->x);
  acts->pooled = nn::Matrix(1, 3 * h + extra.size(), 0.0f);
  for (int set = 0; set < kNumSets; ++set) {
    const size_t m = acts->x[set].rows();
    if (m == 0) continue;  // an empty set pools to zeros
    const nn::Mlp2& mlp = *set_mlps_[set];
    acts->h1[set] = mlp.l1().Apply(acts->x[set]);
    nn::ReluInPlace(&acts->h1[set]);
    acts->e[set] = mlp.l2().Apply(acts->h1[set]);
    nn::ReluInPlace(&acts->e[set]);
    // Mean pool: the elements' running sum in order, then one scale by 1/m.
    float* pool = acts->pooled.data() + static_cast<size_t>(set) * h;
    const float* e = acts->e[set].data();
    k::Copy(e, pool, h);
    for (size_t i = 1; i < m; ++i) k::AddInPlace(pool, e + i * h, h);
    k::ScaleInPlace(pool, 1.0f / static_cast<float>(m), h);
  }
  for (size_t i = 0; i < extra.size(); ++i) acts->pooled.at(0, 3 * h + i) = extra[i];
  acts->o1 = out_mlp_.l1().Apply(acts->pooled);
  nn::ReluInPlace(&acts->o1);
  nn::Matrix logit = out_mlp_.l2().Apply(acts->o1);
  nn::SigmoidInPlace(&logit);
  acts->y = logit.at(0, 0);
}

double MscnModel::PredictCard(const qry::Query& query, qry::RelSet rels,
                              const std::vector<float>& extra) const {
  Activations acts;
  Run(query, rels, extra, &acts);
  return YToCard(static_cast<double>(acts.y));
}

void MscnModel::Backward(const Activations& acts, float dy,
                         nn::InferArena* arena) const {
  namespace k = nn::kernels;
  const size_t h = static_cast<size_t>(config_.hidden);
  // y = sigmoid(logit); logit = relu(pooled W1 + b1) W2 + b2.
  float d_logit = 0.0f;
  k::SigmoidBackwardAccumulate(&d_logit, &dy, &acts.y, 1);
  const int row0 = 0;
  float* d_o1 = arena->Alloc(out_mlp_.l1().out_dim());
  float* d_pooled = arena->Alloc(acts.pooled.size());
  out_mlp_.Backward(acts.o1.data(), &d_logit, 1, d_o1, d_pooled, arena);
  out_mlp_.AccumulateGrads(acts.pooled.data(), acts.o1.data(), &d_logit, d_o1,
                           &row0, 1);
  // The concat hands each pool its slice. A pool scales its running sum by
  // 1/m, and the sum's Adds pass that gradient to every element unchanged.
  std::vector<int> rows;
  for (int set = 0; set < kNumSets; ++set) {
    const size_t m = acts.x[set].rows();
    if (m == 0) continue;
    float* d_pool = arena->AllocZeroed(h);
    k::AddScaledInPlace(d_pool, d_pooled + static_cast<size_t>(set) * h,
                        1.0f / static_cast<float>(m), h);
    float* d_e2 = arena->AllocZeroed(m * h);
    for (size_t i = 0; i < m; ++i) {
      k::ReluBackwardAccumulate(d_e2 + i * h, d_pool, acts.e[set].data() + i * h,
                                h);
    }
    const nn::Mlp2& mlp = *set_mlps_[set];
    float* d_h1 = arena->Alloc(m * mlp.l1().out_dim());
    mlp.Backward(acts.h1[set].data(), d_e2, m, d_h1, nullptr, arena);
    // The last element's products run first.
    rows.resize(m);
    for (size_t i = 0; i < m; ++i) rows[i] = static_cast<int>(m - 1 - i);
    mlp.AccumulateGrads(acts.x[set].data(), acts.h1[set].data(), d_e2, d_h1,
                        rows.data(), m);
  }
}

std::vector<MscnSample> MscnTrainingSamples(
    const std::vector<wk::LabeledQuery>& train,
    const MscnTrainOptions& options) {
  std::vector<MscnSample> samples;
  for (const auto& labeled : train) {
    for (const auto& [rels, card] : labeled.true_cards) {
      MscnSample s;
      s.query = &labeled.query;
      s.rels = rels;
      s.card = static_cast<double>(card);
      if (options.extra_fn) s.extra = options.extra_fn(labeled.query, rels);
      samples.push_back(std::move(s));
    }
  }

  // Flow-Loss weighting: normalize weights to mean 1 so the lr transfers.
  if (options.cost_weighted) {
    std::vector<float> weights(samples.size(), 1.0f);
    double total = 0.0;
    for (size_t i = 0; i < samples.size(); ++i) {
      weights[i] = static_cast<float>(1.0 + std::log1p(samples[i].card));
      total += weights[i];
    }
    const float norm = static_cast<float>(samples.size() / std::max(total, 1e-9));
    for (auto& w : weights) w *= norm;
    for (size_t i = 0; i < samples.size(); ++i) samples[i].weight = weights[i];
  }
  return samples;
}

double TrainMscn(MscnModel* model, const std::vector<wk::LabeledQuery>& train,
                 const MscnTrainOptions& options,
                 const std::function<void()>& after_step) {
  const std::vector<MscnSample> samples = MscnTrainingSamples(train, options);
  nn::Adam adam(&model->params(), {.lr = options.lr});
  nn::MiniBatchStep step{{{&model->params(), &adam}}, options.grad_clip,
                         after_step};
  Rng rng(options.seed);
  std::vector<size_t> order(samples.size());
  std::iota(order.begin(), order.end(), 0);
  MscnModel::Activations acts;
  nn::InferArena arena;
  double last_loss = 0.0;
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    rng.Shuffle(&order);
    double epoch_loss = 0.0;
    int batch_count = 0;
    for (size_t idx : order) {
      const MscnSample& s = samples[idx];
      model->Run(*s.query, s.rels, s.extra, &acts);
      // loss = w |y - y*|, and its gradient at y.
      const float target = static_cast<float>(model->CardToY(s.card));
      float diff = acts.y;
      nn::kernels::AddScaledInPlace(&diff, &target, -1.0f, 1);  // Sub
      float loss = std::fabs(diff);
      nn::kernels::ScaleInPlace(&loss, s.weight, 1);
      const float one = 1.0f;
      float d_abs = 0.0f;
      nn::kernels::AddScaledInPlace(&d_abs, &one, s.weight, 1);  // Scale
      float d_y = 0.0f;
      nn::kernels::AbsBackwardAccumulate(&d_y, &d_abs, &diff, 1);  // Abs, Sub
      arena.Reset();
      model->Backward(acts, d_y, &arena);
      epoch_loss += loss;
      if (++batch_count >= options.batch_size) {
        step.Run(batch_count);
        batch_count = 0;
      }
    }
    if (batch_count > 0) step.Run(batch_count);
    last_loss = samples.empty() ? 0.0 : epoch_loss / samples.size();
    LPCE_LOG(Debug) << "mscn epoch " << epoch << " loss " << last_loss;
  }
  return last_loss;
}

}  // namespace lpce::card
