#include "nn/layers.h"

#include <cmath>
#include <cstdio>

#include <sys/stat.h>

#include "nn/kernels.h"

namespace lpce::nn {

Param* ParamStore::GetOrCreate(const std::string& name, size_t rows, size_t cols,
                              float limit, Rng* rng) {
  auto it = params_.find(name);
  if (it != params_.end()) {
    LPCE_CHECK_MSG(it->second.value().rows() == rows &&
                       it->second.value().cols() == cols,
                   "parameter re-created with a different shape");
    return &it->second;
  }
  Matrix m(rows, cols);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng->UniformDouble(-limit, limit));
  }
  Param* param = &params_.emplace(name, Param(std::move(m))).first->second;
  names_.push_back(name);
  return param;
}

Param* ParamStore::Get(const std::string& name) {
  auto it = params_.find(name);
  LPCE_CHECK_MSG(it != params_.end(), "unknown parameter");
  return &it->second;
}

const Param* ParamStore::Get(const std::string& name) const {
  auto it = params_.find(name);
  LPCE_CHECK_MSG(it != params_.end(), "unknown parameter");
  return &it->second;
}

size_t ParamStore::NumParams() const {
  size_t n = 0;
  for (const auto& [name, p] : params_) n += p.value().size();
  return n;
}

void ParamStore::ZeroGrads() {
  for (auto& [name, p] : params_) p.grad().Zero();
}

void ParamStore::ScaleGrads(float scale) {
  for (auto& [name, p] : params_) {
    kernels::ScaleInPlace(p.grad().data(), scale, p.grad().size());
  }
}

float ParamStore::GradNorm() const {
  float sq = 0.0f;
  for (const auto& [name, p] : params_) sq += p.grad().SumSquares();
  return std::sqrt(sq);
}

void ParamStore::ClipGradNorm(float max_norm) {
  const float norm = GradNorm();
  if (norm <= max_norm || norm == 0.0f) return;
  ScaleGrads(max_norm / norm);
}

Status ParamStore::SaveToFile(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IoError("cannot open for write: " + path);
  auto put = [f](const void* data, size_t size, size_t count) {
    return std::fwrite(data, size, count, f) == count;
  };
  bool ok = true;
  const uint64_t count = names_.size();
  ok = ok && put(&count, sizeof(count), 1);
  for (const auto& name : names_) {
    const Matrix& value = params_.at(name).value();
    const uint64_t len = name.size();
    const uint64_t rows = value.rows();
    const uint64_t cols = value.cols();
    ok = ok && put(&len, sizeof(len), 1) && put(name.data(), 1, len) &&
         put(&rows, sizeof(rows), 1) && put(&cols, sizeof(cols), 1) &&
         put(value.data(), sizeof(float), value.size());
  }
  // Buffered writes may fail only at the flush.
  ok = std::fflush(f) == 0 && ok;
  struct stat st;
  const bool regular = fstat(fileno(f), &st) == 0 && S_ISREG(st.st_mode);
  ok = std::fclose(f) == 0 && ok;
  if (ok) return Status::Ok();
  // Never leave a truncated file where a reader (or a rename) expects a
  // whole one. Only regular files are removed, not devices.
  if (regular) std::remove(path.c_str());
  return Status::IoError("write failed: " + path);
}

Status ParamStore::LoadFromFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IoError("cannot open for read: " + path);
  uint64_t count = 0;
  if (std::fread(&count, sizeof(count), 1, f) != 1) {
    std::fclose(f);
    return Status::IoError("truncated parameter file: " + path);
  }
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t len = 0, rows = 0, cols = 0;
    if (std::fread(&len, sizeof(len), 1, f) != 1 || len > 4096) {
      std::fclose(f);
      return Status::IoError("corrupt parameter file: " + path);
    }
    std::string name(len, '\0');
    if (std::fread(name.data(), 1, len, f) != len ||
        std::fread(&rows, sizeof(rows), 1, f) != 1 ||
        std::fread(&cols, sizeof(cols), 1, f) != 1) {
      std::fclose(f);
      return Status::IoError("corrupt parameter file: " + path);
    }
    auto it = params_.find(name);
    if (it == params_.end()) {
      std::fclose(f);
      return Status::InvalidArgument("parameter not in model: " + name);
    }
    Matrix& m = it->second.mutable_value();
    if (m.rows() != rows || m.cols() != cols) {
      std::fclose(f);
      return Status::InvalidArgument("shape mismatch for parameter: " + name);
    }
    if (std::fread(m.data(), sizeof(float), m.size(), f) != m.size()) {
      std::fclose(f);
      return Status::IoError("truncated parameter data: " + path);
    }
  }
  std::fclose(f);
  return Status::Ok();
}

Linear::Linear(ParamStore* store, const std::string& prefix, size_t in, size_t out,
               Rng* rng)
    : in_(in), out_(out) {
  // Xavier/Glorot uniform initialization.
  const float limit = std::sqrt(6.0f / static_cast<float>(in + out));
  w_ = store->GetOrCreate(prefix + ".W", in, out, limit, rng);
  b_ = store->GetOrCreate(prefix + ".b", 1, out, 0.0f, rng);
}

Matrix Linear::Apply(const Matrix& x) const {
  LPCE_DCHECK(w_ != nullptr);
  Matrix out = x.MatMul(w_->value());
  kernels::AddBiasRows(out.data(), out.rows(), out.cols(), b_->value().data());
  return out;
}

void Linear::BackwardInput(const float* dy, size_t n, float* dx) const {
  kernels::GemmNT(dy, n, out_, w_->value().data(), in_, dx);
}

void Linear::AccumulateGrads(const float* x, const float* dy, const int* rows,
                             size_t count) const {
  if (count == 0) return;
  kernels::AccumulateOuterRows(x, in_, dy, out_, rows, count,
                               w_->grad().data());
  float* bias_grad = b_->grad().data();
  for (size_t r = 0; r < count; ++r) {
    kernels::AddInPlace(bias_grad, dy + static_cast<size_t>(rows[r]) * out_,
                        out_);
  }
}

Mlp2::Mlp2(ParamStore* store, const std::string& prefix, size_t in, size_t hidden,
           size_t out, Rng* rng)
    : l1_(store, prefix + ".l1", in, hidden, rng),
      l2_(store, prefix + ".l2", hidden, out, rng) {}

void Mlp2::Backward(const float* h1, const float* dy, size_t n, float* d_h1,
                    float* dx, InferArena* arena) const {
  const size_t hidden = l1_.out_dim();
  float* d_h1_raw = arena->Alloc(n * hidden);
  l2_.BackwardInput(dy, n, d_h1_raw);
  kernels::Zero(d_h1, n * hidden);
  kernels::ReluBackwardAccumulate(d_h1, d_h1_raw, h1, n * hidden);
  if (dx != nullptr) l1_.BackwardInput(d_h1, n, dx);
}

void Mlp2::AccumulateGrads(const float* x, const float* h1, const float* dy,
                           const float* d_h1, const int* rows,
                           size_t count) const {
  l2_.AccumulateGrads(h1, dy, rows, count);
  l1_.AccumulateGrads(x, d_h1, rows, count);
}

namespace {
void ActivateInPlace(Matrix* m, Mlp2::Activation act) {
  switch (act) {
    case Mlp2::Activation::kRelu:
      ReluInPlace(m);
      break;
    case Mlp2::Activation::kSigmoid:
      SigmoidInPlace(m);
      break;
    case Mlp2::Activation::kNone:
      break;
  }
}
}  // namespace

Matrix Mlp2::Apply(const Matrix& x, Activation inner, Activation outer) const {
  Matrix out = ApplyLogit(x, inner);
  ActivateInPlace(&out, outer);
  return out;
}

Matrix Mlp2::ApplyLogit(const Matrix& x, Activation inner) const {
  Matrix hidden = l1_.Apply(x);
  ActivateInPlace(&hidden, inner);
  return l2_.Apply(hidden);
}

}  // namespace lpce::nn
