// Microbenchmarks for the nn substrate: the matrix product, one step of each
// recurrent cell, and a full training step. The cell steps quantify the claim
// the library's design leans on: SRU needs fewer matrix products than LSTM
// (paper Sec. 4.2). Inference runs level-batched; bench_fig19 times it.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "nn/adam.h"
#include "nn/cells.h"
#include "nn/kernels.h"
#include "testing/tape.h"

namespace lpce::nn {
namespace {

Matrix RandomMatrix(Rng* rng, size_t rows, size_t cols) {
  Matrix m(rows, cols);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng->UniformDouble(-1.0, 1.0));
  }
  return m;
}

void BM_MatMul(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  Rng rng(1);
  Matrix a = RandomMatrix(&rng, dim, dim);
  Matrix b = RandomMatrix(&rng, dim, dim);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.MatMul(b));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * dim * dim *
                          dim);
}
BENCHMARK(BM_MatMul)->Arg(32)->Arg(96)->Arg(256);

// The zero-skip record (PR 4): the dense MatMul path used to branch on
// a == 0.0f every inner iteration. These lanes compare the branch-free
// blocked kernel against the documented zero-skip variant on dense inputs
// (the model's activations — the case the branch taxed) and on 90%-zero
// inputs (one-hot-ish encoder rows — the case it was meant to help).
void GemmKernelLane(benchmark::State& state, double density, bool zero_skip) {
  const size_t dim = static_cast<size_t>(state.range(0));
  Rng rng(6);
  Matrix a = RandomMatrix(&rng, dim, dim);
  Matrix b = RandomMatrix(&rng, dim, dim);
  for (size_t i = 0; i < a.size(); ++i) {
    if (rng.UniformDouble() > density) a.data()[i] = 0.0f;
  }
  Matrix out(dim, dim);
  for (auto _ : state) {
    if (zero_skip) {
      kernels::GemmZeroSkip(a.data(), dim, dim, b.data(), dim, out.data());
    } else {
      kernels::Gemm(a.data(), dim, dim, b.data(), dim, out.data());
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * dim * dim *
                          dim);
}

void BM_GemmDenseInput(benchmark::State& s) { GemmKernelLane(s, 1.0, false); }
void BM_GemmZeroSkipDenseInput(benchmark::State& s) {
  GemmKernelLane(s, 1.0, true);
}
void BM_GemmSparseInput(benchmark::State& s) { GemmKernelLane(s, 0.1, false); }
void BM_GemmZeroSkipSparseInput(benchmark::State& s) {
  GemmKernelLane(s, 0.1, true);
}
BENCHMARK(BM_GemmDenseInput)->Arg(32)->Arg(96)->Arg(256);
BENCHMARK(BM_GemmZeroSkipDenseInput)->Arg(32)->Arg(96)->Arg(256);
BENCHMARK(BM_GemmSparseInput)->Arg(96);
BENCHMARK(BM_GemmZeroSkipSparseInput)->Arg(96);

void BM_SruStepGraph(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  Rng rng(4);
  ParamStore store;
  TreeSruCell cell(&store, "sru", dim, &rng);
  Tensor x = MakeTensor(RandomMatrix(&rng, 1, dim));
  Tensor cl = MakeTensor(RandomMatrix(&rng, 1, dim));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Step(cell, x, cl, nullptr));
  }
}
BENCHMARK(BM_SruStepGraph)->Arg(32)->Arg(96);

void BM_LstmStepGraph(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  Rng rng(3);
  ParamStore store;
  TreeLstmCell cell(&store, "lstm", dim, &rng);
  Tensor x = MakeTensor(RandomMatrix(&rng, 1, dim));
  Tensor cl = MakeTensor(RandomMatrix(&rng, 1, dim));
  Tensor hl = MakeTensor(RandomMatrix(&rng, 1, dim));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Step(cell, x, cl, hl, nullptr, nullptr));
  }
}
BENCHMARK(BM_LstmStepGraph)->Arg(32)->Arg(96);

void BM_TrainStepChain(benchmark::State& state) {
  // One forward+backward+Adam step through an 8-deep SRU chain on the tests'
  // autograd tape (the training oracle's inner loop).
  const size_t dim = static_cast<size_t>(state.range(0));
  Rng rng(5);
  ParamStore store;
  TreeSruCell cell(&store, "sru", dim, &rng);
  Adam adam(&store, {.lr = 1e-3f});
  std::vector<Tensor> inputs;
  for (int i = 0; i < 8; ++i) {
    inputs.push_back(MakeTensor(RandomMatrix(&rng, 1, dim)));
  }
  for (auto _ : state) {
    Tensor c, h;
    for (const Tensor& x : inputs) {
      CellOutput out = Step(cell, x, c, nullptr);
      c = out.c;
      h = out.h;
    }
    Tensor loss = Sum(h);
    Backward(loss);
    adam.Step();
  }
}
BENCHMARK(BM_TrainStepChain)->Arg(32)->Arg(96)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace lpce::nn

BENCHMARK_MAIN();
