// Microbenchmarks (google-benchmark) backing the latency columns of E1/E3:
// raw kernels, engines and safety patterns.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "dl/engine.hpp"
#include "dl/quant.hpp"
#include "explain/explainer.hpp"
#include "platform/cpu_probe.hpp"
#include "safety/channel.hpp"
#include "safety/deep_monitor.hpp"
#include "tensor/kernels.hpp"
#include "tensor/ops.hpp"
#include "trace/audit.hpp"
#include "verify/ibp.hpp"

namespace sx {
namespace {

void BM_Matvec(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  tensor::Tensor w{tensor::Shape::mat(n, n)};
  tensor::Tensor x{tensor::Shape::vec(n)};
  tensor::Tensor b{tensor::Shape::vec(n)};
  tensor::Tensor out{tensor::Shape::vec(n)};
  util::Xoshiro256 rng{1};
  w.init_uniform(rng, -1, 1);
  x.init_uniform(rng, -1, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tensor::matvec(w.view(), x.view(), b.view(), out.view()));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n));
}
BENCHMARK(BM_Matvec)->Arg(32)->Arg(128)->Arg(512);

// The wide lane microkernel at the same sizes as BM_Matvec, on the lane
// family the deploy-time probe would select here (the scalar arm on
// machines with no wide lanes), so the E14 speedup targets are read off
// the same table. Bitwise identity to the reference row is asserted in
// tensor_kernels_wide_test; here we only time.
void matvec_wide(benchmark::State& state, tensor::kernels::Epilogue ep) {
  const auto n = static_cast<std::size_t>(state.range(0));
  tensor::Tensor w{tensor::Shape::mat(n, n)};
  tensor::Tensor x{tensor::Shape::vec(n)};
  tensor::Tensor b{tensor::Shape::vec(n)};
  tensor::Tensor out{tensor::Shape::vec(n)};
  util::Xoshiro256 rng{1};
  w.init_uniform(rng, -1, 1);
  x.init_uniform(rng, -1, 1);
  std::vector<float> panel(tensor::kernels::wide_dense_panel_floats(n, n));
  tensor::kernels::pack_wide_dense_panel(w.data().data(), n, n,
                                         panel.data());
  const auto fn =
      tensor::kernels::wide_dense_kernel(platform::select_wide_isa().isa);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fn(panel.data(), b.data().data(), n, n,
                                x.data().data(), out.data().data(), ep,
                                false));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n));
}

void BM_MatvecWide(benchmark::State& state) {
  matvec_wide(state, tensor::kernels::Epilogue::kNone);
}
BENCHMARK(BM_MatvecWide)->Arg(32)->Arg(128)->Arg(512);

// Dense + ReLU as two reference passes vs one fused-epilogue kernel sweep.
void BM_MatvecThenRelu(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  tensor::Tensor w{tensor::Shape::mat(n, n)};
  tensor::Tensor x{tensor::Shape::vec(n)};
  tensor::Tensor b{tensor::Shape::vec(n)};
  tensor::Tensor pre{tensor::Shape::vec(n)};
  tensor::Tensor out{tensor::Shape::vec(n)};
  util::Xoshiro256 rng{1};
  w.init_uniform(rng, -1, 1);
  x.init_uniform(rng, -1, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tensor::matvec(w.view(), x.view(), b.view(), pre.view()));
    benchmark::DoNotOptimize(tensor::relu(pre.view(), out.view()));
  }
}
BENCHMARK(BM_MatvecThenRelu)->Arg(32)->Arg(128)->Arg(512);

void BM_MatvecFusedRelu(benchmark::State& state) {
  matvec_wide(state, tensor::kernels::Epilogue::kRelu);
}
BENCHMARK(BM_MatvecFusedRelu)->Arg(32)->Arg(128)->Arg(512);

// Conv2d reference loop vs the planned direct kernel,
// square c-channel input, 3x3 kernel, pad 1 (the CNN fixture's geometry).
void BM_Conv2dReference(benchmark::State& state) {
  const auto hw = static_cast<std::size_t>(state.range(0));
  dl::Conv2d layer{3, 8, 3, 1, 1};
  util::Xoshiro256 rng{9};
  layer.init(rng);
  tensor::Tensor in{tensor::Shape::chw(3, hw, hw)};
  in.init_uniform(rng, -1, 1);
  tensor::Tensor out{layer.output_shape(in.shape())};
  for (auto _ : state)
    benchmark::DoNotOptimize(layer.forward(in.view(), out.view()));
}
BENCHMARK(BM_Conv2dReference)->Arg(16)->Arg(32);

// The planned direct conv on the probed lane family, 8-channel geometry
// so the full channel-block path is exercised.
void conv2d_wide(benchmark::State& state, tensor::kernels::Epilogue ep) {
  namespace k = tensor::kernels;
  const auto hw = static_cast<std::size_t>(state.range(0));
  dl::Conv2d layer{3, 8, 3, 1, 1};
  util::Xoshiro256 rng{9};
  layer.init(rng);
  tensor::Tensor in{tensor::Shape::chw(3, hw, hw)};
  in.init_uniform(rng, -1, 1);
  tensor::Tensor out{layer.output_shape(in.shape())};

  const k::Conv2dGeom g{.in_c = 3, .in_h = hw, .in_w = hw, .out_c = 8,
                        .k = 3, .stride = 1, .pad = 1};
  const auto fn = k::wide_conv_kernel(platform::select_wide_isa().isa);
  for (auto _ : state)
    benchmark::DoNotOptimize(fn(layer.weights().data(), layer.bias().data(),
                                g, in.data().data(), out.data().data(), ep,
                                false));
}

void BM_Conv2dDirect(benchmark::State& state) {
  conv2d_wide(state, tensor::kernels::Epilogue::kNone);
}
BENCHMARK(BM_Conv2dDirect)->Arg(16)->Arg(32);

void BM_Conv2dDirectFusedRelu(benchmark::State& state) {
  conv2d_wide(state, tensor::kernels::Epilogue::kRelu);
}
BENCHMARK(BM_Conv2dDirectFusedRelu)->Arg(16)->Arg(32);

void BM_Softmax(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  tensor::Tensor logits{tensor::Shape::vec(n)};
  tensor::Tensor out{tensor::Shape::vec(n)};
  util::Xoshiro256 rng{2};
  logits.init_uniform(rng, -5, 5);
  for (auto _ : state)
    benchmark::DoNotOptimize(tensor::softmax(logits.view(), out.view()));
}
BENCHMARK(BM_Softmax)->Arg(10)->Arg(1000);

void BM_StaticEngineMlp(benchmark::State& state) {
  const dl::Model& m = bench::trained_mlp();
  dl::StaticEngine eng{m};
  std::vector<float> out(m.output_shape().size());
  const auto& in = bench::road_data().samples[0].input;
  for (auto _ : state) benchmark::DoNotOptimize(eng.run(in.view(), out));
}
BENCHMARK(BM_StaticEngineMlp);

void BM_StaticEngineCnn(benchmark::State& state) {
  const dl::Model& m = bench::trained_cnn();
  dl::StaticEngine eng{m};
  std::vector<float> out(m.output_shape().size());
  const auto& in = bench::road_data().samples[0].input;
  for (auto _ : state) benchmark::DoNotOptimize(eng.run(in.view(), out));
}
BENCHMARK(BM_StaticEngineCnn);

void BM_DynamicEngineMlp(benchmark::State& state) {
  const dl::Model& m = bench::trained_mlp();
  dl::DynamicEngine eng{m};
  const auto& in = bench::road_data().samples[0].input;
  for (auto _ : state) benchmark::DoNotOptimize(eng.run(in));
}
BENCHMARK(BM_DynamicEngineMlp);

void BM_QuantizedMlp(benchmark::State& state) {
  const dl::Model& m = bench::trained_mlp();
  dl::QuantizedModel qm = dl::QuantizedModel::quantize(m, bench::road_data());
  std::vector<float> out(m.output_shape().size());
  const auto& in = bench::road_data().samples[0].input;
  for (auto _ : state) benchmark::DoNotOptimize(qm.run(in.view(), out));
}
BENCHMARK(BM_QuantizedMlp);

void BM_TmrChannel(benchmark::State& state) {
  safety::TmrChannel ch{bench::trained_mlp()};
  std::vector<float> out(ch.output_size());
  const auto& in = bench::road_data().samples[0].input;
  for (auto _ : state) benchmark::DoNotOptimize(ch.infer(in.view(), out));
}
BENCHMARK(BM_TmrChannel);

void BM_GradientSaliency(benchmark::State& state) {
  dl::Model m = bench::trained_cnn();
  explain::GradientSaliency g;
  const auto& in = bench::road_data().samples[1].input;
  for (auto _ : state) benchmark::DoNotOptimize(g.attribute(m, in, 1));
}
BENCHMARK(BM_GradientSaliency);

void BM_IbpBoundsMlp(benchmark::State& state) {
  const dl::Model& m = bench::trained_mlp();
  const auto& in = bench::road_data().samples[0].input;
  for (auto _ : state)
    benchmark::DoNotOptimize(verify::ibp_bounds(m, in, 0.01f));
}
BENCHMARK(BM_IbpBoundsMlp);

void BM_DeepMonitoredChannel(benchmark::State& state) {
  safety::DeepMonitoredChannel ch{bench::trained_mlp(), bench::road_data(),
                                  0.5f};
  std::vector<float> out(ch.output_size());
  const auto& in = bench::road_data().samples[0].input;
  for (auto _ : state) benchmark::DoNotOptimize(ch.infer(in.view(), out));
}
BENCHMARK(BM_DeepMonitoredChannel);

void BM_Sha256Audit(benchmark::State& state) {
  trace::AuditLog log;
  std::uint64_t t = 0;
  for (auto _ : state)
    benchmark::DoNotOptimize(
        log.append(++t, "engine", "decision", "class=1 conf=0.97"));
}
BENCHMARK(BM_Sha256Audit);

}  // namespace
}  // namespace sx

BENCHMARK_MAIN();
