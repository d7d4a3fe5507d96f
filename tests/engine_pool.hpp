// Per-worker engines driven through the engine-free dl::BatchRunner, the
// way CertifiablePipeline drives its channels: worker w owns engine w, and
// item i runs on engine i % workers, so no engine is ever shared between
// threads. Tests use it to pin the pool's determinism contract on bare
// engines: bitwise outputs, per-item statuses in batch-index order and
// partition-only counters, at any worker count.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "dl/batch.hpp"
#include "dl/engine.hpp"
#include "dl/qplan.hpp"

namespace sx::testing {

class EnginePool {
 public:
  /// One float engine per worker, its plan pinned at the feature layer.
  EnginePool(const dl::Model& model, std::size_t workers,
             dl::StaticEngineConfig cfg = {},
             obs::Registry* registry = nullptr)
      : runner_({.workers = workers, .registry = registry}),
        in_shape_(model.input_shape()),
        out_size_(model.output_shape().size()),
        tap_layer_(dl::feature_layer(model)),
        tap_size_(dl::feature_width(model)) {
    cfg.pin_tap_layer = tap_layer_;
    for (std::size_t w = 0; w < workers; ++w)
      engines_.push_back(std::make_unique<dl::StaticEngine>(model, cfg));
  }
  /// One int8 engine per worker.
  EnginePool(const dl::QuantizedModel& model, std::size_t workers,
             dl::QuantEngineConfig cfg = {})
      : runner_({.workers = workers}),
        in_shape_(model.input_shape()),
        out_size_(model.output_shape().size()),
        tap_layer_(dl::feature_layer(model)),
        tap_size_(dl::feature_width(model)) {
    for (std::size_t w = 0; w < workers; ++w)
      engines_.push_back(std::make_unique<dl::QuantEngine>(model, cfg));
  }

  /// Runs statuses.size() items: `inputs` holds them back to back,
  /// `outputs` receives their logits and statuses[i] item i's engine
  /// status. A non-empty `taps` (count * tap_size() floats) also receives
  /// each item's feature-layer tap from the same engine run.
  void run(std::span<const float> inputs, std::span<float> outputs,
           std::span<Status> statuses, std::span<float> taps = {}) noexcept {
    const std::size_t in_size = in_shape_.size();
    const auto job = [&](std::size_t i) noexcept {
      dl::Engine& e = *engines_[i % engines_.size()];
      const tensor::ConstTensorView in{inputs.subspan(i * in_size, in_size),
                                       in_shape_};
      const std::span<float> out = outputs.subspan(i * out_size_, out_size_);
      statuses[i] = taps.empty()
                        ? e.run(in, out)
                        : e.run_tapped(in, out, tap_layer_,
                                       taps.subspan(i * tap_size_, tap_size_));
    };
    runner_.run(statuses.size(), job);
  }

  dl::BatchRunner& runner() noexcept { return runner_; }
  dl::Engine& engine(std::size_t w) { return *engines_.at(w); }
  std::size_t workers() const noexcept { return engines_.size(); }
  std::size_t input_size() const noexcept { return in_shape_.size(); }
  std::size_t output_size() const noexcept { return out_size_; }
  std::size_t tap_size() const noexcept { return tap_size_; }

  /// Sums over the worker engines.
  std::uint64_t run_count() const noexcept {
    std::uint64_t n = 0;
    for (const auto& e : engines_) n += e->run_count();
    return n;
  }
  std::uint64_t numeric_fault_count() const noexcept {
    std::uint64_t n = 0;
    for (const auto& e : engines_) n += e->numeric_fault_count();
    return n;
  }
  std::uint64_t saturation_count() const noexcept {
    std::uint64_t n = 0;
    for (const auto& e : engines_) n += e->saturation_total();
    return n;
  }
  /// Per-layer clips, summed over the worker engines.
  std::vector<std::uint64_t> saturation_counts(std::size_t layers) const {
    std::vector<std::uint64_t> acc(layers, 0);
    for (const auto& e : engines_) {
      const auto cs = e->saturation_counts();
      for (std::size_t i = 0; i < cs.size() && i < layers; ++i) acc[i] += cs[i];
    }
    return acc;
  }

 private:
  dl::BatchRunner runner_;
  dl::Shape in_shape_;
  std::size_t out_size_ = 0;
  std::size_t tap_layer_ = 0;
  std::size_t tap_size_ = 0;
  std::vector<std::unique_ptr<dl::Engine>> engines_;
};

}  // namespace sx::testing
