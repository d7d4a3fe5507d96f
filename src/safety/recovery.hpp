// Recovery-block pattern (pillar 2 extension).
//
// Classic software fault tolerance adapted to DL: run the primary model,
// apply a deterministic *acceptance test* to its output; on rejection run
// the (diverse) alternate and test again; only if both fail does the
// channel fail-stop. Cheaper than continuous redundancy when rejections
// are rare — the sequential counterpart of the DMR/TMR patterns.
#pragma once

#include "safety/channel.hpp"
#include "safety/monitor.hpp"

namespace sx::safety {

class RecoveryBlockChannel final : public InferenceChannel {
 public:
  /// `primary` and `alternate` are model variants (e.g. different seeds or
  /// float vs quantized surrogate retrained); `acceptance` defines the
  /// deterministic acceptance test applied to each candidate output;
  /// `engine_cfg` configures both blocks' engines. Both must have the same
  /// supervisor feature width (std::invalid_argument otherwise): the tap
  /// comes from the block whose output is emitted, so after a recovery a
  /// supervisor fitted on the primary reads the alternate's features.
  RecoveryBlockChannel(const dl::Model& primary, const dl::Model& alternate,
                       MonitorConfig acceptance,
                       dl::StaticEngineConfig engine_cfg = {
                           .check_numeric_faults = true});

  std::string_view pattern_name() const noexcept override {
    return "recovery-block";
  }
  std::size_t output_size() const noexcept override {
    return blocks_[0].output_size();
  }
  /// Replica 0 is the primary block, replica 1 the alternate.
  std::span<Replica> replicas() noexcept override { return blocks_; }

  /// Times the alternate was engaged.
  std::uint64_t recoveries() const noexcept { return recoveries_; }
  /// Times both blocks failed the acceptance test.
  std::uint64_t double_failures() const noexcept { return double_failures_; }

 private:
  Status infer_impl(tensor::ConstTensorView in, std::span<float> out,
                    std::span<float> tap) noexcept override;

  std::vector<Replica> blocks_;
  SafetyMonitor acceptance_;
  std::uint64_t recoveries_ = 0;
  std::uint64_t double_failures_ = 0;
};

}  // namespace sx::safety
