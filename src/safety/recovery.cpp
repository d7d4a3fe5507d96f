#include "safety/recovery.hpp"

#include <stdexcept>

namespace sx::safety {

RecoveryBlockChannel::RecoveryBlockChannel(const dl::Model& primary,
                                           const dl::Model& alternate,
                                           MonitorConfig acceptance,
                                           dl::StaticEngineConfig engine_cfg)
    : acceptance_(acceptance) {
  if (primary.output_shape() != alternate.output_shape() ||
      primary.input_shape() != alternate.input_shape())
    throw std::invalid_argument(
        "RecoveryBlockChannel: primary/alternate shape mismatch");
  blocks_.emplace_back(primary, engine_cfg);
  blocks_.emplace_back(alternate, engine_cfg);
  if (blocks_[0].tap_size() != blocks_[1].tap_size())
    throw std::invalid_argument(
        "RecoveryBlockChannel: primary/alternate feature width mismatch");
}

Status RecoveryBlockChannel::infer_impl(tensor::ConstTensorView in,
                                        std::span<float> out,
                                        std::span<float> tap) noexcept {
  // The tap comes from the block whose output is emitted.
  const Status p = blocks_[0].run(in, out, tap);
  if (ok(p) && ok(acceptance_.check_output(out))) return Status::kOk;

  ++recoveries_;
  const Status a = blocks_[1].run(in, out, tap);
  if (ok(a) && ok(acceptance_.check_output(out))) return Status::kOk;

  ++double_failures_;
  return Status::kRedundancyFault;
}

}  // namespace sx::safety
