#include "safety/recovery.hpp"

#include <stdexcept>

namespace sx::safety {

RecoveryBlockChannel::RecoveryBlockChannel(const dl::Model& primary,
                                           const dl::Model& alternate,
                                           MonitorConfig acceptance,
                                           dl::StaticEngineConfig engine_cfg)
    : primary_(std::make_unique<dl::Model>(primary)),
      alternate_(std::make_unique<dl::Model>(alternate)),
      acceptance_(acceptance) {
  if (primary.output_shape() != alternate.output_shape() ||
      primary.input_shape() != alternate.input_shape())
    throw std::invalid_argument(
        "RecoveryBlockChannel: primary/alternate shape mismatch");
  primary_engine_ = std::make_unique<dl::StaticEngine>(*primary_, engine_cfg);
  alternate_engine_ =
      std::make_unique<dl::StaticEngine>(*alternate_, engine_cfg);
}

Status RecoveryBlockChannel::infer(tensor::ConstTensorView in,
                                   std::span<float> out) noexcept {
  const Status p = primary_engine_->run(in, out);
  if (ok(p) && ok(acceptance_.check_output(out))) return Status::kOk;

  ++recoveries_;
  const Status a = alternate_engine_->run(in, out);
  if (ok(a) && ok(acceptance_.check_output(out))) return Status::kOk;

  ++double_failures_;
  return Status::kRedundancyFault;
}

}  // namespace sx::safety
