// Fault injection for dependability assessment (experiment E5).
//
// Models single-event upsets (SEU) in weight memory: a random bit of a
// random parameter is flipped. Campaigns measure how much of the resulting
// misbehaviour each safety pattern detects or masks. Faults target the
// *deployed* representation — float parameters for float channels, the
// int8 weight store for quantized ones — because an upset in memory the
// inference path never reads produces no misbehaviour to measure.
#pragma once

#include <cstdint>

#include "dl/model.hpp"
#include "dl/quant.hpp"
#include "util/rng.hpp"

namespace sx::safety {

enum class FaultType : std::uint8_t {
  kBitFlip,     ///< flip one bit of one parameter
  kStuckZero,   ///< parameter forced to 0
  kStuckLarge,  ///< parameter forced to a large magnitude
};

const char* to_string(FaultType t) noexcept;

struct FaultRecord {
  FaultType type = FaultType::kBitFlip;
  std::size_t layer = 0;
  std::size_t param_index = 0;
  int bit = 0;  // bit flipped (for kBitFlip): 0..31 float, 0..7 int8
  /// Parameter values; for an int8 injection these hold the exact int8
  /// values widened to float.
  float before = 0.0f;
  float after = 0.0f;
  /// True when the fault landed in an int8 weight store (restore must go
  /// through the QuantizedModel overload).
  bool quantized = false;
};

/// Deterministic fault injector over model parameters.
class FaultInjector {
 public:
  explicit FaultInjector(std::uint64_t seed) : rng_(seed) {}

  /// Injects one fault of `type` at a uniformly random parameter position.
  /// Returns the record needed to undo it. Throws if the model has no
  /// parameters.
  FaultRecord inject(dl::Model& model, FaultType type);

  /// Injects specifically into layer `layer` (used to target one replica).
  FaultRecord inject_at(dl::Model& model, FaultType type, std::size_t layer,
                        std::size_t param_index, int bit);

  /// Restores the parameter recorded in `rec`.
  static void restore(dl::Model& model, const FaultRecord& rec);

  /// Int8 twin of inject(): one fault at a uniformly random position in
  /// the deployed int8 weight store (bit 0..7 for kBitFlip; kStuckLarge
  /// forces +/-127). Throws if the model has no quantized weights. A
  /// kernel plan over the model (kWide, what kAuto resolves to) snapshots
  /// the weights into panels and must be repacked afterwards.
  FaultRecord inject(dl::QuantizedModel& model, FaultType type);

  /// Int8 twin of inject_at().
  FaultRecord inject_at(dl::QuantizedModel& model, FaultType type,
                        std::size_t layer, std::size_t param_index, int bit);

  /// Restores the int8 weight recorded in `rec` (same repack caveat).
  static void restore(dl::QuantizedModel& model, const FaultRecord& rec);

 private:
  util::Xoshiro256 rng_;
};

/// Flips bit `bit` (0..31) of a float value.
float flip_bit(float v, int bit) noexcept;

/// Flips bit `bit` (0..7) of an int8 value.
std::int8_t flip_bit_i8(std::int8_t v, int bit) noexcept;

}  // namespace sx::safety
