// One binary digest over decision fields, shared by the scenario sweeper's
// twin-identity hashes and the serving front-end's decision-stream digest.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <string>

#include "core/pipeline.hpp"
#include "util/hash.hpp"

namespace sx::core {

/// Streams the bit patterns of decision fields into one digest. Floats and
/// doubles go in as their exact bit representation — the twin comparison
/// is *bitwise*, not approximate.
class DecisionHasher {
 public:
  void u8(std::uint8_t v) noexcept { feed(&v, 1); }
  void u64(std::uint64_t v) noexcept {
    std::uint8_t b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
    feed(b, 8);
  }
  void f32(float v) noexcept { u64(std::bit_cast<std::uint32_t>(v)); }
  void f64(double v) noexcept { u64(std::bit_cast<std::uint64_t>(v)); }

  void decision(const Decision& d) noexcept {
    u8(static_cast<std::uint8_t>(d.status));
    u64(d.predicted_class);
    f32(d.confidence);
    u8(d.degraded ? 1 : 0);
    f64(d.supervisor_score);
  }

  /// Digest of everything fed so far; feeding may continue afterwards.
  std::string hex() const {
    util::Sha256 copy = sha_;
    return util::to_hex(copy.finish());
  }

 private:
  void feed(const std::uint8_t* p, std::size_t n) noexcept {
    sha_.update(std::span<const std::uint8_t>(p, n));
  }
  util::Sha256 sha_;
};

}  // namespace sx::core
