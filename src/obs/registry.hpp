// Static metrics registry (observability pillar of the certification
// argument: "prove what the runtime did").
//
// obs::Registry is a fixed-capacity, deploy-time-allocated store of
// counters, gauges and fixed-bin latency histograms obeying the FUSA
// coding contract of the rest of the runtime tree:
//
//   - every slot is allocated at construction (deploy time); the hot-path
//     API (add / set / observe / drain_samples) is noexcept and performs
//     zero heap allocations;
//   - each counter is one relaxed atomic padded to its own cache line, so
//     the workers of dl::BatchRunner and the channels they run can
//     increment telemetry without locks; an integer sum does not depend on
//     the order of its terms, so a counter reads the same for every
//     `batch_workers` setting and every thread interleaving (extending the
//     deterministic-batch guarantee to telemetry). Per-worker counts live
//     in dl::BatchRunner::worker_stats, not here;
//   - histograms use fixed power-of-two bin edges chosen at construction
//     (bin k's inclusive upper bound is first_bound * 2^k, last bin +Inf)
//     and additionally retain the raw observations in a bounded ring so a
//     live deployment accumulates its own MBPTA/pWCET evidence:
//     drain_samples() hands them straight to timing::analyze();
//   - the time source is injectable (ClockFn): production uses a
//     steady-clock cycle counter, differential tests install a
//     deterministic clock so histogram contents and the text exposition
//     are bitwise comparable across worker counts.
//
// expose_text() renders the registry in the Prometheus text format so a
// snapshot can be scraped, embedded in the certification report, and
// recovered offline by tools/sxmetrics.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace sx::obs {

/// Injectable time source (monotonic, in "cycles" — any unit the deployer
/// chooses; the default reads the steady clock in nanoseconds).
using ClockFn = std::uint64_t (*)() noexcept;

/// Default clock: steady-clock nanoseconds.
std::uint64_t default_clock() noexcept;

namespace detail {
inline constexpr std::uint32_t kInvalidMetric = 0xffffffffu;
}

/// Handle to a registered counter (invalid when registration overflowed).
struct CounterId {
  std::uint32_t index = detail::kInvalidMetric;
  constexpr bool valid() const noexcept {
    return index != detail::kInvalidMetric;
  }
};

/// Handle to a registered gauge.
struct GaugeId {
  std::uint32_t index = detail::kInvalidMetric;
  constexpr bool valid() const noexcept {
    return index != detail::kInvalidMetric;
  }
};

/// Handle to a registered histogram.
struct HistogramId {
  std::uint32_t index = detail::kInvalidMetric;
  constexpr bool valid() const noexcept {
    return index != detail::kInvalidMetric;
  }
};

struct RegistryConfig {
  /// Fixed metric capacities; registrations past these limits are refused
  /// (the returned id is invalid and dropped_registrations() increments —
  /// no allocation, no exception on the registration path either).
  std::size_t max_counters = 64;
  std::size_t max_gauges = 32;
  std::size_t max_histograms = 16;
  /// Bins per histogram, including the final +Inf bin. Bin k's inclusive
  /// upper bound is histogram_first_bound << k.
  std::size_t histogram_bins = 24;
  std::uint64_t histogram_first_bound = 64;
  /// Raw observations retained per histogram for MBPTA (ring; oldest
  /// overwritten, drain_samples() empties oldest-first).
  std::size_t sample_capacity = 4096;
  ClockFn clock = &default_clock;
};

/// Read-only view of one histogram's state (spans point into the registry).
struct HistogramSnapshot {
  std::span<const std::uint64_t> bins;  ///< per-bin counts, last bin = +Inf
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;  ///< 0 when count == 0
  std::uint64_t max = 0;
  std::uint64_t dropped_samples = 0;  ///< ring overwrites (bins still count)
};

/// Fixed-capacity metrics store; see file comment for the contract.
class Registry {
 public:
  /// All memory is allocated here, at deploy time. Throws
  /// std::invalid_argument on a malformed configuration.
  explicit Registry(RegistryConfig cfg = {});

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // --- registration (deploy/configuration time; idempotent by name) ---
  CounterId counter(std::string_view name);
  GaugeId gauge(std::string_view name);
  HistogramId histogram(std::string_view name);

  // --- hot path: noexcept, allocation-free -------------------------------
  /// Adds `delta` to the counter. Any thread may add concurrently (relaxed
  /// atomic); an invalid id is a no-op.
  void add(CounterId id, std::uint64_t delta = 1) noexcept;
  /// Sets a gauge (serial sections only).
  void set(GaugeId id, double value) noexcept;
  /// Records one observation: bins + count/sum/min/max + raw-sample ring
  /// (serial sections only).
  void observe(HistogramId id, std::uint64_t value) noexcept;
  /// Reads the configured clock.
  std::uint64_t now() const noexcept { return cfg_.clock(); }

  // --- read side ---------------------------------------------------------
  /// Counter value (0 for an invalid id).
  std::uint64_t value(CounterId id) const noexcept;
  double gauge_value(GaugeId id) const noexcept;
  HistogramSnapshot histogram_snapshot(HistogramId id) const noexcept;
  /// Inclusive upper bound of bin `bin`; UINT64_MAX encodes +Inf.
  std::uint64_t bin_upper_bound(std::size_t bin) const noexcept;

  /// Copies up to out.size() of the oldest retained raw observations into
  /// `out` (recording order) and removes them from the ring. Returns the
  /// number copied. Feed the result to timing::analyze().
  std::size_t drain_samples(HistogramId id, std::span<double> out) noexcept;
  /// Raw observations currently retained.
  std::size_t sample_count(HistogramId id) const noexcept;

  std::size_t counters() const noexcept { return counter_names_.size(); }
  std::size_t gauges() const noexcept { return gauge_names_.size(); }
  std::size_t histograms() const noexcept { return hists_.size(); }
  std::string_view counter_name(std::size_t i) const noexcept;
  std::string_view gauge_name(std::size_t i) const noexcept;
  std::string_view histogram_name(std::size_t i) const noexcept;
  CounterId find_counter(std::string_view name) const noexcept;
  GaugeId find_gauge(std::string_view name) const noexcept;
  HistogramId find_histogram(std::string_view name) const noexcept;

  /// Registrations refused because a capacity was exhausted.
  std::uint64_t dropped_registrations() const noexcept {
    return dropped_registrations_;
  }
  const RegistryConfig& config() const noexcept { return cfg_; }

 private:
  /// 64-byte spacing between counter slots so concurrent workers do not
  /// false-share a cache line.
  static constexpr std::size_t kSlotStride = 8;

  struct HistState {
    std::string name;
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t min = 0;
    std::uint64_t max = 0;
    std::uint64_t dropped = 0;
    std::size_t ring_head = 0;  ///< next write position
    std::size_t ring_size = 0;  ///< retained samples
  };

  RegistryConfig cfg_;
  std::vector<std::string> counter_names_;
  std::vector<std::atomic<std::uint64_t>> counter_slots_;
  std::vector<std::string> gauge_names_;
  std::vector<double> gauge_values_;
  std::vector<HistState> hists_;
  std::vector<std::uint64_t> hist_bins_;  ///< max_histograms * bins
  std::vector<double> hist_samples_;      ///< max_histograms * sample_capacity
  std::uint64_t dropped_registrations_ = 0;
};

/// Prometheus text exposition of the whole registry: counters and gauges in
/// registration order, then histograms with cumulative `_bucket{le="..."}`
/// series plus `_sum`/`_count`. Deterministic: byte-identical for equal
/// registry contents.
std::string expose_text(const Registry& registry);

/// RAII stage timer: reads the registry clock at construction and records
/// the elapsed time into `hist` on stop() (or destruction).
class StageTimer {
 public:
  StageTimer(Registry& registry, HistogramId hist) noexcept
      : registry_(&registry), hist_(hist), start_(registry.now()) {}
  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;
  ~StageTimer() { stop(); }

  /// Records the observation (idempotent); returns the elapsed time.
  std::uint64_t stop() noexcept {
    if (!stopped_) {
      stopped_ = true;
      const std::uint64_t t = registry_->now();
      elapsed_ = t >= start_ ? t - start_ : 0;
      registry_->observe(hist_, elapsed_);
    }
    return elapsed_;
  }

  std::uint64_t start_time() const noexcept { return start_; }
  std::uint64_t elapsed() const noexcept { return elapsed_; }

 private:
  Registry* registry_;
  HistogramId hist_;
  std::uint64_t start_;
  std::uint64_t elapsed_ = 0;
  bool stopped_ = false;
};

}  // namespace sx::obs
