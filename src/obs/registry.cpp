#include "obs/registry.hpp"

#include <chrono>
#include <sstream>
#include <stdexcept>

namespace sx::obs {

std::uint64_t default_clock() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Registry::Registry(RegistryConfig cfg) : cfg_(cfg) {
  if (cfg_.histogram_bins < 2 || cfg_.histogram_bins > 64)
    throw std::invalid_argument("obs::Registry: histogram_bins out of range");
  if (cfg_.histogram_first_bound == 0)
    throw std::invalid_argument(
        "obs::Registry: histogram_first_bound must be >= 1");
  if (cfg_.sample_capacity == 0)
    throw std::invalid_argument("obs::Registry: sample_capacity must be >= 1");
  if (cfg_.clock == nullptr)
    throw std::invalid_argument("obs::Registry: null clock");

  // Every slot the registry will ever touch is allocated here.
  counter_names_.reserve(cfg_.max_counters);
  counter_slots_ =
      std::vector<std::atomic<std::uint64_t>>(cfg_.max_counters * kSlotStride);
  gauge_names_.reserve(cfg_.max_gauges);
  gauge_values_.assign(cfg_.max_gauges, 0.0);
  hists_.reserve(cfg_.max_histograms);
  hist_bins_.assign(cfg_.max_histograms * cfg_.histogram_bins, 0);
  hist_samples_.assign(cfg_.max_histograms * cfg_.sample_capacity, 0.0);
}

CounterId Registry::counter(std::string_view name) {
  const CounterId existing = find_counter(name);
  if (existing.valid()) return existing;
  if (counter_names_.size() >= cfg_.max_counters) {
    ++dropped_registrations_;
    return CounterId{};
  }
  counter_names_.emplace_back(name);
  return CounterId{static_cast<std::uint32_t>(counter_names_.size() - 1)};
}

GaugeId Registry::gauge(std::string_view name) {
  const GaugeId existing = find_gauge(name);
  if (existing.valid()) return existing;
  if (gauge_names_.size() >= cfg_.max_gauges) {
    ++dropped_registrations_;
    return GaugeId{};
  }
  gauge_names_.emplace_back(name);
  return GaugeId{static_cast<std::uint32_t>(gauge_names_.size() - 1)};
}

HistogramId Registry::histogram(std::string_view name) {
  const HistogramId existing = find_histogram(name);
  if (existing.valid()) return existing;
  if (hists_.size() >= cfg_.max_histograms) {
    ++dropped_registrations_;
    return HistogramId{};
  }
  HistState h;
  h.name.assign(name);
  hists_.push_back(std::move(h));
  return HistogramId{static_cast<std::uint32_t>(hists_.size() - 1)};
}

void Registry::add(CounterId id, std::uint64_t delta) noexcept {
  if (!id.valid() || id.index >= counter_names_.size()) return;
  counter_slots_[id.index * kSlotStride].fetch_add(delta,
                                                   std::memory_order_relaxed);
}

void Registry::set(GaugeId id, double value) noexcept {
  if (!id.valid() || id.index >= gauge_names_.size()) return;
  gauge_values_[id.index] = value;
}

void Registry::observe(HistogramId id, std::uint64_t value) noexcept {
  if (!id.valid() || id.index >= hists_.size()) return;
  HistState& h = hists_[id.index];
  // Bin selection: first bin whose inclusive upper bound covers the value;
  // the last bin is +Inf.
  std::size_t bin = cfg_.histogram_bins - 1;
  for (std::size_t k = 0; k + 1 < cfg_.histogram_bins; ++k) {
    if (value <= bin_upper_bound(k)) {
      bin = k;
      break;
    }
  }
  ++hist_bins_[id.index * cfg_.histogram_bins + bin];
  if (h.count == 0 || value < h.min) h.min = value;
  if (h.count == 0 || value > h.max) h.max = value;
  ++h.count;
  h.sum += value;
  // Raw-sample ring for MBPTA: overwrite the oldest when full.
  const std::size_t base = id.index * cfg_.sample_capacity;
  hist_samples_[base + h.ring_head] = static_cast<double>(value);
  h.ring_head = (h.ring_head + 1) % cfg_.sample_capacity;
  if (h.ring_size < cfg_.sample_capacity) {
    ++h.ring_size;
  } else {
    ++h.dropped;
  }
}

std::uint64_t Registry::value(CounterId id) const noexcept {
  if (!id.valid() || id.index >= counter_names_.size()) return 0;
  return counter_slots_[id.index * kSlotStride].load(
      std::memory_order_relaxed);
}

double Registry::gauge_value(GaugeId id) const noexcept {
  if (!id.valid() || id.index >= gauge_names_.size()) return 0.0;
  return gauge_values_[id.index];
}

HistogramSnapshot Registry::histogram_snapshot(
    HistogramId id) const noexcept {
  HistogramSnapshot snap;
  if (!id.valid() || id.index >= hists_.size()) return snap;
  const HistState& h = hists_[id.index];
  snap.bins = std::span<const std::uint64_t>(
      hist_bins_.data() + id.index * cfg_.histogram_bins,
      cfg_.histogram_bins);
  snap.count = h.count;
  snap.sum = h.sum;
  snap.min = h.min;
  snap.max = h.max;
  snap.dropped_samples = h.dropped;
  return snap;
}

std::uint64_t Registry::bin_upper_bound(std::size_t bin) const noexcept {
  if (bin + 1 >= cfg_.histogram_bins) return UINT64_MAX;  // +Inf
  if (bin >= 64) return UINT64_MAX;
  const std::uint64_t bound = cfg_.histogram_first_bound << bin;
  // Saturate on shift overflow.
  if ((bound >> bin) != cfg_.histogram_first_bound) return UINT64_MAX;
  return bound;
}

std::size_t Registry::drain_samples(HistogramId id,
                                    std::span<double> out) noexcept {
  if (!id.valid() || id.index >= hists_.size()) return 0;
  HistState& h = hists_[id.index];
  const std::size_t n = out.size() < h.ring_size ? out.size() : h.ring_size;
  const std::size_t cap = cfg_.sample_capacity;
  const std::size_t base = id.index * cap;
  const std::size_t start = (h.ring_head + cap - h.ring_size) % cap;
  for (std::size_t k = 0; k < n; ++k)
    out[k] = hist_samples_[base + (start + k) % cap];
  h.ring_size -= n;
  return n;
}

std::size_t Registry::sample_count(HistogramId id) const noexcept {
  if (!id.valid() || id.index >= hists_.size()) return 0;
  return hists_[id.index].ring_size;
}

std::string_view Registry::counter_name(std::size_t i) const noexcept {
  return i < counter_names_.size() ? std::string_view(counter_names_[i])
                                   : std::string_view{};
}

std::string_view Registry::gauge_name(std::size_t i) const noexcept {
  return i < gauge_names_.size() ? std::string_view(gauge_names_[i])
                                 : std::string_view{};
}

std::string_view Registry::histogram_name(std::size_t i) const noexcept {
  return i < hists_.size() ? std::string_view(hists_[i].name)
                           : std::string_view{};
}

CounterId Registry::find_counter(std::string_view name) const noexcept {
  for (std::size_t i = 0; i < counter_names_.size(); ++i)
    if (counter_names_[i] == name)
      return CounterId{static_cast<std::uint32_t>(i)};
  return CounterId{};
}

GaugeId Registry::find_gauge(std::string_view name) const noexcept {
  for (std::size_t i = 0; i < gauge_names_.size(); ++i)
    if (gauge_names_[i] == name)
      return GaugeId{static_cast<std::uint32_t>(i)};
  return GaugeId{};
}

HistogramId Registry::find_histogram(std::string_view name) const noexcept {
  for (std::size_t i = 0; i < hists_.size(); ++i)
    if (hists_[i].name == name)
      return HistogramId{static_cast<std::uint32_t>(i)};
  return HistogramId{};
}

std::string expose_text(const Registry& registry) {
  std::ostringstream os;
  for (std::size_t i = 0; i < registry.counters(); ++i) {
    const std::string_view name = registry.counter_name(i);
    os << "# TYPE " << name << " counter\n"
       << name << " "
       << registry.value(CounterId{static_cast<std::uint32_t>(i)}) << "\n";
  }
  for (std::size_t i = 0; i < registry.gauges(); ++i) {
    const std::string_view name = registry.gauge_name(i);
    os << "# TYPE " << name << " gauge\n"
       << name << " "
       << registry.gauge_value(GaugeId{static_cast<std::uint32_t>(i)})
       << "\n";
  }
  for (std::size_t i = 0; i < registry.histograms(); ++i) {
    const std::string_view name = registry.histogram_name(i);
    const HistogramSnapshot snap =
        registry.histogram_snapshot(HistogramId{static_cast<std::uint32_t>(i)});
    os << "# TYPE " << name << " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < snap.bins.size(); ++b) {
      cumulative += snap.bins[b];
      const std::uint64_t bound = registry.bin_upper_bound(b);
      os << name << "_bucket{le=\"";
      if (bound == UINT64_MAX)
        os << "+Inf";
      else
        os << bound;
      os << "\"} " << cumulative << "\n";
    }
    os << name << "_sum " << snap.sum << "\n"
       << name << "_count " << snap.count << "\n";
  }
  return os.str();
}

}  // namespace sx::obs
