#include "obs/snapshot.hpp"

#include "util/text_codec.hpp"

namespace sx::obs {
namespace {

using util::append_double;
using util::append_u64;
using util::take_double;
using util::take_line;
using util::take_token;
using util::take_u64;

constexpr std::string_view kSchemaLine = "sx-registry-snapshot/1";

/// A line expected to be `<keyword> <u64>`.
bool take_kv_u64(std::string_view& text, std::string_view keyword,
                 std::uint64_t& v) noexcept {
  std::string_view line, tok;
  if (!take_line(text, line)) return false;
  if (!take_token(line, tok) || tok != keyword) return false;
  return take_u64(line, v);
}

}  // namespace

RegistrySnapshot RegistrySnapshot::capture(const Registry& registry) {
  RegistrySnapshot snap;
  snap.histogram_first_bound = registry.config().histogram_first_bound;
  snap.dropped_registrations = registry.dropped_registrations();
  snap.counters.reserve(registry.counters());
  for (std::size_t i = 0; i < registry.counters(); ++i) {
    const auto id = CounterId{static_cast<std::uint32_t>(i)};
    snap.counters.push_back(SnapshotCounter{
        std::string(registry.counter_name(i)), registry.value(id)});
  }
  snap.gauges.reserve(registry.gauges());
  for (std::size_t i = 0; i < registry.gauges(); ++i) {
    const auto id = GaugeId{static_cast<std::uint32_t>(i)};
    snap.gauges.push_back(SnapshotGauge{std::string(registry.gauge_name(i)),
                                        registry.gauge_value(id)});
  }
  snap.histograms.reserve(registry.histograms());
  for (std::size_t i = 0; i < registry.histograms(); ++i) {
    const auto id = HistogramId{static_cast<std::uint32_t>(i)};
    const HistogramSnapshot h = registry.histogram_snapshot(id);
    SnapshotHistogram sh;
    sh.name.assign(registry.histogram_name(i));
    sh.bins.assign(h.bins.begin(), h.bins.end());
    sh.count = h.count;
    sh.sum = h.sum;
    sh.min = h.min;
    sh.max = h.max;
    sh.dropped_samples = h.dropped_samples;
    snap.histograms.push_back(std::move(sh));
  }
  return snap;
}

std::uint64_t RegistrySnapshot::counter_value(
    std::string_view name) const noexcept {
  for (const auto& c : counters)
    if (c.name == name) return c.value;
  return 0;
}

std::uint64_t RegistrySnapshot::total_dropped_samples() const noexcept {
  std::uint64_t total = 0;
  for (const auto& h : histograms) total += h.dropped_samples;
  return total;
}

bool RegistrySnapshot::same_schema(
    const RegistrySnapshot& other) const noexcept {
  if (histogram_first_bound != other.histogram_first_bound) return false;
  if (counters.size() != other.counters.size() ||
      gauges.size() != other.gauges.size() ||
      histograms.size() != other.histograms.size())
    return false;
  for (std::size_t i = 0; i < counters.size(); ++i)
    if (counters[i].name != other.counters[i].name) return false;
  for (std::size_t i = 0; i < gauges.size(); ++i)
    if (gauges[i].name != other.gauges[i].name) return false;
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    if (histograms[i].name != other.histograms[i].name) return false;
    if (histograms[i].bins.size() != other.histograms[i].bins.size())
      return false;
  }
  return true;
}

Status RegistrySnapshot::merge_from(const RegistrySnapshot& other) noexcept {
  if (!same_schema(other)) return Status::kInvalidArgument;
  for (std::size_t i = 0; i < counters.size(); ++i)
    counters[i].value += other.counters[i].value;
  // Gauges: keep this (lower-ordered) shard's value — deterministic by the
  // static fold order, see file comment.
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    SnapshotHistogram& h = histograms[i];
    const SnapshotHistogram& o = other.histograms[i];
    for (std::size_t b = 0; b < h.bins.size(); ++b) h.bins[b] += o.bins[b];
    if (o.count > 0) {
      if (h.count == 0 || o.min < h.min) h.min = o.min;
      if (h.count == 0 || o.max > h.max) h.max = o.max;
    }
    h.count += o.count;
    h.sum += o.sum;
    h.dropped_samples += o.dropped_samples;  // no silent sample loss
  }
  dropped_registrations += other.dropped_registrations;
  return Status::kOk;
}

Status RegistrySnapshot::merge(std::span<const RegistrySnapshot> shards,
                               RegistrySnapshot& out) {
  out = RegistrySnapshot{};
  if (shards.empty()) return Status::kOk;
  out = shards[0];
  for (std::size_t s = 1; s < shards.size(); ++s) {
    const Status st = out.merge_from(shards[s]);
    if (!ok(st)) return st;
  }
  return Status::kOk;
}

std::string RegistrySnapshot::serialize() const {
  std::string out;
  out.append(kSchemaLine);
  out.push_back('\n');
  out.append("histogram_first_bound ");
  append_u64(out, histogram_first_bound);
  out.append("\ndropped_registrations ");
  append_u64(out, dropped_registrations);
  // Coverage-honesty line: the merged MBPTA evidence carries how many raw
  // samples its rings lost, so "what the analysis saw" is checkable.
  out.append("\nsx_samples_dropped_total ");
  append_u64(out, total_dropped_samples());
  out.append("\ncounters ");
  append_u64(out, counters.size());
  out.push_back('\n');
  for (const auto& c : counters) {
    out.append("counter ");
    out.append(c.name);
    out.push_back(' ');
    append_u64(out, c.value);
    out.push_back('\n');
  }
  out.append("gauges ");
  append_u64(out, gauges.size());
  out.push_back('\n');
  for (const auto& g : gauges) {
    out.append("gauge ");
    out.append(g.name);
    out.push_back(' ');
    append_double(out, g.value);
    out.push_back('\n');
  }
  out.append("histograms ");
  append_u64(out, histograms.size());
  out.push_back('\n');
  for (const auto& h : histograms) {
    out.append("histogram ");
    out.append(h.name);
    out.push_back(' ');
    append_u64(out, h.bins.size());
    out.push_back(' ');
    append_u64(out, h.count);
    out.push_back(' ');
    append_u64(out, h.sum);
    out.push_back(' ');
    append_u64(out, h.min);
    out.push_back(' ');
    append_u64(out, h.max);
    out.push_back(' ');
    append_u64(out, h.dropped_samples);
    out.append("\nbins");
    for (std::uint64_t b : h.bins) {
      out.push_back(' ');
      append_u64(out, b);
    }
    out.push_back('\n');
  }
  out.append("end\n");
  return out;
}

bool RegistrySnapshot::parse(std::string_view text, RegistrySnapshot& out) {
  out = RegistrySnapshot{};
  std::string_view line, tok;
  if (!take_line(text, line) || line != kSchemaLine) return false;
  if (!take_kv_u64(text, "histogram_first_bound", out.histogram_first_bound))
    return false;
  if (!take_kv_u64(text, "dropped_registrations", out.dropped_registrations))
    return false;
  std::uint64_t claimed_dropped = 0;
  if (!take_kv_u64(text, "sx_samples_dropped_total", claimed_dropped))
    return false;
  std::uint64_t n = 0;
  if (!take_kv_u64(text, "counters", n)) return false;
  for (std::uint64_t i = 0; i < n; ++i) {
    if (!take_line(text, line)) return false;
    if (!take_token(line, tok) || tok != "counter") return false;
    SnapshotCounter c;
    if (!take_token(line, tok)) return false;
    c.name.assign(tok);
    if (!take_u64(line, c.value)) return false;
    out.counters.push_back(std::move(c));
  }
  if (!take_kv_u64(text, "gauges", n)) return false;
  for (std::uint64_t i = 0; i < n; ++i) {
    if (!take_line(text, line)) return false;
    if (!take_token(line, tok) || tok != "gauge") return false;
    SnapshotGauge g;
    if (!take_token(line, tok)) return false;
    g.name.assign(tok);
    if (!take_double(line, g.value)) return false;
    out.gauges.push_back(std::move(g));
  }
  if (!take_kv_u64(text, "histograms", n)) return false;
  for (std::uint64_t i = 0; i < n; ++i) {
    if (!take_line(text, line)) return false;
    if (!take_token(line, tok) || tok != "histogram") return false;
    SnapshotHistogram h;
    if (!take_token(line, tok)) return false;
    h.name.assign(tok);
    std::uint64_t bins = 0;
    if (!take_u64(line, bins) || !take_u64(line, h.count) ||
        !take_u64(line, h.sum) || !take_u64(line, h.min) ||
        !take_u64(line, h.max) || !take_u64(line, h.dropped_samples))
      return false;
    if (bins > 64) return false;  // registry bin ceiling; rejects garbage
    if (!take_line(text, line)) return false;
    if (!take_token(line, tok) || tok != "bins") return false;
    h.bins.resize(bins, 0);
    for (std::uint64_t b = 0; b < bins; ++b)
      if (!take_u64(line, h.bins[b])) return false;
    out.histograms.push_back(std::move(h));
  }
  if (!take_line(text, line) || line != "end") return false;
  // The coverage line is derived; a file whose claim disagrees with its own
  // histogram rows was hand-edited — refuse it.
  return claimed_dropped == out.total_dropped_samples();
}

}  // namespace sx::obs
