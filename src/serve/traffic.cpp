#include "serve/traffic.hpp"

#include <algorithm>
#include <cmath>

#include "util/rng.hpp"
#include "util/text_codec.hpp"

namespace sx::serve {
namespace {

using util::append_u64;

constexpr std::string_view kTraceSchema = "sx-serving-trace/1";

/// Stable merge of per-stream event lists into one sequenced trace. Ties
/// at the same arrival instant break by stream index, so the result is a
/// pure function of the inputs.
ArrivalTrace merge_streams(std::vector<std::vector<Request>> per_stream,
                           const TrafficConfig& cfg) {
  ArrivalTrace trace;
  trace.horizon = cfg.horizon;
  std::size_t total = 0;
  for (const auto& s : per_stream) total += s.size();
  trace.requests.reserve(total);
  for (auto& s : per_stream)
    trace.requests.insert(trace.requests.end(), s.begin(), s.end());
  std::stable_sort(trace.requests.begin(), trace.requests.end(),
                   [](const Request& a, const Request& b) {
                     if (a.arrival != b.arrival) return a.arrival < b.arrival;
                     return a.stream < b.stream;
                   });
  for (std::size_t i = 0; i < trace.requests.size(); ++i)
    trace.requests[i].seq = i;
  return trace;
}

/// Independent child generator per stream: stream identity is folded into
/// the seed, so adding a stream never perturbs the others' arrivals.
util::Xoshiro256 stream_rng(std::uint64_t seed, std::uint32_t stream) {
  return util::Xoshiro256{seed * 0x9e3779b97f4a7c15ULL + stream + 1};
}

}  // namespace

ArrivalTrace make_poisson_trace(const std::vector<PoissonStreamTraffic>& streams,
                                const TrafficConfig& cfg) {
  std::vector<std::vector<Request>> per_stream(streams.size());
  for (std::uint32_t s = 0; s < streams.size(); ++s) {
    util::Xoshiro256 rng = stream_rng(cfg.seed, s);
    const double mean = streams[s].mean_gap < 1.0 ? 1.0 : streams[s].mean_gap;
    std::uint64_t t = 0;
    for (;;) {
      // Exponential inter-arrival, floored at one logical unit.
      const double u = rng.uniform();
      const double gap = -mean * std::log(1.0 - u);
      t += gap < 1.0 ? 1 : static_cast<std::uint64_t>(gap);
      if (t >= cfg.horizon) break;
      const std::uint32_t payload =
          cfg.payloads == 0 ? 0
                            : static_cast<std::uint32_t>(rng.below(cfg.payloads));
      per_stream[s].push_back(Request{0, s, payload, t});
    }
  }
  return merge_streams(std::move(per_stream), cfg);
}

ArrivalTrace make_bursty_trace(const std::vector<BurstyStreamTraffic>& streams,
                               const TrafficConfig& cfg) {
  std::vector<std::vector<Request>> per_stream(streams.size());
  for (std::uint32_t s = 0; s < streams.size(); ++s) {
    util::Xoshiro256 rng = stream_rng(cfg.seed, s);
    const BurstyStreamTraffic& b = streams[s];
    const std::uint64_t between = b.gap_between == 0 ? 1 : b.gap_between;
    std::uint64_t burst_start = 0;
    while (burst_start < cfg.horizon) {
      std::uint64_t t = burst_start;
      for (std::uint64_t k = 0; k < b.burst_len && t < cfg.horizon; ++k) {
        const std::uint32_t payload =
            cfg.payloads == 0
                ? 0
                : static_cast<std::uint32_t>(rng.below(cfg.payloads));
        per_stream[s].push_back(Request{0, s, payload, t});
        t += b.gap_in_burst == 0 ? 1 : b.gap_in_burst;
      }
      std::uint64_t gap = between;
      if (b.jitter > 0) gap += rng.below(b.jitter + 1);
      burst_start += gap;
    }
  }
  return merge_streams(std::move(per_stream), cfg);
}

std::string serialize_trace(const ArrivalTrace& trace) {
  std::string out;
  out.reserve(32 + trace.requests.size() * 24);
  out += "schema ";
  out += kTraceSchema;
  out += "\nhorizon ";
  append_u64(out, trace.horizon);
  out += "\nrequests ";
  append_u64(out, trace.requests.size());
  out += '\n';
  for (const Request& r : trace.requests) {
    out += "req ";
    append_u64(out, r.seq);
    out += ' ';
    append_u64(out, r.stream);
    out += ' ';
    append_u64(out, r.arrival);
    out += ' ';
    append_u64(out, r.payload);
    out += '\n';
  }
  return out;
}

std::vector<ArrivalTrace> split_at_gaps(const ArrivalTrace& trace,
                                        std::uint64_t min_gap) {
  std::vector<ArrivalTrace> slices;
  if (trace.requests.empty()) {
    slices.push_back(trace);
    return slices;
  }
  ArrivalTrace cur;
  cur.horizon = trace.horizon;
  for (const Request& r : trace.requests) {
    if (!cur.requests.empty() &&
        r.arrival >= cur.requests.back().arrival + min_gap) {
      slices.push_back(std::move(cur));
      cur = ArrivalTrace{};
      cur.horizon = trace.horizon;
    }
    cur.requests.push_back(r);
  }
  slices.push_back(std::move(cur));
  return slices;
}

}  // namespace sx::serve
