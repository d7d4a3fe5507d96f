#include "safety/campaign.hpp"

#include <stdexcept>
#include <vector>

#include "util/rng.hpp"

namespace sx::safety {
namespace {

std::size_t argmax_of(std::span<const float> xs) noexcept {
  std::size_t best = 0;
  for (std::size_t i = 1; i < xs.size(); ++i)
    if (xs[i] > xs[best]) best = i;
  return best;
}

/// Fault-free decisions of every probe the channel accepts (the golden
/// reference the trial classifications compare against). Shared by the
/// sequential and the trial-indexed campaign paths.
struct GoldenProbes {
  std::vector<const dl::Sample*> usable;
  std::vector<std::size_t> golden;
};

GoldenProbes collect_golden(InferenceChannel& channel,
                            const dl::Dataset& probes,
                            std::vector<float>& out) {
  GoldenProbes g;
  for (const auto& s : probes.samples) {
    const Status st = channel.infer(s.input.view(), out);
    if (ok(st) && !channel.last_degraded()) {
      g.usable.push_back(&s);
      g.golden.push_back(argmax_of(out));
    }
  }
  return g;
}

}  // namespace

std::uint64_t trial_seed(std::uint64_t base_seed,
                         std::uint64_t trial) noexcept {
  // Two SplitMix64 steps decorrelate (seed, trial) pairs; the +1 keeps
  // trial 0 of seed s distinct from trial of the plain seed stream.
  util::SplitMix64 sm{base_seed ^ (0x9e3779b97f4a7c15ULL * (trial + 1))};
  return sm.next();
}

CampaignOutcome run_campaign(InferenceChannel& channel,
                             const dl::Dataset& probes,
                             const CampaignConfig& cfg) {
  if (probes.samples.empty())
    throw std::invalid_argument("run_campaign: no probes");

  // Golden (fault-free) decisions; skip probes the channel already rejects.
  std::vector<float> out(channel.output_size());
  const GoldenProbes g = collect_golden(channel, probes, out);
  // A channel that refuses every probe (e.g. a monitor whose envelope
  // rejects the whole dataset) is a valid — if useless — campaign subject:
  // there is nothing to measure, so report the well-defined empty outcome
  // instead of throwing. The rate accessors are conservative on it
  // (measured() false, safe_rate 0), so no deployment gate passes off the
  // back of zero measurements. Only an empty probe *dataset* is a caller
  // error.
  if (g.usable.empty()) return CampaignOutcome{};

  FaultInjector injector{cfg.seed};
  CampaignOutcome outcome;
  std::size_t probe_cursor = 0;
  for (std::size_t f = 0; f < cfg.n_faults; ++f) {
    // Replica 0 decides where the fault lands so it hits the parameter
    // memory its engine actually reads (float weights for a float replica,
    // the int8 store for an int8 one).
    const FaultRecord rec = channel.inject_fault(injector, 0, cfg.fault_type);
    for (std::size_t p = 0; p < cfg.probes_per_fault; ++p) {
      const std::size_t idx = probe_cursor % g.usable.size();
      ++probe_cursor;
      const Status st = channel.infer(g.usable[idx]->input.view(), out);
      if (!ok(st)) {
        ++outcome.detected;
      } else if (channel.last_degraded()) {
        ++outcome.fallback;
      } else if (argmax_of(out) == g.golden[idx]) {
        ++outcome.correct;
      } else {
        ++outcome.sdc;
      }
    }
    channel.undo_fault(0, rec);
  }
  return outcome;
}

CampaignOutcome run_campaign_range(InferenceChannel& channel,
                                   const dl::Dataset& probes,
                                   const CampaignConfig& cfg,
                                   std::size_t first_trial,
                                   std::size_t trial_count,
                                   const TrialSink& sink) {
  if (probes.samples.empty())
    throw std::invalid_argument("run_campaign_range: no probes");
  if (first_trial + trial_count > cfg.n_faults ||
      first_trial + trial_count < first_trial)
    throw std::invalid_argument(
        "run_campaign_range: trial range exceeds cfg.n_faults");

  std::vector<float> out(channel.output_size());
  const GoldenProbes g = collect_golden(channel, probes, out);
  if (g.usable.empty()) return CampaignOutcome{};

  CampaignOutcome outcome;
  for (std::size_t t = first_trial; t < first_trial + trial_count; ++t) {
    // Each trial owns its injector: the fault draw is a pure function of
    // (cfg.seed, t), never of which trials ran before it in this process.
    FaultInjector injector{trial_seed(cfg.seed, t)};
    const FaultRecord rec = channel.inject_fault(injector, 0, cfg.fault_type);
    CampaignOutcome trial_counts;
    for (std::size_t p = 0; p < cfg.probes_per_fault; ++p) {
      const std::size_t idx =
          (t * cfg.probes_per_fault + p) % g.usable.size();
      const Status st = channel.infer(g.usable[idx]->input.view(), out);
      if (!ok(st)) {
        ++trial_counts.detected;
      } else if (channel.last_degraded()) {
        ++trial_counts.fallback;
      } else if (argmax_of(out) == g.golden[idx]) {
        ++trial_counts.correct;
      } else {
        ++trial_counts.sdc;
      }
    }
    channel.undo_fault(0, rec);
    outcome.merge(trial_counts);
    if (sink) sink(t, trial_counts);
  }
  return outcome;
}

}  // namespace sx::safety
