#include "fleet/fleet.hpp"

#include <algorithm>
#include <charconv>
#include <stdexcept>
#include <thread>
#include <utility>

#include "util/stats.hpp"
#include "util/text_codec.hpp"

namespace sx::fleet {
namespace {

using util::append_u64;
using util::format_double;

/// Payload of one `trial` audit entry. Deliberately free of shard-local
/// state: the canonical fleet root re-chains these bytes in global trial
/// order, so identical trials must serialize identically no matter which
/// shard executed them.
std::string trial_payload(std::uint64_t trial,
                          const safety::CampaignOutcome& counts) {
  std::string p = "t=";
  append_u64(p, trial);
  p += " correct=";
  append_u64(p, counts.correct);
  p += " detected=";
  append_u64(p, counts.detected);
  p += " fallback=";
  append_u64(p, counts.fallback);
  p += " sdc=";
  append_u64(p, counts.sdc);
  return p;
}

bool take_field(std::string_view payload, std::string_view key,
                std::uint64_t& out) {
  const std::size_t at = payload.find(key);
  if (at == std::string_view::npos) return false;
  const char* first = payload.data() + at + key.size();
  const char* last = payload.data() + payload.size();
  const auto res = std::from_chars(first, last, out);
  return res.ec == std::errc{};
}

bool parse_trial_payload(std::string_view payload, std::uint64_t& trial,
                         safety::CampaignOutcome& counts) {
  std::uint64_t c = 0, d = 0, f = 0, s = 0;
  if (!take_field(payload, "t=", trial) ||
      !take_field(payload, "correct=", c) ||
      !take_field(payload, "detected=", d) ||
      !take_field(payload, "fallback=", f) || !take_field(payload, "sdc=", s))
    return false;
  counts.correct = c;
  counts.detected = d;
  counts.fallback = f;
  counts.sdc = s;
  return true;
}

FleetEvidence refuse(Status status, std::uint32_t shard, std::string why,
                     std::vector<ShardEvidence> shards) {
  FleetEvidence ev;
  ev.status = status;
  ev.shards = shards.size();
  ev.offending_shard = shard;
  ev.refusal = std::move(why);
  ev.shard_evidence = std::move(shards);
  return ev;
}

}  // namespace

std::size_t shard_begin(std::size_t n_trials, std::size_t shards,
                        std::size_t s) noexcept {
  if (shards == 0) return 0;
  return n_trials * s / shards;
}

SafetyBounds compute_bounds(const safety::CampaignOutcome& merged,
                            double confidence, double prior_a,
                            double prior_b) noexcept {
  SafetyBounds b;
  b.demands = merged.total();
  b.sdc = merged.sdc;
  b.confidence = confidence;
  b.prior_a = prior_a;
  b.prior_b = prior_b;
  b.measured = merged.measured();
  // Both bound functions already degrade to the conservative 1.0 on zero
  // demands, so an unmeasured fleet publishes the bound that fails every
  // deployment gate instead of a vacuous zero.
  b.cp_upper_sdc_rate =
      util::clopper_pearson_upper(merged.sdc, b.demands, confidence);
  b.bayes_upper_sdc_rate = util::bayes_binomial_upper(
      merged.sdc, b.demands, confidence, prior_a, prior_b);
  return b;
}

ShardEvidence run_shard(safety::InferenceChannel& channel,
                        const dl::Dataset& probes, const FleetConfig& cfg,
                        std::uint32_t shard_id) {
  if (cfg.shards == 0)
    throw std::invalid_argument("run_shard: zero shards");
  if (shard_id >= cfg.shards)
    throw std::invalid_argument("run_shard: shard_id out of range");

  ShardEvidence ev;
  ev.shard_id = shard_id;
  ev.base_seed = cfg.campaign.seed;
  const std::size_t n = cfg.campaign.n_faults;
  ev.first_trial = shard_begin(n, cfg.shards, shard_id);
  ev.trial_count = shard_begin(n, cfg.shards, shard_id + 1) - ev.first_trial;
  ev.segment.shard_id = shard_id;

  // Private registry; counters only. Channel-internal telemetry (monitor
  // rejections etc.) is deliberately NOT bound here: golden-probe
  // collection runs once per shard, so such counters would scale with the
  // shard count and break the merged-snapshot byte-identity guarantee. The
  // fleet counters below are derived from trial classifications only —
  // invariant under any partition of the trial range.
  obs::RegistryConfig rcfg;
  rcfg.max_counters = 8;
  rcfg.max_gauges = 2;
  rcfg.max_histograms = 2;
  obs::Registry registry{rcfg};
  const obs::CounterId c_trials = registry.counter("sx_fleet_trials_total");
  const obs::CounterId c_probes = registry.counter("sx_fleet_probes_total");
  const obs::CounterId c_correct = registry.counter("sx_fleet_correct_total");
  const obs::CounterId c_detected =
      registry.counter("sx_fleet_detected_total");
  const obs::CounterId c_fallback =
      registry.counter("sx_fleet_fallback_total");
  const obs::CounterId c_sdc = registry.counter("sx_fleet_sdc_total");

  std::string start = "shard=";
  append_u64(start, shard_id);
  start += " first=";
  append_u64(start, ev.first_trial);
  start += " count=";
  append_u64(start, ev.trial_count);
  start += " seed=";
  append_u64(start, ev.base_seed);
  ev.segment.log.append(ev.first_trial, "fleet", "shard-start",
                        std::move(start));

  ev.outcome = safety::run_campaign_range(
      channel, probes, cfg.campaign, ev.first_trial, ev.trial_count,
      [&](std::uint64_t trial, const safety::CampaignOutcome& counts) {
        registry.add(c_trials, 1);
        registry.add(c_probes, counts.total());
        registry.add(c_correct, counts.correct);
        registry.add(c_detected, counts.detected);
        registry.add(c_fallback, counts.fallback);
        registry.add(c_sdc, counts.sdc);
        ev.segment.log.append(trial, "fleet", "trial",
                              trial_payload(trial, counts));
      });

  ev.segment.log.append(ev.first_trial + ev.trial_count, "fleet", "shard-end",
                        trial_payload(ev.first_trial + ev.trial_count,
                                      ev.outcome));
  ev.snapshot = obs::RegistrySnapshot::capture(registry);
  return ev;
}

FleetEvidence merge_shards(std::span<const ShardEvidence> shards,
                           double confidence, double prior_a,
                           double prior_b) {
  std::vector<ShardEvidence> sorted(shards.begin(), shards.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const ShardEvidence& a, const ShardEvidence& b) {
              return a.shard_id < b.shard_id;
            });

  if (sorted.empty())
    return refuse(Status::kInvalidArgument, 0, "no shard evidence to merge",
                  std::move(sorted));

  // Structural validation: ids unique, one seed, trial ranges contiguous
  // from 0 — anything else means the shards did not execute one partition
  // of one campaign, and summing them would fabricate evidence.
  std::uint64_t next_trial = 0;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    const ShardEvidence& s = sorted[i];
    if (i > 0 && sorted[i - 1].shard_id == s.shard_id)
      return refuse(Status::kInvalidArgument, s.shard_id,
                    "duplicate shard id", std::move(sorted));
    if (s.segment.shard_id != s.shard_id)
      return refuse(Status::kInvalidArgument, s.shard_id,
                    "segment shard id disagrees with shard evidence",
                    std::move(sorted));
    if (s.base_seed != sorted[0].base_seed)
      return refuse(Status::kInvalidArgument, s.shard_id,
                    "shards ran with different base seeds",
                    std::move(sorted));
    if (s.first_trial != next_trial)
      return refuse(Status::kInvalidArgument, s.shard_id,
                    "trial ranges are not a contiguous partition",
                    std::move(sorted));
    next_trial += s.trial_count;
  }

  // Integrity: every chain replays, and every shard's claimed outcome is
  // re-derived from its own trial entries. A tampered payload fails the
  // chain; a re-chained (laundered) log fails the cross-check against the
  // claimed counts; both refuse with the shard named.
  for (const ShardEvidence& s : sorted) {
    if (!ok(trace::verify_segment(s.segment)))
      return refuse(Status::kIntegrityFault, s.shard_id,
                    "audit chain verification failed", std::move(sorted));
    safety::CampaignOutcome derived;
    std::uint64_t trials_seen = 0;
    std::uint64_t expected_trial = s.first_trial;
    bool malformed = false;
    for (const trace::AuditEntry& e : s.segment.log.entries()) {
      if (e.action != "trial") continue;
      std::uint64_t trial = 0;
      safety::CampaignOutcome counts;
      if (!parse_trial_payload(e.payload, trial, counts) ||
          e.logical_time != trial || trial != expected_trial) {
        malformed = true;
        break;
      }
      ++expected_trial;
      ++trials_seen;
      derived.merge(counts);
    }
    if (malformed || trials_seen != s.trial_count)
      return refuse(Status::kIntegrityFault, s.shard_id,
                    "trial entries do not cover the claimed range",
                    std::move(sorted));
    if (derived.correct != s.outcome.correct ||
        derived.detected != s.outcome.detected ||
        derived.fallback != s.outcome.fallback ||
        derived.sdc != s.outcome.sdc)
      return refuse(Status::kIntegrityFault, s.shard_id,
                    "claimed outcome contradicts the shard's audit trail",
                    std::move(sorted));
  }

  FleetEvidence ev;
  ev.shards = sorted.size();

  // Static shard order: the fold below visits shards by ascending id, so
  // the merged totals are independent of which worker finished first.
  std::vector<obs::RegistrySnapshot> snaps;
  std::vector<trace::AuditSegment> segments;
  snaps.reserve(sorted.size());
  segments.reserve(sorted.size());
  for (const ShardEvidence& s : sorted) {
    ev.merged.merge(s.outcome);
    snaps.push_back(s.snapshot);
    segments.push_back(s.segment);
  }

  if (!ok(obs::RegistrySnapshot::merge(snaps, ev.merged_snapshot)))
    return refuse(Status::kInvalidArgument, 0,
                  "registry snapshot schemas disagree across shards",
                  std::move(sorted));

  const trace::FleetAnchor anchor = trace::anchor_segments(segments);
  if (!ok(anchor.status))
    return refuse(anchor.status, anchor.offending_shard,
                  "segment anchoring refused", std::move(sorted));
  ev.anchor = anchor.digest;

  const trace::FleetAnchor root = trace::canonical_root(segments);
  if (!ok(root.status))
    return refuse(root.status, root.offending_shard,
                  "canonical fleet root refused", std::move(sorted));
  ev.fleet_root = root.digest;

  ev.bounds = compute_bounds(ev.merged, confidence, prior_a, prior_b);
  ev.shard_evidence = std::move(sorted);
  return ev;
}

FleetEvidence run_sharded_campaign(const ChannelFactory& factory,
                                   const dl::Dataset& probes,
                                   const FleetConfig& cfg) {
  if (!factory)
    throw std::invalid_argument("run_sharded_campaign: null channel factory");
  if (cfg.shards == 0)
    throw std::invalid_argument("run_sharded_campaign: zero shards");
  if (probes.samples.empty())
    throw std::invalid_argument("run_sharded_campaign: no probes");

  // Channels are built serially (model copies; the factory need not be
  // thread-safe), then each shard runs on its own worker against its own
  // channel — no mutable state is shared between workers.
  std::vector<std::unique_ptr<safety::InferenceChannel>> channels;
  channels.reserve(cfg.shards);
  for (std::size_t s = 0; s < cfg.shards; ++s) {
    channels.push_back(factory());
    if (channels.back() == nullptr)
      throw std::invalid_argument(
          "run_sharded_campaign: factory returned null");
  }

  std::vector<ShardEvidence> evidence(cfg.shards);
  if (cfg.shards == 1) {
    evidence[0] = run_shard(*channels[0], probes, cfg, 0);
  } else {
    std::vector<std::thread> workers;
    workers.reserve(cfg.shards);
    for (std::size_t s = 0; s < cfg.shards; ++s)
      workers.emplace_back([&, s] {
        evidence[s] =
            run_shard(*channels[s], probes, cfg, static_cast<std::uint32_t>(s));
      });
    for (std::thread& w : workers) w.join();
  }
  return merge_shards(evidence, cfg.confidence, cfg.prior_a, cfg.prior_b);
}

bool attach_to_safety_case(const FleetEvidence& evidence,
                           trace::SafetyCase& safety_case,
                           std::size_t parent_goal) {
  if (!ok(evidence.status)) return false;
  const std::size_t strategy = safety_case.add_strategy(
      parent_goal, "S-FLEET",
      "Argument over merged fleet fault-injection evidence (verified "
      "hash-chained audit segments, partition-independent root)");
  const std::string unit =
      "sdc/demand @ " + format_double(evidence.bounds.confidence) +
      " one-sided";
  safety_case.add_quantified_solution(
      strategy, "Sn-FLEET-DEMANDS",
      "fault-injection demands measured across the fleet",
      static_cast<double>(evidence.bounds.demands), "demands");
  safety_case.add_quantified_solution(
      strategy, "Sn-FLEET-SDC-CP",
      "Clopper-Pearson upper bound on the SDC rate",
      evidence.bounds.cp_upper_sdc_rate, unit);
  safety_case.add_quantified_solution(
      strategy, "Sn-FLEET-SDC-BAYES",
      "Bayesian posterior upper bound on the SDC rate",
      evidence.bounds.bayes_upper_sdc_rate, unit);
  safety_case.add_solution(strategy, "Sn-FLEET-ROOT",
                           "fleet audit root sha256:" +
                               util::to_hex(evidence.fleet_root));
  return true;
}

}  // namespace sx::fleet
