// Fleet evidence plane (src/fleet): partition-invariant sharded campaigns,
// mergeable evidence with layered refusal, quantified safety bounds, and
// the shard-file interchange format.
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "fleet/evidence.hpp"
#include "fleet/fleet.hpp"
#include "obs/registry.hpp"
#include "obs/snapshot.hpp"
#include "safety/campaign.hpp"
#include "safety/channel.hpp"
#include "test_helpers.hpp"
#include "trace/safety_case.hpp"
#include "util/stats.hpp"

namespace sx::fleet {
namespace {

const dl::Model& model() { return sx::testing::trained_mlp(); }
const dl::Dataset& data() { return sx::testing::road_data(); }

std::unique_ptr<safety::InferenceChannel> make_channel() {
  return std::make_unique<safety::EngineChannel>(safety::Replica{
      model(), dl::StaticEngineConfig{.check_numeric_faults = true}});
}

FleetConfig small_config(std::size_t shards) {
  FleetConfig cfg;
  cfg.shards = shards;
  cfg.campaign.n_faults = 12;
  cfg.campaign.probes_per_fault = 3;
  cfg.campaign.seed = 77;
  cfg.confidence = 0.99;
  return cfg;
}

bool outcomes_equal(const safety::CampaignOutcome& a,
                    const safety::CampaignOutcome& b) {
  return a.correct == b.correct && a.detected == b.detected &&
         a.fallback == b.fallback && a.sdc == b.sdc;
}

// ------------------------------------------- CampaignOutcome::merge basics

TEST(FleetOutcomeMerge, UnmeasuredMergeIsNoOp) {
  safety::CampaignOutcome a;
  a.correct = 3;
  a.sdc = 1;
  const safety::CampaignOutcome before = a;
  a.merge(safety::CampaignOutcome{});  // unmeasured: total() == 0
  EXPECT_TRUE(outcomes_equal(a, before));
  EXPECT_DOUBLE_EQ(a.sdc_rate(), before.sdc_rate());
}

TEST(FleetOutcomeMerge, MergedRatesArePooledNotAveraged) {
  safety::CampaignOutcome a;  // 1/10 sdc
  a.correct = 9;
  a.sdc = 1;
  safety::CampaignOutcome b;  // 0/30 sdc
  b.correct = 30;
  a.merge(b);
  // Pooled: 1 sdc over 40 demands — not the 0.05 average of the two rates.
  EXPECT_DOUBLE_EQ(a.sdc_rate(), 1.0 / 40.0);
  EXPECT_EQ(a.total(), 40u);
}

TEST(FleetOutcomeMerge, MergingIntoUnmeasuredAdoptsOther) {
  safety::CampaignOutcome a;
  EXPECT_FALSE(a.measured());
  safety::CampaignOutcome b;
  b.detected = 4;
  a.merge(b);
  EXPECT_TRUE(a.measured());
  EXPECT_EQ(a.detected, 4u);
}

// ------------------------------------------------ trial-indexed campaigns

TEST(FleetCampaignRange, FullRangeMatchesAnyPartition) {
  const auto cfg = small_config(1).campaign;
  auto full_ch = make_channel();
  const safety::CampaignOutcome full =
      safety::run_campaign_range(*full_ch, data(), cfg, 0, cfg.n_faults);
  EXPECT_TRUE(full.measured());

  for (const std::size_t parts : {2u, 3u, 4u}) {
    safety::CampaignOutcome merged;
    for (std::size_t p = 0; p < parts; ++p) {
      const std::size_t first = cfg.n_faults * p / parts;
      const std::size_t count = cfg.n_faults * (p + 1) / parts - first;
      auto ch = make_channel();  // fresh channel per range: independence
      merged.merge(safety::run_campaign_range(*ch, data(), cfg, first, count));
    }
    EXPECT_TRUE(outcomes_equal(merged, full)) << parts << " partitions";
  }
}

TEST(FleetCampaignRange, TrialSeedIsPureFunctionOfSeedAndTrial) {
  EXPECT_EQ(safety::trial_seed(7, 3), safety::trial_seed(7, 3));
  EXPECT_NE(safety::trial_seed(7, 3), safety::trial_seed(7, 4));
  EXPECT_NE(safety::trial_seed(7, 3), safety::trial_seed(8, 3));
}

TEST(FleetCampaignRange, RangeBeyondConfigThrows) {
  auto ch = make_channel();
  const auto cfg = small_config(1).campaign;
  EXPECT_THROW(
      safety::run_campaign_range(*ch, data(), cfg, cfg.n_faults - 1, 2),
      std::invalid_argument);
}

TEST(FleetCampaignRange, SinkSeesEveryTrialInOrder) {
  auto ch = make_channel();
  const auto cfg = small_config(1).campaign;
  std::vector<std::uint64_t> trials;
  safety::CampaignOutcome summed;
  const safety::CampaignOutcome total = safety::run_campaign_range(
      *ch, data(), cfg, 2, 5,
      [&](std::uint64_t t, const safety::CampaignOutcome& counts) {
        trials.push_back(t);
        summed.merge(counts);
      });
  ASSERT_EQ(trials.size(), 5u);
  for (std::size_t i = 0; i < trials.size(); ++i)
    EXPECT_EQ(trials[i], 2 + i);
  EXPECT_TRUE(outcomes_equal(summed, total));
}

// -------------------------------------------------- sharded fleet campaign

TEST(FleetShardedCampaign, MergedEvidenceIdenticalForAllShardCounts) {
  const FleetEvidence base =
      run_sharded_campaign(make_channel, data(), small_config(1));
  ASSERT_EQ(base.status, Status::kOk) << base.refusal;
  ASSERT_TRUE(base.merged.measured());
  const std::string base_bytes = base.merged_snapshot.serialize();

  for (const std::size_t shards : {2u, 4u, 8u}) {
    const FleetEvidence ev =
        run_sharded_campaign(make_channel, data(), small_config(shards));
    ASSERT_EQ(ev.status, Status::kOk) << ev.refusal;
    EXPECT_TRUE(outcomes_equal(ev.merged, base.merged)) << shards;
    EXPECT_EQ(ev.merged_snapshot.serialize(), base_bytes) << shards;
    EXPECT_EQ(ev.fleet_root, base.fleet_root) << shards;
    // The physical anchor commits to the sharding, so it must differ.
    EXPECT_NE(ev.anchor, base.anchor) << shards;
  }
}

TEST(FleetShardedCampaign, SnapshotCountersMatchOutcome) {
  const FleetEvidence ev =
      run_sharded_campaign(make_channel, data(), small_config(4));
  ASSERT_EQ(ev.status, Status::kOk);
  EXPECT_EQ(ev.merged_snapshot.counter_value("sx_fleet_trials_total"), 12u);
  EXPECT_EQ(ev.merged_snapshot.counter_value("sx_fleet_probes_total"),
            ev.merged.total());
  EXPECT_EQ(ev.merged_snapshot.counter_value("sx_fleet_sdc_total"),
            ev.merged.sdc);
  EXPECT_EQ(ev.merged_snapshot.counter_value("sx_fleet_correct_total"),
            ev.merged.correct);
}

TEST(FleetShardedCampaign, TamperedShardEntryRefusedAtMerge) {
  FleetEvidence ev =
      run_sharded_campaign(make_channel, data(), small_config(4));
  ASSERT_EQ(ev.status, Status::kOk);
  // Mutate one stored trial entry of shard 2 (test hook; production has no
  // mutation path into the chain).
  ev.shard_evidence[2].segment.log.tamper_payload_for_test(
      1, "t=999 correct=0 detected=0 fallback=0 sdc=0");
  const FleetEvidence merged = merge_shards(ev.shard_evidence, 0.99);
  EXPECT_EQ(merged.status, Status::kIntegrityFault);
  EXPECT_EQ(merged.offending_shard, 2u);
  EXPECT_FALSE(merged.refusal.empty());
  // The refused merge publishes only conservative evidence.
  EXPECT_FALSE(merged.merged.measured());
  EXPECT_DOUBLE_EQ(merged.bounds.cp_upper_sdc_rate, 1.0);
}

TEST(FleetShardedCampaign, ClaimedOutcomeContradictingTrailRefused) {
  FleetEvidence ev =
      run_sharded_campaign(make_channel, data(), small_config(2));
  ASSERT_EQ(ev.status, Status::kOk);
  // Chain intact, claim falsified: the outcome/audit cross-check must fire.
  ev.shard_evidence[1].outcome.correct += 1;
  const FleetEvidence merged = merge_shards(ev.shard_evidence, 0.99);
  EXPECT_EQ(merged.status, Status::kIntegrityFault);
  EXPECT_EQ(merged.offending_shard, 1u);
}

TEST(FleetShardedCampaign, NonContiguousRangesRefused) {
  FleetEvidence ev =
      run_sharded_campaign(make_channel, data(), small_config(2));
  ASSERT_EQ(ev.status, Status::kOk);
  std::vector<ShardEvidence> gap{ev.shard_evidence[0]};
  const FleetEvidence merged = merge_shards(gap, 0.99);
  // Shard 1 missing: the surviving range claims [0, 6) of a 12-trial
  // campaign — but nothing asserts 12 here, so dropping the *first* shard
  // must refuse (range no longer starts at 0).
  std::vector<ShardEvidence> tail{ev.shard_evidence[1]};
  EXPECT_EQ(merge_shards(tail, 0.99).status, Status::kInvalidArgument);
  EXPECT_EQ(merged.status, Status::kOk);  // prefix alone is a valid fleet
}

TEST(FleetShardedCampaign, MixedSeedsRefused) {
  FleetEvidence a =
      run_sharded_campaign(make_channel, data(), small_config(2));
  ASSERT_EQ(a.status, Status::kOk);
  FleetConfig other = small_config(2);
  other.campaign.seed = 78;
  FleetEvidence b = run_sharded_campaign(make_channel, data(), other);
  ASSERT_EQ(b.status, Status::kOk);
  std::vector<ShardEvidence> mixed{a.shard_evidence[0], b.shard_evidence[1]};
  EXPECT_EQ(merge_shards(mixed, 0.99).status, Status::kInvalidArgument);
}

TEST(FleetShardedCampaign, EmptyMergeRefused) {
  EXPECT_EQ(merge_shards({}, 0.99).status, Status::kInvalidArgument);
}

// ------------------------------------------------------- quantified bounds

TEST(FleetBounds, ClopperPearsonMatchesClosedFormAtZeroFailures) {
  // k = 0: the exact bound is 1 - alpha^(1/n).
  EXPECT_NEAR(util::clopper_pearson_upper(0, 100, 0.99), 0.045007, 5e-4);
  EXPECT_NEAR(util::clopper_pearson_upper(0, 1000, 0.99), 0.0045952, 5e-5);
}

TEST(FleetBounds, BoundsAreConservativeOnNoData) {
  EXPECT_DOUBLE_EQ(util::clopper_pearson_upper(0, 0, 0.99), 1.0);
  EXPECT_DOUBLE_EQ(util::bayes_binomial_upper(0, 0, 0.99), 1.0);
  const SafetyBounds b = compute_bounds(safety::CampaignOutcome{}, 0.99,
                                        1.0, 1.0);
  EXPECT_FALSE(b.measured);
  EXPECT_DOUBLE_EQ(b.cp_upper_sdc_rate, 1.0);
  EXPECT_DOUBLE_EQ(b.bayes_upper_sdc_rate, 1.0);
}

TEST(FleetBounds, MoreTrialsTightenTheBound) {
  const double b100 = util::clopper_pearson_upper(1, 100, 0.99);
  const double b1000 = util::clopper_pearson_upper(10, 1000, 0.99);
  EXPECT_LT(b1000, b100);  // same observed rate, more evidence
  EXPECT_GT(b100, 0.01);   // always above the observed rate
}

TEST(FleetBounds, BoundsBracketObservedRateFromAbove) {
  safety::CampaignOutcome o;
  o.correct = 90;
  o.sdc = 2;
  const SafetyBounds b = compute_bounds(o, 0.99, 1.0, 1.0);
  EXPECT_TRUE(b.measured);
  EXPECT_GT(b.cp_upper_sdc_rate, o.sdc_rate());
  EXPECT_LT(b.cp_upper_sdc_rate, 1.0);
  EXPECT_GT(b.bayes_upper_sdc_rate, o.sdc_rate());
  EXPECT_LT(b.bayes_upper_sdc_rate, 1.0);
}

TEST(FleetBounds, BetaQuantileInvertsIncompleteBeta) {
  for (const double q : {0.5, 0.9, 0.99}) {
    const double x = util::beta_quantile(3.0, 7.0, q);
    EXPECT_NEAR(util::incomplete_beta(3.0, 7.0, x), q, 1e-9);
  }
}

// ----------------------------------------------------- safety-case wiring

TEST(FleetSafetyCase, QuantifiedSolutionsDischargeTheGoal) {
  const FleetEvidence ev =
      run_sharded_campaign(make_channel, data(), small_config(2));
  ASSERT_EQ(ev.status, Status::kOk);
  trace::SafetyCase sc;
  const std::size_t root =
      sc.set_root_goal("G1", "Residual SDC rate is acceptably bounded");
  ASSERT_TRUE(attach_to_safety_case(ev, sc, root));
  EXPECT_TRUE(sc.complete());
  const std::string text = sc.to_text();
  EXPECT_NE(text.find("Clopper-Pearson"), std::string::npos);
  EXPECT_NE(text.find("[= "), std::string::npos);
  EXPECT_NE(text.find("sdc/demand @ 0.99 one-sided"), std::string::npos);
  EXPECT_NE(text.find("fleet audit root sha256:"), std::string::npos);
}

TEST(FleetSafetyCase, RefusedMergeAttachesNothing) {
  FleetEvidence ev =
      run_sharded_campaign(make_channel, data(), small_config(2));
  ASSERT_EQ(ev.status, Status::kOk);
  ev.shard_evidence[0].segment.log.tamper_payload_for_test(1, "x");
  const FleetEvidence refused = merge_shards(ev.shard_evidence, 0.99);
  trace::SafetyCase sc;
  const std::size_t root = sc.set_root_goal("G1", "bounded SDC");
  EXPECT_FALSE(attach_to_safety_case(refused, sc, root));
  EXPECT_FALSE(sc.complete());  // the goal stays undischarged
}

// ------------------------------------------------------ shard file format

TEST(FleetShardFile, RoundTripPreservesEverything) {
  const FleetEvidence ev =
      run_sharded_campaign(make_channel, data(), small_config(4));
  ASSERT_EQ(ev.status, Status::kOk);
  std::vector<ShardEvidence> reloaded;
  for (const ShardEvidence& s : ev.shard_evidence) {
    const std::string text = serialize_shard(s);
    // Deterministic bytes: equal evidence serializes identically.
    EXPECT_EQ(text, serialize_shard(s));
    ShardEvidence r;
    ASSERT_TRUE(parse_shard(text, r));
    EXPECT_EQ(r.shard_id, s.shard_id);
    EXPECT_EQ(r.first_trial, s.first_trial);
    EXPECT_EQ(r.trial_count, s.trial_count);
    EXPECT_EQ(r.base_seed, s.base_seed);
    EXPECT_TRUE(outcomes_equal(r.outcome, s.outcome));
    EXPECT_EQ(r.segment.log.size(), s.segment.log.size());
    EXPECT_EQ(r.segment.log.head(), s.segment.log.head());
    EXPECT_EQ(r.segment.log.verify(), Status::kOk);
    EXPECT_EQ(r.snapshot.serialize(), s.snapshot.serialize());
    reloaded.push_back(std::move(r));
  }
  const FleetEvidence merged = merge_shards(reloaded, 0.99);
  ASSERT_EQ(merged.status, Status::kOk) << merged.refusal;
  EXPECT_TRUE(outcomes_equal(merged.merged, ev.merged));
  EXPECT_EQ(merged.fleet_root, ev.fleet_root);
  EXPECT_EQ(merged.anchor, ev.anchor);
  EXPECT_EQ(merged.merged_snapshot.serialize(),
            ev.merged_snapshot.serialize());
}

TEST(FleetShardFile, FileTamperingIsRefusedAfterReload) {
  const FleetEvidence ev =
      run_sharded_campaign(make_channel, data(), small_config(2));
  ASSERT_EQ(ev.status, Status::kOk);
  std::string text = serialize_shard(ev.shard_evidence[0]);
  // Flip one hex digit in the payload token of the first trial entry line
  // (token 5 of "entry seq time actor action payload hash").
  const std::size_t at = text.find("\nentry ");
  ASSERT_NE(at, std::string::npos);
  std::size_t tok = at + 1;
  for (int i = 0; i < 5; ++i) tok = text.find(' ', tok) + 1;
  text[tok] = text[tok] == '0' ? '1' : '0';
  ShardEvidence bad;
  ASSERT_TRUE(parse_shard(text, bad));  // syntactically fine
  std::vector<ShardEvidence> shards{bad, ev.shard_evidence[1]};
  const FleetEvidence merged = merge_shards(shards, 0.99);
  EXPECT_EQ(merged.status, Status::kIntegrityFault);
  EXPECT_EQ(merged.offending_shard, 0u);
}

TEST(FleetShardFile, MalformedTextIsRejected) {
  ShardEvidence out;
  EXPECT_FALSE(parse_shard("", out));
  EXPECT_FALSE(parse_shard("not-a-shard-file\n", out));
  EXPECT_FALSE(parse_shard("sx-fleet-shard/1\nshard zero\n", out));
  // An entry count past the lines that follow is refused, not reserved.
  EXPECT_FALSE(parse_shard("sx-fleet-shard/1\nshard 0\nrange 0 1\nseed 1\n"
                           "outcome 0 0 0 0\naudit 99999999999999999\n",
                           out));
}

// ------------------------------------------------ parser robustness sweep

/// Feeds `check` every strict prefix of `valid` and every single-byte
/// corruption of it: at each position, each of the 255 byte values other
/// than the original. Deterministic: no seed, no time.
template <class Check>
void sweep_mutants(const std::string& valid, Check check) {
  for (std::size_t n = 0; n < valid.size(); ++n)
    check(std::string_view(valid).substr(0, n));
  std::string m = valid;
  for (std::size_t i = 0; i < valid.size(); ++i) {
    for (int b = 0; b < 256; ++b) {
      const char c = static_cast<char>(b);
      if (c == valid[i]) continue;
      m[i] = c;
      check(std::string_view(m));
    }
    m[i] = valid[i];
  }
}

/// Sweeps `valid` through `parse`: each mutant is refused, or parses to an
/// object whose serialization parses back to the same serialization.
template <class T, class Parse, class Serialize>
void expect_refused_or_round_trips(const std::string& valid, Parse parse,
                                   Serialize serialize) {
  std::size_t accepted = 0, refused = 0, broken = 0;
  std::string first_broken;
  sweep_mutants(valid, [&](std::string_view text) {
    T parsed;
    if (!parse(text, parsed)) {
      ++refused;
      return;
    }
    ++accepted;
    const std::string once = serialize(parsed);
    T again;
    if (!parse(once, again) || serialize(again) != once) {
      if (broken++ == 0) first_broken = std::string(text);
    }
  });
  EXPECT_EQ(broken, 0u) << "first mutant that does not round-trip:\n"
                        << first_broken;
  EXPECT_GT(refused, 0u);
  EXPECT_GT(accepted, 1u);  // the sweep reaches accepted mutants too
}

TEST(EvidenceParseSweep, RegistrySnapshotRefusesOrRoundTrips) {
  // A small registry that fills every section of the format: counters,
  // gauges, and a histogram whose sample ring overflowed.
  obs::Registry reg{{.histogram_bins = 6, .sample_capacity = 2}};
  reg.add(reg.counter("sx_a"), 3);
  reg.add(reg.counter("sx_b"), 12345);
  reg.set(reg.gauge("sx_g"), 1.5);
  reg.set(reg.gauge("sx_h"), -0.25);
  const obs::HistogramId h = reg.histogram("sx_latency");
  for (const std::uint64_t v : {10u, 100u, 5000u}) reg.observe(h, v);
  const obs::RegistrySnapshot snap = obs::RegistrySnapshot::capture(reg);
  ASSERT_EQ(snap.total_dropped_samples(), 1u);
  expect_refused_or_round_trips<obs::RegistrySnapshot>(
      snap.serialize(),
      [](std::string_view t, obs::RegistrySnapshot& s) {
        return obs::RegistrySnapshot::parse(t, s);
      },
      [](const obs::RegistrySnapshot& s) { return s.serialize(); });
}

TEST(EvidenceParseSweep, ShardFileRefusesOrRoundTrips) {
  const FleetEvidence ev =
      run_sharded_campaign(make_channel, data(), small_config(2));
  ASSERT_EQ(ev.status, Status::kOk);
  expect_refused_or_round_trips<ShardEvidence>(
      serialize_shard(ev.shard_evidence[0]),
      [](std::string_view t, ShardEvidence& s) { return parse_shard(t, s); },
      [](const ShardEvidence& s) { return serialize_shard(s); });
}

// ----------------------------------------------------------- report block

TEST(FleetReportBlock, RenderIsDeterministicAndNamesBothBounds) {
  const FleetEvidence ev =
      run_sharded_campaign(make_channel, data(), small_config(2));
  ASSERT_EQ(ev.status, Status::kOk);
  const std::string block = render_fleet_block(ev);
  EXPECT_EQ(block, render_fleet_block(ev));
  EXPECT_NE(block.find("schema sx-fleet-evidence/1"), std::string::npos);
  EXPECT_NE(block.find("bound method=clopper-pearson"), std::string::npos);
  EXPECT_NE(block.find("bound method=bayes-beta"), std::string::npos);
  EXPECT_NE(block.find("fleet_root "), std::string::npos);
  EXPECT_NE(block.find("shard id=0"), std::string::npos);
  EXPECT_NE(block.find("shard id=1"), std::string::npos);
  EXPECT_NE(summary(ev).find("Clopper-Pearson"), std::string::npos);
}

}  // namespace
}  // namespace sx::fleet
