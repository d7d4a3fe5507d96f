// E18 — Fleet evidence plane: sharded fault campaigns with mergeable,
// byte-identical evidence and quantified safety bounds.
//
// Question: can a fault-injection campaign be split across N workers so
// that the *merged* evidence — outcome counts, registry snapshot bytes and
// the canonical audit root — is bitwise identical to the single-process
// run, with tampering refused at merge time and the residual SDC rate
// bounded quantitatively (one-sided Clopper-Pearson and Bayesian posterior
// upper bounds per demand)?
//
// The harness runs the same campaign at 1/2/4/8 shards, checks the three
// identity gates against the 1-shard baseline, round-trips every shard
// through the evidence file format, demonstrates that a flipped hex digit
// in a persisted audit entry is refused with the shard named, and reports
// the quantified bounds. Results also land in BENCH_E18.json.
//
// Usage: bench_e18_fleet [--smoke]   (--smoke shrinks the campaign for CI
// label `bench-smoke`).
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "fleet/evidence.hpp"
#include "fleet/fleet.hpp"
#include "safety/channel.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

std::unique_ptr<sx::safety::InferenceChannel> make_channel() {
  return std::make_unique<sx::safety::EngineChannel>(sx::safety::Replica{
      sx::bench::trained_mlp(),
      sx::dl::StaticEngineConfig{.check_numeric_faults = true}});
}

sx::fleet::FleetConfig fleet_config(std::size_t shards, bool smoke) {
  sx::fleet::FleetConfig cfg;
  cfg.shards = shards;
  cfg.campaign.n_faults = smoke ? 16 : 64;
  cfg.campaign.probes_per_fault = 4;
  cfg.campaign.seed = 1234;
  cfg.confidence = 0.99;
  return cfg;
}

bool outcomes_equal(const sx::safety::CampaignOutcome& a,
                    const sx::safety::CampaignOutcome& b) {
  return a.correct == b.correct && a.detected == b.detected &&
         a.fallback == b.fallback && a.sdc == b.sdc;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  sx::bench::print_header(
      "E18: fleet evidence plane",
      "Does sharded campaign evidence merge bitwise-identically, refuse "
      "tampering, and bound the SDC rate quantitatively?");

  sx::bench::JsonResult json{"E18", smoke};
  bool all_ok = true;

  // --- identity gates: 2/4/8 shards vs the single-process baseline -------
  // Warm up the lazily trained workload so wall-clock numbers compare
  // campaign execution, not first-touch training.
  (void)sx::bench::trained_mlp();
  (void)sx::bench::road_data();
  const auto t0 = std::chrono::steady_clock::now();
  const sx::fleet::FleetEvidence base = sx::fleet::run_sharded_campaign(
      make_channel, sx::bench::road_data(), fleet_config(1, smoke));
  const auto t1 = std::chrono::steady_clock::now();
  const double base_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  const std::string base_snapshot = base.merged_snapshot.serialize();

  bool identity_ok = ok(base.status);
  sx::util::Table table{
      {"shards", "demands", "sdc", "outcome==1p", "snapshot==1p",
       "root==1p", "wall ms"}};
  table.add_row({"1", std::to_string(base.bounds.demands),
                 std::to_string(base.bounds.sdc), "-", "-", "-",
                 sx::util::fmt(base_ms, 1)});
  json.add("shard1_wall_ms", base_ms);

  for (const std::size_t shards : {2u, 4u, 8u}) {
    const auto s0 = std::chrono::steady_clock::now();
    const sx::fleet::FleetEvidence ev = sx::fleet::run_sharded_campaign(
        make_channel, sx::bench::road_data(), fleet_config(shards, smoke));
    const auto s1 = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(s1 - s0).count();
    const bool oc = ok(ev.status) && outcomes_equal(ev.merged, base.merged);
    const bool sn = ev.merged_snapshot.serialize() == base_snapshot;
    const bool rt = ev.fleet_root == base.fleet_root;
    identity_ok = identity_ok && oc && sn && rt;
    table.add_row({std::to_string(shards), std::to_string(ev.bounds.demands),
                   std::to_string(ev.bounds.sdc), oc ? "yes" : "NO",
                   sn ? "yes" : "NO", rt ? "yes" : "NO",
                   sx::util::fmt(ms, 1)});
    json.add("shard" + std::to_string(shards) + "_wall_ms", ms);
    json.add("shard" + std::to_string(shards) + "_identical",
             (oc && sn && rt) ? 1.0 : 0.0);
  }
  std::cout << table.to_ascii() << "\n";
  sx::bench::print_verdict(identity_ok,
                           "merged outcome, snapshot bytes and fleet root "
                           "are identical for every shard count");
  all_ok = all_ok && identity_ok;

  // --- evidence files: round trip and tamper refusal ---------------------
  {
    const sx::fleet::FleetEvidence ev = sx::fleet::run_sharded_campaign(
        make_channel, sx::bench::road_data(), fleet_config(4, smoke));
    std::vector<sx::fleet::ShardEvidence> reloaded;
    bool roundtrip_ok = ok(ev.status);
    for (const sx::fleet::ShardEvidence& s : ev.shard_evidence) {
      sx::fleet::ShardEvidence r;
      roundtrip_ok =
          roundtrip_ok && sx::fleet::parse_shard(serialize_shard(s), r);
      reloaded.push_back(std::move(r));
    }
    const sx::fleet::FleetEvidence remerged =
        sx::fleet::merge_shards(reloaded, 0.99);
    roundtrip_ok = roundtrip_ok && ok(remerged.status) &&
                   outcomes_equal(remerged.merged, ev.merged) &&
                   remerged.fleet_root == ev.fleet_root &&
                   remerged.anchor == ev.anchor;
    sx::bench::print_verdict(roundtrip_ok,
                             "shard evidence files round-trip to an "
                             "identical merge (outcome, roots)");
    all_ok = all_ok && roundtrip_ok;
    json.add("file_roundtrip_identical", roundtrip_ok ? 1.0 : 0.0);

    // Flip one hex digit inside the first trial entry of shard 1's file:
    // the reload must parse (the file is well-formed) and the merge must
    // refuse with the shard named.
    std::string text = serialize_shard(ev.shard_evidence[1]);
    const std::size_t at = text.find("\nentry ");
    std::size_t tok = at + 1;
    for (int i = 0; i < 5; ++i) tok = text.find(' ', tok) + 1;
    text[tok] = text[tok] == '0' ? '1' : '0';
    sx::fleet::ShardEvidence bad;
    bool tamper_ok = sx::fleet::parse_shard(text, bad);
    std::vector<sx::fleet::ShardEvidence> shards = ev.shard_evidence;
    shards[1] = std::move(bad);
    const sx::fleet::FleetEvidence refused =
        sx::fleet::merge_shards(shards, 0.99);
    tamper_ok = tamper_ok && refused.status == sx::Status::kIntegrityFault &&
                refused.offending_shard == 1;
    sx::bench::print_verdict(tamper_ok,
                             "a flipped hex digit in a persisted audit "
                             "entry is refused at merge, shard named");
    all_ok = all_ok && tamper_ok;
    json.add("tamper_refused", tamper_ok ? 1.0 : 0.0);
  }

  // --- quantified bounds -------------------------------------------------
  {
    const double textbook = sx::util::clopper_pearson_upper(0, 100, 0.99);
    const bool textbook_ok = textbook > 0.0445 && textbook < 0.0455;
    sx::bench::print_verdict(
        textbook_ok,
        "Clopper-Pearson upper(k=0, n=100, 0.99) matches the textbook "
        "value 0.045007 (got " + std::to_string(textbook) + ")");
    all_ok = all_ok && textbook_ok;

    const sx::fleet::SafetyBounds& b = base.bounds;
    const double observed =
        b.demands == 0
            ? 1.0
            : static_cast<double>(b.sdc) / static_cast<double>(b.demands);
    const bool bounds_ok = b.measured && b.cp_upper_sdc_rate >= observed &&
                           b.bayes_upper_sdc_rate >= observed &&
                           b.cp_upper_sdc_rate < 1.0;
    std::cout << "  demands " << b.demands << ", sdc " << b.sdc
              << ": SDC rate <= " << b.cp_upper_sdc_rate
              << " (Clopper-Pearson), <= " << b.bayes_upper_sdc_rate
              << " (Bayes, Beta(1,1)) @ one-sided 0.99\n";
    sx::bench::print_verdict(bounds_ok,
                             "both upper bounds dominate the observed SDC "
                             "rate and tighten below 1.0");
    all_ok = all_ok && bounds_ok;
    json.add("demands", static_cast<double>(b.demands));
    json.add("sdc", static_cast<double>(b.sdc));
    json.add("cp_upper_sdc_rate", b.cp_upper_sdc_rate);
    json.add("bayes_upper_sdc_rate", b.bayes_upper_sdc_rate);
  }

  const bool wrote = json.write(all_ok);
  return (all_ok && wrote) ? 0 : 1;
}
