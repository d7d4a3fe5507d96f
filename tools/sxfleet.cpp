// sxfleet — sharded fault-campaign driver and evidence merger.
//
// Exercises the fleet evidence plane (src/fleet) from the command line so
// that N *independent processes* can each execute one shard of a fault
// campaign and a final merge step can fold their evidence files into the
// merged outcome, the merged registry snapshot, the quantified SDC bounds
// and the partition-independent fleet audit root:
//
//   sxfleet run --shards 4 --shard 2 --out shard2.txt [--trials N] [--seed S]
//       runs shard 2 of a 4-shard campaign over the built-in deterministic
//       workload (trained road-scene MLP, single channel) and writes the
//       shard evidence file (schema sx-fleet-shard/1)
//
//   sxfleet merge shard0.txt shard1.txt ... [--confidence C]
//       verifies every shard's hash chain, cross-checks each claimed
//       outcome against its own audit trail, merges, and prints the
//       summary + machine-readable evidence block. Exit 1 with an explicit
//       refusal when any shard fails verification.
//
//   sxfleet --selftest
//       in-process acceptance gates: shard counts {1,2,4,8} produce
//       byte-identical merged evidence; serialize -> parse -> merge round
//       trips; a tampered shard file is refused; bound values are sane.
//
// Exit status: 0 on success, 1 on refused merge / failed selftest,
// 2 on usage/IO errors. Host tool: iostream/filesystem are fine here.
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "dl/dataset.hpp"
#include "dl/model.hpp"
#include "dl/train.hpp"
#include "fleet/evidence.hpp"
#include "fleet/fleet.hpp"
#include "util/stats.hpp"

namespace {

using sx::fleet::FleetConfig;
using sx::fleet::FleetEvidence;
using sx::fleet::ShardEvidence;

/// Deterministic built-in workload: every process that trains it obtains
/// bit-identical weights, so shard evidence produced by independent
/// processes merges exactly like the in-process run.
const sx::dl::Dataset& workload_data() {
  static const sx::dl::Dataset ds = sx::dl::make_road_scene(160, /*seed=*/11);
  return ds;
}

const sx::dl::Model& workload_model() {
  static const sx::dl::Model model = [] {
    sx::dl::ModelBuilder b{workload_data().input_shape};
    b.flatten().dense(16).relu().dense(sx::dl::kRoadSceneClasses);
    sx::dl::Model m = b.build(5);
    sx::dl::Trainer trainer{sx::dl::TrainConfig{.learning_rate = 0.02,
                                                .momentum = 0.9,
                                                .epochs = 8,
                                                .batch_size = 16,
                                                .shuffle_seed = 3}};
    trainer.fit(m, workload_data());
    return m;
  }();
  return model;
}

std::unique_ptr<sx::safety::InferenceChannel> make_channel() {
  // Numeric-fault checking on: injected faults can fail-stop (detected)
  // instead of every corruption being silent or masked.
  return std::make_unique<sx::safety::EngineChannel>(sx::safety::Replica{
      workload_model(),
      sx::dl::StaticEngineConfig{.check_numeric_faults = true}});
}

FleetConfig make_config(std::size_t shards, std::size_t trials,
                        std::uint64_t seed, double confidence) {
  FleetConfig cfg;
  cfg.shards = shards;
  cfg.campaign.n_faults = trials;
  cfg.campaign.probes_per_fault = 4;
  cfg.campaign.seed = seed;
  cfg.confidence = confidence;
  return cfg;
}

int usage() {
  std::cerr << "usage: sxfleet run --shards N --shard I --out FILE"
               " [--trials T] [--seed S]\n"
               "       sxfleet merge FILE... [--confidence C]\n"
               "       sxfleet --selftest\n";
  return 2;
}

bool outcomes_equal(const sx::safety::CampaignOutcome& a,
                    const sx::safety::CampaignOutcome& b) {
  return a.correct == b.correct && a.detected == b.detected &&
         a.fallback == b.fallback && a.sdc == b.sdc;
}

int cmd_run(const std::vector<std::string>& args) {
  std::size_t shards = 1, shard = 0, trials = 24;
  std::uint64_t seed = 1234;
  std::string out_path;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    auto next = [&](const char* what) -> std::string {
      if (i + 1 >= args.size()) {
        std::cerr << "sxfleet: " << what << " needs a value\n";
        return {};
      }
      return args[++i];
    };
    if (a == "--shards") {
      shards = std::stoul(next("--shards"));
    } else if (a == "--shard") {
      shard = std::stoul(next("--shard"));
    } else if (a == "--trials") {
      trials = std::stoul(next("--trials"));
    } else if (a == "--seed") {
      seed = std::stoull(next("--seed"));
    } else if (a == "--out") {
      out_path = next("--out");
    } else {
      return usage();
    }
  }
  if (out_path.empty() || shards == 0 || shard >= shards) return usage();

  const FleetConfig cfg = make_config(shards, trials, seed, 0.99);
  auto channel = make_channel();
  const ShardEvidence ev = sx::fleet::run_shard(
      *channel, workload_data(), cfg, static_cast<std::uint32_t>(shard));

  std::ofstream f(out_path);
  if (!f) {
    std::cerr << "sxfleet: cannot write " << out_path << "\n";
    return 2;
  }
  f << sx::fleet::serialize_shard(ev);
  std::cout << "shard " << shard << "/" << shards << ": trials ["
            << ev.first_trial << ", " << ev.first_trial + ev.trial_count
            << ") -> " << ev.outcome.total() << " demands, sdc "
            << ev.outcome.sdc << "; wrote " << out_path << "\n";
  return 0;
}

int cmd_merge(const std::vector<std::string>& args) {
  double confidence = 0.99;
  std::vector<std::string> paths;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--confidence") {
      if (i + 1 >= args.size()) return usage();
      confidence = std::stod(args[++i]);
    } else {
      paths.push_back(args[i]);
    }
  }
  if (paths.empty()) return usage();

  std::vector<ShardEvidence> shards;
  for (const std::string& p : paths) {
    std::ifstream f(p);
    if (!f) {
      std::cerr << "sxfleet: cannot open " << p << "\n";
      return 2;
    }
    std::ostringstream buf;
    buf << f.rdbuf();
    ShardEvidence ev;
    if (!sx::fleet::parse_shard(buf.str(), ev)) {
      std::cerr << "sxfleet: " << p << " is not a valid shard evidence file\n";
      return 2;
    }
    shards.push_back(std::move(ev));
  }

  const FleetEvidence merged =
      sx::fleet::merge_shards(shards, confidence, 1.0, 1.0);
  std::cout << sx::fleet::summary(merged) << "\n"
            << sx::fleet::render_fleet_block(merged);
  if (!sx::ok(merged.status)) {
    std::cerr << "sxfleet: merge REFUSED: " << merged.refusal << " (shard "
              << merged.offending_shard << ")\n";
    return 1;
  }
  return 0;
}

int fail(const char* what) {
  std::cerr << "sxfleet selftest FAILED: " << what << "\n";
  return 1;
}

int cmd_selftest() {
  const std::size_t trials = 24;
  const std::uint64_t seed = 1234;

  // Gate 1: shard-count invariance. The merged outcome, the merged
  // snapshot serialization and the canonical fleet root must be
  // byte-identical for every shard count.
  const FleetEvidence base = sx::fleet::run_sharded_campaign(
      make_channel, workload_data(), make_config(1, trials, seed, 0.99));
  if (!sx::ok(base.status)) return fail("single-shard run refused");
  if (!base.merged.measured()) return fail("single-shard run measured nothing");
  const std::string base_snapshot = base.merged_snapshot.serialize();

  FleetEvidence four;  // kept for the round-trip gate
  for (const std::size_t n : {2u, 4u, 8u}) {
    const FleetEvidence ev = sx::fleet::run_sharded_campaign(
        make_channel, workload_data(), make_config(n, trials, seed, 0.99));
    if (!sx::ok(ev.status)) return fail("sharded run refused");
    if (!outcomes_equal(ev.merged, base.merged))
      return fail("merged outcome differs from single-shard run");
    if (ev.merged_snapshot.serialize() != base_snapshot)
      return fail("merged snapshot bytes differ from single-shard run");
    if (ev.fleet_root != base.fleet_root)
      return fail("fleet root differs from single-shard run");
    if (n == 4) four = ev;
  }

  // Gate 2: serialize -> parse -> merge round trip reproduces the
  // in-process merge exactly.
  std::vector<std::string> files;
  for (const ShardEvidence& s : four.shard_evidence)
    files.push_back(sx::fleet::serialize_shard(s));
  std::vector<ShardEvidence> reloaded(files.size());
  for (std::size_t i = 0; i < files.size(); ++i)
    if (!sx::fleet::parse_shard(files[i], reloaded[i]))
      return fail("shard file round trip does not parse");
  const FleetEvidence remerged =
      sx::fleet::merge_shards(reloaded, 0.99, 1.0, 1.0);
  if (!sx::ok(remerged.status)) return fail("round-trip merge refused");
  if (!outcomes_equal(remerged.merged, base.merged) ||
      remerged.merged_snapshot.serialize() != base_snapshot ||
      remerged.fleet_root != base.fleet_root ||
      remerged.anchor != four.anchor)
    return fail("round-trip merge differs from in-process merge");

  // Gate 3: a tampered shard file must be refused with the shard named.
  // Flip one hex digit inside the payload token of a trial entry line.
  std::string tampered = files[1];
  const std::size_t entry_at = tampered.find("\nentry ");
  if (entry_at == std::string::npos) return fail("no entry line to tamper");
  std::size_t tok_start = entry_at + 1;
  for (int tok = 0; tok < 5; ++tok)
    tok_start = tampered.find(' ', tok_start) + 1;
  tampered[tok_start] = tampered[tok_start] == '0' ? '1' : '0';
  ShardEvidence bad;
  if (!sx::fleet::parse_shard(tampered, bad))
    return fail("tampered file should still parse (tamper is semantic)");
  std::vector<ShardEvidence> with_bad = reloaded;
  with_bad[1] = bad;
  const FleetEvidence refused =
      sx::fleet::merge_shards(with_bad, 0.99, 1.0, 1.0);
  if (sx::ok(refused.status)) return fail("tampered shard was merged");
  if (refused.status != sx::Status::kIntegrityFault)
    return fail("tamper refusal is not an integrity fault");
  if (refused.offending_shard != with_bad[1].shard_id)
    return fail("tamper refusal names the wrong shard");

  // A falsified claimed outcome (file edit of the `outcome` line, chain
  // intact) must be caught by the outcome-vs-audit-trail cross-check.
  std::string inflated = files[2];
  const std::size_t out_at = inflated.find("\noutcome ");
  if (out_at == std::string::npos) return fail("no outcome line to tamper");
  ShardEvidence liar;
  if (!sx::fleet::parse_shard(inflated, liar)) return fail("parse failed");
  liar.outcome.correct += 1;
  std::vector<ShardEvidence> with_liar = reloaded;
  with_liar[2] = liar;
  const FleetEvidence refused2 =
      sx::fleet::merge_shards(with_liar, 0.99, 1.0, 1.0);
  if (sx::ok(refused2.status) ||
      refused2.status != sx::Status::kIntegrityFault)
    return fail("falsified outcome was merged");

  // Gate 4: bound sanity. Zero failures in 100 demands at one-sided 0.99
  // gives the textbook CP bound 1 - 0.01^(1/100) ~= 0.045; the reported
  // bounds must bracket the observed rate from above.
  const double cp = sx::util::clopper_pearson_upper(0, 100, 0.99);
  if (std::abs(cp - 0.045007) > 5e-4) return fail("CP bound off textbook value");
  if (base.bounds.cp_upper_sdc_rate < base.merged.sdc_rate())
    return fail("CP bound below the observed rate");
  if (base.bounds.bayes_upper_sdc_rate < base.merged.sdc_rate())
    return fail("Bayes bound below the observed rate");

  std::cout << "sxfleet selftest OK: " << base.bounds.demands
            << " demands, sdc " << base.merged.sdc << ", CP upper "
            << base.bounds.cp_upper_sdc_rate << ", Bayes upper "
            << base.bounds.bayes_upper_sdc_rate << ", fleet root "
            << sx::util::to_hex(base.fleet_root).substr(0, 16) << "...\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) return usage();
  const std::string cmd = args[0];
  args.erase(args.begin());
  if (cmd == "--selftest") return cmd_selftest();
  if (cmd == "run") return cmd_run(args);
  if (cmd == "merge") return cmd_merge(args);
  return usage();
}
