#include "fleet/evidence.hpp"

#include "util/text_codec.hpp"

namespace sx::fleet {
namespace {

using util::append_double;
using util::append_u64;
using util::take_line;
using util::take_token;
using util::take_u64;

constexpr std::string_view kShardSchema = "sx-fleet-shard/1";
constexpr std::string_view kBlockSchema = "sx-fleet-evidence/1";

constexpr char kHexDigits[] = "0123456789abcdef";

/// Hex token of a free-form string; "-" encodes the empty string so the
/// token grammar stays whitespace-separated.
std::string hex_encode(std::string_view s) {
  if (s.empty()) return "-";
  std::string out;
  out.reserve(2 * s.size());
  for (unsigned char c : s) {
    out.push_back(kHexDigits[c >> 4]);
    out.push_back(kHexDigits[c & 0xf]);
  }
  return out;
}

int hex_value(char c) noexcept {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  return -1;
}

bool hex_decode(std::string_view tok, std::string& out) {
  out.clear();
  if (tok == "-") return true;
  if (tok.size() % 2 != 0) return false;
  out.reserve(tok.size() / 2);
  for (std::size_t i = 0; i < tok.size(); i += 2) {
    const int hi = hex_value(tok[i]);
    const int lo = hex_value(tok[i + 1]);
    if (hi < 0 || lo < 0) return false;
    out.push_back(static_cast<char>((hi << 4) | lo));
  }
  return true;
}

bool digest_from_hex(std::string_view tok, util::Sha256Digest& out) {
  if (tok.size() != 2 * out.size()) return false;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const int hi = hex_value(tok[2 * i]);
    const int lo = hex_value(tok[2 * i + 1]);
    if (hi < 0 || lo < 0) return false;
    out[i] = static_cast<std::uint8_t>((hi << 4) | lo);
  }
  return true;
}

void append_outcome_fields(std::string& out,
                           const safety::CampaignOutcome& o) {
  out += "correct=";
  append_u64(out, o.correct);
  out += " detected=";
  append_u64(out, o.detected);
  out += " fallback=";
  append_u64(out, o.fallback);
  out += " sdc=";
  append_u64(out, o.sdc);
}

}  // namespace

std::string serialize_shard(const ShardEvidence& evidence) {
  std::string out{kShardSchema};
  out += "\nshard ";
  append_u64(out, evidence.shard_id);
  out += "\nrange ";
  append_u64(out, evidence.first_trial);
  out.push_back(' ');
  append_u64(out, evidence.trial_count);
  out += "\nseed ";
  append_u64(out, evidence.base_seed);
  out += "\noutcome ";
  append_u64(out, evidence.outcome.correct);
  out.push_back(' ');
  append_u64(out, evidence.outcome.detected);
  out.push_back(' ');
  append_u64(out, evidence.outcome.fallback);
  out.push_back(' ');
  append_u64(out, evidence.outcome.sdc);
  out += "\naudit ";
  append_u64(out, evidence.segment.log.size());
  out.push_back('\n');
  for (const trace::AuditEntry& e : evidence.segment.log.entries()) {
    out += "entry ";
    append_u64(out, e.sequence);
    out.push_back(' ');
    append_u64(out, e.logical_time);
    out.push_back(' ');
    out += hex_encode(e.actor);
    out.push_back(' ');
    out += hex_encode(e.action);
    out.push_back(' ');
    out += hex_encode(e.payload);
    out.push_back(' ');
    out += util::to_hex(e.chain_hash);
    out.push_back('\n');
  }
  // The snapshot section is last: its serialization carries its own `end`
  // terminator, which doubles as the shard file's.
  out += "snapshot\n";
  out += evidence.snapshot.serialize();
  return out;
}

bool parse_shard(std::string_view text, ShardEvidence& out) {
  out = ShardEvidence{};
  std::string_view line, tok;
  if (!take_line(text, line) || line != kShardSchema) return false;

  if (!take_line(text, line)) return false;
  std::uint64_t shard = 0;
  if (!take_token(line, tok) || tok != "shard" || !take_u64(line, shard))
    return false;
  out.shard_id = static_cast<std::uint32_t>(shard);
  out.segment.shard_id = out.shard_id;

  if (!take_line(text, line)) return false;
  if (!take_token(line, tok) || tok != "range" ||
      !take_u64(line, out.first_trial) || !take_u64(line, out.trial_count))
    return false;

  if (!take_line(text, line)) return false;
  if (!take_token(line, tok) || tok != "seed" ||
      !take_u64(line, out.base_seed))
    return false;

  if (!take_line(text, line)) return false;
  std::uint64_t c = 0, d = 0, f = 0, s = 0;
  if (!take_token(line, tok) || tok != "outcome" || !take_u64(line, c) ||
      !take_u64(line, d) || !take_u64(line, f) || !take_u64(line, s))
    return false;
  out.outcome.correct = c;
  out.outcome.detected = d;
  out.outcome.fallback = f;
  out.outcome.sdc = s;

  if (!take_line(text, line)) return false;
  std::uint64_t n_entries = 0;
  if (!take_token(line, tok) || tok != "audit" || !take_u64(line, n_entries))
    return false;
  // The claimed count is outside input: entries grow as lines arrive, so
  // an inflated count runs out of lines and is refused.
  std::vector<trace::AuditEntry> entries;
  for (std::uint64_t i = 0; i < n_entries; ++i) {
    if (!take_line(text, line)) return false;
    if (!take_token(line, tok) || tok != "entry") return false;
    trace::AuditEntry e;
    if (!take_u64(line, e.sequence) || !take_u64(line, e.logical_time))
      return false;
    if (!take_token(line, tok) || !hex_decode(tok, e.actor)) return false;
    if (!take_token(line, tok) || !hex_decode(tok, e.action)) return false;
    if (!take_token(line, tok) || !hex_decode(tok, e.payload)) return false;
    if (!take_token(line, tok) || !digest_from_hex(tok, e.chain_hash))
      return false;
    entries.push_back(std::move(e));
  }
  // Adopt the stored chain hashes — verification (merge_shards) must see
  // exactly what was persisted, or tampering would be laundered away.
  out.segment.log = trace::AuditLog::from_entries(std::move(entries));

  if (!take_line(text, line) || line != "snapshot") return false;
  return obs::RegistrySnapshot::parse(text, out.snapshot);
}

std::string render_fleet_block(const FleetEvidence& evidence) {
  std::string out{"schema "};
  out += kBlockSchema;
  out += "\nstatus ";
  out += to_string(evidence.status);
  if (!ok(evidence.status)) {
    out += " offending_shard=";
    append_u64(out, evidence.offending_shard);
    out += " reason=";
    out += evidence.refusal;
  }
  out += "\nshards ";
  append_u64(out, evidence.shards);
  out += "\nmerged ";
  append_outcome_fields(out, evidence.merged);
  out += " total=";
  append_u64(out, evidence.merged.total());
  out += "\nbound method=clopper-pearson confidence=";
  append_double(out, evidence.bounds.confidence);
  out += " upper_sdc_rate=";
  append_double(out, evidence.bounds.cp_upper_sdc_rate);
  out += "\nbound method=bayes-beta confidence=";
  append_double(out, evidence.bounds.confidence);
  out += " prior_a=";
  append_double(out, evidence.bounds.prior_a);
  out += " prior_b=";
  append_double(out, evidence.bounds.prior_b);
  out += " upper_sdc_rate=";
  append_double(out, evidence.bounds.bayes_upper_sdc_rate);
  out += "\nfleet_root ";
  out += util::to_hex(evidence.fleet_root);
  out += "\nanchor ";
  out += util::to_hex(evidence.anchor);
  out.push_back('\n');
  for (const ShardEvidence& s : evidence.shard_evidence) {
    out += "shard id=";
    append_u64(out, s.shard_id);
    out += " first=";
    append_u64(out, s.first_trial);
    out += " count=";
    append_u64(out, s.trial_count);
    out += " demands=";
    append_u64(out, s.outcome.total());
    out += " sdc=";
    append_u64(out, s.outcome.sdc);
    out += " head=";
    out += util::to_hex(s.segment.log.head());
    out.push_back('\n');
  }
  return out;
}

std::string summary(const FleetEvidence& evidence) {
  std::string out;
  if (!ok(evidence.status)) {
    out = "fleet merge REFUSED (";
    out += to_string(evidence.status);
    out += "): ";
    out += evidence.refusal;
    out += " (shard ";
    append_u64(out, evidence.offending_shard);
    out += ")\n";
    return out;
  }
  out = "sharded fault campaign over ";
  append_u64(out, evidence.shards);
  out += evidence.shards == 1 ? " shard: " : " shards: ";
  append_u64(out, evidence.bounds.demands);
  out += " demands (";
  append_outcome_fields(out, evidence.merged);
  out += ")\nevery audit segment chain verified; fleet root sha256:";
  out += util::to_hex(evidence.fleet_root);
  out += "\nSDC rate per demand <= ";
  append_double(out, evidence.bounds.cp_upper_sdc_rate);
  out += " (Clopper-Pearson, one-sided ";
  append_double(out, evidence.bounds.confidence);
  out += "); Bayesian posterior bound ";
  append_double(out, evidence.bounds.bayes_upper_sdc_rate);
  out += " (Beta prior ";
  append_double(out, evidence.bounds.prior_a);
  out += ",";
  append_double(out, evidence.bounds.prior_b);
  out += ")\n";
  return out;
}

}  // namespace sx::fleet
