#include "serve/server.hpp"

#include <limits>
#include <stdexcept>

#include "util/saturate.hpp"
#include "util/text_codec.hpp"

namespace sx::serve {
namespace {

using util::append_double;
using util::append_u64;

constexpr std::string_view kBlockSchema = "sx-serving-evidence/1";

void append_bound(std::string& out, const std::optional<std::uint64_t>& b) {
  if (b) {
    append_u64(out, *b);
  } else {
    out += "none";
  }
}

}  // namespace

const char* to_string(ServeMode m) noexcept {
  return m == ServeMode::kNormal ? "normal" : "overload";
}

Server::Server(core::CertifiablePipeline& pipeline, ServerConfig cfg)
    : pipeline_(&pipeline),
      cfg_(std::move(cfg)),
      obs_(cfg_.telemetry) {
  if (cfg_.streams.empty())
    throw std::invalid_argument("serve: no streams declared");
  if (cfg_.batch_max == 0)
    throw std::invalid_argument("serve: batch_max must be >= 1");
  if (cfg_.batch_window == 0)
    throw std::invalid_argument("serve: batch_window must be >= 1");

  // Normalize stream specs (deadline defaults to period, LO streams carry a
  // single budget) and build the admission task set.
  rt::McTaskSet mc_set;
  for (StreamSpec& s : cfg_.streams) {
    if (s.period == 0 || s.service_lo == 0)
      throw std::invalid_argument("serve: stream '" + s.name +
                                  "' has zero period/service_lo");
    if (s.deadline == 0) s.deadline = s.period;
    const bool high = s.criticality >= trace::Criticality::kSil3;
    if (!high || s.service_hi < s.service_lo) s.service_hi = s.service_lo;
    mc_set.add(rt::McTask{.name = s.name,
                          .period = s.period,
                          .deadline = s.deadline,
                          .high_criticality = high,
                          .wcet_lo = s.service_lo,
                          .wcet_hi = s.service_hi});
  }
  mc_set.assign_deadline_monotonic();
  admission_.mc = rt::amc_rtb(mc_set);
  admission_.utilization_lo = mc_set.utilization(rt::Mode::kLo);
  admission_.utilization_hi = mc_set.utilization(rt::Mode::kHi);
  admission_.best_effort.assign(cfg_.streams.size(), false);
  admission_.hi_schedulable = true;

  streams_.resize(cfg_.streams.size());
  for (std::size_t i = 0; i < cfg_.streams.size(); ++i) {
    const StreamSpec& s = cfg_.streams[i];
    StreamState& st = streams_[i];
    st.high = s.criticality >= trace::Criticality::kSil3;
    const bool lo_ok = admission_.mc.lo[i].has_value();
    if (st.high) {
      // A HI stream without a complete AMC-rtb certificate (LO, steady-HI
      // and transition bounds all inside the deadline) must not deploy.
      if (!lo_ok || !admission_.mc.hi[i] || !admission_.mc.transition[i]) {
        admission_.hi_schedulable = false;
        throw std::invalid_argument("serve: HI stream '" + s.name +
                                    "' fails AMC-rtb admission");
      }
    } else if (!lo_ok) {
      admission_.best_effort[i] = true;
    }
  }

  pending_.reserve(cfg_.queue_capacity);
  batch_inputs_.reserve(cfg_.batch_max);
  batch_requests_.reserve(cfg_.batch_max);

  c_requests_ = obs_.counter("sx_serve_requests_total");
  c_served_ = obs_.counter("sx_serve_served_total");
  c_shed_ = obs_.counter("sx_serve_shed_total");
  c_queue_rejected_ = obs_.counter("sx_serve_queue_rejected_total");
  c_windows_ = obs_.counter("sx_serve_windows_total");
  c_window_full_ = obs_.counter("sx_serve_window_full_total");
  c_window_timeout_ = obs_.counter("sx_serve_window_timeout_total");
  c_mode_switches_ = obs_.counter("sx_serve_mode_switches_total");
  c_hi_miss_ = obs_.counter("sx_serve_hi_deadline_miss_total");
  c_lo_miss_ = obs_.counter("sx_serve_lo_deadline_miss_total");
  c_hi_projected_ = obs_.counter("sx_serve_hi_projected_miss_total");
  c_odd_rejects_ = obs_.counter("sx_serve_odd_reject_total");
  c_degraded_ = obs_.counter("sx_serve_degraded_total");
  g_batch_max_ = obs_.gauge("sx_serve_batch_max");
  g_batch_window_ = obs_.gauge("sx_serve_batch_window");
  g_streams_ = obs_.gauge("sx_serve_streams");
  h_latency_ = obs_.histogram("sx_serve_latency");
  h_latency_hi_ = obs_.histogram("sx_serve_latency_hi");
  h_latency_lo_ = obs_.histogram("sx_serve_latency_lo");
  h_occupancy_ = obs_.histogram("sx_serve_window_occupancy");
  for (const obs::CounterId c :
       {c_requests_, c_served_, c_shed_, c_queue_rejected_, c_hi_miss_,
        c_lo_miss_, c_mode_switches_})
    if (!c.valid())
      throw std::invalid_argument(
          "serve: telemetry config cannot hold the serving counters");
  obs_.set(g_batch_max_, static_cast<double>(cfg_.batch_max));
  obs_.set(g_batch_window_, static_cast<double>(cfg_.batch_window));
  obs_.set(g_streams_, static_cast<double>(cfg_.streams.size()));
  for (std::size_t i = 0; i < cfg_.streams.size(); ++i) {
    streams_[i].served =
        obs_.counter("sx_serve_stream_" + cfg_.streams[i].name + "_served");
    streams_[i].shed =
        obs_.counter("sx_serve_stream_" + cfg_.streams[i].name + "_shed");
  }

  // Deploy-time audit trail: the configuration and one admission verdict
  // per stream, so the serving evidence chain starts at the analysis the
  // runtime behaviour must honour.
  std::string deploy = "streams=";
  append_u64(deploy, cfg_.streams.size());
  deploy += " batch_max=";
  append_u64(deploy, cfg_.batch_max);
  deploy += " batch_window=";
  append_u64(deploy, cfg_.batch_window);
  deploy += " overhead=";
  append_u64(deploy, cfg_.dispatch_overhead);
  audit_.append(0, "serve", "deploy", deploy);
  for (std::size_t i = 0; i < cfg_.streams.size(); ++i) {
    const StreamSpec& s = cfg_.streams[i];
    std::string line = "stream=" + s.name;
    line += streams_[i].high ? " class=HI" : " class=LO";
    line += " r_lo=";
    append_bound(line, admission_.mc.lo[i]);
    line += " r_hi=";
    append_bound(line, admission_.mc.hi[i]);
    line += " r_tr=";
    append_bound(line, admission_.mc.transition[i]);
    line += " best_effort=";
    append_u64(line, admission_.best_effort[i] ? 1 : 0);
    audit_.append(0, "serve", "admit", line);
  }
}

void Server::arrive(const Request& r) noexcept {
  obs_.add(c_requests_);
  if (pending_.size() >= cfg_.queue_capacity) {
    obs_.add(c_queue_rejected_);
    return;
  }
  pending_.push_back(r);  // within the deploy-time reservation
}

void Server::enter_overload(std::uint64_t now) {
  if (mode_ == ServeMode::kOverload) return;
  mode_ = ServeMode::kOverload;
  obs_.add(c_mode_switches_);
  audit_.append(now, "serve", "mode-switch", "to=overload");
}

void Server::leave_overload(std::uint64_t now) {
  if (mode_ == ServeMode::kNormal) return;
  mode_ = ServeMode::kNormal;
  audit_.append(now, "serve", "mode-switch", "to=normal");
}

void Server::run_trace(const ArrivalTrace& trace,
                       std::span<const tensor::Tensor> inputs) {
  for (const Request& r : trace.requests) {
    if (r.stream >= cfg_.streams.size())
      throw std::invalid_argument("serve: request stream out of range");
    if (r.payload >= inputs.size())
      throw std::invalid_argument("serve: request payload out of range");
  }

  std::size_t idx = 0;
  const std::vector<Request>& reqs = trace.requests;
  std::uint64_t now = 0;

  while (idx < reqs.size() || !pending_.empty()) {
    if (pending_.empty()) {
      // Idle instant: the backend drains before the next arrival, so an
      // overload episode ends here — the Simplex fallback hands control
      // back to the normal path at a quiescent point, never mid-burst.
      const std::uint64_t t = reqs[idx].arrival;
      if (mode_ == ServeMode::kOverload && busy_until_ <= t)
        leave_overload(busy_until_ > now ? busy_until_ : now);
      now = t < now ? now : t;
      while (idx < reqs.size() && reqs[idx].arrival <= now) arrive(reqs[idx++]);
      continue;
    }

    // Batch-formation window: opens at the head-of-line arrival (or right
    // now, when a backlog carried over), closes on fill or timeout.
    const std::uint64_t head = pending_.front().arrival;
    const std::uint64_t open = head > now ? head : now;
    const std::uint64_t timeout = util::sat_add(open, cfg_.batch_window);
    bool full = pending_.size() >= cfg_.batch_max;
    std::uint64_t fill_time = open;
    while (!full && idx < reqs.size() && reqs[idx].arrival <= timeout) {
      const std::uint64_t at = reqs[idx].arrival;
      arrive(reqs[idx++]);
      if (pending_.size() >= cfg_.batch_max) {
        full = true;
        fill_time = at > open ? at : open;
      }
    }
    const std::uint64_t close = full ? fill_time : timeout;
    obs_.add(c_windows_);
    obs_.add(full ? c_window_full_ : c_window_timeout_);
    now = close;
    dispatch_window(close, inputs);
  }
}

void Server::dispatch_window(std::uint64_t close,
                             std::span<const tensor::Tensor> inputs) {
  const std::uint64_t start = close > busy_until_ ? close : busy_until_;
  const std::uint64_t base = util::sat_add(start, cfg_.dispatch_overhead);

  // Deadline-aware formation in arrival order: a request joins the window
  // when the projected batch completion (all members complete together)
  // still meets every accepted deadline and its own. A LO request whose
  // own deadline cannot be met is shed — the only online degradation. A HI
  // request is *never* shed: admission guarantees its deadline under
  // conforming traffic, and if traffic misbehaves the miss is served,
  // detected by the stream watchdog, and counted — silent dropping of
  // high-SIL work is not a failure mode this server can exhibit.
  batch_inputs_.clear();
  batch_requests_.clear();
  std::uint64_t acc_service = 0;
  std::uint64_t min_accepted_deadline =
      std::numeric_limits<std::uint64_t>::max();
  std::size_t examined = 0;
  std::size_t shed_here = 0;
  for (std::size_t i = 0;
       i < pending_.size() && batch_requests_.size() < cfg_.batch_max; ++i) {
    const Request& r = pending_[i];
    const StreamSpec& spec = cfg_.streams[r.stream];
    StreamState& st = streams_[r.stream];
    const std::uint64_t abs_deadline =
        util::sat_add(r.arrival, spec.deadline);
    const std::uint64_t projected =
        util::sat_add(base, util::sat_add(acc_service, spec.service_lo));
    if (projected > min_accepted_deadline) break;  // would break a member
    if (projected > abs_deadline && !st.high) {
      // Shed: deadline-infeasible low-criticality request.
      ++shed_here;
      obs_.add(c_shed_);
      obs_.add(st.shed);
      std::string payload = "stream=" + spec.name + " seq=";
      append_u64(payload, r.seq);
      payload += " deadline=";
      append_u64(payload, abs_deadline);
      payload += " projected=";
      append_u64(payload, projected);
      audit_.append(close, "serve", "shed", payload);
      ++examined;
      continue;
    }
    if (projected > abs_deadline) {
      obs_.add(c_hi_projected_);
    } else if (abs_deadline < min_accepted_deadline) {
      min_accepted_deadline = abs_deadline;
    }
    acc_service = util::sat_add(acc_service, spec.service_lo);
    batch_requests_.push_back(i);
    batch_inputs_.push_back(inputs[r.payload].view());
    ++examined;
  }
  if (shed_here > 0) enter_overload(close);

  if (!batch_requests_.empty()) {
    const std::uint64_t completion = util::sat_add(base, acc_service);
    // The pipeline's watchdog reads the window's logical service time,
    // never a measured one.
    const std::vector<core::Decision> decisions =
        pipeline_->infer_batch(batch_inputs_, close, completion - start);
    obs_.observe(h_occupancy_, batch_requests_.size());
    for (std::size_t k = 0; k < batch_requests_.size(); ++k) {
      const Request& r = pending_[batch_requests_[k]];
      const StreamSpec& spec = cfg_.streams[r.stream];
      StreamState& st = streams_[r.stream];
      const core::Decision& d = decisions[k];

      st.watchdog.arm(r.arrival, spec.deadline);
      const Status wd = st.watchdog.kick(completion);
      if (wd == Status::kDeadlineMiss)
        obs_.add(st.high ? c_hi_miss_ : c_lo_miss_);

      obs_.add(c_served_);
      obs_.add(st.served);
      const std::uint64_t latency = completion - r.arrival;
      obs_.observe(h_latency_, latency);
      obs_.observe(st.high ? h_latency_hi_ : h_latency_lo_, latency);
      if (d.status == Status::kOddViolation) obs_.add(c_odd_rejects_);
      if (d.degraded) obs_.add(c_degraded_);

      // Decision-stream digest over every field of the Decision
      // (float/double payloads bit-exact), the identity pinned across
      // worker counts and against offline replay.
      digest_.u64(r.stream);
      digest_.u64(r.seq);
      digest_.decision(d);
      digest_.u64(d.audit_sequence);

      served_.push_back(ServedRecord{r, completion, d});
    }
    busy_until_ = completion;
  }

  pending_.erase(pending_.begin(),
                 pending_.begin() + static_cast<std::ptrdiff_t>(examined));
}

std::string Server::decision_digest() const { return digest_.hex(); }

std::string render_serving_block(const Server& server) {
  const ServerConfig& cfg = server.config();
  const AdmissionReport& adm = server.admission();
  std::string out;
  out += "schema ";
  out += kBlockSchema;
  out += "\nstatus ";
  out += server.hi_deadline_misses() == 0 ? "OK" : "HI-MISS";
  out += "\nadmission hi_schedulable=";
  append_u64(out, adm.hi_schedulable ? 1 : 0);
  out += " util_lo=";
  append_double(out, adm.utilization_lo);
  out += " util_hi=";
  append_double(out, adm.utilization_hi);
  out += '\n';
  for (std::size_t i = 0; i < cfg.streams.size(); ++i) {
    const StreamSpec& s = cfg.streams[i];
    out += "stream name=" + s.name;
    out += " crit=";
    out += trace::to_string(s.criticality);
    out += s.criticality >= trace::Criticality::kSil3 ? " class=HI"
                                                      : " class=LO";
    out += " period=";
    append_u64(out, s.period);
    out += " deadline=";
    append_u64(out, s.deadline);
    out += " service_lo=";
    append_u64(out, s.service_lo);
    out += " service_hi=";
    append_u64(out, s.service_hi);
    out += " r_lo=";
    append_bound(out, adm.mc.lo[i]);
    out += " r_hi=";
    append_bound(out, adm.mc.hi[i]);
    out += " r_tr=";
    append_bound(out, adm.mc.transition[i]);
    out += " best_effort=";
    append_u64(out, adm.best_effort[i] ? 1 : 0);
    out += '\n';
  }
  out += "traffic requests=";
  append_u64(out, server.requests());
  out += " served=";
  append_u64(out, server.served_count());
  out += " shed=";
  append_u64(out, server.shed_count());
  out += " queue_rejected=";
  append_u64(out, server.queue_rejections());
  out += "\ndeadline hi_miss=";
  append_u64(out, server.hi_deadline_misses());
  out += " lo_miss=";
  append_u64(out, server.lo_deadline_misses());
  out += "\nmode current=";
  out += to_string(server.mode());
  out += " overload_episodes=";
  append_u64(out, server.mode_switches());
  out += "\ndecision_digest ";
  out += server.decision_digest();
  out += "\naudit_head ";
  out += util::to_hex(server.audit().head());
  out += '\n';
  return out;
}

std::string summary(const Server& server) {
  std::string out = "Serving front-end: ";
  append_u64(out, server.served_count());
  out += " of ";
  append_u64(out, server.requests());
  out += " requests served across ";
  append_u64(out, server.config().streams.size());
  out += " admitted streams; ";
  append_u64(out, server.shed_count());
  out += " low-criticality requests shed under overload (";
  append_u64(out, server.mode_switches());
  out += " overload episodes), ";
  append_u64(out, server.hi_deadline_misses());
  out += " high-criticality deadline misses. Offline admission: AMC-rtb ";
  out += server.admission().hi_schedulable ? "certified every HI stream"
                                           : "refused a HI stream";
  out += " (utilization LO=";
  append_double(out, server.admission().utilization_lo);
  out += ", HI=";
  append_double(out, server.admission().utilization_hi);
  out += ").";
  return out;
}

}  // namespace sx::serve
