// Deterministic serving front-end with mixed-criticality admission
// (pillar 2 meets pillar 4).
//
// serve::Server turns the batch-deterministic CertifiablePipeline into a
// streaming deployment without giving up a single reproducibility or
// safety property:
//
//   - everything is sized at deploy time: the pending queue, the
//     per-stream state and the telemetry registry are allocated in the
//     constructor and never grow on the serving path. The pending queue is
//     the one ingress: an arrival that finds queue_capacity requests
//     already waiting is refused and counted as a queue rejection;
//   - request streams are declared up front (StreamSpec) and admitted
//     *offline* against the mixed-criticality schedulability analysis
//     (rt::amc_rtb): a HI stream (criticality >= SIL3) that fails
//     admission refuses to deploy; a LO stream that fails is deployed
//     best-effort and flagged in the evidence;
//   - batches form inside a bounded window in logical time — the window
//     closes when it fills (batch_max) or times out (batch_window) — and
//     dispatch into CertifiablePipeline::infer_batch, whose pool runs the
//     pipeline's deployed safety channel on every request, so the serving
//     decision stream is bitwise identical to the offline batch run of the
//     same inputs at any worker count;
//   - overload is handled by a Simplex-style fallback: the *only* online
//     degradation is shedding LO-stream requests whose projected
//     completion would miss their deadline. HI requests are never shed;
//     with admission holding and traffic conforming to the declared
//     periods, the analysis guarantees they never miss. Every shed is an
//     audit-log entry, and the first shed of a busy period switches the
//     server to overload mode (back to normal at the next idle instant);
//   - per-stream safety::Watchdog instances check every completion against
//     the stream deadline, and per-request ODD/decision outcomes feed the
//     serving telemetry (an obs::Registry snapshot that merges across
//     trace slices through the fleet evidence plane). Each serving event
//     is counted once, in that registry; the accessors read it.
//
// The service model is logical: a dispatched window occupies the backend
// for dispatch_overhead plus the sum of the accepted requests' declared
// service_lo budgets, and all of its requests complete when the window
// completes. This is what makes shedding, latency evidence and telemetry a
// pure function of (config, trace) — measured wall-clock time never feeds
// back into a serving decision. The pipeline's own watchdog (SIL3/4
// timing budget) is fed the window's logical service time too.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/decision_hash.hpp"
#include "core/pipeline.hpp"
#include "obs/registry.hpp"
#include "rt/mixed_criticality.hpp"
#include "safety/watchdog.hpp"
#include "serve/traffic.hpp"
#include "trace/audit.hpp"

namespace sx::serve {

/// One declared request stream. Streams with criticality >= SIL3 are HI
/// (never shed, admission is mandatory); below that they are LO
/// (sheddable under overload, admission failure degrades to best-effort).
struct StreamSpec {
  std::string name;
  trace::Criticality criticality = trace::Criticality::kSil1;
  std::uint64_t period = 0;    ///< minimum inter-arrival assumed offline
  std::uint64_t deadline = 0;  ///< relative deadline (defaults to period)
  std::uint64_t service_lo = 0;  ///< per-request service budget (logical)
  std::uint64_t service_hi = 0;  ///< certified bound (HI streams; >= lo)
};

struct ServerConfig {
  std::vector<StreamSpec> streams;
  /// Batch-formation window: closes on fill or timeout, whichever first.
  std::size_t batch_max = 8;
  std::uint64_t batch_window = 16;
  /// Fixed per-dispatch cost added to the window's service demand.
  std::uint64_t dispatch_overhead = 1;
  /// Pending-queue slots: an arrival finding this many requests waiting
  /// is refused (a queue rejection).
  std::size_t queue_capacity = 256;
  /// Serving telemetry registry geometry (counters/histograms/MBPTA rings);
  /// it must hold the serving counters, or the constructor throws.
  obs::RegistryConfig telemetry;
};

/// Offline admission verdict, fixed at deploy time.
struct AdmissionReport {
  rt::McRtaResult mc;        ///< AMC-rtb bounds per stream
  bool hi_schedulable = false;  ///< every HI stream has lo/hi/transition bounds
  std::vector<bool> best_effort;  ///< LO streams refused offline admission
  double utilization_lo = 0.0;
  double utilization_hi = 0.0;
};

enum class ServeMode : std::uint8_t { kNormal, kOverload };

const char* to_string(ServeMode m) noexcept;

/// One served request with its decision evidence.
struct ServedRecord {
  Request request;
  std::uint64_t completion = 0;  ///< logical completion time
  core::Decision decision;
};

class Server {
 public:
  /// Deploys the front-end over an already-deployed pipeline. Runs the
  /// offline admission analysis; throws std::invalid_argument when a HI
  /// stream is not schedulable, the configuration is malformed or the
  /// telemetry config cannot hold the serving counters. At batch_workers
  /// 0 or 1 the pipeline runs each window on the caller.
  Server(core::CertifiablePipeline& pipeline, ServerConfig cfg);

  /// Replays a trace to completion in logical time: arrivals join the
  /// pending queue at their arrival instants, windows form,
  /// shed decisions are taken, and every accepted window dispatches
  /// through CertifiablePipeline::infer_batch. `inputs` is the pre-staged
  /// input pool indexed by Request::payload. Callable repeatedly; state
  /// (telemetry, audit, digest) accumulates.
  void run_trace(const ArrivalTrace& trace,
                 std::span<const tensor::Tensor> inputs);

  const AdmissionReport& admission() const noexcept { return admission_; }
  const ServerConfig& config() const noexcept { return cfg_; }
  ServeMode mode() const noexcept { return mode_; }

  /// Serving decision stream, in dispatch order. The Decision values are
  /// bitwise identical to an offline infer_batch over the same inputs in
  /// the same order, for every batch_workers setting.
  const std::vector<ServedRecord>& served() const noexcept { return served_; }

  /// SHA-256 over the binary decision stream (per served request: stream,
  /// seq, core::DecisionHasher::decision, audit sequence) — the identity
  /// pinned across worker counts and against offline replay.
  std::string decision_digest() const;

  /// Serving telemetry: counters, deploy-constant gauges and logical-time
  /// latency histograms with MBPTA sample rings. Snapshot through
  /// obs::RegistrySnapshot for the fleet merge plane.
  const obs::Registry& telemetry() const noexcept { return obs_; }
  obs::Registry& telemetry() noexcept { return obs_; }

  /// Hash-chained serving audit log: deploy/admission entries, every shed
  /// (actor "admission", action "shed") and every mode switch.
  const trace::AuditLog& audit() const noexcept { return audit_; }

  // Serving totals, read from the telemetry registry.
  std::uint64_t requests() const noexcept { return obs_.value(c_requests_); }
  std::uint64_t served_count() const noexcept {
    return obs_.value(c_served_);
  }
  std::uint64_t shed_count() const noexcept { return obs_.value(c_shed_); }
  std::uint64_t hi_deadline_misses() const noexcept {
    return obs_.value(c_hi_miss_);
  }
  std::uint64_t lo_deadline_misses() const noexcept {
    return obs_.value(c_lo_miss_);
  }
  std::uint64_t mode_switches() const noexcept {
    return obs_.value(c_mode_switches_);
  }
  std::uint64_t queue_rejections() const noexcept {
    return obs_.value(c_queue_rejected_);
  }

 private:
  struct StreamState {
    safety::Watchdog watchdog;
    bool high = false;         ///< criticality >= SIL3
    obs::CounterId served{};
    obs::CounterId shed{};
  };

  /// Counts one arrival; it joins the pending queue unless that is full.
  void arrive(const Request& r) noexcept;
  /// Forms and dispatches one window from the pending queue at `close`.
  void dispatch_window(std::uint64_t close,
                       std::span<const tensor::Tensor> inputs);
  void enter_overload(std::uint64_t now);
  void leave_overload(std::uint64_t now);

  core::CertifiablePipeline* pipeline_;
  ServerConfig cfg_;
  AdmissionReport admission_;
  std::vector<Request> pending_;  ///< arrival-ordered backlog (deploy-sized)
  std::vector<StreamState> streams_;
  obs::Registry obs_;
  trace::AuditLog audit_;
  std::vector<ServedRecord> served_;
  /// Window staging: views into run_trace()'s input pool, no copies.
  std::vector<tensor::ConstTensorView> batch_inputs_;
  std::vector<std::size_t> batch_requests_;    ///< pending_ indices staged
  core::DecisionHasher digest_;  ///< running decision-stream hash

  ServeMode mode_ = ServeMode::kNormal;
  std::uint64_t busy_until_ = 0;  ///< backend occupied until this instant

  obs::CounterId c_requests_{};
  obs::CounterId c_served_{};
  obs::CounterId c_shed_{};
  obs::CounterId c_queue_rejected_{};
  obs::CounterId c_windows_{};
  obs::CounterId c_window_full_{};
  obs::CounterId c_window_timeout_{};
  obs::CounterId c_mode_switches_{};
  obs::CounterId c_hi_miss_{};
  obs::CounterId c_lo_miss_{};
  obs::CounterId c_hi_projected_{};
  obs::CounterId c_odd_rejects_{};
  obs::CounterId c_degraded_{};
  obs::GaugeId g_batch_max_{};
  obs::GaugeId g_batch_window_{};
  obs::GaugeId g_streams_{};
  obs::HistogramId h_latency_{};
  obs::HistogramId h_latency_hi_{};
  obs::HistogramId h_latency_lo_{};
  obs::HistogramId h_occupancy_{};
};

/// Machine-readable serving evidence block (schema
/// "sx-serving-evidence/1"): admission verdict and per-stream bounds,
/// traffic/deadline/mode counters, the decision-stream digest and the
/// audit head. Embedded between `# BEGIN SX_SERVING_EVIDENCE` markers by
/// core::make_serving_evidence and recovered by tools/sxmetrics --serving.
std::string render_serving_block(const Server& server);

/// One-paragraph human-readable summary for the report prose.
std::string summary(const Server& server);

}  // namespace sx::serve
