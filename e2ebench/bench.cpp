// End-to-end benchmark of the deployed SAFEXPLAIN stack.
//
// Drives the stack from outside, through its public entry points only:
// core::CertifiablePipeline::infer() for per-frame callers and
// serve::Server::run_trace() for served traffic. Every deployment uses the
// default PipelineConfig (kernel_mode = kAuto, telemetry on) at SIL2 with
// the recommended spec.
//
//   sx_e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads (one process each, so peak RSS never mixes):
//   frame_cnn_f32      closed loop, one caller, infer() on the perception
//                      CNN (2x conv8 + dense32 + dense), float32 backend;
//   frame_cnn_int8     the same loop on the int8 backend;
//   serve_cnn_poisson  run_trace over the CNN, hazard (SIL3, period 40) and
//                      infotainment (SIL1, period 16) Poisson streams;
//   serve_mlp_bursty   run_trace over the small MLP with bursty LO overload.
//
// Inputs are generated from --seed: the frame order is a seeded
// permutation of the road-scene set, traces come from
// serve::make_poisson_trace / make_bursty_trace. Correctness is checked
// outside the timed region against a kReference twin deployment; a
// mismatch counts every operation as failed and exits non-zero.
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs an untraced
// phase and a traced phase (spans around calls into each layer's public
// functions plus the program's own telemetry), prints the per-layer
// metrics, the traced run's overhead against the untraced phase, and fails
// when the per-layer parts do not reconcile with the whole within 5%.
//
// The last stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"
#include "dl/dataset.hpp"
#include "dl/engine.hpp"
#include "dl/layers.hpp"
#include "dl/model.hpp"
#include "dl/qplan.hpp"
#include "dl/quant.hpp"
#include "dl/train.hpp"
#include "platform/cpu_probe.hpp"
#include "serve/server.hpp"
#include "serve/traffic.hpp"
#include "supervise/supervisor.hpp"
#include "trace/audit.hpp"
#include "trace/odd.hpp"
#include "util/rng.hpp"

namespace sxb {
std::uint64_t allocations() noexcept;  // alloc_hook.cpp
}

namespace {

using namespace sx;  // NOLINT
using Clock = std::chrono::steady_clock;

// Deployments timed before and again after the timed region (each time at
// least kSetupReps, more while under kSetupSeconds); setup_s is the median
// of all of them, so one run samples the host at two moments.
constexpr std::size_t kSetupReps = 3;
constexpr std::size_t kSetupMaxReps = 60;
constexpr double kSetupSeconds = 1.0;
// Untimed warm-up before the timed region.
constexpr std::size_t kWarmupDecisions = 300;
constexpr std::uint64_t kWarmupRequests = 1000;
// Serving: traces are cut at idle gaps of at least this many logical units
// and the slices grouped into chunks of at least Workload::chunk_requests
// arrivals; each chunk is one timed run_trace() call.
constexpr std::uint64_t kIdleGap = 32;
constexpr std::size_t kBatchWorkers = 3;
// Allowed disagreement between the per-layer parts and the whole.
constexpr double kReconcileTolerance = 0.05;

double micros(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

double seconds_since(Clock::time_point a) {
  return std::chrono::duration<double>(Clock::now() - a).count();
}

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

/// One block of a timed region: samples [previous end, end) covering
/// `units` operations in `wall_us` of measured time.
struct Block {
  std::size_t end = 0;
  double wall_us = 0;
  double units = 0;
};

/// Prints how the throughput of a timed region's blocks spread (a
/// diagnostic only: the end-to-end figures are whole-region totals).
void print_block_spread(const std::vector<Block>& blocks) {
  std::vector<double> rate;
  for (const Block& b : blocks) rate.push_back(ratio(b.units, b.wall_us / 1e6));
  std::cout << "# blocks: " << blocks.size() << ", throughput p10/p50/p90 "
            << quantile(rate, 0.1) << " " << quantile(rate, 0.5) << " "
            << quantile(rate, 0.9) << " /s\n";
}

/// Moves the calling thread round-robin over the vCPUs it may run on, one
/// step per next(); restores the original affinity when destroyed. On a
/// shared virtual machine each vCPU alternates, independently of the others,
/// between a quiet and a contended speed (up to 1.7x apart) for seconds at a
/// time. A loop left on one vCPU samples that vCPU's modes only and moved up
/// to 20% run to run; rotating every block averages all of them, and every
/// moment still counts in the whole-region figures.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof allowed_, &allowed_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &allowed_)) cpus_.push_back(c);
  }
  ~CpuRotation() {
    if (moved_) (void)sched_setaffinity(0, sizeof allowed_, &allowed_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void next() {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[step_++ % cpus_.size()], &one);
    moved_ = sched_setaffinity(0, sizeof one, &one) == 0 || moved_;
  }

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
  std::size_t step_ = 0;
  bool moved_ = false;
};

/// Starts a new peak-RSS window: writing "5" to clear_refs resets the
/// kernel's high-water mark (VmHWM) to the current resident size. Returns
/// false where the kernel does not allow it; peak_rss_mb() then reports the
/// process's all-time peak.
bool reset_peak_rss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

/// Peak resident memory since the last reset_peak_rss() (MB): VmHWM from
/// /proc/self/status, or getrusage's all-time peak if that is unreadable.
double peak_rss_mb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kb = -1;
    while (std::fgets(line, sizeof line, f) != nullptr)
      if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) break;
    std::fclose(f);
    if (kb >= 0) return static_cast<double>(kb) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Resets the peak-RSS window right before a timed region and prints the
/// peak of everything before it (training, set-up deployments, the
/// reference twin), so the region's own figure can be told apart.
void start_rss_window() {
  const double before = peak_rss_mb();
  const bool reset = reset_peak_rss();
  std::cout << "# peak RSS before the timed region " << before << " MB; "
            << (reset ? "high-water mark reset, now " : "NOT reset, still ")
            << peak_rss_mb() << " MB\n";
}

// ------------------------------------------------------------ workloads

enum class Kind : std::uint8_t { kFrame, kServe };

struct Workload {
  const char* name;
  Kind kind;
  core::BackendKind backend;
  bool cnn;     ///< perception CNN (else the small MLP)
  bool bursty;  ///< bursty overload trace (else Poisson)
  /// Work units (decisions or requests) after which peak RSS is read, so
  /// the memory figure covers a fixed amount of work at any speed.
  std::uint64_t rss_checkpoint;
  /// Timed regions are split into blocks of this much measured time; the
  /// caller moves to its next vCPU at each block (see CpuRotation).
  double block_seconds;
  /// Serving: minimum arrivals per timed run_trace() call.
  std::size_t chunk_requests;
};

constexpr Workload kWorkloads[] = {
    {"frame_cnn_f32", Kind::kFrame, core::BackendKind::kFloat32, true, false,
     8000, 0.1, 0},
    {"frame_cnn_int8", Kind::kFrame, core::BackendKind::kInt8, true, false,
     8000, 0.1, 0},
    {"serve_cnn_poisson", Kind::kServe, core::BackendKind::kFloat32, true,
     false, 8000, 0.2, 32},
    {"serve_mlp_bursty", Kind::kServe, core::BackendKind::kFloat32, false,
     true, 60000, 0.1, 128},
};

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

const dl::Dataset& road_data() {
  static const dl::Dataset ds = dl::make_road_scene(600, /*seed=*/11);
  return ds;
}

/// E14's rung-3 perception CNN: two 8-channel conv blocks + dense32.
dl::Model perception_cnn() {
  dl::ModelBuilder b{road_data().input_shape};
  b.conv2d(8, 3, 1, 1)
      .relu()
      .conv2d(8, 3, 1, 1)
      .relu()
      .maxpool(2)
      .flatten()
      .dense(32)
      .relu()
      .dense(dl::kRoadSceneClasses);
  dl::Model m = b.build(/*seed=*/21);
  dl::Trainer trainer{dl::TrainConfig{.learning_rate = 0.02,
                                      .momentum = 0.9,
                                      .epochs = 4,
                                      .batch_size = 16,
                                      .shuffle_seed = 7}};
  trainer.fit(m, road_data());
  return m;
}

/// The serving experiments' small MLP (flatten + dense32 + dense16).
dl::Model small_mlp() {
  dl::ModelBuilder b{road_data().input_shape};
  b.flatten().dense(32).relu().dense(16).relu().dense(dl::kRoadSceneClasses);
  dl::Model m = b.build(5);
  dl::Trainer trainer{dl::TrainConfig{.learning_rate = 0.02,
                                      .momentum = 0.9,
                                      .epochs = 30,
                                      .batch_size = 16,
                                      .shuffle_seed = 3}};
  trainer.fit(m, road_data());
  return m;
}

std::vector<std::size_t> seeded_order(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  util::Xoshiro256 rng{seed ^ 0x5eedf00dULL};
  for (std::size_t i = n; i > 1; --i)
    std::swap(order[i - 1], order[rng() % i]);
  return order;
}

core::PipelineConfig pipeline_config(const Workload& w, dl::KernelMode mode,
                                     bool telemetry) {
  core::PipelineConfig cfg;
  cfg.criticality = core::Criticality::kSil2;
  cfg.backend = w.backend;
  cfg.kernel_mode = mode;
  cfg.enable_telemetry = telemetry;
  if (w.kind == Kind::kServe) cfg.batch_workers = kBatchWorkers;
  return cfg;
}

/// E20's two declared streams and window geometry.
serve::ServerConfig server_config() {
  serve::ServerConfig cfg;
  cfg.streams = {
      serve::StreamSpec{.name = "hazard",
                        .criticality = trace::Criticality::kSil3,
                        .period = 40,
                        .deadline = 40,
                        .service_lo = 4,
                        .service_hi = 8},
      serve::StreamSpec{.name = "infotainment",
                        .criticality = trace::Criticality::kSil1,
                        .period = 16,
                        .deadline = 16,
                        .service_lo = 2},
  };
  cfg.batch_max = 4;
  cfg.batch_window = 4;
  cfg.dispatch_overhead = 1;
  cfg.queue_capacity = 256;
  return cfg;
}

/// Endless seeded arrival trace, generated in segments so the benchmark's
/// own memory stays small: segment k is a fresh make_*_trace with seed
/// (seed, k), shifted to follow segment k-1 in logical time and sequence
/// numbers, cut at idle gaps and grouped into chunks of at least
/// w.chunk_requests arrivals. The chunk sequence is a pure function of the
/// seed.
class TraceFeed {
 public:
  TraceFeed(const Workload& w, std::uint64_t seed, std::uint32_t payloads)
      : bursty_(w.bursty),
        chunk_requests_(w.chunk_requests),
        seed_(seed),
        payloads_(payloads) {}

  /// The next chunk; valid until the following call.
  const serve::ArrivalTrace& next() {
    if (pos_ >= chunks_.size()) refill();
    return chunks_[pos_++];
  }

 private:
  static constexpr std::uint64_t kSegmentRequests = 20000;

  void refill() {
    // Arrivals per logical unit of each traffic shape.
    const double per_unit = bursty_ ? 1.0 / 40.0 + 24.0 / 400.0
                                    : 1.0 / 45.0 + 1.0 / 18.0;
    const auto horizon = static_cast<std::uint64_t>(
        static_cast<double>(kSegmentRequests) / per_unit);
    const serve::TrafficConfig tc{
        .horizon = horizon,
        .payloads = payloads_,
        .seed = seed_ * 1000003ULL + segment_++};
    serve::ArrivalTrace seg =
        bursty_ ? serve::make_bursty_trace(
                      {serve::BurstyStreamTraffic{.burst_len = 1,
                                                  .gap_between = 40},
                       serve::BurstyStreamTraffic{.burst_len = 24,
                                                  .gap_in_burst = 1,
                                                  .gap_between = 400,
                                                  .jitter = 16}},
                      tc)
                : serve::make_poisson_trace(
                      {serve::PoissonStreamTraffic{.mean_gap = 45.0},
                       serve::PoissonStreamTraffic{.mean_gap = 18.0}},
                      tc);
    for (serve::Request& r : seg.requests) {
      r.seq += seq_base_;
      r.arrival += time_base_;
    }
    seq_base_ += seg.requests.size();
    time_base_ += horizon + kIdleGap;
    chunks_.clear();
    pos_ = 0;
    for (serve::ArrivalTrace& s : serve::split_at_gaps(seg, kIdleGap)) {
      if (chunks_.empty() ||
          chunks_.back().requests.size() >= chunk_requests_) {
        chunks_.push_back(std::move(s));
        continue;
      }
      serve::ArrivalTrace& c = chunks_.back();
      c.requests.insert(c.requests.end(), s.requests.begin(),
                        s.requests.end());
    }
  }

  bool bursty_;
  std::size_t chunk_requests_;
  std::uint64_t seed_;
  std::uint32_t payloads_;
  std::uint64_t segment_ = 0;
  std::uint64_t seq_base_ = 0;
  std::uint64_t time_base_ = 0;
  std::vector<serve::ArrivalTrace> chunks_;
  std::size_t pos_ = 0;
};

// ------------------------------------------------------ decision identity

/// The fields of a decision that must be bitwise identical to the
/// kReference twin (audit sequence numbers are compared by the serving
/// digest, not here).
struct Outcome {
  std::uint8_t status = 0;
  std::uint8_t degraded = 0;
  std::uint32_t cls = 0;
  std::uint32_t conf = 0;
  std::uint64_t score = 0;
  bool operator==(const Outcome&) const = default;
};

Outcome outcome_of(const core::Decision& d) {
  return Outcome{static_cast<std::uint8_t>(d.status),
                 static_cast<std::uint8_t>(d.degraded ? 1 : 0),
                 static_cast<std::uint32_t>(d.predicted_class),
                 std::bit_cast<std::uint32_t>(d.confidence),
                 std::bit_cast<std::uint64_t>(d.supervisor_score)};
}

/// FNV-1a fold of one 64-bit word into a running stream hash.
std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xffu;
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t fold(std::uint64_t h, const Outcome& o) {
  for (std::uint64_t v : {std::uint64_t{o.status}, std::uint64_t{o.degraded},
                          std::uint64_t{o.cls}, std::uint64_t{o.conf},
                          o.score})
    h = fold(h, v);
  return h;
}
constexpr std::uint64_t kFnvBasis = 1469598103934665603ULL;

// ------------------------------------------------------------ telemetry

/// Sums (telemetry clock units, ns by default) of the pipeline's stage
/// histograms.
struct StageSums {
  double odd = 0, inference = 0, supervisor = 0, decision = 0;
};

StageSums stage_sums(const core::CertifiablePipeline& p) {
  const obs::Registry* r = p.telemetry();
  if (r == nullptr) return {};
  const auto sum = [r](const char* name) {
    const obs::HistogramId id = r->find_histogram(name);
    return id.valid() ? static_cast<double>(r->histogram_snapshot(id).sum)
                      : 0.0;
  };
  return StageSums{sum("sx_stage_odd_guard_cycles"),
                   sum("sx_stage_inference_cycles"),
                   sum("sx_stage_supervisor_cycles"),
                   sum("sx_decision_cycles")};
}

StageSums operator-(const StageSums& a, const StageSums& b) {
  return StageSums{a.odd - b.odd, a.inference - b.inference,
                   a.supervisor - b.supervisor, a.decision - b.decision};
}

StageSums& operator+=(StageSums& a, const StageSums& b) {
  a.odd += b.odd;
  a.inference += b.inference;
  a.supervisor += b.supervisor;
  a.decision += b.decision;
  return a;
}

struct PoolSums {
  double wall_us = 0, busy_us = 0;
  double batches = 0, items = 0;
};

PoolSums pool_sums(const core::CertifiablePipeline& p) {
  const dl::BatchRunner* b = p.batch_runner();
  if (b == nullptr) return {};
  return PoolSums{b->total_wall_micros(), b->total_busy_micros(),
                  static_cast<double>(b->batch_count()),
                  static_cast<double>(b->item_count())};
}

PoolSums operator-(const PoolSums& a, const PoolSums& b) {
  return PoolSums{a.wall_us - b.wall_us, a.busy_us - b.busy_us,
                  a.batches - b.batches, a.items - b.items};
}

PoolSums& operator+=(PoolSums& a, const PoolSums& b) {
  a.wall_us += b.wall_us;
  a.busy_us += b.busy_us;
  a.batches += b.batches;
  a.items += b.items;
  return a;
}

// ---------------------------------------------------------------- report

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  /// Sets a metric, replacing an earlier value of the same name.
  void put(std::string name, double value, std::string unit) {
    if (!std::isfinite(value)) value = 0.0;
    for (auto& m : metrics)
      if (m.first == name) {
        m.second = {value, std::move(unit)};
        return;
      }
    metrics.emplace_back(std::move(name),
                         std::make_pair(value, std::move(unit)));
  }

  std::string json() const {
    std::ostringstream o;
    o << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.17g", metrics[i].second.first);
      o << (i > 0 ? ", " : "") << '"' << metrics[i].first
        << "\": {\"value\": " << buf << ", \"unit\": \""
        << metrics[i].second.second << "\"}";
    }
    o << "}}";
    return o.str();
  }
};

// ------------------------------------------------------ layer probes

/// Median over blocks of the mean per-call time of `fn` (µs); runs at
/// least `min_blocks` blocks and stops once `budget_s` is spent.
template <typename Fn>
double probe_us(Fn&& fn, std::size_t calls_per_block, double budget_s,
                std::size_t min_blocks = 8) {
  std::vector<double> blocks;
  const auto start = Clock::now();
  while (blocks.size() < min_blocks || seconds_since(start) < budget_s) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < calls_per_block; ++i) fn();
    blocks.push_back(micros(t0, Clock::now()) /
                     static_cast<double>(calls_per_block));
    if (blocks.size() >= 4096) break;
  }
  return median(std::move(blocks));
}

/// Work of one forward pass, computed from the model's layer shapes.
struct ModelWork {
  double macs = 0;
  double weight_bytes = 0;
  double activation_bytes = 0;
};

ModelWork model_work(const dl::Model& m, const core::CertifiablePipeline& p) {
  ModelWork w;
  const double elem = p.quantized_model() != nullptr ? 1.0 : 4.0;
  for (std::size_t i = 0; i < m.layer_count(); ++i) {
    const dl::Layer& layer = m.layer(i);
    // activation_shape(i) is layer i's output.
    const double in = static_cast<double>(
        i == 0 ? m.input_shape().size() : m.activation_shape(i - 1).size());
    const double out = static_cast<double>(m.activation_shape(i).size());
    if (layer.kind() == dl::LayerKind::kDense) {
      w.macs += in * out;
    } else if (layer.kind() == dl::LayerKind::kConv2d) {
      const auto& c = static_cast<const dl::Conv2d&>(layer);
      w.macs += out * static_cast<double>(c.in_channels() * c.kernel() *
                                          c.kernel());
    }
    w.activation_bytes += out * elem;
  }
  w.weight_bytes = p.quantized_model() != nullptr
                       ? static_cast<double>(
                             p.quantized_model()->weight_bytes())
                       : static_cast<double>(m.param_count()) * 4.0;
  return w;
}

/// Per-call probes of the layers below the pipeline, each on a twin built
/// like the deployed component (or the deployed channel itself).
struct LayerProbes {
  double engine_us = 0;
  double channel_us = 0;
  double score_us = 0;
  double audit_append_us = 0;
  double odd_check_us = 0;
};

LayerProbes probe_layers(const dl::Model& model,
                         core::CertifiablePipeline& p,
                         const std::vector<std::size_t>& order) {
  const auto& samples = road_data().samples;
  const std::size_t n_out = model.output_shape().size();
  std::vector<float> out(n_out);
  std::size_t k = 0;
  const auto next = [&]() -> const tensor::Tensor& {
    const tensor::Tensor& t = samples[order[k]].input;
    k = (k + 1) % order.size();
    return t;
  };
  LayerProbes lp;

  if (p.quantized_model() != nullptr) {
    dl::QuantEngine eng{*p.quantized_model(), dl::QuantEngineConfig{}};
    lp.engine_us =
        probe_us([&] { (void)eng.run(next().view(), out); }, 32, 0.4);
  } else {
    dl::StaticEngine eng{model, dl::StaticEngineConfig{}};
    lp.engine_us =
        probe_us([&] { (void)eng.run(next().view(), out); }, 32, 0.4);
  }

  if (safety::InferenceChannel* ch = p.channel(); ch != nullptr) {
    std::vector<float> cout(ch->output_size());
    lp.channel_us =
        probe_us([&] { (void)ch->infer(next().view(), cout); }, 32, 0.4);
  }

  {
    supervise::MahalanobisSupervisor sup;
    sup.fit(model, road_data());
    dl::StaticEngineConfig sc;
    sc.check_numeric_faults = false;
    sc.pin_tap_layer = sup.feature_layer();
    dl::StaticEngine eng{model, sc};
    std::vector<float> feat(sup.feature_dim());
    if (eng.can_tap(sup.feature_layer())) {
      lp.score_us = probe_us(
          [&] {
            (void)eng.run_tapped(next().view(), out, sup.feature_layer(),
                                 feat);
            (void)sup.score_from_features(feat);
          },
          32, 0.4);
    } else {
      lp.score_us =
          probe_us([&] { (void)sup.score(model, next()); }, 32, 0.4);
    }
  }

  {
    trace::AuditLog log;
    std::ostringstream payload;
    payload << "class=" << 2 << " conf=" << 0.8731f << " degraded=" << 0
            << " sup=" << 3.14159;
    const std::string text = payload.str();
    std::uint64_t t = 0;
    lp.audit_append_us = probe_us(
        [&] { (void)log.append(++t, "channel", "decision", text); }, 64, 0.3);
  }

  {
    trace::OddGuard guard = trace::OddGuard::fit(road_data());
    lp.odd_check_us =
        probe_us([&] { (void)guard.check(next().view()); }, 64, 0.2);
  }
  return lp;
}

/// Every per-layer metric a traced run prints; those that do not apply to
/// a workload stay 0.
constexpr std::pair<const char*, const char*> kLayerMetrics[] = {
    {"dl.batch_wall_us_per_item", "us"},
    {"dl.batch_busy_us_per_item", "us"},
    {"dl.batch_parallel_efficiency", "share"},
    {"dl.batch_dispatch_us", "us"},
    {"core.batch_serial_us_per_item", "us"},
    {"core.reconcile_error_share", "share"},
    {"serve.windows", "count"},
    {"serve.window_full_share", "share"},
    {"serve.items_per_window", "count"},
    {"serve.shed", "count"},
    {"serve.queue_rejected", "count"},
    {"serve.hi_miss", "count"},
    {"serve.self_us_per_request", "us"},
    {"serve.allocs_per_request", "count"},
    {"serve.reconcile_error_share", "share"},
    {"obs.overhead_share", "share"},
};

void put_layer_work(Report& r, const ModelWork& mw, const LayerProbes& lp) {
  for (const auto& [name, unit] : kLayerMetrics) r.put(name, 0.0, unit);
  r.put("tensor.macs_per_decision", mw.macs, "count");
  r.put("tensor.weight_bytes", mw.weight_bytes, "B");
  r.put("tensor.activation_bytes", mw.activation_bytes, "B");
  r.put("tensor.gmacs_per_s", ratio(mw.macs, lp.engine_us) / 1e3, "GMAC/s");
  r.put("dl.engine_us", lp.engine_us, "us");
  r.put("safety.channel_us", lp.channel_us, "us");
  r.put("safety.pattern_overhead_us", lp.channel_us - lp.engine_us, "us");
  r.put("supervise.score_us", lp.score_us, "us");
  r.put("trace.audit_append_us", lp.audit_append_us, "us");
  r.put("trace.odd_check_us", lp.odd_check_us, "us");
}

void print_host_facts(const Args& a) {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int affinity =
      sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : -1;
  const platform::CpuProbe probe = platform::probe_cpu();
  const platform::WideIsaSelection sel = platform::select_wide_isa();
  const char* ref = std::getenv("SX_KERNEL_REFERENCE");
  std::cout << "# workload " << a.workload->name << " seed=" << a.seed
            << " seconds=" << a.seconds << " trace=" << (a.trace ? 1 : 0)
            << "\n# host nproc=" << sysconf(_SC_NPROCESSORS_ONLN)
            << " affinity=" << affinity << " build_type=" << SXB_BUILD_TYPE
            << "\n# host " << platform::wide_isa_audit(probe, sel)
            << "\n# host SX_KERNEL_REFERENCE=" << (ref != nullptr ? ref : "")
            << "\n";
}

/// Times `deploy`, which returns the deployment it built (destroyed
/// untimed), at least kSetupReps times and until kSetupSeconds have
/// passed, capped at kSetupMaxReps; appends each construction's wall time
/// in seconds to `secs`.
template <typename Deploy>
void time_setups(Deploy&& deploy, std::vector<double>& secs) {
  CpuRotation rotation;
  const auto start = Clock::now();
  for (std::size_t n = 0;
       n < kSetupReps ||
       (seconds_since(start) < kSetupSeconds && n < kSetupMaxReps);
       ++n) {
    rotation.next();
    const auto t0 = Clock::now();
    const auto deployed = deploy();
    secs.push_back(seconds_since(t0));
  }
}

// ------------------------------------------------------- frame workloads

struct FramePhase {
  std::uint64_t n = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t errors = 0;
  double wall_us = 0;
  std::vector<double> lat_us;
  std::vector<Block> blocks;
  std::uint64_t allocs = 0;       ///< whole timed region
  std::uint64_t call_allocs = 0;  ///< inside infer() windows (traced)
  double rss_mb = 0;
  StageSums stages;
  std::size_t audit_entries = 0;
};

/// Closed loop of infer() calls for `seconds`; every decision is checked
/// against the reference table (a lookup, no allocation).
FramePhase frame_phase(core::CertifiablePipeline& p,
                       const std::vector<std::size_t>& order,
                       std::size_t& cursor,
                       const std::vector<Outcome>& expected, double seconds,
                       bool traced, std::uint64_t& logical,
                       std::uint64_t rss_checkpoint, double block_seconds) {
  const auto& samples = road_data().samples;
  FramePhase r;
  r.lat_us.reserve(static_cast<std::size_t>(seconds * 200000.0) + 16);
  r.blocks.reserve(static_cast<std::size_t>(seconds / block_seconds) + 2);
  const StageSums s0 = stage_sums(p);
  const std::size_t audit0 = p.audit().size();
  CpuRotation rotation;
  rotation.next();
  const auto start = Clock::now();
  auto block_start = start;
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  const std::uint64_t a0 = sxb::allocations();
  auto now = start;
  while (now < deadline && r.lat_us.size() < r.lat_us.capacity()) {
    const std::size_t idx = order[cursor];
    cursor = (cursor + 1) % order.size();
    const std::uint64_t c0 = traced ? sxb::allocations() : 0;
    const auto t0 = Clock::now();
    core::Decision d{};
    bool threw = false;
    try {
      d = p.infer(samples[idx].input, ++logical);
    } catch (...) {
      threw = true;
    }
    const auto t1 = Clock::now();
    if (traced) r.call_allocs += sxb::allocations() - c0;
    r.lat_us.push_back(micros(t0, t1));
    if (threw)
      ++r.errors;
    else if (!(outcome_of(d) == expected[idx]))
      ++r.mismatches;
    if (++r.n == rss_checkpoint) r.rss_mb = peak_rss_mb();
    now = t1;
    const double block_us = micros(block_start, now);
    if (block_us >= block_seconds * 1e6 &&
        r.blocks.size() < r.blocks.capacity()) {
      const std::size_t prev = r.blocks.empty() ? 0 : r.blocks.back().end;
      r.blocks.push_back(Block{r.lat_us.size(), block_us,
                               static_cast<double>(r.lat_us.size() - prev)});
      rotation.next();
      block_start = now;
    }
  }
  r.wall_us = micros(start, now);
  if (r.blocks.empty())
    r.blocks.push_back(Block{r.lat_us.size(), r.wall_us,
                             static_cast<double>(r.lat_us.size())});
  r.allocs = sxb::allocations() - a0;
  if (r.rss_mb == 0.0) r.rss_mb = peak_rss_mb();
  r.stages = stage_sums(p) - s0;
  r.audit_entries = p.audit().size() - audit0;
  return r;
}

Report run_frames(const Workload& w, const Args& a, const dl::Model& model,
                  const std::vector<std::size_t>& order) {
  const auto& samples = road_data().samples;
  Report rep;

  const auto deploy = [&] {
    return std::make_unique<core::CertifiablePipeline>(
        model, road_data(), pipeline_config(w, dl::KernelMode::kAuto, true));
  };
  std::vector<double> setup_s;
  time_setups(deploy, setup_s);
  const std::unique_ptr<core::CertifiablePipeline> pipe = deploy();
  std::cout << "# deployed " << core::to_string(w.backend)
            << " kernel_backend: " << pipe->kernel_backend() << "\n";

  // Reference table: the kReference twin's decision for every sample, in
  // the seeded order. Decisions depend only on the input (the drift
  // detector and audit chain never feed back into them), so this is the
  // expected stream for any order.
  std::vector<Outcome> expected(samples.size());
  std::uint64_t expected_digest = kFnvBasis;
  {
    core::CertifiablePipeline ref{
        model, road_data(),
        pipeline_config(w, dl::KernelMode::kReference, true)};
    std::cout << "# reference kernel_backend: " << ref.kernel_backend()
              << "\n";
    std::uint64_t t = 0;
    for (std::size_t idx : order)
      expected[idx] = outcome_of(ref.infer(samples[idx].input, ++t));
  }

  std::size_t cursor = 0;
  std::uint64_t logical = 0;
  std::uint64_t warm_mismatch = 0;
  std::uint64_t observed_digest = kFnvBasis;
  for (std::size_t i = 0; i < kWarmupDecisions; ++i) {
    const std::size_t idx = order[cursor];
    cursor = (cursor + 1) % order.size();
    const Outcome o = outcome_of(pipe->infer(samples[idx].input, ++logical));
    observed_digest = fold(observed_digest, o);
    expected_digest = fold(expected_digest, expected[idx]);
    if (!(o == expected[idx])) ++warm_mismatch;
  }

  const double phase_s = a.trace ? a.seconds / 2.0 : a.seconds;
  start_rss_window();
  FramePhase plain =
      frame_phase(*pipe, order, cursor, expected, phase_s, false, logical,
                  w.rss_checkpoint, w.block_seconds);
  FramePhase traced;
  if (a.trace)
    traced = frame_phase(*pipe, order, cursor, expected, phase_s, true,
                         logical, 0, w.block_seconds);
  time_setups(deploy, setup_s);
  std::cout << "# setup: " << setup_s.size() << " deployments\n";

  const std::uint64_t n = plain.n + traced.n;
  const std::uint64_t bad = plain.mismatches + traced.mismatches +
                            warm_mismatch;
  const std::uint64_t errors = plain.errors + traced.errors;
  rep.attempted = n;
  rep.correct = bad == 0 && errors == 0;
  rep.failed = rep.correct ? 0 : n;
  std::cout << "# correctness: " << (kWarmupDecisions + n)
            << " decisions vs kReference twin, " << bad << " mismatched, "
            << errors << " threw; warm-up stream digest "
            << std::hex << observed_digest << " expected " << expected_digest
            << std::dec << "\n";
  std::cout << "# timed: " << plain.n << " decisions in "
            << plain.wall_us / 1e6 << " s (" << plain.lat_us.size()
            << " latency samples)\n";

  print_block_spread(plain.blocks);
  const double rate =
      ratio(static_cast<double>(plain.n), plain.wall_us / 1e6);
  if (!a.trace) {
    rep.put("decisions_per_s", rate, "1/s");
    rep.put("setup_s", median(setup_s), "s");
    rep.put("allocs_per_decision",
            ratio(static_cast<double>(plain.allocs),
                  static_cast<double>(plain.n)),
            "count");
    rep.put("peak_rss_mb", plain.rss_mb, "MB");
    return rep;
  }

  // ---- traced run: per-layer metrics.
  const double tn = static_cast<double>(traced.n);
  const StageSums& st = traced.stages;
  double span_sum = 0;
  for (double v : traced.lat_us) span_sum += v;
  const double decision_us = span_sum / tn;
  const double odd_us = st.odd / tn / 1e3;
  const double inf_us = st.inference / tn / 1e3;
  const double sup_us = st.supervisor / tn / 1e3;
  const double residual_us =
      (st.decision - st.odd - st.inference - st.supervisor) / tn / 1e3;
  const double parts = odd_us + inf_us + sup_us + residual_us;
  const double reconcile = std::fabs(parts - decision_us) / decision_us;
  const double traced_rate = ratio(tn, traced.wall_us / 1e6);

  const LayerProbes lp = probe_layers(model, *pipe, order);

  // Telemetry overhead: the deployed pipeline against a telemetry-off
  // twin, interleaved in short rounds so host drift hits both alike.
  double obs_overhead = 0.0;
  {
    core::CertifiablePipeline off{
        model, road_data(), pipeline_config(w, dl::KernelMode::kAuto, false)};
    std::vector<double> rounds;
    std::size_t c_on = cursor, c_off = cursor;
    const auto round = [&](core::CertifiablePipeline& p, std::size_t& c) {
      const auto t0 = Clock::now();
      for (std::size_t i = 0; i < 100; ++i) {
        (void)p.infer(samples[order[c]].input, ++logical);
        c = (c + 1) % order.size();
      }
      return micros(t0, Clock::now());
    };
    for (std::size_t r = 0; r < 12; ++r) {
      const double on = round(*pipe, c_on);
      const double o = round(off, c_off);
      rounds.push_back(on / o - 1.0);
    }
    obs_overhead = median(std::move(rounds));
  }

  put_layer_work(rep, model_work(model, *pipe), lp);
  rep.put("supervise.share_of_decision", ratio(st.supervisor, st.decision),
          "share");
  rep.put("core.decision_us", decision_us, "us");
  rep.put("core.decision_us_p50", quantile(traced.lat_us, 0.5), "us");
  rep.put("core.decision_us_p90", quantile(traced.lat_us, 0.9), "us");
  rep.put("core.decision_us_p99", quantile(traced.lat_us, 0.99), "us");
  rep.put("core.decision_us_p999", quantile(traced.lat_us, 0.999), "us");
  rep.put("core.odd_guard_us", odd_us, "us");
  rep.put("core.inference_us", inf_us, "us");
  rep.put("core.supervisor_us", sup_us, "us");
  rep.put("core.residual_us", residual_us, "us");
  rep.put("core.allocs_per_decision",
          ratio(static_cast<double>(traced.call_allocs), tn), "count");
  rep.put("core.reconcile_error_share", reconcile, "share");
  rep.put("trace.audit_entries_per_decision",
          ratio(static_cast<double>(traced.audit_entries), tn), "count");
  rep.put("obs.overhead_share", obs_overhead, "share");
  rep.put("failed_share",
          ratio(static_cast<double>(rep.failed), static_cast<double>(n)),
          "share");
  rep.put("bench.trace_overhead_share", ratio(rate, traced_rate) - 1.0,
          "share");

  std::cout << "# reconcile: odd " << odd_us << " + inference " << inf_us
            << " + supervisor " << sup_us << " + residual " << residual_us
            << " = " << parts << " us vs span " << decision_us
            << " us (error " << reconcile << ")\n";
  if (reconcile > kReconcileTolerance) {
    std::cout << "# reconcile FAILED: stage parts differ from the decision "
                 "span by more than 5%\n";
    rep.correct = false;
    rep.failed = rep.attempted;
  }
  return rep;
}

// ------------------------------------------------------- serve workloads

struct ServePhase {
  std::uint64_t requests = 0;
  std::uint64_t served = 0;
  std::uint64_t shed = 0;
  std::uint64_t queue_rejected = 0;
  std::uint64_t hi_miss = 0;
  std::uint64_t errors = 0;
  double windows = 0, windows_full = 0;
  double wall_us = 0;
  std::vector<double> per_request_us;  ///< one per chunk
  std::vector<Block> blocks;
  std::uint64_t allocs = 0;
  double rss_mb = 0;
  StageSums stages;
  PoolSums pool;
  std::size_t audit_entries = 0;  ///< pipeline + server audit growth
};

/// Time inside infer_batch() as the pipeline's own telemetry accounts for
/// it: the serial ODD staging, the pool's wall time and the serial
/// per-item decision loop (µs).
double telemetry_batch_us(const StageSums& st, const PoolSums& pool) {
  return (st.odd + st.decision) / 1e3 + pool.wall_us;
}

/// Time inside infer_batch() measured from outside: the windows of served
/// records [begin, end) (consecutive records sharing a completion instant
/// were dispatched together) replayed through the same pipeline, one span
/// and one allocation window per call, plus the telemetry's account of the
/// same calls.
struct BatchReplay {
  double wall_us = 0;
  double items = 0;
  double allocs = 0;
  double pool_wall_us = 0;
  double telemetry_us = 0;
};

void replay_windows(core::CertifiablePipeline& p, const serve::Server& server,
                    std::size_t begin, std::size_t end,
                    std::span<const tensor::Tensor> pool, BatchReplay& acc,
                    std::vector<tensor::Tensor>& window) {
  const auto& recs = server.served();
  const StageSums s0 = stage_sums(p);
  const PoolSums p0 = pool_sums(p);
  for (std::size_t i = begin; i < end;) {
    std::size_t j = i;
    while (j < end && recs[j].completion == recs[i].completion) ++j;
    window.clear();
    for (std::size_t k = i; k < j; ++k)
      window.push_back(pool[recs[k].request.payload]);
    const std::uint64_t a0 = sxb::allocations();
    const auto t0 = Clock::now();
    (void)p.infer_batch(window, recs[i].completion);
    acc.wall_us += micros(t0, Clock::now());
    acc.allocs += static_cast<double>(sxb::allocations() - a0);
    acc.items += static_cast<double>(j - i);
    i = j;
  }
  const PoolSums dp = pool_sums(p) - p0;
  acc.pool_wall_us += dp.wall_us;
  acc.telemetry_us += telemetry_batch_us(stage_sums(p) - s0, dp);
}

/// Replays trace chunks through run_trace() for `seconds`. Wall time and
/// allocations are summed over the run_trace() calls only, so generating
/// the next trace segment never counts. Traced: telemetry deltas are taken
/// around each run_trace() call, and each chunk's windows are replayed
/// through infer_batch() right after it (into `replay`), so both see the
/// host in the same state.
ServePhase serve_phase(serve::Server& server, core::CertifiablePipeline& p,
                       TraceFeed& feed, std::span<const tensor::Tensor> pool,
                       double seconds, double block_seconds,
                       std::uint64_t rss_checkpoint, BatchReplay* replay) {
  ServePhase r;
  r.per_request_us.reserve(static_cast<std::size_t>(seconds * 4000.0) + 64);
  r.blocks.reserve(static_cast<std::size_t>(seconds / block_seconds) + 2);
  Block block;
  const obs::Registry& tel = server.telemetry();
  const obs::CounterId c_windows = tel.find_counter("sx_serve_windows_total");
  const obs::CounterId c_full = tel.find_counter("sx_serve_window_full_total");
  const double w0 = static_cast<double>(tel.value(c_windows));
  const double f0 = static_cast<double>(tel.value(c_full));
  const std::uint64_t req0 = server.requests(), srv0 = server.served_count(),
                      shed0 = server.shed_count(),
                      q0 = server.queue_rejections(),
                      hi0 = server.hi_deadline_misses();
  std::vector<tensor::Tensor> window;

  CpuRotation rotation;
  rotation.next();
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  while (Clock::now() < deadline &&
         r.per_request_us.size() < r.per_request_us.capacity()) {
    const serve::ArrivalTrace& chunk = feed.next();
    const std::uint64_t before = server.served_count();
    const std::size_t rec0 = server.served().size();
    const StageSums s0 = stage_sums(p);
    const PoolSums p0 = pool_sums(p);
    const std::size_t audit0 = p.audit().size() + server.audit().size();
    const std::uint64_t a0 = sxb::allocations();
    const auto t0 = Clock::now();
    try {
      server.run_trace(chunk, pool);
    } catch (...) {
      r.errors += chunk.requests.size();
    }
    const auto t1 = Clock::now();
    r.allocs += sxb::allocations() - a0;
    r.wall_us += micros(t0, t1);
    r.stages += stage_sums(p) - s0;
    r.pool += pool_sums(p) - p0;
    r.audit_entries += p.audit().size() + server.audit().size() - audit0;
    const std::uint64_t served = server.served_count() - before;
    if (served > 0) {
      r.per_request_us.push_back(micros(t0, t1) /
                                 static_cast<double>(served));
      block.wall_us += micros(t0, t1);
      block.units += static_cast<double>(served);
    }
    if (block.wall_us >= block_seconds * 1e6 &&
        r.blocks.size() < r.blocks.capacity()) {
      block.end = r.per_request_us.size();
      r.blocks.push_back(block);
      block = Block{};
      rotation.next();
    }
    if (rss_checkpoint != 0 && r.rss_mb == 0.0 &&
        server.requests() - req0 >= rss_checkpoint)
      r.rss_mb = peak_rss_mb();
    if (replay != nullptr)
      replay_windows(p, server, rec0, server.served().size(), pool, *replay,
                     window);
  }
  if (r.rss_mb == 0.0) r.rss_mb = peak_rss_mb();
  if (r.blocks.empty())
    r.blocks.push_back(Block{r.per_request_us.size(), block.wall_us,
                             block.units});
  r.requests = server.requests() - req0;
  r.served = server.served_count() - srv0;
  r.shed = server.shed_count() - shed0;
  r.queue_rejected = server.queue_rejections() - q0;
  r.hi_miss = server.hi_deadline_misses() - hi0;
  r.windows = static_cast<double>(tel.value(c_windows)) - w0;
  r.windows_full = static_cast<double>(tel.value(c_full)) - f0;
  return r;
}

/// Digest of the first `count` served records: stream, sequence, the
/// decision outcome and the audit sequence rebased to the first record.
/// Server::decision_digest() hashes absolute audit sequences, which differ
/// between planned and kReference deployments by the planned deployment's
/// extra kernel-plan audit entries; the rebased form compares the streams.
std::uint64_t served_digest(const serve::Server& server, std::size_t count) {
  const auto& recs = server.served();
  count = std::min(count, recs.size());
  std::uint64_t h = kFnvBasis;
  const std::uint64_t base = count > 0 ? recs[0].decision.audit_sequence : 0;
  for (std::size_t i = 0; i < count; ++i) {
    const serve::ServedRecord& r = recs[i];
    h = fold(h, r.request.stream);
    h = fold(h, r.request.seq);
    h = fold(h, outcome_of(r.decision));
    h = fold(h, r.decision.audit_sequence - base);
  }
  return h;
}

Report run_serve(const Workload& w, const Args& a, const dl::Model& model,
                 const std::vector<std::size_t>& order) {
  const auto& samples = road_data().samples;
  Report rep;

  // The pre-staged input pool, in seeded order; traces index into it.
  std::vector<tensor::Tensor> pool;
  pool.reserve(order.size());
  for (std::size_t idx : order) pool.push_back(samples[idx].input);
  TraceFeed feed{w, a.seed, static_cast<std::uint32_t>(pool.size())};

  struct Deployment {
    std::unique_ptr<core::CertifiablePipeline> pipe;
    std::unique_ptr<serve::Server> server;  // destroyed before its pipeline
  };
  const auto deploy = [&] {
    Deployment d;
    d.pipe = std::make_unique<core::CertifiablePipeline>(
        model, road_data(), pipeline_config(w, dl::KernelMode::kAuto, true));
    d.server = std::make_unique<serve::Server>(*d.pipe, server_config());
    return d;
  };
  std::vector<double> setup_s;
  time_setups(deploy, setup_s);
  const Deployment dep = deploy();
  core::CertifiablePipeline* pipe = dep.pipe.get();
  serve::Server* server = dep.server.get();
  std::cout << "# deployed " << core::to_string(w.backend) << " workers="
            << kBatchWorkers << " kernel_backend: " << pipe->kernel_backend()
            << "\n";

  // Warm-up chunks: untimed, and the prefix whose decision stream is
  // compared with the kReference twin server's.
  std::vector<serve::ArrivalTrace> warm;
  while (server->requests() < kWarmupRequests) {
    warm.push_back(feed.next());
    server->run_trace(warm.back(), pool);
  }
  const std::size_t warm_served = server->served().size();
  const std::uint64_t warm_digest = served_digest(*server, warm_served);

  const double phase_s = a.trace ? a.seconds / 2.0 : a.seconds;
  start_rss_window();
  ServePhase plain = serve_phase(*server, *pipe, feed, pool, phase_s,
                                 w.block_seconds, w.rss_checkpoint, nullptr);
  ServePhase traced;
  BatchReplay br;
  if (a.trace)
    traced = serve_phase(*server, *pipe, feed, pool, phase_s,
                         w.block_seconds, 0, &br);
  time_setups(deploy, setup_s);
  std::cout << "# setup: " << setup_s.size() << " deployments\n";
  std::cout << "# timed: " << plain.requests << " requests, " << plain.served
            << " served, " << plain.shed << " shed in "
            << plain.wall_us / 1e6 << " s of run_trace ("
            << plain.per_request_us.size() << " chunks)\n";

  // ---- correctness, outside the timed region.
  std::uint64_t mismatches = 0;
  bool digest_ok = false;
  {
    core::CertifiablePipeline ref{
        model, road_data(),
        pipeline_config(w, dl::KernelMode::kReference, true)};
    serve::Server ref_server{ref, server_config()};
    for (const serve::ArrivalTrace& c : warm) ref_server.run_trace(c, pool);
    const std::uint64_t ref_digest = served_digest(ref_server, warm_served);
    digest_ok = ref_server.served().size() == warm_served &&
                ref_digest == warm_digest;
    std::cout << "# reference kernel_backend: " << ref.kernel_backend()
              << "\n# warm-up stream digest " << std::hex << warm_digest
              << " reference " << ref_digest << std::dec
              << "\n# decision_digest " << server->decision_digest()
              << "\n";
    // Per-payload reference outcomes; served decisions depend only on
    // their input, so every served record is checked against them.
    const std::vector<core::Decision> ref_dec = ref.infer_batch(pool);
    for (const serve::ServedRecord& rec : server->served())
      if (!(outcome_of(rec.decision) ==
            outcome_of(ref_dec[rec.request.payload])))
        ++mismatches;
  }
  const std::uint64_t attempted = plain.requests + traced.requests;
  const std::uint64_t op_failures = plain.queue_rejected + plain.hi_miss +
                                    plain.errors + traced.queue_rejected +
                                    traced.hi_miss + traced.errors;
  rep.attempted = attempted;
  rep.correct = digest_ok && mismatches == 0;
  rep.failed = rep.correct ? std::min(op_failures, attempted) : attempted;
  std::cout << "# correctness: " << server->served().size()
            << " served records vs kReference twin, " << mismatches
            << " mismatched; warm-up digest "
            << (digest_ok ? "identical" : "DIFFERS") << "\n";

  print_block_spread(plain.blocks);
  const double rate =
      ratio(static_cast<double>(plain.served), plain.wall_us / 1e6);
  if (!a.trace) {
    rep.put("decisions_per_s", rate, "1/s");
    rep.put("setup_s", median(setup_s), "s");
    rep.put("allocs_per_decision",
            ratio(static_cast<double>(plain.allocs),
                  static_cast<double>(plain.requests)),
            "count");
    rep.put("peak_rss_mb", plain.rss_mb, "MB");
    return rep;
  }

  // ---- traced run: per-layer metrics.
  const double req = static_cast<double>(traced.requests);
  const double items = static_cast<double>(traced.served);
  // Self time is the run_trace() wall time minus the run's own telemetry
  // account of infer_batch(). The check adds it to the benchmark's outside
  // spans around the same windows replayed through infer_batch(), so it
  // fails whenever the telemetry misses time inside infer_batch() (or the
  // replay and the run disagree) by more than the tolerance.
  const StageSums& st = traced.stages;
  const double batch_us_item = ratio(br.wall_us, br.items);
  const double in_batch_run = telemetry_batch_us(st, traced.pool);
  const double self_us = ratio(traced.wall_us - in_batch_run, req);
  const double reconcile =
      std::fabs(self_us * req + br.wall_us - traced.wall_us) /
      traced.wall_us;
  const double coverage = ratio(br.telemetry_us, br.wall_us);
  const double traced_rate = ratio(items, traced.wall_us / 1e6);

  const LayerProbes lp = probe_layers(model, *pipe, order);
  const PoolSums& ps = traced.pool;
  const double workers = static_cast<double>(kBatchWorkers);

  put_layer_work(rep, model_work(model, *pipe), lp);
  rep.put("dl.batch_wall_us_per_item", ratio(ps.wall_us, ps.items), "us");
  rep.put("dl.batch_busy_us_per_item", ratio(ps.busy_us, ps.items), "us");
  rep.put("dl.batch_parallel_efficiency",
          ratio(ps.busy_us, ps.wall_us * workers), "share");
  rep.put("dl.batch_dispatch_us",
          ratio(ps.wall_us - ps.busy_us / workers, ps.batches), "us");
  rep.put("supervise.share_of_decision",
          ratio(st.supervisor / 1e3, telemetry_batch_us(st, traced.pool)),
          "share");
  rep.put("core.decision_us", batch_us_item, "us");
  rep.put("core.decision_us_p50", quantile(traced.per_request_us, 0.5),
          "us");
  rep.put("core.decision_us_p90", quantile(traced.per_request_us, 0.9),
          "us");
  rep.put("core.decision_us_p99", quantile(traced.per_request_us, 0.99),
          "us");
  rep.put("core.decision_us_p999", quantile(traced.per_request_us, 0.999),
          "us");
  rep.put("core.odd_guard_us", st.odd / items / 1e3, "us");
  rep.put("core.inference_us", st.inference / items / 1e3, "us");
  rep.put("core.supervisor_us", st.supervisor / items / 1e3, "us");
  rep.put("core.residual_us", (st.decision - st.supervisor) / items / 1e3,
          "us");
  rep.put("core.batch_serial_us_per_item",
          ratio(br.wall_us - br.pool_wall_us, br.items), "us");
  rep.put("core.allocs_per_decision", ratio(br.allocs, br.items), "count");
  rep.put("trace.audit_entries_per_decision",
          ratio(static_cast<double>(traced.audit_entries), req), "count");
  rep.put("serve.windows", traced.windows, "count");
  rep.put("serve.window_full_share",
          ratio(traced.windows_full, traced.windows), "share");
  rep.put("serve.items_per_window", ratio(items, traced.windows), "count");
  rep.put("serve.shed", static_cast<double>(traced.shed), "count");
  rep.put("serve.queue_rejected", static_cast<double>(traced.queue_rejected),
          "count");
  rep.put("serve.hi_miss", static_cast<double>(traced.hi_miss), "count");
  rep.put("serve.self_us_per_request", self_us, "us");
  rep.put("serve.allocs_per_request",
          ratio(static_cast<double>(traced.allocs), req), "count");
  rep.put("serve.reconcile_error_share", reconcile, "share");
  rep.put("failed_share",
          ratio(static_cast<double>(traced.shed + traced.queue_rejected +
                                    traced.hi_miss + traced.errors),
                req),
          "share");
  rep.put("bench.trace_overhead_share", ratio(rate, traced_rate) - 1.0,
          "share");

  std::cout << "# reconcile: self " << self_us * req / 1e3
            << " ms + infer_batch (outside spans, replayed) "
            << br.wall_us / 1e3 << " ms vs run_trace "
            << traced.wall_us / 1e3 << " ms (error " << reconcile
            << "); telemetry's infer_batch " << in_batch_run / 1e3
            << " ms in the run, covers " << coverage
            << " of the replay's outside spans\n";
  if (reconcile > kReconcileTolerance) {
    std::cout << "# reconcile FAILED: serving self time plus infer_batch "
                 "time differs from run_trace wall time by more than 5%\n";
    rep.correct = false;
    rep.failed = rep.attempted;
  }
  return rep;
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      for (const Workload& w : kWorkloads)
        if (val == w.name) a.workload = &w;
      if (a.workload == nullptr) return false;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
      if (end == val.c_str() || *end != '\0') return false;
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
      if (end == val.c_str() || *end != '\0' || !(a.seconds > 0.0) ||
          a.seconds > 600.0)
        return false;
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return false;
      a.trace = val == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && a.workload != nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, a)) {
    std::cerr << "usage: sx_e2ebench --workload <";
    for (std::size_t i = 0; i < std::size(kWorkloads); ++i)
      std::cerr << (i > 0 ? "|" : "") << kWorkloads[i].name;
    std::cerr << "> --seed <n> --seconds <s> --trace <0|1>\n";
    return 2;
  }
  print_host_facts(a);
  const auto t0 = Clock::now();
  const dl::Model model = a.workload->cnn ? perception_cnn() : small_mlp();
  std::cout << "# model trained in " << seconds_since(t0) << " s ("
            << model.param_count() << " parameters)\n";
  const std::vector<std::size_t> order =
      seeded_order(road_data().size(), a.seed);
  const Report rep = a.workload->kind == Kind::kFrame
                         ? run_frames(*a.workload, a, model, order)
                         : run_serve(*a.workload, a, model, order);
  std::cout << rep.json() << std::endl;
  return rep.correct ? 0 : 1;
}
