// Deterministic parallel batch inference.
//
// BatchRunner turns the per-call StaticEngine into a traffic-serving batch
// executor while keeping every FUSA property the single-call engine has:
//
//   - a *static worker pool*: threads are spawned once at configuration
//     time; run() never creates a thread;
//   - one pre-planned arena per worker (each worker owns a private engine,
//     float or int8, over one shared read-only plan), so the hot path
//     performs zero heap allocations;
//   - a *static round-robin partition*: item i is always executed by worker
//     i % workers, in increasing i order within each worker.  Which thread
//     runs first is irrelevant: every item is computed by the same kernel
//     sequence on the same operands, so outputs are bitwise identical, and
//     per-worker counters (run_count, numeric_fault_count, arena high-water
//     marks) depend only on the partition, never on the interleaving;
//   - fault reporting is rebuilt from the per-item status array in batch
//     index order after the barrier, so the fault log is ordering-identical
//     across worker counts and schedules.
//
// This is the first step from a per-call library toward a batch-serving
// inference runtime (ROADMAP: scale via batching without losing the
// certification argument).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "dl/engine.hpp"
#include "dl/qplan.hpp"
#include "obs/registry.hpp"

namespace sx::dl {

struct BatchRunnerConfig {
  /// Worker threads (and private engines/arenas). Must be >= 1.
  std::size_t workers = 1;
  /// Forwarded to every float worker engine (int8 arithmetic cannot
  /// produce a NaN/Inf).
  bool check_numeric_faults = true;
  std::size_t arena_slack = 0;
  /// Largest batch run() accepts; fault-log storage is reserved from this
  /// at configuration time so run() never allocates.
  std::size_t max_batch = 4096;
  /// Hot-path kernel selection, forwarded to the shared plan (one plan
  /// serves every worker; see dl/plan.hpp).
  KernelMode kernels = KernelMode::kAuto;
  /// Optional telemetry sink. When set, the runner registers
  /// sx_batch_items_total / sx_batch_numeric_faults_total at configuration
  /// time and workers increment their own shard (shard == worker index),
  /// so the merged totals depend only on the static partition. The
  /// registry's clock also times per-item inference when the caller asks
  /// for it (see run()). Must outlive the runner.
  obs::Registry* registry = nullptr;
};

/// One faulted item of the last batch, attributed to its batch index.
struct BatchFaultEvent {
  std::size_t batch_index = 0;
  Status status = Status::kOk;
};

/// Deterministic per-worker observability counters.
struct BatchWorkerStats {
  std::uint64_t batches = 0;  ///< dispatches this worker participated in
  std::uint64_t items = 0;    ///< items attempted (ok or faulted)
  std::uint64_t runs = 0;     ///< successful inferences (engine run_count)
  std::uint64_t faults = 0;   ///< numeric faults (engine fault count)
  double busy_micros = 0.0;   ///< wall time inside the work loop
  std::size_t arena_high_water_mark = 0;
  std::size_t arena_capacity = 0;
};

/// Parallel batch executor over a fixed model (see file comment).
class BatchRunner {
 public:
  /// Spawns the worker pool and plans one arena per worker. Throws on an
  /// invalid configuration (configuration-time API). The model must
  /// outlive the runner.
  explicit BatchRunner(const Model& model, BatchRunnerConfig cfg = {});
  /// Quantized variant: every worker owns a private QuantEngine sharing
  /// one QuantKernelPlan, with the same static round-robin partition — so
  /// outputs *and* per-layer saturation counters are bitwise identical
  /// across worker counts and schedules. The quantized model must outlive
  /// the runner.
  explicit BatchRunner(const QuantizedModel& model, BatchRunnerConfig cfg = {});
  ~BatchRunner();

  BatchRunner(const BatchRunner&) = delete;
  BatchRunner& operator=(const BatchRunner&) = delete;

  /// Runs `statuses.size()` items. `inputs` holds the items back-to-back
  /// (count * input_size() floats); `outputs` receives count *
  /// output_size() floats; statuses[i] is the per-item engine status.
  /// Two optional outputs, each skipped when empty:
  ///   - `elapsed[i]`: item i's inference time on the telemetry clock
  ///     (count slots; indexed by batch index, so its contents are
  ///     schedule-independent whenever the clock is deterministic);
  ///   - `taps`: count * tap_size() floats, item i's supervisor features
  ///     (the input of the model's dl::feature_layer, pinned in the shared
  ///     float plan) at i * tap_size(), taken in the same engine run as
  ///     its logits (valid where statuses[i] is kOk).
  /// Returns kOk when the batch was *executed* (individual items may still
  /// fault — inspect `statuses` / fault_log()). No heap allocation, no
  /// thread creation.
  Status run(std::span<const float> inputs, std::span<float> outputs,
             std::span<Status> statuses,
             std::span<std::uint64_t> elapsed = {},
             std::span<float> taps = {}) noexcept;

  std::size_t workers() const noexcept { return pool_.size(); }
  std::size_t input_size() const noexcept { return in_size_; }
  std::size_t output_size() const noexcept { return out_size_; }
  /// Width of one item's tap (0 when the model has no Dense layer).
  std::size_t tap_size() const noexcept { return tap_size_; }
  std::size_t max_batch() const noexcept { return cfg_.max_batch; }

  /// Batches dispatched through run().
  std::uint64_t batch_count() const noexcept { return batches_; }
  /// Total items attempted across all batches.
  std::uint64_t item_count() const noexcept { return items_; }
  /// Sum of per-worker successful inferences (== Engine::run_count).
  std::uint64_t run_count() const noexcept;
  /// Sum of per-worker numeric-fault counts.
  std::uint64_t numeric_fault_count() const noexcept;

  /// Faulted items of the most recent batch, ascending batch index.
  std::span<const BatchFaultEvent> fault_log() const noexcept {
    return fault_log_;
  }

  /// Deterministic snapshot of worker `w` (partition-dependent only).
  BatchWorkerStats worker_stats(std::size_t w) const;

  /// The plan shared by every worker engine (nullptr when the resolved
  /// mode is kReference).
  const PlanEvidence* plan() const noexcept { return plan_.get(); }
  /// The worker engines' element type (kInt8 when built over a
  /// QuantizedModel).
  ElemType elem() const noexcept { return pool_.front().engine->elem(); }

  /// Total requantization clips across all workers (0 for float runners).
  /// Depends only on the inputs and the static partition, never on the
  /// schedule.
  std::uint64_t saturation_count() const noexcept;
  /// Adds each quantized layer's clip count (summed across workers) into
  /// `acc[layer]`; slots past the model's layer count are left untouched.
  /// No-op for float runners.
  void saturation_counts_into(std::span<std::uint64_t> acc) const noexcept;

  /// Wall-clock time of the most recent run() and total across runs (µs).
  double last_batch_micros() const noexcept { return last_micros_; }
  double total_wall_micros() const noexcept { return total_micros_; }
  /// Aggregate busy time across workers (approximates CPU time).
  double total_busy_micros() const noexcept;

 private:
  struct Worker {
    std::unique_ptr<Engine> engine;
    std::thread thread;
    std::uint64_t batches = 0;
    std::uint64_t items = 0;
    double busy_micros = 0.0;
  };

  /// Work descriptor for one dispatched batch (immutable during an epoch).
  struct Job {
    const float* inputs = nullptr;
    float* outputs = nullptr;
    Status* statuses = nullptr;
    std::uint64_t* elapsed = nullptr;  ///< per-item clock units (optional)
    float* taps = nullptr;             ///< per-item feature taps (optional)
    std::size_t count = 0;
  };

  /// Shared by both public constructors: argument checks, telemetry
  /// binding, fault-log reservation and the (engine-less) pool.
  BatchRunner(const Shape& in_shape, const Shape& out_shape,
              BatchRunnerConfig cfg);
  /// Plans the shared plan (unless the resolved mode is kReference), one
  /// engine per pool slot over it, then spawns one thread per slot.
  template <class Eng, class M, class Cfg>
  void start_pool(const M& model, const Cfg& engine_cfg);
  void worker_main(std::size_t w) noexcept;

  BatchRunnerConfig cfg_;
  Shape in_shape_{};
  std::size_t in_size_ = 0;
  std::size_t out_size_ = 0;
  std::size_t tap_layer_ = 0;  // dl::feature_layer of the model
  std::size_t tap_size_ = 0;

  // Declared before pool_: worker engines hold references into the plan,
  // so it must outlive them (members destroy in reverse order).
  std::unique_ptr<const PlanEvidence> plan_;
  std::vector<Worker> pool_;
  std::vector<BatchFaultEvent> fault_log_;  // reserved to max_batch

  mutable std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  Job job_{};
  std::uint64_t epoch_ = 0;
  std::size_t done_ = 0;
  bool stop_ = false;

  std::uint64_t batches_ = 0;
  std::uint64_t items_ = 0;
  double last_micros_ = 0.0;
  double total_micros_ = 0.0;

  obs::ClockFn clock_ = &obs::default_clock;
  obs::CounterId items_id_{};
  obs::CounterId faults_id_{};
};

}  // namespace sx::dl
