// Deterministic parallel batch execution.
//
// BatchRunner is an engine-free static worker pool: it runs a per-item job
// over a batch while keeping the FUSA properties of the serial path. What
// the job runs (the pipeline runs one safety channel per worker) is the
// caller's business; the pool owns no engine, model or plan.
//
//   - a *static worker pool*: threads are spawned once at configuration
//     time; run() never creates a thread and never allocates;
//   - the caller runs partition 0 itself, so W workers need W-1 threads,
//     and a batch whose items all fall in partition 0 dispatches nothing;
//   - a *static round-robin partition*: item i is always executed by worker
//     i % workers(), in increasing i order within each worker. A job that
//     keeps per-worker state in slot i % workers() (a private engine or
//     channel) therefore never shares it across threads, and per-worker
//     counters depend only on the partition, never on the interleaving.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/registry.hpp"

namespace sx::dl {

struct BatchRunnerConfig {
  /// Partitions, the caller's included. Must be >= 1; spawns workers - 1
  /// threads.
  std::size_t workers = 1;
  /// Optional telemetry sink. When set, the runner registers
  /// sx_batch_items_total at configuration time and every worker adds its
  /// items to it (per-worker counts are in worker_stats()). Must outlive
  /// the runner.
  obs::Registry* registry = nullptr;
};

/// Deterministic per-worker observability counters.
struct BatchWorkerStats {
  std::uint64_t batches = 0;  ///< batches this worker took part in
  std::uint64_t items = 0;    ///< items it ran
  double busy_micros = 0.0;   ///< wall time inside its work loop
};

/// Static round-robin pool over a per-item job (see file comment).
class BatchRunner {
 public:
  /// A per-item job: fn(ctx, i) runs item i. Type-erased without
  /// allocation; ctx must stay valid for the run() it is passed to.
  struct Job {
    void (*fn)(void* ctx, std::size_t item) noexcept = nullptr;
    void* ctx = nullptr;
  };

  /// Spawns workers - 1 threads. Throws std::invalid_argument when
  /// workers is 0 (configuration-time API).
  explicit BatchRunner(BatchRunnerConfig cfg = {});
  ~BatchRunner();

  BatchRunner(const BatchRunner&) = delete;
  BatchRunner& operator=(const BatchRunner&) = delete;

  /// Runs job(i) for i in [0, count), item i on worker i % workers(); the
  /// caller runs worker 0's items. Returns when every item has run. No
  /// heap allocation, no thread creation. An empty batch is a no-op.
  void run(std::size_t count, Job job) noexcept;
  /// run() over a callable invoked as f(i); `f` must outlive the call.
  template <class F>
  void run(std::size_t count, F& f) noexcept {
    run(count, Job{[](void* ctx, std::size_t i) noexcept {
                     (*static_cast<F*>(ctx))(i);
                   },
                   const_cast<void*>(static_cast<const void*>(&f))});
  }

  std::size_t workers() const noexcept { return pool_.size(); }

  /// Batches run through run().
  std::uint64_t batch_count() const noexcept { return batches_; }
  /// Total items across all batches.
  std::uint64_t item_count() const noexcept { return items_; }

  /// Deterministic snapshot of worker `w` (partition-dependent only;
  /// std::out_of_range past workers()).
  BatchWorkerStats worker_stats(std::size_t w) const;

  /// Wall-clock time across runs (µs).
  double total_wall_micros() const noexcept { return total_micros_; }
  /// Aggregate busy time across workers (approximates CPU time).
  double total_busy_micros() const noexcept;

 private:
  struct Worker {
    std::thread thread;  ///< empty for worker 0 (the caller)
    BatchWorkerStats stats;
  };

  /// Runs worker w's partition of the current job.
  void run_partition(std::size_t w, Job job, std::size_t count) noexcept;
  void worker_main(std::size_t w) noexcept;

  std::vector<Worker> pool_;
  obs::Registry* registry_ = nullptr;
  obs::CounterId items_id_{};

  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  Job job_{};
  std::size_t count_ = 0;
  std::uint64_t epoch_ = 0;
  std::size_t done_ = 0;
  bool stop_ = false;

  std::uint64_t batches_ = 0;
  std::uint64_t items_ = 0;
  double total_micros_ = 0.0;
};

}  // namespace sx::dl
