#include "dl/batch.hpp"

#include <chrono>
#include <stdexcept>

namespace sx::dl {
namespace {

double micros_between(std::chrono::steady_clock::time_point t0,
                      std::chrono::steady_clock::time_point t1) noexcept {
  return std::chrono::duration<double, std::micro>(t1 - t0).count();
}

}  // namespace

BatchRunner::BatchRunner(BatchRunnerConfig cfg) : registry_(cfg.registry) {
  if (cfg.workers == 0)
    throw std::invalid_argument("BatchRunner: workers must be >= 1");
  // Telemetry binding happens here, at configuration time, so no worker
  // ever touches the registry's registration path.
  if (registry_ != nullptr)
    items_id_ = registry_->counter("sx_batch_items_total");
  pool_.resize(cfg.workers);  // sxlint: allow(hot-path-alloc) configuration-time pool
  for (std::size_t w = 1; w < pool_.size(); ++w)
    pool_[w].thread = std::thread(&BatchRunner::worker_main, this, w);
}

BatchRunner::~BatchRunner() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (auto& w : pool_)
    if (w.thread.joinable()) w.thread.join();
}

void BatchRunner::run(std::size_t count, Job job) noexcept {
  if (count == 0) return;
  const auto t0 = std::chrono::steady_clock::now();
  // Items 1.. belong to other workers only when there are two or more
  // items and two or more workers.
  const bool dispatch = count > 1 && pool_.size() > 1;
  if (dispatch) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      job_ = job;
      count_ = count;
      done_ = 0;
      ++epoch_;
    }
    cv_work_.notify_all();
  }
  run_partition(0, job, count);
  if (dispatch) {
    std::unique_lock<std::mutex> lk(mu_);
    cv_done_.wait(lk, [&] { return done_ == pool_.size() - 1; });
  }
  ++batches_;
  items_ += count;
  total_micros_ += micros_between(t0, std::chrono::steady_clock::now());
}

void BatchRunner::run_partition(std::size_t w, Job job,
                                std::size_t count) noexcept {
  Worker& me = pool_[w];
  const auto t0 = std::chrono::steady_clock::now();
  // Static round-robin partition: worker w always owns items w, w+stride,
  // w+2*stride, ... in increasing order.
  const std::size_t stride = pool_.size();
  for (std::size_t i = w; i < count; i += stride) {
    job.fn(job.ctx, i);
    ++me.stats.items;
    if (registry_ != nullptr) registry_->add(items_id_);
  }
  me.stats.busy_micros +=
      micros_between(t0, std::chrono::steady_clock::now());
  ++me.stats.batches;
}

void BatchRunner::worker_main(std::size_t w) noexcept {
  std::uint64_t seen_epoch = 0;
  for (;;) {
    Job job;
    std::size_t count = 0;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_work_.wait(lk, [&] { return stop_ || epoch_ != seen_epoch; });
      if (stop_) return;
      seen_epoch = epoch_;
      job = job_;
      count = count_;
    }
    run_partition(w, job, count);
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (++done_ == pool_.size() - 1) cv_done_.notify_one();
    }
  }
}

BatchWorkerStats BatchRunner::worker_stats(std::size_t w) const {
  return pool_.at(w).stats;
}

double BatchRunner::total_busy_micros() const noexcept {
  double t = 0.0;
  for (const auto& w : pool_) t += w.stats.busy_micros;
  return t;
}

}  // namespace sx::dl
