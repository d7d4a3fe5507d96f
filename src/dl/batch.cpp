#include "dl/batch.hpp"

#include <chrono>
#include <stdexcept>

namespace sx::dl {
namespace {

double micros_between(std::chrono::steady_clock::time_point t0,
                      std::chrono::steady_clock::time_point t1) noexcept {
  return std::chrono::duration<double, std::micro>(t1 - t0).count();
}

/// The plan every worker shares; the float plan pins the feature layer.
std::unique_ptr<KernelPlan> shared_plan(const Model& model,
                                        std::size_t tap_layer) {
  return std::make_unique<KernelPlan>(model, tap_layer);  // sxlint: allow(hot-path-alloc) configuration-time shared plan
}
std::unique_ptr<QuantKernelPlan> shared_plan(const QuantizedModel& model,
                                             std::size_t /*tap_layer*/) {
  return std::make_unique<QuantKernelPlan>(model);  // sxlint: allow(hot-path-alloc) configuration-time shared plan
}

}  // namespace

BatchRunner::BatchRunner(const Shape& in_shape, const Shape& out_shape,
                         BatchRunnerConfig cfg)
    : cfg_(cfg),
      in_shape_(in_shape),
      in_size_(in_shape.size()),
      out_size_(out_shape.size()) {
  if (cfg_.workers == 0)
    throw std::invalid_argument("BatchRunner: workers must be >= 1");
  if (cfg_.max_batch == 0)
    throw std::invalid_argument("BatchRunner: max_batch must be >= 1");

  fault_log_.reserve(cfg_.max_batch);  // sxlint: allow(hot-path-alloc) configuration-time fault-log storage

  // Telemetry binding happens here, at configuration time, so no worker
  // ever touches the registry's registration path.
  if (cfg_.registry != nullptr) {
    items_id_ = cfg_.registry->counter("sx_batch_items_total");
    faults_id_ = cfg_.registry->counter("sx_batch_numeric_faults_total");
    clock_ = cfg_.registry->config().clock;
  }
  pool_.resize(cfg_.workers);  // sxlint: allow(hot-path-alloc) configuration-time pool
}

BatchRunner::BatchRunner(const Model& model, BatchRunnerConfig cfg)
    : BatchRunner(model.input_shape(), model.output_shape(), cfg) {
  start_pool<StaticEngine>(
      model,
      StaticEngineConfig{.check_numeric_faults = cfg_.check_numeric_faults,
                         .arena_slack = cfg_.arena_slack,
                         .kernels = cfg_.kernels});
}

BatchRunner::BatchRunner(const QuantizedModel& model, BatchRunnerConfig cfg)
    : BatchRunner(model.input_shape(), model.output_shape(), cfg) {
  if (model.layer_count() == 0)
    throw std::invalid_argument("BatchRunner: quantized model is empty");
  start_pool<QuantEngine>(
      model, QuantEngineConfig{.arena_slack = cfg_.arena_slack,
                               .kernels = cfg_.kernels});
}

template <class Eng, class M, class Cfg>
void BatchRunner::start_pool(const M& model, const Cfg& engine_cfg) {
  // Plan every arena before any thread exists: all allocation happens here,
  // at configuration time. One plan is built once and shared read-only by
  // every worker engine (its Dense weight panels are immutable on the hot
  // path); each worker's arena and counters stay its own,
  // so workers never share a mutable buffer.
  tap_layer_ = feature_layer(model);
  tap_size_ = feature_width(model);
  auto plan = resolve_kernel_mode(cfg_.kernels) != KernelMode::kReference
                  ? shared_plan(model, tap_layer_)
                  : nullptr;
  for (auto& w : pool_)
    w.engine = plan != nullptr
                   ? std::make_unique<Eng>(model, *plan, engine_cfg)  // sxlint: allow(hot-path-alloc) configuration-time worker engine
                   : std::make_unique<Eng>(model, engine_cfg);  // sxlint: allow(hot-path-alloc) configuration-time worker engine
  plan_ = std::move(plan);
  for (std::size_t i = 0; i < pool_.size(); ++i)
    pool_[i].thread = std::thread(&BatchRunner::worker_main, this, i);
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

Status BatchRunner::run(std::span<const float> inputs,
                        std::span<float> outputs,
                        std::span<Status> statuses,
                        std::span<std::uint64_t> elapsed,
                        std::span<float> taps) noexcept {
  const std::size_t count = statuses.size();
  if (count > cfg_.max_batch) return Status::kInvalidArgument;
  if (inputs.size() != count * in_size_ ||
      outputs.size() != count * out_size_)
    return Status::kShapeMismatch;
  if (!elapsed.empty() && elapsed.size() != count)
    return Status::kInvalidArgument;
  if (!taps.empty() && (tap_size_ == 0 || taps.size() != count * tap_size_))
    return Status::kShapeMismatch;
  fault_log_.clear();
  if (count == 0) return Status::kOk;

  const auto t0 = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lk(mu_);
    job_ = Job{inputs.data(), outputs.data(), statuses.data(),
               elapsed.empty() ? nullptr : elapsed.data(),
               taps.empty() ? nullptr : taps.data(), count};
    done_ = 0;
    ++epoch_;
  }
  cv_work_.notify_all();
  {
    std::unique_lock<std::mutex> lk(mu_);
    cv_done_.wait(lk, [&] { return done_ == pool_.size(); });
  }
  const auto t1 = std::chrono::steady_clock::now();

  // Rebuild the fault log from the per-item statuses, in batch-index order:
  // trivially identical across worker counts and thread schedules.
  // count <= max_batch, the capacity reserved at configuration time, so
  // the append never reallocates.
  for (std::size_t i = 0; i < count; ++i)
    if (!ok(statuses[i]))
      fault_log_.push_back(BatchFaultEvent{i, statuses[i]});  // sxlint: allow(hot-path-alloc) within reserved capacity

  ++batches_;
  items_ += count;
  last_micros_ = micros_between(t0, t1);
  total_micros_ += last_micros_;
  return Status::kOk;
}

void BatchRunner::worker_main(std::size_t w) noexcept {
  std::uint64_t seen_epoch = 0;
  const std::size_t stride = pool_.size();
  Worker& me = pool_[w];
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_work_.wait(lk, [&] { return stop_ || epoch_ != seen_epoch; });
      if (stop_) return;
      seen_epoch = epoch_;
      job = job_;
    }

    const auto t0 = std::chrono::steady_clock::now();
    // Static round-robin partition: this worker always owns items
    // w, w+stride, w+2*stride, ... in increasing order.
    obs::Registry* const obs = cfg_.registry;
    for (std::size_t i = w; i < job.count; i += stride) {
      const tensor::ConstTensorView in{
          std::span<const float>(job.inputs + i * in_size_, in_size_),
          in_shape_};
      const std::span<float> out{job.outputs + i * out_size_, out_size_};
      // The item's tap sits in its own batch-indexed slot, like its logits.
      const auto infer = [&] {
        return job.taps == nullptr
                   ? me.engine->run(in, out)
                   : me.engine->run_tapped(
                         in, out, tap_layer_,
                         {job.taps + i * tap_size_, tap_size_});
      };
      if (job.elapsed != nullptr) {
        // Per-item timing lands in the batch-indexed slot; the caller
        // consumes it serially, so histogram order is schedule-free.
        const std::uint64_t c0 = clock_();
        job.statuses[i] = infer();
        const std::uint64_t c1 = clock_();
        job.elapsed[i] = c1 >= c0 ? c1 - c0 : 0;
      } else {
        job.statuses[i] = infer();
      }
      ++me.items;
      if (obs != nullptr) {
        obs->add(items_id_, 1, w);
        if (!ok(job.statuses[i])) obs->add(faults_id_, 1, w);
      }
    }
    const auto t1 = std::chrono::steady_clock::now();
    me.busy_micros += micros_between(t0, t1);
    ++me.batches;

    {
      std::lock_guard<std::mutex> lk(mu_);
      if (++done_ == pool_.size()) cv_done_.notify_one();
    }
  }
}

std::uint64_t BatchRunner::run_count() const noexcept {
  std::uint64_t n = 0;
  for (const auto& w : pool_) n += w.engine->run_count();
  return n;
}

std::uint64_t BatchRunner::numeric_fault_count() const noexcept {
  std::uint64_t n = 0;
  for (const auto& w : pool_) n += w.engine->numeric_fault_count();
  return n;
}

std::uint64_t BatchRunner::saturation_count() const noexcept {
  std::uint64_t n = 0;
  for (const auto& w : pool_) n += w.engine->saturation_total();
  return n;
}

void BatchRunner::saturation_counts_into(
    std::span<std::uint64_t> acc) const noexcept {
  for (const auto& w : pool_) {
    const auto cs = w.engine->saturation_counts();
    const std::size_t n = cs.size() < acc.size() ? cs.size() : acc.size();
    for (std::size_t i = 0; i < n; ++i) acc[i] += cs[i];
  }
}

BatchWorkerStats BatchRunner::worker_stats(std::size_t w) const {
  const Worker& src = pool_.at(w);
  BatchWorkerStats s;
  s.batches = src.batches;
  s.items = src.items;
  s.runs = src.engine->run_count();
  s.faults = src.engine->numeric_fault_count();
  s.arena_high_water_mark = src.engine->arena_high_water_mark();
  s.arena_capacity = src.engine->arena_capacity();
  s.busy_micros = src.busy_micros;
  return s;
}

double BatchRunner::total_busy_micros() const noexcept {
  double t = 0.0;
  for (const auto& w : pool_) t += w.busy_micros;
  return t;
}

}  // namespace sx::dl
