// E11 — deterministic parallel batch inference (`bench_e11_batch_throughput`)
//
// Question: can the FUSA engine serve batches in parallel *without giving
// up determinism* — and what does the static worker pool buy in throughput
// over the serial StaticEngine loop?
//
// Method: a CNN frame burst is executed (a) serially by one StaticEngine,
// (b) by the engine-free BatchRunner at 1/2/4/8 workers, each worker
// running its own StaticEngine (item i on engine i % workers, the way the
// pipeline runs one safety channel per worker; the caller runs worker 0's
// items). For every configuration we record
// items/s and an fnv1a hash of the full output block plus the fault
// counters; the hashes must be identical everywhere — the parallel
// executor is required to be a bit-exact, schedule-independent drop-in.
// Host facts are printed first; every configuration is timed by
// bench::time_interleaved (warm-up, then rounds with the configurations
// interleaved; the median is reported).
//
// Usage: bench_e11_batch_throughput [--smoke] [--perf-gates]   (--smoke
// shrinks the load for CI label `bench-smoke`; its scaling verdicts are
// wall-clock ratios, gated only in full runs and under --perf-gates).
#include <algorithm>
#include <iomanip>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "dl/batch.hpp"
#include "dl/engine.hpp"
#include "util/hash.hpp"

namespace {

std::string hex64(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0') << v;
  return os.str();
}

/// One pool configuration: the runner and one engine per worker.
struct PoolConfig {
  PoolConfig(const sx::dl::Model& model, std::size_t workers)
      : runner({.workers = workers}) {
    for (std::size_t w = 0; w < workers; ++w)
      engines.push_back(std::make_unique<sx::dl::StaticEngine>(model));
  }
  std::uint64_t numeric_faults() const {
    std::uint64_t n = 0;
    for (const auto& e : engines) n += e->numeric_fault_count();
    return n;
  }
  sx::dl::BatchRunner runner;
  std::vector<std::unique_ptr<sx::dl::StaticEngine>> engines;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace sx;
  const bench::Args args = bench::parse_args(argc, argv);
  const bool smoke = args.smoke;

  bench::print_header(
      "E11: deterministic parallel batch inference",
      "Does the static worker pool scale throughput while staying bit-exact "
      "and schedule-independent?");

  bench::print_host_facts();
  const dl::Model& model = bench::trained_cnn();
  const std::size_t items = smoke ? 64 : 256;
  const std::size_t reps = smoke ? 3 : 10;
  const std::size_t in_size = model.input_shape().size();
  const std::size_t out_size = model.output_shape().size();

  // Frame burst staged once, reused by every configuration.
  const auto& ds = bench::road_data();
  std::vector<float> frames(items * in_size);
  for (std::size_t i = 0; i < items; ++i) {
    const auto src = ds.samples[i % ds.size()].input.data();
    std::copy(src.begin(), src.end(), frames.begin() + i * in_size);
  }
  std::vector<Status> statuses(items, Status::kOk);

  util::Table table({"config", "items/s", "speedup", "faults",
                     "output hash"});

  // Variant 0: the serial baseline, one StaticEngine, one item at a time;
  // variant 1 + k: BatchRunner at kWorkers[k] workers. All of them are
  // timed interleaved, each into its own output block.
  const std::size_t kWorkers[] = {1, 2, 4, 8};
  dl::StaticEngine serial{model};
  std::vector<std::unique_ptr<PoolConfig>> runners;
  for (const std::size_t workers : kWorkers)
    runners.push_back(std::make_unique<PoolConfig>(model, workers));
  std::vector<std::vector<float>> outputs(
      1 + runners.size(), std::vector<float>(items * out_size));
  const auto frame = [&](std::size_t i) {
    return tensor::ConstTensorView{
        std::span<const float>(frames).subspan(i * in_size, in_size),
        model.input_shape()};
  };
  const std::vector<bench::Timing> tm = bench::time_interleaved(
      outputs.size(), 1, reps, [&](std::size_t v) {
        if (v > 0) {
          PoolConfig& pc = *runners[v - 1];
          const auto job = [&](std::size_t i) noexcept {
            statuses[i] = pc.engines[i % pc.engines.size()]->run(
                frame(i), std::span<float>(outputs[v]).subspan(
                              i * out_size, out_size));
          };
          pc.runner.run(items, job);
          return;
        }
        for (std::size_t i = 0; i < items; ++i)
          (void)serial.run(
              frame(i), std::span<float>(outputs[0]).subspan(i * out_size,
                                                             out_size));
      });
  const double serial_us = tm[0].median_us;
  const std::uint64_t ref_hash =
      util::fnv1a(std::span<const float>(outputs[0]));
  const double serial_rate = static_cast<double>(items) / serial_us * 1e6;
  table.add_row({"serial StaticEngine", util::fmt(serial_rate, 0), "1.00x",
                 "0", hex64(ref_hash)});

  bool bit_exact = true;
  double speedup_at_4 = 0.0;
  for (std::size_t k = 0; k < runners.size(); ++k) {
    const PoolConfig& pc = *runners[k];
    const double us = tm[k + 1].median_us;
    const std::uint64_t h =
        util::fnv1a(std::span<const float>(outputs[k + 1]));
    bit_exact = bit_exact && h == ref_hash && pc.numeric_faults() == 0;
    const double rate = static_cast<double>(items) / us * 1e6;
    if (kWorkers[k] == 4) speedup_at_4 = serial_us / us;
    table.add_row({"batch x" + std::to_string(kWorkers[k]),
                   util::fmt(rate, 0), util::fmt(serial_us / us, 2) + "x",
                   std::to_string(pc.numeric_faults()), hex64(h)});
  }
  table.print(std::cout);
  std::cout << "\n";

  const unsigned hw = std::thread::hardware_concurrency();
  // The host's own ceiling for the scaling gate below, measured now.
  const bench::BusyLoopScaling host = bench::busy_loop_scaling();
  std::cout << "hardware threads: " << hw
            << "\nhost busy-loop scaling: 2 threads " << util::fmt(host.x2, 2)
            << "x, 4 threads " << util::fmt(host.x4, 2) << "x\n\n";

  bool all_ok = true;
  bench::print_verdict(bit_exact,
                       "batch outputs and fault counters are bit-identical "
                       "to the serial engine at every worker count");
  all_ok = all_ok && bit_exact;

  if (hw >= 4) {
    const bool scales = bench::timing_verdict(
        speedup_at_4 >= 2.0,
        "4 workers deliver >= 2x serial throughput (measured " +
            util::fmt(speedup_at_4, 2) + "x)",
        args);
    all_ok = all_ok && scales;
  } else {
    // On a single/dual-core host true parallel speedup is physically
    // unavailable; the load-bearing claim there is that the pool costs at
    // most a bounded coordination overhead.
    const bool bounded = bench::timing_verdict(
        speedup_at_4 >= 0.3,
        "host has < 4 hardware threads: scaling check skipped, pool "
        "overhead bounded (measured " +
            util::fmt(speedup_at_4, 2) + "x)",
        args);
    all_ok = all_ok && bounded;
  }
  return all_ok ? 0 : 1;
}
