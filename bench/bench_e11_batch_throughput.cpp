// E11 — deterministic parallel batch inference (`bench_e11_batch_throughput`)
//
// Question: can the FUSA engine serve batches in parallel *without giving
// up determinism* — and what does the static worker pool buy in throughput
// over the serial StaticEngine loop?
//
// Method: a CNN frame burst is executed (a) serially by one StaticEngine,
// (b) by BatchRunner at 1/2/4/8 workers. For every configuration we record
// items/s and an fnv1a hash of the full output block plus the fault
// counters; the hashes must be identical everywhere — the parallel
// executor is required to be a bit-exact, schedule-independent drop-in.
//
// Usage: bench_e11_batch_throughput [--smoke] [--perf-gates]   (--smoke
// shrinks the load for CI label `bench-smoke`; its scaling verdicts are
// wall-clock ratios, gated only in full runs and under --perf-gates).
#include <algorithm>
#include <iomanip>
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

}  // namespace

int main(int argc, char** argv) {
  using namespace sx;
  const bench::Args args = bench::parse_args(argc, argv);
  const bool smoke = args.smoke;

  bench::print_header(
      "E11: deterministic parallel batch inference",
      "Does the static worker pool scale throughput while staying bit-exact "
      "and schedule-independent?");

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
  std::vector<float> outputs(items * out_size);
  std::vector<Status> statuses(items, Status::kOk);

  util::Table table({"config", "items/s", "speedup", "faults",
                     "output hash"});

  // Serial baseline: one StaticEngine, one item at a time.
  dl::StaticEngine serial{model};
  double serial_us = 1e300;
  for (std::size_t r = 0; r < reps; ++r) {
    const double us = bench::time_per_call_us(
        [&] {
          for (std::size_t i = 0; i < items; ++i) {
            const tensor::ConstTensorView in{
                std::span<const float>(frames).subspan(i * in_size, in_size),
                model.input_shape()};
            (void)serial.run(in, std::span<float>(outputs)
                                     .subspan(i * out_size, out_size));
          }
        },
        1);
    serial_us = std::min(serial_us, us);
  }
  const std::uint64_t ref_hash =
      util::fnv1a(std::span<const float>(outputs));
  const double serial_rate = static_cast<double>(items) / serial_us * 1e6;
  table.add_row({"serial StaticEngine", util::fmt(serial_rate, 0), "1.00x",
                 "0", hex64(ref_hash)});

  bool bit_exact = true;
  double speedup_at_4 = 0.0;
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    dl::BatchRunner runner{
        model, dl::BatchRunnerConfig{.workers = workers}};
    std::fill(outputs.begin(), outputs.end(), 0.0f);
    double best_us = 1e300;
    for (std::size_t r = 0; r < reps; ++r) {
      const double us = bench::time_per_call_us(
          [&] { (void)runner.run(frames, outputs, statuses); }, 1);
      best_us = std::min(best_us, us);
    }
    const std::uint64_t h = util::fnv1a(std::span<const float>(outputs));
    bit_exact = bit_exact && h == ref_hash &&
                runner.numeric_fault_count() == 0;
    const double rate = static_cast<double>(items) / best_us * 1e6;
    if (workers == 4) speedup_at_4 = serial_us / best_us;
    table.add_row({"batch x" + std::to_string(workers),
                   util::fmt(rate, 0),
                   util::fmt(serial_us / best_us, 2) + "x",
                   std::to_string(runner.numeric_fault_count()),
                   hex64(h)});
  }
  table.print(std::cout);
  std::cout << "\n";

  const unsigned hw = std::thread::hardware_concurrency();
  std::cout << "hardware threads: " << hw << "\n\n";

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
