// Shared fixtures for the experiment harnesses (E1..E10).
//
// Each bench binary regenerates one table/figure family from DESIGN.md's
// experiment index: it trains the standard models deterministically, runs
// the experiment, and prints an aligned ASCII table (and the qualitative
// "shape" verdicts the reproduction commits to).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dl/dataset.hpp"
#include "dl/model.hpp"
#include "dl/train.hpp"
#include "platform/cpu_probe.hpp"
#include "util/table.hpp"

namespace sx::bench {

inline const dl::Dataset& road_data() {
  static const dl::Dataset ds = dl::make_road_scene(600, /*seed=*/11);
  return ds;
}

inline const dl::Dataset& railway_data() {
  static const dl::Dataset ds = dl::make_railway_obstacle(400, /*seed=*/2);
  return ds;
}

inline const dl::Model& trained_mlp() {
  static const dl::Model model = [] {
    dl::ModelBuilder b{road_data().input_shape};
    b.flatten().dense(32).relu().dense(16).relu().dense(
        dl::kRoadSceneClasses);
    dl::Model m = b.build(5);
    dl::Trainer trainer{dl::TrainConfig{.learning_rate = 0.02,
                                        .momentum = 0.9,
                                        .epochs = 30,
                                        .batch_size = 16,
                                        .shuffle_seed = 3}};
    trainer.fit(m, road_data());
    return m;
  }();
  return model;
}

inline const dl::Model& trained_cnn() {
  static const dl::Model model = [] {
    dl::ModelBuilder b{road_data().input_shape};
    b.conv2d(4, 3, 1, 1).relu().maxpool(2).flatten().dense(24).relu().dense(
        dl::kRoadSceneClasses);
    dl::Model m = b.build(17);
    dl::Trainer trainer{dl::TrainConfig{.learning_rate = 0.02,
                                        .momentum = 0.9,
                                        .epochs = 12,
                                        .batch_size = 16,
                                        .shuffle_seed = 23}};
    trainer.fit(m, road_data());
    return m;
  }();
  return model;
}

/// Deployment-shaped perception CNN ("rung 3"): two 8-channel conv blocks
/// and dense32. The tiny fixture CNN spends most of each decision in the
/// fixed safety machinery (ODD scan, supervisor, SHA-256 audit append);
/// this one has the compute balance of the perception networks the
/// paper's case studies deploy.
inline const dl::Model& perception_cnn() {
  static const dl::Model model = [] {
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
  }();
  return model;
}

/// Wall-clock microseconds for `fn()` repeated `reps` times, per repetition.
template <typename Fn>
double time_per_call_us(Fn&& fn, std::size_t reps) {
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < reps; ++i) fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(t1 - t0).count() /
         static_cast<double>(reps);
}

/// One variant's per-call time under time_interleaved: the median over
/// rounds and the quartiles around it (the spread to quote with it).
struct Timing {
  double median_us = 0.0;
  double q1_us = 0.0;
  double q3_us = 0.0;
};

/// The shared timing protocol for comparing variants in one process:
/// `warmup` untimed rounds, then `reps` timed rounds; each round runs
/// every variant's `call(v)` `calls` times back to back, the variants in
/// turn, so a change in machine load hits all of them alike. Returns each
/// variant's median per-call time over the rounds, with its quartiles.
template <typename Call>
std::vector<Timing> time_interleaved(std::size_t variants, std::size_t calls,
                                     std::size_t reps, Call&& call,
                                     std::size_t warmup = 2) {
  std::vector<std::vector<double>> per(variants);
  for (std::size_t r = 0; r < warmup + reps; ++r)
    for (std::size_t v = 0; v < variants; ++v) {
      const double us = time_per_call_us([&] { call(v); }, calls);
      if (r >= warmup) per[v].push_back(us);
    }
  std::vector<Timing> out(variants);
  for (std::size_t v = 0; v < variants && reps > 0; ++v) {
    std::vector<double>& xs = per[v];
    std::sort(xs.begin(), xs.end());
    const auto at = [&xs](double q) {  // nearest rank
      const double pos = q * static_cast<double>(xs.size() - 1);
      return xs[static_cast<std::size_t>(pos + 0.5)];
    };
    out[v] = Timing{at(0.5), at(0.25), at(0.75)};
  }
  return out;
}

/// Host facts printed before any timing, as e2ebench prints them: the
/// core count, whether assertions are compiled out, and the deploy-time
/// probe with the kernel arm it selects (SX_KERNEL_ISA honoured).
inline void print_host_facts() {
#ifdef NDEBUG
  const char* build = "NDEBUG";
#else
  const char* build = "assertions";
#endif
  std::cout << "# host nproc=" << std::thread::hardware_concurrency()
            << " build=" << build << "\n# host "
            << platform::wide_isa_audit(platform::probe_cpu(),
                                        platform::select_wide_isa())
            << "\n\n";
}

/// Busy-loop scaling of this host, measured now: t threads each spin the
/// same fixed integer loop, and scaling(t) is t times the one-thread wall
/// time over the t-thread wall time (best of three rounds), for t = 1, 2
/// and 4. No parallel-speedup gate can beat these ratios; on a loaded or
/// throttled guest they fall well below t, and that is a host fact, not a
/// regression. Takes well under 0.2 s.
struct BusyLoopScaling {
  double x2 = 0.0;  ///< scaling at 2 threads (ideal 2)
  double x4 = 0.0;  ///< scaling at 4 threads (ideal 4)
};

inline BusyLoopScaling busy_loop_scaling() {
  const auto spin = [] {
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (std::uint32_t i = 0; i < (1u << 21); ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    volatile std::uint64_t sink = x;
    (void)sink;
  };
  const auto wall_us = [&](unsigned threads) {
    double best = 0.0;
    for (int round = 0; round < 3; ++round) {
      const auto t0 = std::chrono::steady_clock::now();
      std::vector<std::thread> pool;
      for (unsigned t = 1; t < threads; ++t) pool.emplace_back(spin);
      spin();
      for (std::thread& th : pool) th.join();
      const double us = std::chrono::duration<double, std::micro>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
      if (round == 0 || us < best) best = us;
    }
    return best;
  };
  const double one = wall_us(1);
  return BusyLoopScaling{.x2 = 2.0 * one / wall_us(2),
                         .x4 = 4.0 * one / wall_us(4)};
}

inline void print_header(const char* experiment, const char* question) {
  std::cout << "\n=== " << experiment << " ===\n" << question << "\n\n";
}

inline void print_verdict(bool holds, const std::string& claim) {
  std::cout << (holds ? "[SHAPE OK]   " : "[SHAPE FAIL] ") << claim << "\n";
}

/// Harness command line. `--smoke` shrinks the load. Wall-clock ratio
/// verdicts gate the exit code in a full run and under `--perf-gates`; a
/// plain `--smoke` run still prints them but gates only identity,
/// determinism and refusal, because a ratio of two timings read inside a
/// parallel test run measures the machine's load, not the code. The
/// `perf` ctest label runs `--smoke --perf-gates` serially.
struct Args {
  bool smoke = false;
  bool timing_gated = true;
};

inline Args parse_args(int argc, char** argv) {
  bool smoke = false, perf_gates = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    smoke = smoke || a == "--smoke";
    perf_gates = perf_gates || a == "--perf-gates";
  }
  return Args{.smoke = smoke, .timing_gated = !smoke || perf_gates};
}

/// Prints a wall-clock verdict. Gated, it is a [SHAPE] verdict and returns
/// `holds`; ungated, it is reported as [TIMING] and never fails the run.
inline bool timing_verdict(bool holds, const std::string& claim,
                           const Args& args) {
  if (args.timing_gated) {
    print_verdict(holds, claim);
    return holds;
  }
  std::cout << (holds ? "[TIMING OK]  " : "[TIMING LOW] ") << claim
            << " (not gated in --smoke; ctest -C Perf -L perf gates it)\n";
  return true;
}

/// Machine-readable harness results: scalar metrics accumulated during the
/// run and written as `BENCH_<id>.json` in the working directory, so CI can
/// diff the perf/arena trajectory across commits instead of scraping the
/// ASCII tables. The schema is deliberately flat:
///   {"experiment":"E14","smoke":false,"ok":true,"metrics":{name:value,..}}
class JsonResult {
 public:
  JsonResult(std::string id, bool smoke) : id_(std::move(id)), smoke_(smoke) {}

  void add(const std::string& key, double value) {
    metrics_.emplace_back(key, value);
  }

  /// Serializes and writes the file; returns false on IO failure so the
  /// harness can fold it into its own exit verdict.
  bool write(bool ok) const {
    const std::string path = "BENCH_" + id_ + ".json";
    std::ostringstream out;
    out << "{\"experiment\":\"" << id_
        << "\",\"smoke\":" << (smoke_ ? "true" : "false")
        << ",\"ok\":" << (ok ? "true" : "false") << ",\"metrics\":{";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      out << (i > 0 ? "," : "") << '"' << metrics_[i].first << "\":";
      std::ostringstream v;
      v.precision(12);
      v << metrics_[i].second;
      out << v.str();
    }
    out << "}}\n";
    std::ofstream f(path);
    f << out.str();
    f.flush();
    if (!f) {
      std::cerr << "bench: cannot write " << path << "\n";
      return false;
    }
    std::cout << "machine-readable results: " << path << "\n";
    return true;
  }

 private:
  std::string id_;
  bool smoke_;
  std::vector<std::pair<std::string, double>> metrics_;
};

}  // namespace sx::bench
