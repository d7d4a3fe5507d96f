// E19 — wide-SIMD kernel backends (`bench_e19_wide_kernels`)
//
// Question: how much do the SIMD lane arms of the wide kernel family
// (8/16-lane float panels; vpmaddwd, vpdpbusd and vpdpwssd int8 dot
// products) buy
// over the family's portable scalar arm — while every arm still matches
// the reference bit for bit (the float accumulation tree; the exact int32
// sums)? The FUSA rule is unchanged from E14/E15: an optimization may
// change timing only, never a single output bit or clip counter.
//
// Method: host facts and the deploy-time CPU probe are printed first (the
// same platform::wide_isa_audit line the pipeline records), then four
// rungs, each timed by bench::time_interleaved (warm-up, then rounds with
// the arms interleaved so transient machine load hits all alike; the
// median per call is reported):
//   1. float matvec at 128/192/256/512 (the 128/192 panels are
//      L1/L2-resident, where lane width shows up undiluted by memory):
//      matvec_wide_{scalar,avx2,avx512};
//   2. float direct Conv2d on 16- and 32-channel geometries:
//      conv2d_direct_*;
//   3. int8 matvec at the same sizes: qmatvec_wide_* on every probed
//      int8 arm — scalar, avx2 and avx512bw (vpmaddwd), avx512vnni
//      (vpdpbusd) — one row per arm (saturation counters compared as well
//      as output bytes);
//   4. int8 direct Conv2d on the perception CNN's 8-channel conv (a
//      16-wide map) and a 32-channel conv on a 12-wide map:
//      qconv2d_direct_*, one row per int8 arm, against the reference
//      QuantizedModel::apply_layer loop as the 1.00x baseline.
// Every rung first proves every arm bitwise identical to a reference
// loop (tensor::matvec, Conv2d::forward, the int8 Dense loop, or
// QuantizedModel::apply_layer).
//
// Gate: geomean speedup over the scalar arm across the dense micro sizes
// must reach >= 2x on at least one probed SIMD lane family (float avx2 or
// avx512; int8 avx2, avx512bw or avx512vnni). On hardware with no wide lanes the SIMD
// entry points *are* the scalar arm, so the gate is vacuous there and
// says so.
//
// Usage: bench_e19_wide_kernels [--smoke] [--perf-gates]   (--smoke
// shrinks the load for CI label `bench-smoke`; the geomean gate is a
// wall-clock ratio, gated only in full runs and under --perf-gates).
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "dl/layers.hpp"
#include "dl/quant.hpp"
#include "platform/cpu_probe.hpp"
#include "tensor/kernels.hpp"
#include "tensor/ops.hpp"
#include "tensor/qkernels.hpp"
#include "util/rng.hpp"

namespace {

namespace k = sx::tensor::kernels;
namespace qk = sx::tensor::qkernels;

bool bits_equal(const std::vector<float>& a, const std::vector<float>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::bit_cast<std::uint32_t>(a[i]) !=
        std::bit_cast<std::uint32_t>(b[i]))
      return false;
  return true;
}

/// The float lane arms the probe confirmed on this machine, scalar arm
/// first (the timing baseline; never gated).
struct IsaRow {
  std::string name;
  k::DenseKernelFn dense;
  k::ConvKernelFn conv;
};

std::vector<IsaRow> probed_rows(const sx::platform::CpuProbe& probe) {
  std::vector<IsaRow> rows;
  auto row = [](k::WideIsa isa) {
    return IsaRow{k::wide_isa_name(isa), k::wide_dense_kernel(isa),
                  k::wide_conv_kernel(isa)};
  };
  rows.push_back(row(k::WideIsa::kScalar));
  if (probe.avx2) rows.push_back(row(k::WideIsa::kAvx2));
  if (probe.avx512f) rows.push_back(row(k::WideIsa::kAvx512));
  return rows;
}

/// The int8 arms every SX_KERNEL_ISA spelling the probe honors selects —
/// VNNI refused (avx512-novnni: vpmaddwd) as well as allowed — scalar
/// first.
struct QRow {
  std::string name;
  qk::QDenseKernelFn qdense;
  qk::QConvKernelFn qconv;
};

std::vector<QRow> probed_qrows(const sx::platform::CpuProbe& probe) {
  std::vector<QRow> rows;
  for (const char* env : {"scalar", "avx2", "avx512-novnni", "avx512"}) {
    const sx::platform::WideIsaSelection s =
        sx::platform::select_wide_isa(probe, env);
    const std::string name = qk::qarm_name(s.int8);
    if (s.refused ||
        std::any_of(rows.begin(), rows.end(),
                    [&](const QRow& r) { return r.name == name; }))
      continue;
    rows.push_back(QRow{name, qk::wide_qdense_kernel(s.int8),
                        qk::wide_qconv_kernel(s.int8)});
  }
  return rows;
}

double geomean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : xs) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(xs.size()));
}

/// Times every arm with `call(i)` (i indexes rows) under the shared
/// interleaved protocol; returns each arm's median us per call.
template <typename Call>
std::vector<double> time_arms(std::size_t arms, std::size_t reps,
                              std::size_t calls, Call call) {
  std::vector<double> t;
  for (const sx::bench::Timing& m :
       sx::bench::time_interleaved(arms, calls, reps, call))
    t.push_back(m.median_us);
  return t;
}

/// Fastest SIMD arm (the scalar arm when none was probed).
std::size_t best_arm(const std::vector<double>& t) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < t.size(); ++i)
    if (best == 0 || t[i] < t[best]) best = i;
  return best;
}

/// One int8 matvec reference row loop (dl/quant.cpp's Dense loop).
std::vector<std::int8_t> qmatvec_reference(const std::vector<std::int8_t>& w,
                                           std::size_t n,
                                           const std::vector<std::int8_t>& x,
                                           const qk::Requant& rq,
                                           std::uint64_t* sat) {
  std::vector<std::int8_t> out(n);
  for (std::size_t r = 0; r < n; ++r) {
    std::int32_t acc = 0;
    for (std::size_t c = 0; c < n; ++c)
      acc += static_cast<std::int32_t>(w[r * n + c]) *
             static_cast<std::int32_t>(x[c]);
    out[r] = qk::requantize(acc, r, rq, sat);
  }
  return out;
}

/// One table row: the scalar arm's time, the best SIMD arm's, its name
/// and speedup.
template <typename Row>
void add_row(sx::util::Table& table, const std::string& label,
             const std::vector<double>& t, const std::vector<Row>& rows) {
  const std::size_t best = best_arm(t);
  table.add_row({label, sx::util::fmt(t[0], 2), sx::util::fmt(t[best], 2),
                 rows[best].name, sx::util::fmt(t[0] / t[best], 2) + "x"});
}

/// One table row per int8 arm: its time and speedup over the scalar arm.
void add_arm_rows(sx::util::Table& table, const std::string& label,
                  const std::vector<double>& t,
                  const std::vector<QRow>& rows) {
  for (std::size_t i = 0; i < rows.size(); ++i)
    table.add_row({i == 0 ? label : "", rows[i].name,
                   sx::util::fmt(t[i], 2),
                   sx::util::fmt(t[0] / t[i], 2) + "x"});
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sx;
  const bench::Args args = bench::parse_args(argc, argv);
  const bool smoke = args.smoke;

  bench::print_header(
      "E19: wide-SIMD kernel backends",
      "What do the SIMD lane arms (8/16-lane float panels, vpmaddwd and "
      "vpdpbusd int8 dot products) buy over the wide family's scalar arm — "
      "at bitwise-identical outputs and clip counters?");

  bench::print_host_facts();
  bool all_ok = true;
  bench::JsonResult json{"E19", smoke};

  // ------------------------------------------------- 0. deploy-time probe
  const platform::CpuProbe probe = platform::probe_cpu();
  const platform::WideIsaSelection sel = platform::select_wide_isa();
  std::cout << "deploy-time selection: "
            << platform::wide_isa_audit(probe, sel) << "\n\n";
  json.add("probe_avx2", probe.avx2 ? 1.0 : 0.0);
  json.add("probe_avx512f", probe.avx512f ? 1.0 : 0.0);
  json.add("probe_avx512bw", probe.avx512bw ? 1.0 : 0.0);
  json.add("probe_avx512_vnni", probe.avx512_vnni ? 1.0 : 0.0);
  const std::vector<IsaRow> rows = probed_rows(probe);
  const std::vector<QRow> qrows = probed_qrows(probe);
  const bool has_simd = probe.avx2 || probe.avx512f;

  const std::vector<std::size_t> sizes = {128, 192, 256, 512};
  const std::size_t calls = smoke ? 20 : 50;
  const std::size_t reps = smoke ? 8 : 20;
  // Per-arm geomean inputs: dense float / dense int8 speedups over the
  // scalar arm.
  std::vector<std::vector<double>> f_speedups(rows.size());
  std::vector<std::vector<double>> q_speedups(qrows.size());
  auto record = [&](const std::string& tag, const std::vector<double>& t) {
    for (std::size_t i = 0; i < rows.size(); ++i)
      json.add(tag + "_us_wide_" + rows[i].name, t[i]);
  };
  auto record_q = [&](const std::string& tag, const std::vector<double>& t) {
    for (std::size_t i = 0; i < qrows.size(); ++i)
      json.add(tag + "_us_wide_" + qrows[i].name, t[i]);
  };
  const std::vector<std::string> qcols = {"", "int8 arm", "us", "speedup"};
  const std::vector<std::string> cols = {"", "scalar us", "wide us (best)",
                                         "isa", "speedup"};
  auto header = [&](const std::string& first) {
    std::vector<std::string> h = cols;
    h[0] = first;
    return util::Table(h);
  };

  // ------------------------------------------- 1. float matvec micro
  {
    bool identical = true;
    util::Table table = header("float matvec");
    for (std::size_t n : sizes) {
      tensor::Tensor w{tensor::Shape::mat(n, n)};
      tensor::Tensor x{tensor::Shape::vec(n)};
      tensor::Tensor b{tensor::Shape::vec(n)};
      util::Xoshiro256 rng{n};
      w.init_uniform(rng, -1, 1);
      x.init_uniform(rng, -1, 1);
      b.init_uniform(rng, -1, 1);

      std::vector<float> ref(n), wide(n);
      std::vector<float> panel(k::wide_dense_panel_floats(n, n));
      k::pack_wide_dense_panel(w.data().data(), n, n, panel.data());
      (void)tensor::matvec(w.view(), x.view(), b.view(),
                           tensor::TensorView{ref, tensor::Shape::vec(n)});
      auto call = [&](std::size_t i) {
        (void)rows[i].dense(panel.data(), b.data().data(), n, n,
                            x.data().data(), wide.data(), k::Epilogue::kNone,
                            false);
      };
      for (std::size_t i = 0; i < rows.size(); ++i) {
        call(i);
        identical = identical && bits_equal(wide, ref);
      }

      const std::vector<double> t = time_arms(rows.size(), reps, calls, call);
      for (std::size_t i = 0; i < rows.size(); ++i)
        f_speedups[i].push_back(t[0] / t[i]);
      record("matvec" + std::to_string(n), t);
      add_row(table, std::to_string(n) + "x" + std::to_string(n), t, rows);
    }
    table.print(std::cout);
    std::cout << "\n";
    bench::print_verdict(identical,
                         "float matvec: every probed wide arm is bitwise "
                         "identical to tensor::matvec at all sizes");
    all_ok = all_ok && identical;
  }

  // ------------------------------------------- 2. float direct Conv2d
  {
    struct Geom {
      std::size_t out_c, in_c, hw;
    };
    const std::vector<Geom> geoms = {{16, 8, 16}, {32, 16, 12}};
    bool identical = true;
    util::Table table = header("float conv2d 3x3");
    for (const Geom& gm : geoms) {
      const k::Conv2dGeom g{.in_c = gm.in_c, .in_h = gm.hw, .in_w = gm.hw,
                            .out_c = gm.out_c, .k = 3, .stride = 1,
                            .pad = 1};
      dl::Conv2d layer{gm.in_c, gm.out_c, 3, 1, 1};
      util::Xoshiro256 rng{gm.out_c};
      for (auto& v : layer.params())
        v = static_cast<float>(rng() % 2001) * 1e-3f - 1.0f;
      tensor::Tensor in{tensor::Shape::chw(gm.in_c, gm.hw, gm.hw)};
      for (auto& v : in.data())
        v = static_cast<float>(rng() % 2001) * 1e-3f - 1.0f;

      const tensor::Shape os = layer.output_shape(in.shape());
      std::vector<float> ref(os.size()), wide(os.size());
      (void)layer.forward(in.view(), tensor::TensorView{ref, os});
      auto call = [&](std::size_t i) {
        (void)rows[i].conv(layer.weights().data(), layer.bias().data(), g,
                           in.data().data(), wide.data(), k::Epilogue::kNone,
                           false);
      };
      for (std::size_t i = 0; i < rows.size(); ++i) {
        call(i);
        identical = identical && bits_equal(wide, ref);
      }

      const std::vector<double> tm = time_arms(rows.size(), reps, calls, call);
      const std::string tag = "conv" + std::to_string(gm.out_c) + "c";
      record(tag, tm);
      json.add(tag + "_speedup", tm[0] / tm[best_arm(tm)]);
      add_row(table,
              std::to_string(gm.out_c) + "ch " + std::to_string(gm.in_c) +
                  "x" + std::to_string(gm.hw) + "x" + std::to_string(gm.hw),
              tm, rows);
    }
    table.print(std::cout);
    std::cout << "\n";
    bench::print_verdict(identical,
                         "float conv2d: every probed wide arm is bitwise "
                         "identical to Conv2d::forward on 16- and "
                         "32-channel geometries");
    all_ok = all_ok && identical;
  }

  // ------------------------------------------------ 3. int8 matvec micro
  {
    bool identical = true;
    std::vector<std::string> h = qcols;
    h[0] = "int8 matvec";
    util::Table table{h};
    for (std::size_t n : sizes) {
      std::vector<std::int8_t> w(n * n), x(n);
      util::Xoshiro256 rng{n + 7};
      for (auto& v : w)
        v = static_cast<std::int8_t>(static_cast<int>(rng() % 255) - 127);
      for (auto& v : x)
        v = static_cast<std::int8_t>(static_cast<int>(rng() % 255) - 127);
      std::vector<float> w_scale(n, 0.004f), bias(n);
      for (std::size_t i = 0; i < n; ++i)
        bias[i] = 0.01f * static_cast<float>(i % 17) - 0.08f;
      const qk::Requant rq{.w_scales = w_scale.data(),
                           .per_channel = true,
                           .bias = bias.data(),
                           .in_scale = 0.02f,
                           .out_scale = 0.05f,
                           .relu = false};

      std::vector<std::int8_t> wide(n);
      std::vector<std::int8_t> panel(qk::qwide_dense_panel_bytes(n, n));
      qk::pack_qwide_dense_panel(w.data(), n, n, panel.data());
      std::uint64_t sat_ref = 0, sat_wide = 0;
      const std::vector<std::int8_t> ref =
          qmatvec_reference(w, n, x, rq, &sat_ref);
      auto call = [&](std::size_t i) {
        qrows[i].qdense(panel.data(), n, n, x.data(), rq, wide.data(),
                        &sat_wide);
      };
      for (std::size_t i = 0; i < qrows.size(); ++i) {
        sat_wide = 0;
        call(i);
        identical = identical && wide == ref && sat_wide == sat_ref;
      }

      const std::vector<double> t =
          time_arms(qrows.size(), reps, calls, call);
      for (std::size_t i = 0; i < qrows.size(); ++i)
        q_speedups[i].push_back(t[0] / t[i]);
      record_q("qmatvec" + std::to_string(n), t);
      add_arm_rows(table, std::to_string(n) + "x" + std::to_string(n), t,
                   qrows);
    }
    table.print(std::cout);
    std::cout << "\n";
    bench::print_verdict(identical,
                         "int8 matvec: every probed wide arm matches the "
                         "reference loop byte for byte at all sizes, clip "
                         "counters included");
    all_ok = all_ok && identical;
  }

  // ---------------------------------------------- 4. int8 direct Conv2d
  {
    struct Geom {
      std::size_t out_c, in_c, hw;
    };
    // The rung-3 perception CNN's second conv (E14/E15) on its 16-wide
    // map, and a 12-wide map that leaves 4 of 16 avx512 lanes idle.
    const std::vector<Geom> geoms = {{8, 8, 16}, {32, 16, 12}};
    bool identical = true;
    std::vector<std::string> h = qcols;
    h[0] = "int8 conv2d 3x3";
    util::Table table{h};
    for (const Geom& gm : geoms) {
      const k::Conv2dGeom g{.in_c = gm.in_c, .in_h = gm.hw, .in_w = gm.hw,
                            .out_c = gm.out_c, .k = 3, .stride = 1,
                            .pad = 1};
      const tensor::Shape in_shape =
          tensor::Shape::chw(gm.in_c, gm.hw, gm.hw);
      dl::ModelBuilder b{in_shape};
      b.conv2d(gm.out_c, 3, 1, 1).relu();
      dl::Dataset cal;
      cal.num_classes = 1;
      cal.input_shape = in_shape;
      util::Xoshiro256 rng{88 + gm.out_c};
      for (int i = 0; i < 4; ++i) {
        dl::Sample smp;
        smp.input = tensor::Tensor{in_shape};
        smp.input.init_uniform(rng, -1.0f, 1.0f);
        cal.samples.push_back(std::move(smp));
      }
      dl::QuantizedModel qm =
          dl::QuantizedModel::quantize(b.build(gm.out_c), cal);
      for (auto& v : qm.mutable_weights(0))
        v = static_cast<std::int8_t>(static_cast<int>(rng() % 255) - 127);
      std::vector<std::int8_t> in(in_shape.size());
      for (auto& v : in)
        v = static_cast<std::int8_t>(static_cast<int>(rng() % 255) - 127);
      const dl::QuantizedModel::QLayerView v = qm.layer_view(0);
      const qk::Requant rq{.w_scales = v.w_scales.data(),
                           .per_channel = v.w_scales.size() > 1,
                           .bias = v.bias.data(),
                           .in_scale = qm.input_scale(),
                           .out_scale = v.out_scale,
                           .relu = false};

      const std::size_t n = g.out_c * g.opix();
      std::vector<std::int8_t> ref(n), wide(n);
      std::uint64_t sat_ref = 0, sat_wide = 0;
      (void)qm.apply_layer(0, in, ref, &sat_ref);
      // Variant 0 is the reference loop, variant i + 1 the int8 arm i.
      auto call = [&](std::size_t i) {
        if (i == 0)
          (void)qm.apply_layer(0, in, wide, &sat_wide);
        else
          qrows[i - 1].qconv(v.weights.data(), g, in.data(), rq,
                             wide.data(), &sat_wide);
      };
      for (std::size_t i = 1; i <= qrows.size(); ++i) {
        sat_wide = 0;
        call(i);
        identical = identical && wide == ref && sat_wide == sat_ref;
      }

      const std::vector<double> tm =
          time_arms(qrows.size() + 1, reps, calls, call);
      const std::string tag = "qconv" + std::to_string(gm.out_c) + "c";
      json.add(tag + "_us_reference", tm[0]);
      for (std::size_t i = 0; i < qrows.size(); ++i)
        json.add(tag + "_us_wide_" + qrows[i].name, tm[i + 1]);
      json.add(tag + "_speedup",
               tm[0] / *std::min_element(tm.begin() + 1, tm.end()));
      const std::string label =
          std::to_string(gm.out_c) + "ch " + std::to_string(gm.in_c) + "x" +
          std::to_string(gm.hw) + "x" + std::to_string(gm.hw);
      table.add_row({label, "reference", util::fmt(tm[0], 2), "1.00x"});
      for (std::size_t i = 0; i < qrows.size(); ++i)
        table.add_row({"", qrows[i].name, util::fmt(tm[i + 1], 2),
                       util::fmt(tm[0] / tm[i + 1], 2) + "x"});
    }
    table.print(std::cout);
    std::cout << "\n";
    bench::print_verdict(identical,
                         "int8 conv2d: every probed wide arm of the direct "
                         "kernel matches QuantizedModel::apply_layer byte "
                         "for byte on the 16- and 12-wide maps, clip "
                         "counters included");
    all_ok = all_ok && identical;
  }

  // ------------------------------------------------------- 5. the gate
  {
    double best_geomean = 0.0;
    std::string best_tag = "none";
    for (std::size_t i = 1; i < rows.size(); ++i) {
      const double fg = geomean(f_speedups[i]);
      const std::string& isa = rows[i].name;
      json.add("float_dense_geomean_" + isa, fg);
      std::cout << "geomean over dense sizes [float " << isa << "]: "
                << util::fmt(fg, 2) << "x vs the scalar arm\n";
      if (fg > best_geomean) { best_geomean = fg; best_tag = "float/" + isa; }
    }
    for (std::size_t i = 1; i < qrows.size(); ++i) {
      const double qg = geomean(q_speedups[i]);
      const std::string& arm = qrows[i].name;
      json.add("int8_dense_geomean_" + arm, qg);
      std::cout << "geomean over dense sizes [int8 " << arm << "]: "
                << util::fmt(qg, 2) << "x vs the scalar arm\n";
      if (qg > best_geomean) { best_geomean = qg; best_tag = "int8/" + arm; }
    }
    std::cout << "\n";
    json.add("micro_geomean_best", best_geomean);
    if (!has_simd) {
      bench::print_verdict(true,
                           "no wide lane family probed on this machine — "
                           "the SIMD entry points are the scalar arm and "
                           "the >= 2x gate is vacuous here");
    } else {
      all_ok = bench::timing_verdict(
                   best_geomean >= 2.0,
                   "wide SIMD arms reach >= 2x geomean over the scalar arm "
                   "on at least one probed lane family (best " +
                       util::fmt(best_geomean, 2) + "x on " + best_tag + ")",
                   args) &&
               all_ok;
    }
  }

  const bool wrote = json.write(all_ok);
  return all_ok && wrote ? 0 : 1;
}
