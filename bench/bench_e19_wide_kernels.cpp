// E19 — wide-SIMD kernel backends (`bench_e19_wide_kernels`)
//
// Question: how much do the kWide lane microkernels (8/16-lane float
// panels, 16/32-byte int8 dot products) buy over the kPacked panels they
// replace — while every variant still computes the reference accumulation
// tree bit for bit? The FUSA rule is unchanged from E14/E15: an
// optimization may change timing only, never a single output bit or clip
// counter.
//
// Method: the deploy-time CPU probe is printed first (the same
// platform::wide_isa_audit line the pipeline records), then four rungs,
// each timed min-of-reps with packed/wide rounds interleaved so transient
// machine load hits both alike:
//   1. float matvec at 128/192/256/512 (the 128/192 panels are
//      L1/L2-resident, where lane width shows up undiluted by memory):
//      matvec_packed vs matvec_wide_{scalar,avx2,avx512};
//   2. float Conv2d GEMM on 16- and 32-channel geometries:
//      conv2d_im2col_packed vs conv2d_im2col_wide_*;
//   3. int8 matvec at the same sizes: qmatvec_packed vs qmatvec_wide_*
//      (saturation counters compared as well as output bytes);
//   4. int8 Conv2d GEMM on the 8-channel perception conv:
//      qconv2d_im2col_packed vs qconv2d_im2col_wide_* (the half group).
// Every rung first proves bitwise identity of everything it times.
//
// Gate: geomean speedup over kPacked across the dense micro sizes must
// reach >= 2x on at least one probed SIMD lane family (avx2 or avx512),
// in float or int8. On hardware with no wide lanes the wide entry points
// *are* the scalar twin, so the gate is vacuous there and says so.
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

/// The SIMD lane families the probe confirmed on this machine (the scalar
/// twin is always timed as the portability baseline but never gated).
struct IsaRow {
  k::WideIsa isa;
  k::DenseKernelFn dense;
  k::ConvKernelFn conv;
  qk::QDenseKernelFn qdense;
  qk::QConvKernelFn qconv;
};

std::vector<IsaRow> probed_rows(const sx::platform::CpuProbe& probe) {
  std::vector<IsaRow> rows;
  auto row = [](k::WideIsa isa) {
    return IsaRow{isa, k::wide_dense_kernel(isa), k::wide_conv_kernel(isa),
                  qk::wide_qdense_kernel(isa), qk::wide_qconv_kernel(isa)};
  };
  rows.push_back(row(k::WideIsa::kScalar));
  if (probe.avx2) rows.push_back(row(k::WideIsa::kAvx2));
  if (probe.avx512f) rows.push_back(row(k::WideIsa::kAvx512));
  return rows;
}

double geomean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : xs) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(xs.size()));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sx;
  const bench::Args args = bench::parse_args(argc, argv);
  const bool smoke = args.smoke;

  bench::print_header(
      "E19: wide-SIMD kernel backends",
      "What do the kWide lane microkernels (8/16-lane float panels, "
      "16/32-byte int8 dot products) buy over the kPacked panels — at "
      "bitwise-identical outputs and clip counters?");

  bool all_ok = true;
  bench::JsonResult json{"E19", smoke};

  // ------------------------------------------------- 0. deploy-time probe
  const platform::CpuProbe probe = platform::probe_cpu();
  const platform::WideIsaSelection sel = platform::select_wide_isa();
  std::cout << "deploy-time selection: "
            << platform::wide_isa_audit(probe, sel) << "\n\n";
  json.add("probe_avx2", probe.avx2 ? 1.0 : 0.0);
  json.add("probe_avx512f", probe.avx512f ? 1.0 : 0.0);
  const std::vector<IsaRow> rows = probed_rows(probe);
  const bool has_simd = probe.avx2 || probe.avx512f;

  const std::vector<std::size_t> sizes = {128, 192, 256, 512};
  const std::size_t calls = smoke ? 20 : 50;
  const std::size_t reps = smoke ? 8 : 20;
  // Per-ISA geomean inputs: dense float / dense int8 speedups over packed.
  std::vector<std::vector<double>> f_speedups(rows.size());
  std::vector<std::vector<double>> q_speedups(rows.size());

  // ------------------------------------------- 1. float matvec micro
  {
    bool identical = true;
    util::Table table({"float matvec", "packed us", "wide us (best)",
                       "isa", "speedup"});
    for (std::size_t n : sizes) {
      tensor::Tensor w{tensor::Shape::mat(n, n)};
      tensor::Tensor x{tensor::Shape::vec(n)};
      tensor::Tensor b{tensor::Shape::vec(n)};
      util::Xoshiro256 rng{n};
      w.init_uniform(rng, -1, 1);
      x.init_uniform(rng, -1, 1);
      b.init_uniform(rng, -1, 1);

      std::vector<float> ref(n), pck(n), wide(n);
      std::vector<float> packed_panel(k::dense_panel_floats(n, n));
      k::pack_dense_panel(w.data().data(), n, n, packed_panel.data());
      std::vector<float> wide_panel(k::wide_dense_panel_floats(n, n));
      k::pack_wide_dense_panel(w.data().data(), n, n, wide_panel.data());

      (void)tensor::matvec(w.view(), x.view(), b.view(),
                           tensor::TensorView{ref, tensor::Shape::vec(n)});
      (void)k::matvec_packed(packed_panel.data(), b.data().data(), n, n,
                             x.data().data(), pck.data(), k::Epilogue::kNone,
                             false);
      identical = identical && bits_equal(pck, ref);
      for (const IsaRow& row : rows) {
        (void)row.dense(wide_panel.data(), b.data().data(), n, n,
                        x.data().data(), wide.data(), k::Epilogue::kNone,
                        false);
        identical = identical && bits_equal(wide, ref);
      }

      double t_pck = 1e300;
      std::vector<double> t_wide(rows.size(), 1e300);
      for (std::size_t r = 0; r < reps; ++r) {
        t_pck = std::min(
            t_pck, bench::time_per_call_us(
                       [&] {
                         (void)k::matvec_packed(
                             packed_panel.data(), b.data().data(), n, n,
                             x.data().data(), pck.data(), k::Epilogue::kNone,
                             false);
                       },
                       calls));
        for (std::size_t i = 0; i < rows.size(); ++i)
          t_wide[i] = std::min(
              t_wide[i], bench::time_per_call_us(
                             [&] {
                               (void)rows[i].dense(
                                   wide_panel.data(), b.data().data(), n, n,
                                   x.data().data(), wide.data(),
                                   k::Epilogue::kNone, false);
                             },
                             calls));
      }

      std::size_t best = 0;
      for (std::size_t i = 0; i < rows.size(); ++i) {
        f_speedups[i].push_back(t_pck / t_wide[i]);
        json.add("matvec" + std::to_string(n) + "_us_wide_" +
                     k::wide_isa_name(rows[i].isa),
                 t_wide[i]);
        if (t_wide[i] < t_wide[best]) best = i;
      }
      json.add("matvec" + std::to_string(n) + "_us_packed", t_pck);
      table.add_row({std::to_string(n) + "x" + std::to_string(n),
                     util::fmt(t_pck, 2), util::fmt(t_wide[best], 2),
                     k::wide_isa_name(rows[best].isa),
                     util::fmt(t_pck / t_wide[best], 2) + "x"});
    }
    table.print(std::cout);
    std::cout << "\n";
    bench::print_verdict(identical,
                         "float matvec: packed and every probed wide "
                         "variant are bitwise identical to tensor::matvec "
                         "at all sizes");
    all_ok = all_ok && identical;
  }

  // ------------------------------------------- 2. float Conv2d GEMM micro
  {
    struct Geom {
      std::size_t out_c, in_c, hw;
    };
    const std::vector<Geom> geoms = {{16, 8, 16}, {32, 16, 12}};
    bool identical = true;
    util::Table table({"float conv2d 3x3", "packed us", "wide us (best)",
                       "isa", "speedup"});
    for (const Geom& gm : geoms) {
      const k::Conv2dGeom g{.in_c = gm.in_c, .in_h = gm.hw, .in_w = gm.hw,
                            .out_c = gm.out_c, .k = 3, .stride = 1,
                            .pad = 1};
      const std::size_t entries = k::im2col_entries(g);
      std::vector<std::uint32_t> pix_off(g.opix() + 1), in_idx(entries),
          w_ofs(entries);
      k::build_im2col_tables(g, pix_off.data(), in_idx.data(), w_ofs.data());
      const k::ConvTables t{.out_c = gm.out_c, .patch = g.patch(),
                            .opix = g.opix(), .pix_off = pix_off.data(),
                            .in_idx = in_idx.data(), .w_ofs = w_ofs.data()};

      util::Xoshiro256 rng{gm.out_c};
      std::vector<float> wt(gm.out_c * g.patch()), bias(gm.out_c),
          col(entries);
      for (auto& v : wt)
        v = static_cast<float>(rng() % 2001) * 1e-3f - 1.0f;
      for (auto& v : bias)
        v = static_cast<float>(rng() % 2001) * 1e-3f - 1.0f;
      for (auto& v : col)
        v = static_cast<float>(rng() % 2001) * 1e-3f - 1.0f;

      const std::size_t out_n = gm.out_c * g.opix();
      std::vector<float> ref(out_n), pck(out_n), wide(out_n);
      std::vector<float> packed_panel(k::conv_panel_floats(gm.out_c,
                                                           g.patch()));
      k::pack_conv_panel(wt.data(), gm.out_c, g.patch(),
                         packed_panel.data());
      std::vector<float> wide_panel(k::wide_conv_panel_floats(gm.out_c,
                                                              g.patch()));
      k::pack_wide_conv_panel(wt.data(), gm.out_c, g.patch(),
                              wide_panel.data());

      (void)k::conv2d_im2col(wt.data(), bias.data(), t, col.data(),
                             ref.data(), k::Epilogue::kNone, false);
      (void)k::conv2d_im2col_packed(packed_panel.data(), wt.data(),
                                    bias.data(), t, col.data(), pck.data(),
                                    k::Epilogue::kNone, false);
      identical = identical && bits_equal(pck, ref);
      for (const IsaRow& row : rows) {
        (void)row.conv(wide_panel.data(), wt.data(), bias.data(), t,
                       col.data(), wide.data(), k::Epilogue::kNone, false);
        identical = identical && bits_equal(wide, ref);
      }

      double t_pck = 1e300;
      std::vector<double> t_wide(rows.size(), 1e300);
      for (std::size_t r = 0; r < reps; ++r) {
        t_pck = std::min(
            t_pck, bench::time_per_call_us(
                       [&] {
                         (void)k::conv2d_im2col_packed(
                             packed_panel.data(), wt.data(), bias.data(), t,
                             col.data(), pck.data(), k::Epilogue::kNone,
                             false);
                       },
                       calls));
        for (std::size_t i = 0; i < rows.size(); ++i)
          t_wide[i] = std::min(
              t_wide[i], bench::time_per_call_us(
                             [&] {
                               (void)rows[i].conv(
                                   wide_panel.data(), wt.data(), bias.data(),
                                   t, col.data(), wide.data(),
                                   k::Epilogue::kNone, false);
                             },
                             calls));
      }

      const std::string tag = "conv" + std::to_string(gm.out_c) + "c";
      std::size_t best = 0;
      for (std::size_t i = 0; i < rows.size(); ++i) {
        json.add(tag + "_us_wide_" + k::wide_isa_name(rows[i].isa),
                 t_wide[i]);
        if (t_wide[i] < t_wide[best]) best = i;
      }
      json.add(tag + "_us_packed", t_pck);
      json.add(tag + "_speedup", t_pck / t_wide[best]);
      table.add_row({std::to_string(gm.out_c) + "ch " +
                         std::to_string(gm.in_c) + "x" +
                         std::to_string(gm.hw) + "x" + std::to_string(gm.hw),
                     util::fmt(t_pck, 2), util::fmt(t_wide[best], 2),
                     k::wide_isa_name(rows[best].isa),
                     util::fmt(t_pck / t_wide[best], 2) + "x"});
    }
    table.print(std::cout);
    std::cout << "\n";
    bench::print_verdict(identical,
                         "float conv2d: packed and every probed wide "
                         "variant are bitwise identical to conv2d_im2col "
                         "on 16- and 32-channel geometries");
    all_ok = all_ok && identical;
  }

  // ------------------------------------------------ 3. int8 matvec micro
  {
    bool identical = true;
    util::Table table({"int8 matvec", "packed us", "wide us (best)", "isa",
                       "speedup"});
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

      std::vector<std::int8_t> pck(n), wide(n);
      std::vector<std::int8_t> packed_panel(qk::qdense_panel_bytes(n, n));
      qk::pack_qdense_panel(w.data(), n, n, packed_panel.data());
      std::vector<std::int8_t> wide_panel(qk::qwide_dense_panel_bytes(n, n));
      qk::pack_qwide_dense_panel(w.data(), n, n, wide_panel.data());

      std::uint64_t sat_pck = 0, sat_wide = 0;
      qk::qmatvec_packed(packed_panel.data(), n, n, x.data(), rq, pck.data(),
                         &sat_pck);
      for (const IsaRow& row : rows) {
        sat_wide = 0;
        row.qdense(wide_panel.data(), n, n, x.data(), rq, wide.data(),
                   &sat_wide);
        identical = identical && wide == pck && sat_wide == sat_pck;
      }

      double t_pck = 1e300;
      std::vector<double> t_wide(rows.size(), 1e300);
      for (std::size_t r = 0; r < reps; ++r) {
        t_pck = std::min(t_pck,
                         bench::time_per_call_us(
                             [&] {
                               qk::qmatvec_packed(packed_panel.data(), n, n,
                                                  x.data(), rq, pck.data(),
                                                  &sat_pck);
                             },
                             calls));
        for (std::size_t i = 0; i < rows.size(); ++i)
          t_wide[i] = std::min(
              t_wide[i], bench::time_per_call_us(
                             [&] {
                               rows[i].qdense(wide_panel.data(), n, n,
                                              x.data(), rq, wide.data(),
                                              &sat_wide);
                             },
                             calls));
      }

      std::size_t best = 0;
      for (std::size_t i = 0; i < rows.size(); ++i) {
        q_speedups[i].push_back(t_pck / t_wide[i]);
        json.add("qmatvec" + std::to_string(n) + "_us_wide_" +
                     k::wide_isa_name(rows[i].isa),
                 t_wide[i]);
        if (t_wide[i] < t_wide[best]) best = i;
      }
      json.add("qmatvec" + std::to_string(n) + "_us_packed", t_pck);
      table.add_row({std::to_string(n) + "x" + std::to_string(n),
                     util::fmt(t_pck, 2), util::fmt(t_wide[best], 2),
                     k::wide_isa_name(rows[best].isa),
                     util::fmt(t_pck / t_wide[best], 2) + "x"});
    }
    table.print(std::cout);
    std::cout << "\n";
    bench::print_verdict(identical,
                         "int8 matvec: every probed wide variant matches "
                         "the packed kernel byte for byte at all sizes, "
                         "clip counters included");
    all_ok = all_ok && identical;
  }

  // -------------------------------------------- 4. int8 Conv2d GEMM micro
  {
    // The rung-3 perception CNN's second conv (E14/E15): 8 output
    // channels, so the wide kernel runs the 8-lane half group.
    const k::Conv2dGeom g{.in_c = 8, .in_h = 16, .in_w = 16, .out_c = 8,
                          .k = 3, .stride = 1, .pad = 1};
    const std::size_t entries = k::im2col_entries(g);
    std::vector<std::uint32_t> pix_off(g.opix() + 1), in_idx(entries),
        w_ofs(entries);
    k::build_im2col_tables(g, pix_off.data(), in_idx.data(), w_ofs.data());
    const k::ConvTables t{.out_c = g.out_c, .patch = g.patch(),
                          .opix = g.opix(), .pix_off = pix_off.data(),
                          .in_idx = in_idx.data(), .w_ofs = w_ofs.data()};
    util::Xoshiro256 rng{88};
    std::vector<std::int8_t> wt(g.out_c * g.patch()), col(entries);
    for (auto& v : wt)
      v = static_cast<std::int8_t>(static_cast<int>(rng() % 255) - 127);
    for (auto& v : col)
      v = static_cast<std::int8_t>(static_cast<int>(rng() % 255) - 127);
    std::vector<float> w_scale(g.out_c, 0.004f), bias(g.out_c, 0.05f);
    const qk::Requant rq{.w_scales = w_scale.data(),
                         .per_channel = true,
                         .bias = bias.data(),
                         .in_scale = 0.02f,
                         .out_scale = 0.05f,
                         .relu = true};

    const std::size_t out_n = g.out_c * g.opix();
    std::vector<std::int8_t> ref(out_n), pck(out_n), wide(out_n);
    std::vector<std::int8_t> packed_panel(
        qk::qconv_panel_bytes(g.out_c, g.patch()));
    qk::pack_qconv_panel(wt.data(), g.out_c, g.patch(), packed_panel.data());
    std::vector<std::int8_t> wide_panel(
        qk::qwide_conv_panel_bytes(g.out_c, g.patch()));
    qk::pack_qwide_conv_panel(wt.data(), g.out_c, g.patch(),
                              wide_panel.data());

    std::uint64_t sat_ref = 0, sat_pck = 0, sat_wide = 0;
    qk::qconv2d_im2col(wt.data(), t, col.data(), rq, ref.data(), &sat_ref);
    qk::qconv2d_im2col_packed(packed_panel.data(), wt.data(), t, col.data(),
                              rq, pck.data(), &sat_pck);
    bool identical = pck == ref && sat_pck == sat_ref;
    for (const IsaRow& row : rows) {
      sat_wide = 0;
      row.qconv(wide_panel.data(), wt.data(), t, col.data(), rq, wide.data(),
                &sat_wide);
      identical = identical && wide == ref && sat_wide == sat_ref;
    }

    double t_pck = 1e300;
    std::vector<double> t_wide(rows.size(), 1e300);
    for (std::size_t r = 0; r < reps; ++r) {
      t_pck = std::min(t_pck, bench::time_per_call_us(
                                  [&] {
                                    qk::qconv2d_im2col_packed(
                                        packed_panel.data(), wt.data(), t,
                                        col.data(), rq, pck.data(), &sat_pck);
                                  },
                                  calls));
      for (std::size_t i = 0; i < rows.size(); ++i)
        t_wide[i] = std::min(
            t_wide[i], bench::time_per_call_us(
                           [&] {
                             rows[i].qconv(wide_panel.data(), wt.data(), t,
                                           col.data(), rq, wide.data(),
                                           &sat_wide);
                           },
                           calls));
    }

    std::size_t best = 0;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      json.add("qconv8c_us_wide_" + std::string(k::wide_isa_name(rows[i].isa)),
               t_wide[i]);
      if (t_wide[i] < t_wide[best]) best = i;
    }
    json.add("qconv8c_us_packed", t_pck);
    json.add("qconv8c_wide_vs_packed", t_pck / t_wide[best]);
    util::Table table({"int8 conv2d 3x3", "packed us", "wide us (best)",
                       "isa", "speedup"});
    table.add_row({"8ch 8x16x16", util::fmt(t_pck, 2),
                   util::fmt(t_wide[best], 2),
                   k::wide_isa_name(rows[best].isa),
                   util::fmt(t_pck / t_wide[best], 2) + "x"});
    table.print(std::cout);
    std::cout << "\n";
    bench::print_verdict(identical,
                         "int8 conv2d: packed and every probed wide variant "
                         "(8-lane half group) match qconv2d_im2col byte for "
                         "byte on the 8-channel conv, clip counters "
                         "included");
    all_ok = all_ok && identical;
  }

  // ------------------------------------------------------- 5. the gate
  {
    double best_geomean = 0.0;
    std::string best_tag = "none";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const double fg = geomean(f_speedups[i]);
      const double qg = geomean(q_speedups[i]);
      const std::string isa = k::wide_isa_name(rows[i].isa);
      json.add("float_dense_geomean_" + isa, fg);
      json.add("int8_dense_geomean_" + isa, qg);
      std::cout << "geomean over dense sizes [" << isa << "]: float "
                << util::fmt(fg, 2) << "x, int8 " << util::fmt(qg, 2)
                << "x vs packed\n";
      if (rows[i].isa == k::WideIsa::kScalar) continue;  // never gated
      if (fg > best_geomean) { best_geomean = fg; best_tag = "float/" + isa; }
      if (qg > best_geomean) { best_geomean = qg; best_tag = "int8/" + isa; }
    }
    std::cout << "\n";
    json.add("micro_geomean_best", best_geomean);
    if (!has_simd) {
      bench::print_verdict(true,
                           "no wide lane family probed on this machine — "
                           "the wide entry points are the scalar twin and "
                           "the >= 2x gate is vacuous here");
    } else {
      all_ok = bench::timing_verdict(
                   best_geomean >= 2.0,
                   "wide microkernels reach >= 2x geomean over kPacked on "
                   "at least one probed lane family (best " +
                       util::fmt(best_geomean, 2) + "x on " + best_tag + ")",
                   args) &&
               all_ok;
    }
  }

  const bool wrote = json.write(all_ok);
  return all_ok && wrote ? 0 : 1;
}
