// Serving front-end acceptance gates: trace byte-determinism, offline
// mixed-criticality admission, LO-only shedding under overload (zero HI
// misses, every shed audited), decision-stream identity against the
// offline batch path at every worker count, and telemetry-snapshot
// identity between a sliced (fleet-merged) replay and the single-process
// run. Every suite name starts with "Serve" so the serving-asan /
// serving-tsan test presets can slice the binary by name regex (sanitizer
// build dirs replace CTest labels with "static-analysis").
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/report.hpp"
#include "obs/snapshot.hpp"
#include "serve/server.hpp"
#include "serve/traffic.hpp"
#include "test_helpers.hpp"

namespace {

using sx::Status;
using namespace sx;  // NOLINT

core::PipelineConfig pipe_cfg(std::size_t workers) {
  core::PipelineConfig cfg;
  cfg.criticality = trace::Criticality::kSil2;
  cfg.batch_workers = workers;
  // Pipeline wall-clock telemetry is not under test here (the serving
  // registry is logical-time only); disabling it keeps deploys cheap.
  cfg.enable_telemetry = false;
  return cfg;
}

std::vector<tensor::Tensor> input_pool(std::size_t n) {
  std::vector<tensor::Tensor> pool;
  pool.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    pool.push_back(sx::testing::road_data().samples[i].input);
  return pool;
}

/// Two admitted streams: a HI hazard channel and a sheddable LO channel.
serve::ServerConfig base_cfg() {
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
                        .period = 8,
                        .deadline = 8,
                        .service_lo = 2},
  };
  cfg.batch_max = 4;
  cfg.batch_window = 4;
  cfg.dispatch_overhead = 1;
  cfg.queue_capacity = 64;
  return cfg;
}

serve::Request req(std::uint64_t seq, std::uint32_t stream,
                   std::uint32_t payload, std::uint64_t arrival) {
  return serve::Request{
      .seq = seq, .stream = stream, .payload = payload, .arrival = arrival};
}

serve::ArrivalTrace mixed_poisson_trace() {
  return serve::make_poisson_trace(
      {serve::PoissonStreamTraffic{.mean_gap = 50.0},
       serve::PoissonStreamTraffic{.mean_gap = 12.0}},
      serve::TrafficConfig{.horizon = 600, .payloads = 16, .seed = 7});
}

// ---------------------------------------------------------------------------
// Traces
// ---------------------------------------------------------------------------

TEST(ServeTraffic, PoissonTraceIsByteDeterministic) {
  const auto a = mixed_poisson_trace();
  const auto b = mixed_poisson_trace();
  const std::string sa = serve::serialize_trace(a);
  EXPECT_EQ(sa, serve::serialize_trace(b));
  EXPECT_EQ(sa.rfind("schema sx-serving-trace/1\n", 0), 0u);
  ASSERT_FALSE(a.requests.empty());

  auto other = serve::make_poisson_trace(
      {serve::PoissonStreamTraffic{.mean_gap = 50.0},
       serve::PoissonStreamTraffic{.mean_gap = 12.0}},
      serve::TrafficConfig{.horizon = 600, .payloads = 16, .seed = 8});
  EXPECT_NE(sa, serve::serialize_trace(other));
}

TEST(ServeTraffic, TracesAreSortedAndSequenced) {
  for (const auto& trace :
       {mixed_poisson_trace(),
        serve::make_bursty_trace(
            {serve::BurstyStreamTraffic{.burst_len = 1, .gap_between = 40},
             serve::BurstyStreamTraffic{.burst_len = 6,
                                        .gap_in_burst = 2,
                                        .gap_between = 64,
                                        .jitter = 3}},
            serve::TrafficConfig{.horizon = 512, .payloads = 8, .seed = 3})}) {
    ASSERT_FALSE(trace.requests.empty());
    for (std::size_t i = 0; i < trace.requests.size(); ++i) {
      EXPECT_EQ(trace.requests[i].seq, i);
      EXPECT_LT(trace.requests[i].arrival, trace.horizon);
      if (i > 0) {
        EXPECT_GE(trace.requests[i].arrival, trace.requests[i - 1].arrival);
      }
    }
  }
}

TEST(ServeTraffic, BurstyTraceIsByteDeterministic) {
  const auto mk = [] {
    return serve::make_bursty_trace(
        {serve::BurstyStreamTraffic{.burst_len = 4,
                                    .gap_in_burst = 1,
                                    .gap_between = 96,
                                    .jitter = 5}},
        serve::TrafficConfig{.horizon = 1024, .payloads = 16, .seed = 11});
  };
  EXPECT_EQ(serve::serialize_trace(mk()), serve::serialize_trace(mk()));
}

TEST(ServeTraffic, SplitAtGapsPreservesRequestsAndCutsAtIdle) {
  const auto trace = serve::make_bursty_trace(
      {serve::BurstyStreamTraffic{.burst_len = 1, .gap_between = 256},
       serve::BurstyStreamTraffic{.burst_len = 6,
                                  .gap_in_burst = 2,
                                  .gap_between = 256}},
      serve::TrafficConfig{.horizon = 2048, .payloads = 16, .seed = 5});
  const auto slices = serve::split_at_gaps(trace, 128);
  ASSERT_GT(slices.size(), 1u);

  std::vector<serve::Request> glued;
  for (std::size_t s = 0; s < slices.size(); ++s) {
    ASSERT_FALSE(slices[s].requests.empty());
    EXPECT_EQ(slices[s].horizon, trace.horizon);
    if (s > 0) {
      // Boundary gap: every cut sits on an inter-arrival gap >= min_gap.
      EXPECT_GE(slices[s].requests.front().arrival,
                slices[s - 1].requests.back().arrival + 128);
    }
    glued.insert(glued.end(), slices[s].requests.begin(),
                 slices[s].requests.end());
  }
  ASSERT_EQ(glued.size(), trace.requests.size());
  for (std::size_t i = 0; i < glued.size(); ++i) {
    EXPECT_EQ(glued[i].seq, trace.requests[i].seq);
    EXPECT_EQ(glued[i].arrival, trace.requests[i].arrival);
    EXPECT_EQ(glued[i].stream, trace.requests[i].stream);
    EXPECT_EQ(glued[i].payload, trace.requests[i].payload);
  }
}

// ---------------------------------------------------------------------------
// Offline admission
// ---------------------------------------------------------------------------

TEST(ServeAdmission, CertifiesFeasibleStreamsWithBounds) {
  core::CertifiablePipeline pipe{sx::testing::trained_mlp(),
                                 sx::testing::road_data(), pipe_cfg(2)};
  serve::Server server{pipe, base_cfg()};
  const serve::AdmissionReport& adm = server.admission();
  EXPECT_TRUE(adm.hi_schedulable);
  ASSERT_EQ(adm.best_effort.size(), 2u);
  EXPECT_FALSE(adm.best_effort[0]);
  EXPECT_FALSE(adm.best_effort[1]);
  ASSERT_TRUE(adm.mc.lo[0].has_value());
  ASSERT_TRUE(adm.mc.hi[0].has_value());
  ASSERT_TRUE(adm.mc.transition[0].has_value());
  EXPECT_LE(*adm.mc.transition[0], 40u);
  EXPECT_GT(adm.utilization_lo, 0.0);
  // HI-mode utilization counts only HI streams (at their certified hi
  // budgets) — LO work is dropped after a criticality switch.
  EXPECT_GT(adm.utilization_hi, 0.0);

  // The audit chain starts with the deploy record plus one admission
  // verdict per stream.
  ASSERT_GE(server.audit().size(), 3u);
  EXPECT_EQ(server.audit().entry(0).action, "deploy");
  EXPECT_EQ(server.audit().entry(1).action, "admit");
  EXPECT_NE(server.audit().entry(1).payload.find("class=HI"),
            std::string::npos);
  EXPECT_NE(server.audit().entry(2).payload.find("class=LO"),
            std::string::npos);
}

TEST(ServeAdmission, HiStreamFailingAmcRtbRefusesToDeploy) {
  core::CertifiablePipeline pipe{sx::testing::trained_mlp(),
                                 sx::testing::road_data(), pipe_cfg(1)};
  serve::ServerConfig cfg;
  cfg.streams = {serve::StreamSpec{.name = "hazard",
                                   .criticality = trace::Criticality::kSil3,
                                   .period = 40,
                                   .deadline = 40,
                                   .service_lo = 50,
                                   .service_hi = 50}};
  EXPECT_THROW(serve::Server(pipe, cfg), std::invalid_argument);
}

TEST(ServeAdmission, LoStreamFailingAdmissionDeploysBestEffort) {
  core::CertifiablePipeline pipe{sx::testing::trained_mlp(),
                                 sx::testing::road_data(), pipe_cfg(1)};
  serve::ServerConfig cfg = base_cfg();
  // Lowest priority (largest deadline) and infeasible under HI
  // interference: R = 190 + 4*ceil(R/40) converges at 214 > 200.
  cfg.streams[1] = serve::StreamSpec{.name = "bulk",
                                     .criticality = trace::Criticality::kQM,
                                     .period = 400,
                                     .deadline = 200,
                                     .service_lo = 190};
  serve::Server server{pipe, cfg};
  EXPECT_TRUE(server.admission().hi_schedulable);
  EXPECT_FALSE(server.admission().best_effort[0]);
  EXPECT_TRUE(server.admission().best_effort[1]);
  EXPECT_NE(serve::render_serving_block(server).find("best_effort=1"),
            std::string::npos);
}

TEST(ServeAdmission, MalformedConfigurationsRefuse) {
  core::CertifiablePipeline pipe{sx::testing::trained_mlp(),
                                 sx::testing::road_data(), pipe_cfg(1)};
  serve::ServerConfig cfg = base_cfg();
  cfg.streams.clear();
  EXPECT_THROW(serve::Server(pipe, cfg), std::invalid_argument);

  cfg = base_cfg();
  cfg.streams[0].period = 0;
  EXPECT_THROW(serve::Server(pipe, cfg), std::invalid_argument);

  cfg = base_cfg();
  cfg.batch_max = 0;
  EXPECT_THROW(serve::Server(pipe, cfg), std::invalid_argument);

  // A registry too small for the serving totals would make the accessors
  // read 0: refused at deploy time instead.
  cfg = base_cfg();
  cfg.telemetry.max_counters = 4;
  EXPECT_THROW(serve::Server(pipe, cfg), std::invalid_argument);

  // Every pipeline carries its batch pool: at 0 workers the caller runs
  // each window, so the front-end deploys.
  core::CertifiablePipeline serial{sx::testing::trained_mlp(),
                                   sx::testing::road_data(), pipe_cfg(0)};
  EXPECT_NO_THROW(serve::Server(serial, base_cfg()));
}

// ---------------------------------------------------------------------------
// Window formation and bounded state
// ---------------------------------------------------------------------------

TEST(ServeWindow, ClosesOnFillAndOnTimeout) {
  core::CertifiablePipeline pipe{sx::testing::trained_mlp(),
                                 sx::testing::road_data(), pipe_cfg(2)};
  serve::ServerConfig cfg = base_cfg();
  cfg.streams[1].service_lo = 1;  // all five fit their deadlines
  serve::Server server{pipe, cfg};
  const auto pool = input_pool(16);

  // Four back-to-back LO arrivals fill a batch_max=4 window; one straggler
  // far later closes its window on timeout.
  serve::ArrivalTrace trace;
  trace.horizon = 1024;
  trace.requests = {req(0, 1, 0, 0), req(1, 1, 1, 0), req(2, 1, 2, 1),
                    req(3, 1, 3, 1), req(4, 1, 4, 500)};
  server.run_trace(trace, pool);

  EXPECT_EQ(server.served_count(), 5u);
  EXPECT_EQ(server.shed_count(), 0u);
  const auto snap = obs::RegistrySnapshot::capture(server.telemetry());
  EXPECT_EQ(snap.counter_value("sx_serve_windows_total"), 2u);
  EXPECT_EQ(snap.counter_value("sx_serve_window_full_total"), 1u);
  EXPECT_EQ(snap.counter_value("sx_serve_window_timeout_total"), 1u);
  EXPECT_EQ(snap.counter_value("sx_serve_requests_total"), 5u);
}

TEST(ServeWindow, IngressOverrunCountsQueueRejections) {
  core::CertifiablePipeline pipe{sx::testing::trained_mlp(),
                                 sx::testing::road_data(), pipe_cfg(2)};
  serve::ServerConfig cfg = base_cfg();
  cfg.queue_capacity = 8;
  // Keep the survivors servable: a slow declared rate with a deadline to
  // match (the constrained-deadline model requires deadline <= period).
  cfg.streams[1].period = 4096;
  cfg.streams[1].deadline = 4096;
  serve::Server server{pipe, cfg};
  const auto pool = input_pool(16);

  serve::ArrivalTrace trace;
  trace.horizon = 16;
  for (std::uint64_t i = 0; i < 64; ++i)
    trace.requests.push_back(req(i, 1, static_cast<std::uint32_t>(i % 16), 0));
  server.run_trace(trace, pool);

  // 64 simultaneous arrivals against an 8-slot ring: 8 survive, the rest
  // are refused at ingress — never silently dropped, always counted.
  EXPECT_EQ(server.requests(), 64u);
  EXPECT_EQ(server.queue_rejections(), 56u);
  EXPECT_EQ(server.served_count() + server.shed_count(), 8u);
}

TEST(ServeWindow, SaturatesNearUint64MaxInsteadOfWrapping) {
  core::CertifiablePipeline pipe{sx::testing::trained_mlp(),
                                 sx::testing::road_data(), pipe_cfg(1)};
  serve::ServerConfig cfg;
  cfg.streams = {serve::StreamSpec{
      .name = "late",
      .criticality = trace::Criticality::kSil3,
      .period = std::numeric_limits<std::uint64_t>::max() - 5,
      .deadline = std::numeric_limits<std::uint64_t>::max() - 5,
      .service_lo = 10,
      .service_hi = 10}};
  serve::Server server{pipe, cfg};
  const auto pool = input_pool(1);

  serve::ArrivalTrace trace;
  trace.horizon = std::numeric_limits<std::uint64_t>::max();
  trace.requests = {
      req(0, 0, 0, std::numeric_limits<std::uint64_t>::max() - 100)};
  server.run_trace(trace, pool);

  // Arrival + deadline and window close + service all saturate instead of
  // wrapping to small values; a wrap would report a spurious HI miss.
  EXPECT_EQ(server.served_count(), 1u);
  EXPECT_EQ(server.hi_deadline_misses(), 0u);
  EXPECT_EQ(server.shed_count(), 0u);
}

// A payload of the wrong shape fail-stops its own decision, as infer()
// does, and the rest of its window is served: the window is not lost.
TEST(ServeShape, WrongShapedPayloadFailStopsOnlyItsItem) {
  core::PipelineConfig pcfg = pipe_cfg(1);
  pcfg.criticality = trace::Criticality::kQM;
  core::CertifiablePipeline pipe{sx::testing::trained_mlp(),
                                 sx::testing::road_data(), pcfg};
  serve::ServerConfig cfg = base_cfg();
  cfg.streams = {cfg.streams[1]};
  cfg.streams[0].service_lo = 1;  // both fit their deadlines
  serve::Server server{pipe, cfg};
  std::vector<tensor::Tensor> pool = input_pool(1);
  pool.push_back(tensor::Tensor{tensor::Shape{3}});

  serve::ArrivalTrace trace;
  trace.horizon = 64;
  trace.requests = {req(0, 0, 0, 0), req(1, 0, 1, 0)};
  ASSERT_NO_THROW(server.run_trace(trace, pool));

  ASSERT_EQ(server.served_count(), 2u);
  EXPECT_EQ(server.shed_count(), 0u);
  const auto snap = obs::RegistrySnapshot::capture(server.telemetry());
  EXPECT_EQ(snap.counter_value("sx_serve_windows_total"), 1u);
  core::CertifiablePipeline twin{sx::testing::trained_mlp(),
                                 sx::testing::road_data(), pcfg};
  for (std::size_t k = 0; k < 2; ++k) {
    const core::Decision& d = server.served()[k].decision;
    const core::Decision want = twin.infer(pool[k]);
    EXPECT_EQ(d.status, want.status) << "payload " << k;
    EXPECT_EQ(d.predicted_class, want.predicted_class) << "payload " << k;
    EXPECT_EQ(d.degraded, want.degraded) << "payload " << k;
  }
  EXPECT_EQ(server.served()[0].decision.status, Status::kOk);
  EXPECT_EQ(server.served()[1].decision.status, Status::kShapeMismatch);
  EXPECT_TRUE(server.served()[1].decision.degraded);
}

// ---------------------------------------------------------------------------
// Overload: Simplex fallback sheds LO only, every shed is audited
// ---------------------------------------------------------------------------

serve::ServerConfig overload_cfg() {
  serve::ServerConfig cfg = base_cfg();
  cfg.streams[0].period = 100;
  cfg.streams[0].deadline = 100;
  return cfg;
}

serve::ArrivalTrace overload_trace() {
  // A conforming HI stream (one request per declared period) against a LO
  // stream bursting far past its declared rate: 30 back-to-back requests
  // of service 2 against a relative deadline of 8.
  return serve::make_bursty_trace(
      {serve::BurstyStreamTraffic{.burst_len = 1, .gap_between = 100},
       serve::BurstyStreamTraffic{.burst_len = 30,
                                  .gap_in_burst = 1,
                                  .gap_between = 500}},
      serve::TrafficConfig{.horizon = 1000, .payloads = 16, .seed = 9});
}

TEST(ServeOverload, ShedsOnlyLoTrafficAndAuditsEveryShed) {
  core::CertifiablePipeline pipe{sx::testing::trained_mlp(),
                                 sx::testing::road_data(), pipe_cfg(2)};
  serve::Server server{pipe, overload_cfg()};
  server.run_trace(overload_trace(), input_pool(16));

  // Overload bites: LO requests are shed, HI never is, and with the HI
  // stream conforming to its declared period the admission analysis keeps
  // every HI deadline.
  EXPECT_GT(server.shed_count(), 0u);
  EXPECT_EQ(server.hi_deadline_misses(), 0u);
  EXPECT_GE(server.mode_switches(), 1u);

  const auto snap = obs::RegistrySnapshot::capture(server.telemetry());
  EXPECT_EQ(snap.counter_value("sx_serve_stream_hazard_shed"), 0u);
  EXPECT_EQ(snap.counter_value("sx_serve_stream_infotainment_shed"),
            server.shed_count());
  EXPECT_EQ(snap.counter_value("sx_serve_hi_deadline_miss_total"), 0u);

  // Every shed is an audit entry; the shed counter and the audit log agree
  // exactly (no silent drops), and the mode switch is on the record.
  std::uint64_t shed_entries = 0;
  bool saw_overload_switch = false;
  for (const trace::AuditEntry& e : server.audit().entries()) {
    if (e.action == "shed") ++shed_entries;
    if (e.action == "mode-switch" &&
        e.payload.find("to=overload") != std::string::npos)
      saw_overload_switch = true;
  }
  EXPECT_EQ(shed_entries, server.shed_count());
  EXPECT_TRUE(saw_overload_switch);

  // Accounting closes: everything submitted is served, shed, or refused.
  EXPECT_EQ(server.served_count() + server.shed_count() +
                server.queue_rejections(),
            server.requests());
  EXPECT_NE(serve::render_serving_block(server).find("status OK"),
            std::string::npos);
}

TEST(ServeOverload, OverloadEpisodeEndsAtIdleInstant) {
  core::CertifiablePipeline pipe{sx::testing::trained_mlp(),
                                 sx::testing::road_data(), pipe_cfg(2)};
  serve::Server server{pipe, overload_cfg()};
  // The trace spans two LO bursts with a long idle gap between them; the
  // Simplex fallback must hand back to normal mode at the quiescent point,
  // then re-enter overload on the second burst.
  server.run_trace(overload_trace(), input_pool(16));
  EXPECT_GE(server.mode_switches(), 2u);
  bool saw_normal_switch = false;
  for (const trace::AuditEntry& e : server.audit().entries())
    if (e.action == "mode-switch" &&
        e.payload.find("to=normal") != std::string::npos)
      saw_normal_switch = true;
  EXPECT_TRUE(saw_normal_switch);
}

TEST(ServeOverload, NonConformingHiTrafficIsServedAndCountedNeverShed) {
  core::CertifiablePipeline pipe{sx::testing::trained_mlp(),
                                 sx::testing::road_data(), pipe_cfg(1)};
  serve::ServerConfig cfg;
  cfg.streams = {serve::StreamSpec{.name = "hazard",
                                   .criticality = trace::Criticality::kSil3,
                                   .period = 100,
                                   .deadline = 50,
                                   .service_lo = 20,
                                   .service_hi = 20}};
  cfg.batch_max = 8;
  cfg.batch_window = 4;
  serve::Server server{pipe, cfg};

  // Five back-to-back arrivals violate the declared period=100. The server
  // must not shed them (HI), must serve them all, and must surface the
  // deadline misses through the per-stream watchdog — silent dropping of
  // high-SIL work is not a failure mode this server can exhibit.
  serve::ArrivalTrace trace;
  trace.horizon = 16;
  for (std::uint64_t i = 0; i < 5; ++i)
    trace.requests.push_back(req(i, 0, static_cast<std::uint32_t>(i), i));
  server.run_trace(trace, input_pool(8));

  EXPECT_EQ(server.served_count(), 5u);
  EXPECT_EQ(server.shed_count(), 0u);
  EXPECT_GT(server.hi_deadline_misses(), 0u);
  const auto snap = obs::RegistrySnapshot::capture(server.telemetry());
  EXPECT_GT(snap.counter_value("sx_serve_hi_projected_miss_total"), 0u);
  EXPECT_NE(serve::render_serving_block(server).find("status HI-MISS"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Decision-stream identity: serving == offline batch, at any worker count
// ---------------------------------------------------------------------------

TEST(ServeIdentity, DecisionStreamMatchesOfflineBatchAtEveryWorkerCount) {
  const auto trace = mixed_poisson_trace();
  const auto pool = input_pool(16);

  std::vector<std::string> digests;
  std::vector<std::string> snapshots;
  std::vector<std::vector<serve::ServedRecord>> runs;
  for (const std::size_t workers : {1u, 2u, 4u}) {
    core::CertifiablePipeline pipe{sx::testing::trained_mlp(),
                                   sx::testing::road_data(),
                                   pipe_cfg(workers)};
    serve::Server server{pipe, base_cfg()};
    server.run_trace(trace, pool);
    EXPECT_GT(server.served_count(), 0u);
    digests.push_back(server.decision_digest());
    snapshots.push_back(
        obs::RegistrySnapshot::capture(server.telemetry()).serialize());
    runs.push_back(server.served());
  }
  // Worker count is invisible: digest, telemetry bytes, full record stream.
  EXPECT_EQ(digests[0], digests[1]);
  EXPECT_EQ(digests[0], digests[2]);
  EXPECT_EQ(snapshots[0], snapshots[1]);
  EXPECT_EQ(snapshots[0], snapshots[2]);
  ASSERT_EQ(runs[0].size(), runs[1].size());
  ASSERT_EQ(runs[0].size(), runs[2].size());

  // Offline replay: one infer_batch over the served inputs in served order
  // on a *fresh* identical pipeline reproduces every Decision field
  // bitwise — including the audit sequence numbers, because the batch path
  // writes exactly one chained entry per item regardless of windowing.
  core::CertifiablePipeline offline{sx::testing::trained_mlp(),
                                    sx::testing::road_data(), pipe_cfg(2)};
  std::vector<tensor::Tensor> inputs;
  inputs.reserve(runs[0].size());
  for (const serve::ServedRecord& rec : runs[0])
    inputs.push_back(pool[rec.request.payload]);
  const std::vector<core::Decision> offline_decisions =
      offline.infer_batch(inputs, /*logical_time=*/0);
  ASSERT_EQ(offline_decisions.size(), runs[0].size());
  for (std::size_t i = 0; i < runs[0].size(); ++i) {
    for (const auto& run : runs) {
      const core::Decision& d = run[i].decision;
      const core::Decision& o = offline_decisions[i];
      EXPECT_EQ(d.status, o.status);
      EXPECT_EQ(d.predicted_class, o.predicted_class);
      EXPECT_EQ(std::bit_cast<std::uint32_t>(d.confidence),
                std::bit_cast<std::uint32_t>(o.confidence));
      EXPECT_EQ(d.degraded, o.degraded);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(d.supervisor_score),
                std::bit_cast<std::uint64_t>(o.supervisor_score));
      EXPECT_EQ(d.audit_sequence, o.audit_sequence);
    }
  }
}

TEST(ServeIdentity, RepeatedRunsAreByteIdentical) {
  const auto trace = overload_trace();
  const auto pool = input_pool(16);
  const auto once = [&] {
    core::CertifiablePipeline pipe{sx::testing::trained_mlp(),
                                   sx::testing::road_data(), pipe_cfg(2)};
    serve::Server server{pipe, overload_cfg()};
    server.run_trace(trace, pool);
    return serve::render_serving_block(server);
  };
  EXPECT_EQ(once(), once());
}

// ---------------------------------------------------------------------------
// Served watchdog: the pipeline's timing budget reads logical time only
// ---------------------------------------------------------------------------

/// Telemetry clock advancing kStep per read, one counter per thread, so a
/// worker's paired reads around one channel run measure a few kStep.
template <std::uint64_t kStep>
std::uint64_t step_clock() noexcept {
  thread_local std::uint64_t t = 0;
  return t += kStep;
}

TEST(ServeWatchdog, ServedDecisionsDoNotDependOnTheTelemetryClock) {
  const auto trace = mixed_poisson_trace();
  const auto pool = input_pool(16);
  std::vector<std::string> digests;
  std::vector<std::uint64_t> overruns;
  for (const obs::ClockFn clock : {&step_clock<1>, &step_clock<1000>}) {
    core::PipelineConfig pcfg = pipe_cfg(2);
    pcfg.criticality = trace::Criticality::kSil3;
    // Above an item's measured time under the 1-per-read clock, below it
    // under the 1000-per-read one, and below the logical service time of
    // a window holding a HI and a LO request (1 + 4 + 2).
    pcfg.timing_budget = 6;
    pcfg.enable_telemetry = true;
    pcfg.telemetry_config.clock = clock;
    core::CertifiablePipeline pipe{sx::testing::trained_mlp(),
                                   sx::testing::road_data(), pcfg};
    serve::Server server{pipe, base_cfg()};
    server.run_trace(trace, pool);
    EXPECT_GT(server.served_count(), 0u);
    digests.push_back(server.decision_digest());
    const obs::Registry& tel = *pipe.telemetry();
    overruns.push_back(
        tel.value(tel.find_counter("sx_watchdog_overruns_total")));
  }
  EXPECT_EQ(digests[0], digests[1]);
  EXPECT_EQ(overruns[0], overruns[1]);
  EXPECT_GT(overruns[0], 0u);  // the logical budget does bind
}

// ---------------------------------------------------------------------------
// Fleet merge plane: sliced replay telemetry == single-process bytes
// ---------------------------------------------------------------------------

TEST(ServeFleet, SliceMergedSnapshotBytesEqualSingleProcessRun) {
  serve::ServerConfig cfg;
  cfg.streams = {serve::StreamSpec{.name = "hazard",
                                   .criticality = trace::Criticality::kSil3,
                                   .period = 40,
                                   .deadline = 40,
                                   .service_lo = 2,
                                   .service_hi = 2},
                 serve::StreamSpec{.name = "infotainment",
                                   .criticality = trace::Criticality::kSil1,
                                   .period = 16,
                                   .deadline = 16,
                                   .service_lo = 1}};
  cfg.batch_max = 4;
  cfg.batch_window = 8;
  const auto trace = serve::make_bursty_trace(
      {serve::BurstyStreamTraffic{.burst_len = 1, .gap_between = 256},
       serve::BurstyStreamTraffic{.burst_len = 6,
                                  .gap_in_burst = 2,
                                  .gap_between = 256}},
      serve::TrafficConfig{.horizon = 2048, .payloads = 16, .seed = 5});
  const auto pool = input_pool(16);

  core::CertifiablePipeline full_pipe{sx::testing::trained_mlp(),
                                      sx::testing::road_data(), pipe_cfg(2)};
  serve::Server full{full_pipe, cfg};
  full.run_trace(trace, pool);
  EXPECT_EQ(full.shed_count(), 0u);
  const auto full_snap = obs::RegistrySnapshot::capture(full.telemetry());

  // Replay each idle-delimited slice in a fresh server + pipeline (the
  // fleet deployment pattern: one process per slice) and merge the
  // telemetry snapshots in slice order.
  const auto slices = serve::split_at_gaps(trace, 128);
  ASSERT_GT(slices.size(), 1u);
  std::vector<obs::RegistrySnapshot> parts;
  for (const serve::ArrivalTrace& slice : slices) {
    core::CertifiablePipeline pipe{sx::testing::trained_mlp(),
                                   sx::testing::road_data(), pipe_cfg(2)};
    serve::Server server{pipe, cfg};
    server.run_trace(slice, pool);
    parts.push_back(obs::RegistrySnapshot::capture(server.telemetry()));
  }
  obs::RegistrySnapshot merged;
  ASSERT_EQ(obs::RegistrySnapshot::merge(parts, merged), Status::kOk);
  EXPECT_EQ(merged.serialize(), full_snap.serialize());

  // And the merged bytes round-trip through the persistence format the
  // fleet plane ships between processes.
  obs::RegistrySnapshot reparsed;
  ASSERT_TRUE(obs::RegistrySnapshot::parse(merged.serialize(), reparsed));
  EXPECT_EQ(reparsed.serialize(), full_snap.serialize());
}

// ---------------------------------------------------------------------------
// Evidence plumbing
// ---------------------------------------------------------------------------

TEST(ServeEvidence, RenderedBlockCarriesVerdictAndDigest) {
  core::CertifiablePipeline pipe{sx::testing::trained_mlp(),
                                 sx::testing::road_data(), pipe_cfg(2)};
  serve::Server server{pipe, base_cfg()};
  server.run_trace(mixed_poisson_trace(), input_pool(16));

  const std::string block = serve::render_serving_block(server);
  EXPECT_EQ(block.rfind("schema sx-serving-evidence/1\n", 0), 0u);
  EXPECT_NE(block.find("admission hi_schedulable=1"), std::string::npos);
  EXPECT_NE(block.find("stream name=hazard"), std::string::npos);
  EXPECT_NE(block.find("decision_digest " + server.decision_digest()),
            std::string::npos);
  EXPECT_NE(block.find("audit_head "), std::string::npos);

  const std::string prose = serve::summary(server);
  EXPECT_NE(prose.find("Serving front-end"), std::string::npos);

  const core::EvidenceItem item = core::make_serving_evidence(prose, block);
  EXPECT_NE(item.body.find("# BEGIN SX_SERVING_EVIDENCE"), std::string::npos);
  EXPECT_NE(item.body.find("# END SX_SERVING_EVIDENCE"), std::string::npos);
  EXPECT_NE(item.body.find("schema sx-serving-evidence/1"),
            std::string::npos);
}

}  // namespace
