// Unit tests for the obs subsystem: static metrics registry (capacity,
// concurrent counters, histograms, sample ring, exposition) and the
// flight-recorder
// evidence ring.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/registry.hpp"
#include "obs/snapshot.hpp"

namespace sx::obs {
namespace {

/// Deterministic clock: +7 per call, one counter per thread so paired
/// calls on any thread always measure the same elapsed time.
std::uint64_t& tick_ref() noexcept {
  thread_local std::uint64_t t = 0;
  return t;
}
std::uint64_t tick_now() noexcept { return tick_ref() += 7; }

RegistryConfig small_config() {
  RegistryConfig cfg;
  cfg.max_counters = 4;
  cfg.max_gauges = 2;
  cfg.max_histograms = 2;
  cfg.histogram_bins = 6;
  cfg.histogram_first_bound = 8;
  cfg.sample_capacity = 8;
  cfg.clock = &tick_now;
  return cfg;
}

// ----------------------------------------------------------- registration

TEST(Registry, RegistersAndFindsByName) {
  Registry r{small_config()};
  const CounterId a = r.counter("a_total");
  const GaugeId g = r.gauge("g");
  const HistogramId h = r.histogram("h_cycles");
  EXPECT_TRUE(a.valid());
  EXPECT_TRUE(g.valid());
  EXPECT_TRUE(h.valid());
  EXPECT_EQ(r.find_counter("a_total").index, a.index);
  EXPECT_EQ(r.find_gauge("g").index, g.index);
  EXPECT_EQ(r.find_histogram("h_cycles").index, h.index);
  EXPECT_FALSE(r.find_counter("missing").valid());
}

TEST(Registry, RegistrationIsIdempotentByName) {
  Registry r{small_config()};
  const CounterId a = r.counter("a_total");
  const CounterId b = r.counter("a_total");
  EXPECT_EQ(a.index, b.index);
  EXPECT_EQ(r.counters(), 1u);
}

TEST(Registry, CapacityOverflowYieldsInvalidIdNotThrow) {
  Registry r{small_config()};  // max_counters = 4
  for (int i = 0; i < 4; ++i)
    EXPECT_TRUE(r.counter("c" + std::to_string(i)).valid());
  const CounterId over = r.counter("c4");
  EXPECT_FALSE(over.valid());
  EXPECT_EQ(r.dropped_registrations(), 1u);
  // An invalid id is a safe no-op on the hot path.
  r.add(over, 100);
  EXPECT_EQ(r.value(over), 0u);
}

TEST(Registry, MalformedConfigThrowsAtDeployTime) {
  RegistryConfig cfg = small_config();
  cfg.histogram_bins = 0;
  EXPECT_THROW(Registry{cfg}, std::invalid_argument);
  cfg = small_config();
  cfg.clock = nullptr;
  EXPECT_THROW(Registry{cfg}, std::invalid_argument);
}

// ---------------------------------------------------------------- counters

TEST(Registry, ConcurrentIncrementsSumExactly) {
  Registry r{small_config()};
  const CounterId c = r.counter("c_total");
  constexpr std::uint64_t kPerWorker = 10000;
  std::vector<std::thread> workers;
  for (std::size_t w = 0; w < 4; ++w)
    workers.emplace_back([&r, c] {
      for (std::uint64_t i = 0; i < kPerWorker; ++i) r.add(c);
    });
  for (auto& t : workers) t.join();
  EXPECT_EQ(r.value(c), 4 * kPerWorker);
}

// -------------------------------------------------------------- histograms

TEST(Registry, BinUpperBoundsArePowersOfTwoThenInf) {
  Registry r{small_config()};  // first_bound 8, 6 bins
  EXPECT_EQ(r.bin_upper_bound(0), 8u);
  EXPECT_EQ(r.bin_upper_bound(1), 16u);
  EXPECT_EQ(r.bin_upper_bound(4), 128u);
  EXPECT_EQ(r.bin_upper_bound(5), UINT64_MAX);  // +Inf bin
}

TEST(Registry, ObservationsLandInCorrectBins) {
  Registry r{small_config()};
  const HistogramId h = r.histogram("lat");
  r.observe(h, 8);    // boundary: bin 0 (inclusive upper bound)
  r.observe(h, 9);    // bin 1
  r.observe(h, 128);  // bin 4
  r.observe(h, 129);  // overflow: +Inf bin
  const HistogramSnapshot s = r.histogram_snapshot(h);
  EXPECT_EQ(s.bins[0], 1u);
  EXPECT_EQ(s.bins[1], 1u);
  EXPECT_EQ(s.bins[4], 1u);
  EXPECT_EQ(s.bins[5], 1u);
  EXPECT_EQ(s.count, 4u);
  EXPECT_EQ(s.sum, 8u + 9u + 128u + 129u);
  EXPECT_EQ(s.min, 8u);
  EXPECT_EQ(s.max, 129u);
}

TEST(Registry, DrainSamplesReturnsOldestFirstAndConsumes) {
  Registry r{small_config()};
  const HistogramId h = r.histogram("lat");
  for (std::uint64_t v = 1; v <= 5; ++v) r.observe(h, v);
  EXPECT_EQ(r.sample_count(h), 5u);
  std::vector<double> out(3);
  EXPECT_EQ(r.drain_samples(h, out), 3u);
  EXPECT_EQ(out[0], 1.0);
  EXPECT_EQ(out[2], 3.0);
  EXPECT_EQ(r.sample_count(h), 2u);
  out.assign(8, 0.0);
  EXPECT_EQ(r.drain_samples(h, out), 2u);
  EXPECT_EQ(out[0], 4.0);
  EXPECT_EQ(out[1], 5.0);
  EXPECT_EQ(r.sample_count(h), 0u);
}

TEST(Registry, SampleRingOverwritesOldestAndCountsDrops) {
  Registry r{small_config()};  // sample_capacity = 8
  const HistogramId h = r.histogram("lat");
  for (std::uint64_t v = 1; v <= 11; ++v) r.observe(h, v);
  EXPECT_EQ(r.sample_count(h), 8u);
  const HistogramSnapshot s = r.histogram_snapshot(h);
  EXPECT_EQ(s.dropped_samples, 3u);
  EXPECT_EQ(s.count, 11u);  // bins still count everything
  std::vector<double> out(8);
  EXPECT_EQ(r.drain_samples(h, out), 8u);
  EXPECT_EQ(out[0], 4.0);   // 1..3 were overwritten
  EXPECT_EQ(out[7], 11.0);
}

// -------------------------------------------------------------- exposition

TEST(Registry, ExposeTextIsPrometheusShapedAndDeterministic) {
  Registry r{small_config()};
  const CounterId c = r.counter("sx_items_total");
  const GaugeId g = r.gauge("sx_budget");
  const HistogramId h = r.histogram("sx_lat_cycles");
  r.add(c, 3);
  r.add(c, 2);
  r.set(g, 1.5);
  r.observe(h, 10);
  const std::string text = expose_text(r);
  EXPECT_NE(text.find("# TYPE sx_items_total counter"), std::string::npos);
  EXPECT_NE(text.find("sx_items_total 5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE sx_budget gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE sx_lat_cycles histogram"), std::string::npos);
  EXPECT_NE(text.find("sx_lat_cycles_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("sx_lat_cycles_count 1"), std::string::npos);
  EXPECT_EQ(text, expose_text(r));  // byte-stable
}

// -------------------------------------------------------------- StageTimer

TEST(StageTimer, RecordsElapsedOnceWithInjectedClock) {
  Registry r{small_config()};
  const HistogramId h = r.histogram("stage");
  {
    StageTimer t{r, h};
    EXPECT_EQ(t.stop(), 7u);  // consecutive ticks are 7 apart
    t.stop();                 // idempotent
  }
  EXPECT_EQ(r.histogram_snapshot(h).count, 1u);
}

// --------------------------------------------------------- FlightRecorder

TEST(FlightRecorder, RejectsZeroCapacity) {
  EXPECT_THROW(FlightRecorder{0}, std::invalid_argument);
}

TEST(FlightRecorder, RetainsSpansInOrder) {
  FlightRecorder fr{4};
  for (std::uint64_t d = 1; d <= 3; ++d)
    fr.record(StageSpan{d, Stage::kInference, Status::kOk, false, d * 10,
                        d * 10 + 5});
  EXPECT_EQ(fr.size(), 3u);
  EXPECT_EQ(fr.total_recorded(), 3u);
  std::vector<StageSpan> out(4);
  EXPECT_EQ(fr.snapshot(out), 3u);
  EXPECT_EQ(out[0].decision, 1u);
  EXPECT_EQ(out[2].decision, 3u);
}

TEST(FlightRecorder, WrapsAroundKeepingNewestAndLifetimeCount) {
  FlightRecorder fr{4};
  for (std::uint64_t d = 1; d <= 10; ++d)
    fr.record(StageSpan{d, Stage::kDecision, Status::kOk, false, d, d + 1});
  EXPECT_EQ(fr.size(), 4u);
  EXPECT_EQ(fr.capacity(), 4u);
  EXPECT_EQ(fr.total_recorded(), 10u);  // truncation is evident
  std::vector<StageSpan> out(4);
  EXPECT_EQ(fr.snapshot(out), 4u);
  EXPECT_EQ(out[0].decision, 7u);  // oldest retained
  EXPECT_EQ(out[3].decision, 10u);
}

TEST(FlightRecorder, SnapshotDoesNotConsume) {
  FlightRecorder fr{4};
  fr.record(StageSpan{1, Stage::kOddGuard, Status::kOddViolation, true, 0, 7});
  std::vector<StageSpan> out(4);
  EXPECT_EQ(fr.snapshot(out), 1u);
  EXPECT_EQ(fr.snapshot(out), 1u);
  EXPECT_EQ(fr.size(), 1u);
}

TEST(FlightRecorder, ToTextNamesEveryStage) {
  FlightRecorder fr{8};
  for (const Stage s :
       {Stage::kStaticVerify, Stage::kOddGuard, Stage::kWatchdog,
        Stage::kInference, Stage::kSupervisor, Stage::kFallback,
        Stage::kDecision})
    fr.record(StageSpan{1, s, Status::kOk, false, 0, 1});
  const std::string text = fr.to_text();
  for (const Stage s :
       {Stage::kStaticVerify, Stage::kOddGuard, Stage::kWatchdog,
        Stage::kInference, Stage::kSupervisor, Stage::kFallback,
        Stage::kDecision})
    EXPECT_NE(text.find(to_string(s)), std::string::npos) << to_string(s);
}

// ------------------------------------------------------ registry snapshots

TEST(RegistrySnapshot, CaptureFreezesRegistryValues) {
  Registry r{small_config()};
  const CounterId c = r.counter("sx_items_total");
  const GaugeId g = r.gauge("sx_budget");
  const HistogramId h = r.histogram("sx_lat_cycles");
  r.add(c, 5);
  r.set(g, 1.5);
  r.observe(h, 10);
  r.observe(h, 200);
  const RegistrySnapshot snap = RegistrySnapshot::capture(r);
  EXPECT_EQ(snap.counter_value("sx_items_total"), 5u);
  EXPECT_EQ(snap.counter_value("missing"), 0u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].value, 1.5);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].count, 2u);
  EXPECT_EQ(snap.histograms[0].sum, 210u);
  EXPECT_EQ(snap.histograms[0].min, 10u);
  EXPECT_EQ(snap.histograms[0].max, 200u);
  // Snapshot outlives the registry: values above are owned copies.
  r.add(c, 1);
  EXPECT_EQ(snap.counter_value("sx_items_total"), 5u);
}

RegistrySnapshot worker_snapshot(std::uint64_t items,
                                 std::uint64_t observations, double budget) {
  Registry r{small_config()};  // sample_capacity = 8
  const CounterId c = r.counter("sx_items_total");
  const GaugeId g = r.gauge("sx_budget");
  const HistogramId h = r.histogram("sx_lat_cycles");
  r.add(c, items);
  r.set(g, budget);
  for (std::uint64_t v = 1; v <= observations; ++v) r.observe(h, v);
  return RegistrySnapshot::capture(r);
}

TEST(RegistrySnapshot, MergeSumsCountersAndCarriesDroppedSamples) {
  // 11 and 10 observations into capacity-8 rings: 3 + 2 raw samples were
  // overwritten before a drain — the merged evidence must say so.
  const RegistrySnapshot a = worker_snapshot(5, 11, 1.5);
  const RegistrySnapshot b = worker_snapshot(7, 10, 9.0);
  EXPECT_EQ(a.total_dropped_samples(), 3u);
  EXPECT_EQ(b.total_dropped_samples(), 2u);
  RegistrySnapshot merged = a;
  ASSERT_EQ(merged.merge_from(b), Status::kOk);
  EXPECT_EQ(merged.counter_value("sx_items_total"), 12u);
  EXPECT_EQ(merged.total_dropped_samples(), 5u);  // no silent sample loss
  EXPECT_EQ(merged.histograms[0].count, 21u);
  EXPECT_EQ(merged.histograms[0].sum, 66u + 55u);
  EXPECT_EQ(merged.histograms[0].min, 1u);
  EXPECT_EQ(merged.histograms[0].max, 11u);
  // Gauges are point-in-time settings: the lowest-ordered shard wins.
  EXPECT_EQ(merged.gauges[0].value, 1.5);
  // The serialized coverage line carries the merged total.
  EXPECT_NE(merged.serialize().find("sx_samples_dropped_total 5\n"),
            std::string::npos);
}

TEST(RegistrySnapshot, NWayMergeFoldsInGivenOrder) {
  const std::vector<RegistrySnapshot> shards{worker_snapshot(1, 0, 4.0),
                                             worker_snapshot(2, 0, 5.0),
                                             worker_snapshot(3, 0, 6.0)};
  RegistrySnapshot out;
  ASSERT_EQ(RegistrySnapshot::merge(shards, out), Status::kOk);
  EXPECT_EQ(out.counter_value("sx_items_total"), 6u);
  EXPECT_EQ(out.gauges[0].value, 4.0);  // shard 0's gauge
  RegistrySnapshot empty;
  ASSERT_EQ(RegistrySnapshot::merge({}, empty), Status::kOk);
  EXPECT_TRUE(empty.counters.empty());
}

TEST(RegistrySnapshot, SchemaMismatchIsRefusedAndTargetUnchanged) {
  RegistrySnapshot a = worker_snapshot(5, 0, 1.0);
  Registry other{small_config()};
  other.counter("sx_other_total");  // different metric name
  const RegistrySnapshot b = RegistrySnapshot::capture(other);
  const std::string before = a.serialize();
  EXPECT_EQ(a.merge_from(b), Status::kInvalidArgument);
  EXPECT_EQ(a.serialize(), before);  // refusal leaves the target intact
  EXPECT_FALSE(a.same_schema(b));
  EXPECT_TRUE(a.same_schema(worker_snapshot(9, 4, 2.0)));  // values differ ok
}

TEST(RegistrySnapshot, SerializationRoundTripsByteIdentically) {
  const RegistrySnapshot snap = worker_snapshot(5, 11, 1.5);
  const std::string text = snap.serialize();
  EXPECT_EQ(text, snap.serialize());  // deterministic
  RegistrySnapshot reparsed;
  ASSERT_TRUE(RegistrySnapshot::parse(text, reparsed));
  EXPECT_EQ(reparsed.serialize(), text);  // parse inverts serialize
  EXPECT_TRUE(reparsed.same_schema(snap));
  EXPECT_EQ(reparsed.total_dropped_samples(), 3u);
}

TEST(RegistrySnapshot, ParseRefusesEditedCoverageClaim) {
  std::string text = worker_snapshot(5, 11, 1.5).serialize();
  // Hand-edit the derived coverage line: claim fewer drops than the
  // histogram rows record. The file must be refused, not trusted.
  const std::string honest = "sx_samples_dropped_total 3";
  const std::size_t at = text.find(honest);
  ASSERT_NE(at, std::string::npos);
  text.replace(at, honest.size(), "sx_samples_dropped_total 0");
  RegistrySnapshot out;
  EXPECT_FALSE(RegistrySnapshot::parse(text, out));
}

TEST(RegistrySnapshot, ParseRefusesMalformedText) {
  RegistrySnapshot out;
  EXPECT_FALSE(RegistrySnapshot::parse("", out));
  EXPECT_FALSE(RegistrySnapshot::parse("wrong-schema/9\n", out));
  // Truncated: counters promised but missing.
  EXPECT_FALSE(RegistrySnapshot::parse(
      "sx-registry-snapshot/1\nhistogram_first_bound 8\n"
      "dropped_registrations 0\nsx_samples_dropped_total 0\ncounters 2\n",
      out));
}

}  // namespace
}  // namespace sx::obs
