// Observability layer: trace capture on the flight recorder and the trace
// report over its records, the metrics registry, and the thread-safe
// logger. The concurrency-heavy cases here also run under the tsan label
// (see CMakeLists) with capture forced on.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/log.h"
#include "common/thread_pool.h"
#include "elan/job.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace_report.h"
#include "sched/metrics.h"
#include "storage/filesystem.h"

namespace elan {
namespace {

// The recorder is process-global; every test starts from a clean one with
// capture on and leaves it off, its rings back at the always-on size.
struct TracerTest : ::testing::Test {
  void SetUp() override {
    obs::FlightRecorder::set_clock(nullptr, nullptr);
    obs::FlightRecorder::set_enabled(true);
    obs::FlightRecorder::set_capture(true);
    obs::FlightRecorder::instance().clear();
  }
  void TearDown() override {
    obs::FlightRecorder::set_capture(false);
    obs::FlightRecorder::set_enabled(false);
    obs::FlightRecorder::instance().clear();
  }
};

// Dumps the recorder and reads the record back, as elan_trace_report does.
// The pid keeps concurrent test processes off each other's files.
obs::FlightRecord dump_and_read(const std::string& name) {
  const std::string path = ::testing::TempDir() + name + "." +
                           std::to_string(::getpid()) + ".flt";
  EXPECT_TRUE(obs::FlightRecorder::instance().dump(path));
  obs::FlightRecord record = obs::read_flight_record(path);
  std::remove(path.c_str());
  return record;
}

obs::Timeline dump_timeline(const std::string& name) {
  return obs::build_timeline({dump_and_read(name)});
}

std::vector<obs::TimelineEvent> spans_named(const obs::Timeline& timeline,
                                            const std::string& category,
                                            const std::string& name) {
  std::vector<obs::TimelineEvent> out;
  for (const auto& e : timeline.events) {
    if (e.phase == 'X' && e.category == category && e.name == name) out.push_back(e);
  }
  return out;
}

bool is_trace_kind(const obs::FlightEvent& e) {
  const auto kind = static_cast<obs::FlightEventKind>(e.kind);
  return kind == obs::FlightEventKind::kSpan || kind == obs::FlightEventKind::kInstant ||
         kind == obs::FlightEventKind::kCounter ||
         kind == obs::FlightEventKind::kLaneMarker;
}

TEST_F(TracerTest, DisabledRecordsNothing) {
  const auto record_all = [] {
    ELAN_TRACE_SCOPE("test", "noop");
    obs::FlightRecorder::instant("test", "noop_instant");
    obs::FlightRecorder::counter("test", "noop_counter", 1);
    obs::FlightRecorder::span("test", "explicit", 0, 1);
    obs::FlightRecorder::mark_lane("noop_lane");
  };
  // Recorder on, capture off: the always-on configuration of live jobs.
  obs::FlightRecorder::set_capture(false);
  record_all();
  // Capture requested but the recorder off.
  obs::FlightRecorder::set_capture(true);
  obs::FlightRecorder::set_enabled(false);
  record_all();
  EXPECT_EQ(obs::FlightRecorder::instance().total_recorded(), 0u);
}

TEST_F(TracerTest, MultiThreadSpansAllFlushed) {
  constexpr int kThreads = 8, kSpans = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kSpans; ++i) {
        ELAN_TRACE_SCOPE("test", "worker_span");
      }
    });
  }
  for (auto& t : threads) t.join();
  const auto timeline = dump_timeline("multi_thread");
  ASSERT_EQ(timeline.events.size(), static_cast<std::size_t>(kThreads * kSpans));
  std::set<std::uint64_t> lanes;
  for (const auto& e : timeline.events) {
    EXPECT_EQ(e.phase, 'X');
    EXPECT_EQ(e.category, "test");
    EXPECT_EQ(e.name, "worker_span");
    lanes.insert(e.lane);
  }
  EXPECT_EQ(lanes.size(), static_cast<std::size_t>(kThreads));
  EXPECT_EQ(timeline.lost_events, 0u);
}

TEST_F(TracerTest, SimClockStampsVirtualTime) {
  sim::Simulator sim;
  obs::ScopedSimClock clock(sim);
  sim.schedule(2.5, [] { obs::FlightRecorder::instant("test", "at_2500ms"); });
  sim.run();
  const auto timeline = dump_timeline("sim_clock");
  ASSERT_EQ(timeline.events.size(), 1u);
  EXPECT_EQ(timeline.events.front().phase, 'i');
  EXPECT_DOUBLE_EQ(timeline.events.front().ts_us, 2.5e6);
}

TEST_F(TracerTest, ExplicitTimestampAndTidLanes) {
  obs::FlightRecorder::span("test", "lane_a", 100.0, 50.0, /*lane=*/7);
  obs::FlightRecorder::span("test", "lane_b", 120.0, 1.0 / 3.0, /*lane=*/9);
  const auto timeline = dump_timeline("lanes");
  ASSERT_EQ(timeline.events.size(), 2u);
  EXPECT_EQ(timeline.events[0].lane, 7u);
  EXPECT_DOUBLE_EQ(timeline.events[0].ts_us, 100.0);
  EXPECT_DOUBLE_EQ(timeline.events[0].dur_us, 50.0);
  EXPECT_EQ(timeline.events[1].lane, 9u);
  // The duration rides in the event as the double's bits: lossless.
  EXPECT_EQ(timeline.events[1].dur_us, 1.0 / 3.0);
}

TEST_F(TracerTest, RecordRoundTripsThroughReport) {
  obs::FlightRecorder::mark_lane("round trip \"q\"");
  obs::FlightRecorder::span("cat", "span", 1000.0, 2000.0);
  obs::FlightRecorder::span("cat", "span", 5000.0, 1000.0);
  obs::FlightRecorder::instant("cat", "tick");
  obs::FlightRecorder::counter("cat", "load", 0.5);
  const auto timeline = dump_timeline("round_trip");

  const auto summary = obs::summarize_timeline(timeline);
  EXPECT_EQ(summary.spans, 2u);
  EXPECT_EQ(summary.instants, 1u);
  EXPECT_EQ(summary.counter_samples, 1u);
  EXPECT_EQ(summary.lost_events, 0u);
  ASSERT_EQ(summary.rows.size(), 1u);
  EXPECT_EQ(summary.rows[0].category, "cat");
  EXPECT_EQ(summary.rows[0].name, "span");
  EXPECT_EQ(summary.rows[0].count, 2u);
  EXPECT_DOUBLE_EQ(summary.rows[0].total_ms, 3.0);
  EXPECT_DOUBLE_EQ(summary.rows[0].max_ms, 2.0);
  // No adjustment spans in this trace: shares are unavailable.
  EXPECT_DOUBLE_EQ(summary.adjustment_ms, 0.0);
  EXPECT_LT(summary.rows[0].adjustment_share, 0.0);

  // The marker opened a second process lane holding every event; the
  // Chrome export names it (escaped) and carries the counter's value.
  ASSERT_EQ(timeline.lane_names.size(), 2u);
  for (const auto& e : timeline.events) EXPECT_EQ(e.pid, 2u);
  const std::string json = obs::chrome_trace_json(timeline);
  EXPECT_NE(json.find(R"("pid":2,"tid":0,"args":{"name":"round trip \"q\""})"),
            std::string::npos);
  EXPECT_EQ(json.find(R"("name":"record 0")"), std::string::npos);
  EXPECT_NE(json.find(R"("ph":"C","cat":"cat","name":"load")"), std::string::npos);
  EXPECT_NE(json.find(R"("args":{"value":0.5})"), std::string::npos);
}

TEST_F(TracerTest, ReportRejectsMalformedRecord) {
  const std::string dir = ::testing::TempDir();
  const std::string pid = std::to_string(::getpid());
  // What ELAN_TRACE used to write is not a record.
  const std::string json = dir + "old_trace." + pid + ".json";
  std::ofstream(json) << "{\"traceEvents\": []}";
  EXPECT_THROW(obs::read_flight_record(json), Error);
  // A record cut short inside its rings.
  obs::FlightRecorder::span("test", "span", 0, 1);
  const std::string good = dir + "good." + pid + ".flt";
  ASSERT_TRUE(obs::FlightRecorder::instance().dump(good));
  std::string bytes;
  {
    std::ifstream in(good, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  const std::string cut = dir + "cut." + pid + ".flt";
  std::ofstream(cut, std::ios::binary).write(bytes.data(), 40);
  EXPECT_THROW(obs::read_flight_record(cut), Error);
  for (const auto& path : {json, good, cut}) std::remove(path.c_str());
}

// One 8-worker ResNet-50 job scaled out by `extra` workers at t=1s, run to
// the end of its first adjustment (bench/fig10_timeline's scenario).
AdjustmentRecord run_scale_out(Mechanism mech, std::vector<int> initial_gpus,
                               std::vector<int> join_gpus) {
  sim::Simulator sim;
  obs::ScopedSimClock clock(sim);
  obs::FlightRecorder::mark_lane(to_string(mech));
  topo::Topology topology{topo::TopologySpec{}};
  topo::BandwidthModel bandwidth;
  storage::SimFilesystem fs;
  transport::MessageBus bus{sim, bandwidth};
  transport::KvStore kv{sim};
  JobConfig c;
  c.model = train::resnet50();
  c.initial_workers = static_cast<int>(initial_gpus.size());
  c.initial_total_batch = 32 * c.initial_workers;
  c.initial_gpus = std::move(initial_gpus);
  c.mechanism = mech;
  ElasticJob job(sim, topology, bandwidth, fs, bus, kv, std::move(c));
  job.stop_after_iterations(1000000);
  job.on_iteration = [&](std::uint64_t) {
    if (!job.adjustments().empty()) job.stop();
  };
  job.start();
  sim.schedule(1.0, [&] { job.request_scale_out(join_gpus); });
  sim.run();
  return job.adjustments().at(0);
}

// The acceptance scenario: a scale-out whose new workers sit next to their
// sources (one pair per node) replicates over distinct PCIe switches, so the
// per-transfer spans must overlap in virtual time — §IV-3's concurrency made
// visible. Coordination rounds must land on per-worker lanes.
TEST_F(TracerTest, ScaleOutTraceShowsConcurrentReplication) {
  sim::Simulator sim;
  topo::Topology topology{topo::TopologySpec{}};
  topo::BandwidthModel bandwidth;
  storage::SimFilesystem fs;
  transport::MessageBus bus{sim, bandwidth};
  transport::KvStore kv{sim};
  obs::ScopedSimClock clock(sim);

  JobConfig c;
  c.model = train::resnet50();
  c.initial_workers = 4;
  c.initial_total_batch = 128;
  c.initial_gpus = {0, 8, 16, 24};  // one worker per node
  ElasticJob job(sim, topology, bandwidth, fs, bus, kv, std::move(c));
  job.stop_after_iterations(500);
  job.start();
  sim.schedule(1.0, [&] { job.request_scale_out({1, 9, 17, 25}); });
  sim.run();
  ASSERT_EQ(job.adjustments().size(), 1u);
  const auto& adj = job.adjustments().front();

  const auto timeline = dump_timeline("scale_out");
  const auto transfers = spans_named(timeline, "replication", "transfer");
  std::set<std::uint64_t> coordination_lanes;
  for (const auto& e : spans_named(timeline, "coordination", "round")) {
    coordination_lanes.insert(e.lane);
  }
  const auto adjustments = spans_named(timeline, "adjustment", "adjustment");

  // One transfer per joining worker, on that worker's lane.
  ASSERT_EQ(transfers.size(), 4u);
  std::set<std::uint64_t> transfer_lanes;
  for (const auto& t : transfers) transfer_lanes.insert(t.lane);
  EXPECT_EQ(transfer_lanes, (std::set<std::uint64_t>{4, 5, 6, 7}));

  // All four cross distinct PCIe switches: every pair of spans overlaps.
  for (std::size_t i = 0; i < transfers.size(); ++i) {
    for (std::size_t j = i + 1; j < transfers.size(); ++j) {
      const auto& a = transfers[i];
      const auto& b = transfers[j];
      EXPECT_LT(std::max(a.ts_us, b.ts_us),
                std::min(a.ts_us + a.dur_us, b.ts_us + b.dur_us))
          << "transfers " << i << " and " << j << " do not overlap";
    }
  }

  // Coordination rounds are attributed per worker (the original four lanes,
  // plus the joined workers' lanes after the adjustment).
  EXPECT_GE(coordination_lanes.size(), 4u);
  EXPECT_TRUE(coordination_lanes.count(0));
  EXPECT_TRUE(coordination_lanes.count(4));

  // The whole-adjustment span matches the job's own record, and the report
  // reproduces the per-phase totals from the record alone.
  ASSERT_EQ(adjustments.size(), 1u);
  EXPECT_NEAR(adjustments.front().dur_us / 1000.0, adj.pause_time() * 1000.0, 1e-6);
  const auto summary = obs::summarize_timeline(timeline);
  EXPECT_NEAR(summary.adjustment_ms, adj.pause_time() * 1000.0, 1e-6);
  bool found_replication_phase = false;
  for (const auto& row : summary.rows) {
    if (row.category == "adjustment" && row.name == "replication") {
      found_replication_phase = true;
      EXPECT_NEAR(row.total_ms, adj.breakdown.replication * 1000.0, 1e-6);
    }
    if (row.category == "replication" && row.name == "transfer") {
      EXPECT_EQ(row.count, 4u);
      // Four fully-overlapping transfers: their summed time exceeds the
      // replication phase wall time (that is what the >1 share flags).
      EXPECT_GT(row.total_ms, adj.breakdown.replication * 1000.0 * 1.5);
    }
  }
  EXPECT_TRUE(found_replication_phase);
}

// Live jobs run the recorder with capture off: a scale-out then leaves its
// protocol events and no span, instant, counter or lane marker.
TEST_F(TracerTest, CaptureOffRecordsNoSpanKinds) {
  obs::FlightRecorder::set_capture(false);
  obs::FlightRecorder::instance().clear();
  run_scale_out(Mechanism::kElan, {0, 8, 16, 24}, {1, 9, 17, 25});
  const auto record = dump_and_read("capture_off");
  std::size_t protocol = 0, trace = 0;
  for (const auto& e : record.merged()) ++(is_trace_kind(e) ? trace : protocol);
  EXPECT_GT(protocol, 0u);
  EXPECT_EQ(trace, 0u);
}

// bench/fig10_timeline traced: both mechanisms' 8->16 scale-outs put ~24k
// events on one sim thread, many times what the always-on ring holds, but
// fit a capture ring whole, and the report sees every one of its 16 span
// rows.
TEST_F(TracerTest, Fig10SizedCaptureDoesNotWrap) {
  const std::vector<int> initial = {0, 1, 2, 3, 4, 5, 6, 7};
  const std::vector<int> join = {8, 9, 10, 11, 12, 13, 14, 15};
  run_scale_out(Mechanism::kShutdownRestart, initial, join);
  run_scale_out(Mechanism::kElan, initial, join);
  const auto record = dump_and_read("fig10");
  std::uint64_t most = 0;
  for (const auto& ring : record.rings) {
    EXPECT_EQ(ring.total, ring.events.size()) << "ring of thread " << ring.thread;
    most = std::max(most, ring.total);
  }
  EXPECT_GT(most, 2u * obs::FlightRecorder::kRingCapacity);

  const auto timeline = obs::build_timeline({record});
  const auto summary = obs::summarize_timeline(timeline);
  EXPECT_EQ(summary.lost_events, 0u);
  EXPECT_EQ(summary.rows.size(), 16u);
  // The record's own lane plus one per mechanism run.
  EXPECT_EQ(timeline.lane_names,
            (std::vector<std::string>{"record 0", "S&R", "Elan"}));
}

TEST_F(TracerTest, ThreadPoolQueueWaitSpansUnderParallelFor) {
  // One pool for every --gtest_repeat iteration: the recorder keeps at most
  // kMaxThreads thread rings per process, and each fresh thread takes one.
  static ThreadPool pool(4);
  std::atomic<int> sum{0};
  pool.parallel_for(0, 64, 1, [&](std::int64_t b, std::int64_t e) {
    sum += static_cast<int>(e - b);
  });
  EXPECT_EQ(sum.load(), 64);
  const auto timeline = dump_timeline("thread_pool");
  std::size_t runs = 0;
  for (const auto& e : timeline.events) {
    if (e.category == "threadpool" && e.name == "task_run") ++runs;
  }
  EXPECT_EQ(runs, 64u);
}

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

TEST(MetricsTest, ConcurrentCounterIsExact) {
  auto& counter = obs::MetricsRegistry::instance().counter("test_concurrent_total");
  const auto before = counter.value();
  constexpr int kThreads = 8, kIncrements = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i) counter.add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.value() - before,
            static_cast<std::uint64_t>(kThreads) * kIncrements);
}

TEST(MetricsTest, HistogramBucketBoundaries) {
  obs::Histogram h({1.0, 2.0, 5.0});
  h.observe(1.0);   // `le` semantics: exactly on a bound lands in that bucket
  h.observe(1.5);
  h.observe(2.0);
  h.observe(5.0);
  h.observe(6.0);   // above the last bound: +Inf bucket
  h.observe(-1.0);  // below everything: first bucket
  const auto s = h.snapshot();
  ASSERT_EQ(s.counts.size(), 4u);
  EXPECT_EQ(s.counts[0], 2u);  // 1.0, -1.0
  EXPECT_EQ(s.counts[1], 2u);  // 1.5, 2.0
  EXPECT_EQ(s.counts[2], 1u);  // 5.0
  EXPECT_EQ(s.counts[3], 1u);  // 6.0
  EXPECT_EQ(s.count, 6u);
  EXPECT_DOUBLE_EQ(s.sum, 14.5);
}

TEST(MetricsTest, ExpositionHasCumulativeBuckets) {
  auto& h = obs::MetricsRegistry::instance().histogram("test_expo_seconds", {0.1, 1.0},
                                                       "exposition test");
  h.observe(0.05);
  h.observe(0.5);
  h.observe(2.0);
  const auto text = obs::MetricsRegistry::instance().text_exposition();
  EXPECT_NE(text.find("# TYPE test_expo_seconds histogram"), std::string::npos);
  EXPECT_NE(text.find("test_expo_seconds_bucket{le=\"0.1\"} 1"), std::string::npos);
  EXPECT_NE(text.find("test_expo_seconds_bucket{le=\"1\"} 2"), std::string::npos);
  EXPECT_NE(text.find("test_expo_seconds_bucket{le=\"+Inf\"} 3"), std::string::npos);
  EXPECT_NE(text.find("test_expo_seconds_count 3"), std::string::npos);
}

TEST(MetricsTest, GaugeLastWriteWins) {
  auto& g = obs::MetricsRegistry::instance().gauge("test_gauge");
  g.set(1.5);
  g.set(-3.25);
  EXPECT_DOUBLE_EQ(g.value(), -3.25);
}

TEST(MetricsTest, SameNameReturnsSameMetric) {
  auto& a = obs::MetricsRegistry::instance().counter("test_same_total");
  auto& b = obs::MetricsRegistry::instance().counter("test_same_total");
  EXPECT_EQ(&a, &b);
}

TEST(MetricsTest, KindMismatchThrows) {
  obs::MetricsRegistry::instance().counter("test_kind_total");
  EXPECT_THROW(obs::MetricsRegistry::instance().gauge("test_kind_total"), InvalidArgument);
  auto& h = obs::MetricsRegistry::instance().histogram("test_rebound_seconds", {1.0});
  (void)h;
  EXPECT_THROW(
      obs::MetricsRegistry::instance().histogram("test_rebound_seconds", {1.0, 2.0}),
      InvalidArgument);
}

// ---------------------------------------------------------------------------
// Logger
// ---------------------------------------------------------------------------

TEST(LoggerTest, ParseLevelNames) {
  EXPECT_EQ(parse_log_level("debug"), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("WARN"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("Warning"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("off"), LogLevel::kOff);
  EXPECT_FALSE(parse_log_level("verbose").has_value());
}

TEST(LoggerTest, FormatLineHasLevelTimeAndThreadPrefix) {
  const std::string line = Logger::format_line(LogLevel::kWarn, "message");
  EXPECT_EQ(line.rfind("[WARN ", 0), 0u) << line;
  EXPECT_NE(line.find(" t"), std::string::npos) << line;
  EXPECT_NE(line.find("] message"), std::string::npos) << line;
}

TEST(LoggerTest, ConcurrentLoggingDeliversEveryLine) {
  const LogLevel old_level = Logger::level();
  Logger::set_level(LogLevel::kInfo);
  // The sink runs under the logger mutex, so a plain vector is enough.
  std::vector<std::string> lines;
  Logger::set_sink([&](LogLevel, const std::string& message) { lines.push_back(message); });

  constexpr int kThreads = 8, kLines = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kLines; ++i) {
        log_info() << "thread " << t << " line " << i;
      }
    });
  }
  for (auto& t : threads) t.join();
  Logger::set_sink(nullptr);
  Logger::set_level(old_level);

  ASSERT_EQ(lines.size(), static_cast<std::size_t>(kThreads * kLines));
  for (const auto& l : lines) EXPECT_EQ(l.rfind("thread ", 0), 0u);
}

TEST(LoggerTest, LevelFilterSuppressesBelow) {
  const LogLevel old_level = Logger::level();
  Logger::set_level(LogLevel::kError);
  int delivered = 0;
  Logger::set_sink([&](LogLevel, const std::string&) { ++delivered; });
  log_warn() << "filtered";
  log_error() << "delivered";
  Logger::set_sink(nullptr);
  Logger::set_level(old_level);
  EXPECT_EQ(delivered, 1);
}

// ---------------------------------------------------------------------------
// sched::ScheduleMetrics::average_utilization edge cases (satellite)
// ---------------------------------------------------------------------------

TEST(ScheduleMetricsTest, AverageUtilizationEmptyIsZero) {
  sched::ScheduleMetrics m;
  EXPECT_DOUBLE_EQ(m.average_utilization(), 0.0);
}

TEST(ScheduleMetricsTest, AverageUtilizationSingleSample) {
  sched::ScheduleMetrics m;
  m.utilization.push_back({10.0, 0.75});
  EXPECT_DOUBLE_EQ(m.average_utilization(), 0.75);
}

TEST(ScheduleMetricsTest, AverageUtilizationIsOrderIndependent) {
  sched::ScheduleMetrics sorted, shuffled;
  sorted.utilization = {{1.0, 0.2}, {2.0, 0.4}, {3.0, 0.9}};
  shuffled.utilization = {{3.0, 0.9}, {1.0, 0.2}, {2.0, 0.4}};
  EXPECT_DOUBLE_EQ(sorted.average_utilization(), shuffled.average_utilization());
  EXPECT_DOUBLE_EQ(sorted.average_utilization(), 0.5);
}

}  // namespace
}  // namespace elan
