// Shared fixture for the paper-reproduction benchmark harnesses.
//
// Each bench binary regenerates one table or figure of the paper and prints
// it as an ASCII table (series by rows). Absolute numbers come from the
// calibrated simulator; the *shapes* match the paper (see EXPERIMENTS.md).
#pragma once

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>

#include "common/error.h"
#include "obs/flight.h"

#include "baselines/adjustment_cost.h"
#include "common/log.h"
#include "common/table.h"
#include "obs/obs.h"
#include "storage/filesystem.h"
#include "topology/bandwidth.h"
#include "topology/topology.h"
#include "train/models.h"
#include "train/throughput.h"

namespace elan::bench {

/// The paper's testbed: 8 servers x 8 GPUs.
struct Testbed {
  topo::Topology topology{topo::TopologySpec{}};
  topo::BandwidthModel bandwidth;
  storage::SimFilesystem fs;
  train::ThroughputModel throughput{topology, bandwidth};
  baselines::AdjustmentCostModel costs{topology, bandwidth, fs};
};

/// The scheduling cluster: 128 GPUs (16 nodes).
struct SchedTestbed {
  topo::Topology topology{topo::TopologySpec{.nodes = 16}};
  topo::BandwidthModel bandwidth;
  storage::SimFilesystem fs;
  train::ThroughputModel throughput{topology, bandwidth};
  baselines::AdjustmentCostModel costs{topology, bandwidth, fs};
};

struct FlightOverhead {
  double disabled_ns = 0;  // record() with the recorder off
  double enabled_ns = 0;   // record() with the recorder on
  double span_off_ns = 0;  // ELAN_TRACE_SCOPE with the recorder on, capture off
};

/// Measures FlightRecorder::record() both ways plus a span scope with
/// capture off, and gates the two disabled paths: each is one relaxed
/// atomic load, so it must sit in the measurement noise (the 500 ns/op
/// ceiling is ~100x the typical cost — the gate only catches someone
/// accidentally putting work before the enabled()/capturing() check).
inline FlightOverhead measure_flight_overhead() {
  using clock = std::chrono::steady_clock;
  constexpr int kIters = 200000;
  const bool was_enabled = obs::FlightRecorder::enabled();
  const bool was_capturing = obs::FlightRecorder::capturing();
  const auto time_loop = [&](auto&& body) {
    const auto t0 = clock::now();
    for (int i = 0; i < kIters; ++i) body();
    return std::chrono::duration<double, std::nano>(clock::now() - t0)
               .count() / kIters;
  };
  const auto record = [] {
    obs::FlightRecorder::record(obs::FlightEventKind::kMsgSend, "bench");
  };
  FlightOverhead overhead;
  obs::FlightRecorder::set_enabled(false);
  overhead.disabled_ns = time_loop(record);
  obs::FlightRecorder::set_enabled(true);
  overhead.enabled_ns = time_loop(record);
  obs::FlightRecorder::set_capture(false);
  overhead.span_off_ns = time_loop([] { ELAN_TRACE_SCOPE("bench", "span"); });
  obs::FlightRecorder::set_capture(was_capturing);
  obs::FlightRecorder::set_enabled(was_enabled);
  // Headers run before any real work: dropping the measurement events keeps
  // an ELAN_FLIGHT= record free of 200k "bench" entries.
  obs::FlightRecorder::instance().clear();
  require(overhead.disabled_ns < 500.0,
          "flight recorder disabled path exceeds the noise ceiling");
  require(overhead.span_off_ns < 500.0,
          "span scope with capture off exceeds the noise ceiling");
  return overhead;
}

inline void print_header(const std::string& title, const std::string& note = "") {
  // Every bench calls this first, so it doubles as the observability hook:
  // ELAN_TRACE=/ELAN_METRICS= give any bench a trace record / metrics
  // sidecar without per-binary wiring (dumped via atexit).
  obs::init_from_env();
  const FlightOverhead overhead = measure_flight_overhead();
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("flight recorder: disabled %.1f ns/op, enabled %.1f ns/op, "
              "span with capture off %.1f ns/op\n",
              overhead.disabled_ns, overhead.enabled_ns, overhead.span_off_ns);
  if (!note.empty()) std::printf("%s\n", note.c_str());
  std::printf("\n");
}

inline void print_table(const Table& table) { table.print(std::cout); }

/// Stable decimal formatting for the BENCH_*.json sidecars: six significant
/// digits, no locale, so committed baselines diff cleanly across machines.
inline std::string json_number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return buf;
}

/// Writes one BENCH_*.json sidecar (machine-readable counterpart of the
/// ASCII table every bench prints). Throws on IO failure so CI can't upload
/// a silently-empty artifact.
inline void write_json_file(const std::string& path, const std::string& json) {
  std::ofstream out(path);
  require(out.good(), "bench: cannot open " + path);
  out << json;
  require(out.good(), "bench: short write to " + path);
  std::printf("wrote %s\n", path.c_str());
}

/// Extracts the flat `"gate": { "slug": number, ... }` object a BENCH json
/// carries for regression checks. Deliberately minimal: gates are written by
/// write_json_file above, one "key": value pair per line.
inline std::map<std::string, double> read_json_gate(const std::string& path) {
  std::ifstream in(path);
  require(in.good(), "bench: cannot read baseline " + path);
  std::map<std::string, double> gate;
  std::string line;
  bool inside = false;
  while (std::getline(in, line)) {
    if (!inside) {
      if (line.find("\"gate\"") != std::string::npos) inside = true;
      continue;
    }
    if (line.find('}') != std::string::npos) break;
    const auto open = line.find('"');
    const auto close = line.find('"', open + 1);
    const auto colon = line.find(':', close + 1);
    if (open == std::string::npos || close == std::string::npos ||
        colon == std::string::npos) {
      continue;
    }
    gate[line.substr(open + 1, close - open - 1)] =
        std::strtod(line.c_str() + colon + 1, nullptr);
  }
  require(!gate.empty(), "bench: no gate object in " + path);
  return gate;
}

/// Worker-letter labels used by Fig 15 ("Models are denoted by A - E").
inline const char* model_letter(const std::string& name) {
  if (name == "ResNet-50") return "A";
  if (name == "VGG-19") return "B";
  if (name == "MobileNet-v2") return "C";
  if (name == "Seq2Seq") return "D";
  if (name == "Transformer") return "E";
  return "?";
}

}  // namespace elan::bench
