#include "obs/obs.h"

#include <cstdio>
#include <cstdlib>

#include "common/log.h"
#include "obs/metrics.h"

namespace elan::obs {

namespace {

// Written once by init_from_env before the atexit registration; read by the
// exit hook. No locking needed for that ordering, but keep it simple.
std::string& trace_path() {
  static std::string path;
  return path;
}

std::string& metrics_path() {
  static std::string path;
  return path;
}

std::string& flight_path_storage() {
  static std::string path;
  return path;
}

void dump_flight(const std::string& path, const char* what) {
  if (FlightRecorder::instance().dump(path)) {
    std::fprintf(stderr, "[obs] wrote %s %s\n", what, path.c_str());
  } else {
    std::fprintf(stderr, "[obs] %s dump failed: %s\n", what, path.c_str());
  }
}

void dump_observability() {
  if (!trace_path().empty()) {
    dump_flight(trace_path(), "trace record");
    trace_path().clear();
  }
  if (!metrics_path().empty()) {
    try {
      MetricsRegistry::instance().write_text(metrics_path());
      std::fprintf(stderr, "[obs] wrote metrics %s\n", metrics_path().c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "[obs] metrics dump failed: %s\n", e.what());
    }
    metrics_path().clear();
  }
  if (!flight_path_storage().empty()) {
    // Clean-exit flight record (crash paths write their own through the
    // armed hooks). Keep the path so flight_requested() stays true.
    dump_flight(flight_path_storage(), "flight record");
  }
}

}  // namespace

void init_from_env() {
  static bool initialized = false;
  if (initialized) return;
  initialized = true;

  Logger::init_from_env();

  bool want_dump = false;
  if (const char* trace = std::getenv("ELAN_TRACE"); trace != nullptr && *trace != '\0') {
    trace_path() = trace;
    // Capture first: rings registered from here on get the capture size.
    FlightRecorder::set_capture(true);
    FlightRecorder::set_enabled(true);
    want_dump = true;
  }
  if (const char* metrics = std::getenv("ELAN_METRICS");
      metrics != nullptr && *metrics != '\0') {
    metrics_path() = metrics;
    want_dump = true;
  }
  if (const char* flight = std::getenv("ELAN_FLIGHT");
      flight != nullptr && *flight != '\0') {
    flight_path_storage() = flight;
    FlightRecorder::set_enabled(true);
    FlightRecorder::instance().arm_crash_dump(flight);
    want_dump = true;
  }
  if (want_dump) std::atexit(dump_observability);
}

bool flight_requested() { return !flight_path_storage().empty(); }

std::string flight_path() { return flight_path_storage(); }

void dump_now() { dump_observability(); }

}  // namespace elan::obs
