// Observability bootstrap shared by benches and tools.
//
//   obs::init_from_env() — one call near the top of main (bench binaries get
//   it for free through bench::print_header):
//     ELAN_LOG=trace|debug|info|warn|error  sets the global logger level;
//     ELAN_TRACE=<path>   enables the flight recorder with trace capture
//                         (spans, instants, counters; rings sized at
//                         FlightRecorder::kCaptureCapacity) and writes the
//                         record to <path> at process exit — read it with
//                         elan_trace_report (add --chrome=<out.json> for
//                         Perfetto);
//     ELAN_METRICS=<path> writes the Prometheus-style metrics snapshot to
//                         <path> at process exit.
//     ELAN_FLIGHT=<path>  enables the black-box flight recorder, arms its
//                         crash dump (ELAN_CHECK failures, lock-order
//                         aborts, SIGSEGV/SIGABRT), and writes the record
//                         to <path> at process exit as well.
//
//   obs::ScopedSimClock — switches the flight recorder onto a simulator's
//   virtual clock for the scope of a sim run, so protocol events and
//   scoped spans carry virtual timestamps comparable to the explicitly-
//   timestamped spans the job runtime emits (paper Figs 10-11 timelines).
#pragma once

#include <string>

#include "obs/flight.h"
#include "sim/simulator.h"

namespace elan::obs {

/// Applies ELAN_LOG / ELAN_TRACE / ELAN_METRICS (see the file comment).
/// Idempotent; the exit dump registers only once.
void init_from_env();

/// True when init_from_env enabled the flight recorder (ELAN_FLIGHT set).
bool flight_requested();

/// The ELAN_FLIGHT destination ("" when unset).
std::string flight_path();

/// Flushes the pending exit dumps immediately (also runs atexit; tools call
/// this to write files before printing a "wrote ..." line).
void dump_now();

/// Flight-recorder timestamps come from `sim.now()` while this object
/// lives; the real-time clock is restored on destruction.
class ScopedSimClock {
 public:
  explicit ScopedSimClock(sim::Simulator& sim) {
    FlightRecorder::set_clock(
        [](void* ctx) {
          return static_cast<sim::Simulator*>(ctx)->now() * 1e6;
        },
        &sim);
  }
  ~ScopedSimClock() { FlightRecorder::set_clock(nullptr, nullptr); }

  ScopedSimClock(const ScopedSimClock&) = delete;
  ScopedSimClock& operator=(const ScopedSimClock&) = delete;
};

}  // namespace elan::obs
