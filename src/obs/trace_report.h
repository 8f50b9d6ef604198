// Trace analysis over flight records (DESIGN.md §5i). A record written with
// trace capture on (ELAN_TRACE=...) holds span, instant, counter and lane
// marker events next to the protocol events. build_timeline() decodes the
// former and derives the spans and instants the latter already imply:
//   - master/phase/<name>: one span per AM phase, between consecutive
//     kAmPhase events of one AM (the first phase starts at clock zero);
//   - coordination/round: kRoundStart -> each kRoundDecision, on the
//     deciding worker's lane;
//   - master/worker_report, master/evict_joining, master/instruct_adjustment
//     and fault/<what>, fault/chunk_source_lost, fault/replication_replanned
//     instants from their flight kinds.
// The timeline then reduces to a per-category / per-span-name table (count,
// total, p50/p99, max, share of the adjustment critical path) or to Chrome
// trace-event JSON for Perfetto. This is the library behind
// tools/elan_trace_report; tests and benches call it directly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/flight.h"

namespace elan::obs {

/// One decoded or derived timeline event.
struct TimelineEvent {
  char phase = 'X';       // 'X' span, 'i' instant, 'C' counter
  std::string category;
  std::string name;
  double ts_us = 0;
  double dur_us = 0;      // 'X' only
  double value = 0;       // 'C' only
  std::uint32_t pid = 0;  // process lane, 1-based
  std::uint64_t lane = 0; // thread index, or the lane the call site named
};

struct Timeline {
  /// Process lane names; pid p is lane_names[p - 1].
  std::vector<std::string> lane_names;
  /// Per record in input order, events in recording (seq) order.
  std::vector<TimelineEvent> events;
  /// Events recorded but overwritten by a ring wrap before the dump.
  std::uint64_t lost_events = 0;
};

/// Decodes `records` into one timeline. Each record opens a process lane
/// named by `labels[i]` (or "record <i>"), and each lane marker inside a
/// record opens another one for the events recorded after it.
Timeline build_timeline(const std::vector<FlightRecord>& records,
                        const std::vector<std::string>& labels = {});

struct TraceSummaryRow {
  std::string category;
  std::string name;
  std::uint64_t count = 0;
  double total_ms = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double max_ms = 0;
  /// total_ms / (summed duration of "adjustment/adjustment" spans), or -1
  /// when the trace contains no adjustment span. > 1 means the row's spans
  /// overlap each other (e.g. concurrent replication transfers).
  double adjustment_share = -1;
};

struct TraceSummary {
  /// [min ts, max ts+dur] over all spans, in ms.
  double wall_ms = 0;
  /// Summed duration of spans named "adjustment" in category "adjustment"
  /// (the whole-adjustment spans ElasticJob emits); 0 when absent.
  double adjustment_ms = 0;
  std::uint64_t spans = 0;
  std::uint64_t instants = 0;
  std::uint64_t counter_samples = 0;
  /// Timeline::lost_events: non-zero means the record is incomplete.
  std::uint64_t lost_events = 0;
  /// Rows sorted by total_ms descending.
  std::vector<TraceSummaryRow> rows;
};

/// Groups the timeline's spans by (category, name).
TraceSummary summarize_timeline(const Timeline& timeline);

/// ASCII rendering of the summary (the elan_trace_report output).
std::string render_trace_summary(const TraceSummary& summary,
                                 const std::string& category_filter = "");

/// Chrome trace-event JSON ({"traceEvents": [...]}), loadable in Perfetto.
std::string chrome_trace_json(const Timeline& timeline);

}  // namespace elan::obs
