#include "obs/trace_report.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <map>
#include <sstream>
#include <string_view>
#include <tuple>
#include <utility>

#include "common/table.h"

namespace elan::obs {

namespace {

double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  if (sorted.size() == 1) return sorted.front();
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - std::floor(rank);
  return sorted[lo] * (1 - frac) + sorted[hi] * frac;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

Timeline build_timeline(const std::vector<FlightRecord>& records,
                        const std::vector<std::string>& labels) {
  Timeline timeline;
  for (std::size_t r = 0; r < records.size(); ++r) {
    // Recording order: lane markers split a record by what came after them,
    // and a sim clock restarting per run makes timestamps ambiguous.
    std::vector<FlightEvent> events;
    for (const FlightRecord::Ring& ring : records[r].rings) {
      events.insert(events.end(), ring.events.begin(), ring.events.end());
      timeline.lost_events += ring.total - ring.events.size();
    }
    std::sort(events.begin(), events.end(),
              [](const FlightEvent& x, const FlightEvent& y) { return x.seq < y.seq; });

    // kAmPhase's detail names the phase it enters; learn value -> name from
    // the record itself to name the phase each event leaves.
    std::map<std::uint64_t, std::string> phase_names;
    for (const FlightEvent& e : events) {
      if (static_cast<FlightEventKind>(e.kind) == FlightEventKind::kAmPhase) {
        phase_names.emplace(e.b, e.detail);
      }
    }
    const auto phase_name = [&](std::uint64_t phase) {
      const auto it = phase_names.find(phase);
      return it != phase_names.end() ? it->second : std::to_string(phase);
    };

    timeline.lane_names.push_back(r < labels.size() ? labels[r]
                                                    : "record " + std::to_string(r));
    auto pid = static_cast<std::uint32_t>(timeline.lane_names.size());
    std::map<std::pair<std::uint32_t, std::string>, double> phase_since;
    std::map<std::tuple<std::uint32_t, std::string, std::uint64_t>, double> round_start;
    const auto add = [&](char phase, std::string category, std::string name,
                         double ts_us, double dur_us, std::uint64_t lane) -> TimelineEvent& {
      TimelineEvent& t = timeline.events.emplace_back();
      t.phase = phase;
      t.category = std::move(category);
      t.name = std::move(name);
      t.ts_us = ts_us;
      t.dur_us = dur_us;
      t.pid = pid;
      t.lane = lane;
      return t;
    };

    for (const FlightEvent& e : events) {
      switch (static_cast<FlightEventKind>(e.kind)) {
        case FlightEventKind::kSpan:
          add('X', e.actor, e.detail, e.ts_us, std::bit_cast<double>(e.a), e.b);
          break;
        case FlightEventKind::kInstant:
          add('i', e.actor, e.detail, e.ts_us, 0, e.b);
          break;
        case FlightEventKind::kCounter:
          add('C', e.actor, e.detail, e.ts_us, 0, e.b).value = std::bit_cast<double>(e.a);
          break;
        case FlightEventKind::kLaneMarker:
          timeline.lane_names.emplace_back(e.detail);
          pid = static_cast<std::uint32_t>(timeline.lane_names.size());
          break;
        case FlightEventKind::kAmPhase: {
          // The phase this AM just left ran since its previous transition
          // (or since clock zero, for the phase it was created in).
          double& since = phase_since.try_emplace({pid, e.actor}, 0.0).first->second;
          add('X', "master", "phase/" + phase_name(e.a), since, e.ts_us - since, e.thread);
          since = e.ts_us;
          // The AM enters "adjusting" only when it instructs the adjustment.
          if (std::string_view(e.detail) == "adjusting") {
            add('i', "master", "instruct_adjustment", e.ts_us, 0, e.thread);
          }
          break;
        }
        case FlightEventKind::kRoundStart:
          round_start[{pid, e.actor, e.a}] = e.ts_us;
          break;
        case FlightEventKind::kRoundDecision: {
          const auto it = round_start.find({pid, e.actor, e.a});
          if (it != round_start.end()) {
            add('X', "coordination", "round", it->second, e.ts_us - it->second, e.b);
          }
          break;
        }
        case FlightEventKind::kWorkerReport:
          add('i', "master", "worker_report", e.ts_us, 0, e.thread);
          break;
        case FlightEventKind::kWorkerEvicted:
          add('i', "master", "evict_joining", e.ts_us, 0, e.thread);
          break;
        case FlightEventKind::kFaultInjected:
          add('i', "fault", e.detail, e.ts_us, 0, e.thread);
          break;
        case FlightEventKind::kChunkSourceLost:
          add('i', "fault", "chunk_source_lost", e.ts_us, 0, e.thread);
          break;
        case FlightEventKind::kReplicationReplan:
          add('i', "fault", "replication_replanned", e.ts_us, 0, e.thread);
          break;
        default:
          break;
      }
    }
  }
  return timeline;
}

TraceSummary summarize_timeline(const Timeline& timeline) {
  struct Group {
    std::vector<double> durs_ms;
    double total_ms = 0;
  };
  std::map<std::pair<std::string, std::string>, Group> groups;

  TraceSummary summary;
  summary.lost_events = timeline.lost_events;
  double min_ts = 0, max_end = 0;
  for (const TimelineEvent& e : timeline.events) {
    if (e.phase == 'i') {
      ++summary.instants;
      continue;
    }
    if (e.phase == 'C') {
      ++summary.counter_samples;
      continue;
    }
    if (summary.spans == 0 || e.ts_us < min_ts) min_ts = e.ts_us;
    if (summary.spans == 0 || e.ts_us + e.dur_us > max_end) max_end = e.ts_us + e.dur_us;
    ++summary.spans;
    auto& g = groups[{e.category, e.name}];
    g.durs_ms.push_back(e.dur_us / 1000.0);
    g.total_ms += e.dur_us / 1000.0;
    if (e.category == "adjustment" && e.name == "adjustment") {
      summary.adjustment_ms += e.dur_us / 1000.0;
    }
  }
  summary.wall_ms = summary.spans > 0 ? (max_end - min_ts) / 1000.0 : 0;

  for (auto& [key, g] : groups) {
    std::sort(g.durs_ms.begin(), g.durs_ms.end());
    TraceSummaryRow row;
    row.category = key.first;
    row.name = key.second;
    row.count = g.durs_ms.size();
    row.total_ms = g.total_ms;
    row.p50_ms = percentile_sorted(g.durs_ms, 50);
    row.p99_ms = percentile_sorted(g.durs_ms, 99);
    row.max_ms = g.durs_ms.back();
    if (summary.adjustment_ms > 0) row.adjustment_share = g.total_ms / summary.adjustment_ms;
    summary.rows.push_back(std::move(row));
  }
  std::sort(summary.rows.begin(), summary.rows.end(),
            [](const TraceSummaryRow& a, const TraceSummaryRow& b) {
              if (a.total_ms != b.total_ms) return a.total_ms > b.total_ms;
              return std::tie(a.category, a.name) < std::tie(b.category, b.name);
            });
  return summary;
}

std::string render_trace_summary(const TraceSummary& summary,
                                 const std::string& category_filter) {
  std::ostringstream os;
  os.precision(6);
  os << "spans: " << summary.spans << "  instants: " << summary.instants
     << "  counter samples: " << summary.counter_samples << "\n";
  os << "events lost to ring wrap: " << summary.lost_events << "\n";
  os << "trace wall span: " << summary.wall_ms << " ms\n";
  if (summary.adjustment_ms > 0) {
    os << "adjustment critical path: " << summary.adjustment_ms
       << " ms (share column is relative to it; >1 means overlapping spans)\n";
  } else {
    os << "no adjustment span in this trace (share column unavailable)\n";
  }
  os << "\n";

  Table table({"category", "span", "count", "total ms", "p50 ms", "p99 ms", "max ms",
               "adj share"});
  auto fmt = [](double v) {
    std::ostringstream cell;
    cell.precision(4);
    cell << std::fixed << v;
    return cell.str();
  };
  for (const auto& row : summary.rows) {
    if (!category_filter.empty() && row.category != category_filter) continue;
    table.add(row.category, row.name, static_cast<unsigned long long>(row.count),
              fmt(row.total_ms), fmt(row.p50_ms), fmt(row.p99_ms), fmt(row.max_ms),
              row.adjustment_share < 0 ? std::string("-")
                                       : fmt(row.adjustment_share * 100.0) + "%");
  }
  os << table.to_string();
  return os.str();
}

std::string chrome_trace_json(const Timeline& timeline) {
  std::ostringstream os;
  os.precision(15);  // µs timestamps survive the round trip losslessly
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",";
    first = false;
    os << "\n";
  };
  std::vector<bool> used(timeline.lane_names.size() + 1, false);
  for (const TimelineEvent& e : timeline.events) used[e.pid] = true;
  for (std::size_t pid = 1; pid < used.size(); ++pid) {
    if (!used[pid]) continue;
    sep();
    os << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" << pid
       << ",\"tid\":0,\"args\":{\"name\":\"" << json_escape(timeline.lane_names[pid - 1])
       << "\"}}";
  }
  for (const TimelineEvent& e : timeline.events) {
    sep();
    os << "{\"ph\":\"" << e.phase << "\",\"cat\":\"" << json_escape(e.category)
       << "\",\"name\":\"" << json_escape(e.name) << "\",\"ts\":" << e.ts_us
       << ",\"pid\":" << e.pid << ",\"tid\":" << e.lane;
    if (e.phase == 'X') os << ",\"dur\":" << e.dur_us;
    if (e.phase == 'i') os << ",\"s\":\"t\"";
    if (e.phase == 'C') os << ",\"args\":{\"value\":" << e.value << "}";
    os << "}";
  }
  os << "\n]}\n";
  return os.str();
}

}  // namespace elan::obs
