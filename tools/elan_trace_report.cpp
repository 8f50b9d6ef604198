// elan_trace_report — summarise flight records written with trace capture
// on (ELAN_TRACE=<path> on any bench or tool).
//
//   elan_trace_report fig10_trace.flt
//   elan_trace_report fig10_trace.flt --category replication
//   elan_trace_report am.flt w0.flt --chrome=job_trace.json
//
// Prints a per-category / per-span table (count, total, p50/p99, max) and —
// when the trace contains whole-adjustment spans — each row's share of the
// adjustment critical path. A share above 100% means the row's spans overlap
// (concurrent replication transfers, fan-out coordination rounds). The
// header reports events lost to ring wrap; a non-zero count means the
// record is incomplete. --chrome also writes the timeline as Chrome
// trace-event JSON for Perfetto, one process lane per record and per lane
// marker.
#include <cstdio>
#include <fstream>

#include "common/error.h"
#include "common/flags.h"
#include "obs/trace_report.h"

int main(int argc, char** argv) {
  using namespace elan;
  Flags flags;
  flags.define("category", "", "only show rows from this trace category");
  flags.define("chrome", "", "also write Chrome trace-event JSON to this path");
  define_log_level_flag(flags);

  try {
    const auto positional = flags.parse(argc, argv);
    if (flags.help_requested() || positional.empty()) {
      std::fputs("usage: elan_trace_report <record.flt>... [flags]\n", stdout);
      std::fputs(flags.usage("elan_trace_report").c_str(), stdout);
      return flags.help_requested() ? 0 : 1;
    }
    apply_log_level_flag(flags);

    std::vector<obs::FlightRecord> records;
    for (const auto& path : positional) records.push_back(obs::read_flight_record(path));
    const auto timeline = obs::build_timeline(records, positional);
    std::fputs(obs::render_trace_summary(obs::summarize_timeline(timeline),
                                         flags.get("category"))
                   .c_str(),
               stdout);

    if (const std::string chrome = flags.get("chrome"); !chrome.empty()) {
      std::ofstream out(chrome);
      out << obs::chrome_trace_json(timeline);
      require(out.good(), "elan_trace_report: cannot write " + chrome);
      std::printf("wrote %s\n", chrome.c_str());
    }
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
