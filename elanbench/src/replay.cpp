// The sched-layer replay: sched::ClusterSim replays a production-like trace
// (~7.6k jobs over 480 h) on the paper's 128-GPU testbed under E-BF with
// Elan's adjustment costs, placement-aware. It runs as a probe of the traced
// run and in the self-test; as a workload of its own its speed was too
// unsteady on a shared host (README.md).
#include <cmath>
#include <cstdio>
#include <cstring>

#include "baselines/adjustment_cost.h"
#include "bench.h"
#include "sched/cluster.h"
#include "sched/trace.h"
#include "storage/filesystem.h"

namespace elanbench {
namespace {

using namespace elan;

struct Testbed {
  topo::Topology topology{topo::TopologySpec{.nodes = 16}};
  topo::BandwidthModel bandwidth;
  storage::SimFilesystem fs;
  train::ThroughputModel throughput{topology, bandwidth};
  baselines::AdjustmentCostModel costs{topology, bandwidth, fs};
};

constexpr double kTraceHours = 480;
/// The fixed-tick reference loop is ~15x slower, so it replays a 24 h trace
/// from the same generator and seed.
constexpr double kReferenceHours = 24;

std::vector<sched::SchedJobSpec> make_trace(const Testbed& bed, std::uint64_t seed,
                                            double hours_span) {
  sched::TraceParams params;
  params.span = hours(hours_span);
  params.seed = seed;
  return sched::TraceGenerator(bed.throughput, params).generate();
}

sched::ScheduleMetrics replay(const Testbed& bed, const std::vector<sched::SchedJobSpec>& trace,
                              bool event_driven) {
  sched::ClusterParams params;
  params.total_gpus = bed.topology.total_gpus();
  params.placement_aware = true;
  params.event_driven = event_driven;
  sched::ClusterSim sim(bed.throughput, bed.costs, sched::PolicyKind::kElasticBackfill,
                        baselines::System::kElan, params);
  return sim.run(trace);
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof(a)) == 0; }

/// Every ScheduleMetrics field, compared bit for bit; empty when equal.
std::string metric_difference(const sched::ScheduleMetrics& a, const sched::ScheduleMetrics& b) {
  if (!same_bits(a.pending_time.mean(), b.pending_time.mean())) return "mean pending time";
  if (!same_bits(a.completion_time.mean(), b.completion_time.mean())) return "mean JCT";
  if (a.pending_time.values() != b.pending_time.values()) return "per-job pending times";
  if (a.completion_time.values() != b.completion_time.values()) return "per-job JCTs";
  if (!same_bits(a.makespan, b.makespan)) return "makespan";
  if (a.total_adjustments != b.total_adjustments) return "adjustments";
  if (a.jobs_finished != b.jobs_finished) return "jobs finished";
  if (a.utilization.size() != b.utilization.size()) return "utilisation sample count";
  for (std::size_t i = 0; i < a.utilization.size(); ++i) {
    if (!same_bits(a.utilization[i].time, b.utilization[i].time) ||
        !same_bits(a.utilization[i].utilization, b.utilization[i].utilization)) {
      return "utilisation sample " + std::to_string(i);
    }
  }
  return "";
}

void check_metrics(const sched::ScheduleMetrics& m, std::size_t jobs, const char* which,
                   Checks& checks) {
  checks.expect(m.jobs_finished == static_cast<int>(jobs), "replay.all_jobs_finished",
                std::string(which) + ": " + std::to_string(m.jobs_finished) + " of " +
                    std::to_string(jobs));
  bool in_range = !m.utilization.empty();
  for (const auto& s : m.utilization) {
    in_range = in_range && s.utilization >= 0.0 && s.utilization <= 1.0;
  }
  checks.expect(in_range, "replay.utilisation_in_range", which);
}

}  // namespace

Outcome run_replay(const Context& ctx, int replays, Checks& checks) {
  Testbed bed;
  const auto trace = make_trace(bed, ctx.seed, kTraceHours);
  Outcome out;
  std::vector<double> seconds;
  sched::ScheduleMetrics first;
  for (int r = 0; r < replays; ++r) {
    const auto t0 = Clock::now();
    auto m = replay(bed, trace, true);
    seconds.push_back(seconds_between(t0, Clock::now()));
    if (r == 0) {
      first = std::move(m);
      check_metrics(first, trace.size(), "measured trace", checks);
    } else {
      const auto diff = metric_difference(first, m);
      checks.expect(diff.empty(), "replay.deterministic",
                    "replay " + std::to_string(r + 1) + " differs in " + diff);
    }
  }
  out.attempted = seconds.size() * trace.size();
  // Deterministic single-threaded work that neighbours on a shared host only
  // ever slow down, so the fastest replay tracks the code.
  out.per_layer["sched.replay_jobs_per_s"] =
      static_cast<double>(trace.size()) / quantile(seconds, 0);
  out.per_layer["sched.adjustments"] = first.total_adjustments;

  // The event-driven fast path must reproduce the fixed-tick loop exactly.
  const auto small = make_trace(bed, ctx.seed, kReferenceHours);
  auto fast = replay(bed, small, true);
  const auto reference = replay(bed, small, false);
  check_metrics(reference, small.size(), "reference trace", checks);
  if (ctx.fault == Fault::kPerturbReplay) fast.makespan = std::nextafter(fast.makespan, INFINITY);
  const auto diff = metric_difference(fast, reference);
  checks.expect(diff.empty(), "replay.matches_fixed_tick",
                "event-driven and fixed-tick replays differ in " + diff);
  std::fprintf(stderr,
               "replay: %zu jobs x %zu replays, %.3f / %.3f / %.3f s (min / median / max); "
               "reference %zu jobs, %d adjustments\n",
               trace.size(), seconds.size(), quantile(seconds, 0), median(seconds),
               quantile(seconds, 1), small.size(),
               reference.total_adjustments);
  return out;
}

}  // namespace elanbench
