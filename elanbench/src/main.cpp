// elanbench: one end-to-end benchmark of elastic training.
//
//   elanbench --workload train|elastic|live --seed N --seconds S
//             --trace 0|1 [--t0-ns NS] [--work-dir DIR]
//   elanbench --self-test [--work-dir DIR]
//
// A run measures its workload for half of --seconds, then runs the other
// workloads as companion phases for the rest, so each run reports every
// end-to-end metric. --trace 1 repeats the same phases with spans on, adds
// the single-layer probes (and the sched replay), and reports the per-layer
// metrics. The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
// README.md describes the workloads, metrics and checks.
#include <sched.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.h"
#include "common/thread_pool.h"

namespace elanbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"samples_per_s", "samples/s"},
    {"scale_out_pause_ms", "ms"},
    {"live_scale_out_ms", "ms"},
    {"live_scale_in_ms", "ms"},
};

const std::vector<MetricDef> kPerLayer = {
    {"minidl.forward_backward_ms", "ms"},
    {"minidl.update_ms", "ms"},
    {"minidl.matmul_gflops", "GFLOP/s"},
    {"minidl.matmul_vector_gflops", "GFLOP/s"},
    {"thread_pool.dispatch_us", "us"},
    {"thread_pool.fb_1t_ms", "ms"},
    {"thread_pool.fb_nt_ms", "ms"},
    {"thread_pool.fb_vector_1t_ms", "ms"},
    {"thread_pool.fb_vector_nt_ms", "ms"},
    {"comm.allreduce_ms", "ms"},
    {"comm.allreduce_gbps", "GB/s"},
    {"comm.allreduce_small_ms", "ms"},
    {"elan.iteration_residual_ms", "ms"},
    {"elan.state_save_ms", "ms"},
    {"elan.state_load_ms", "ms"},
    {"elan.pause_other_ms", "ms"},
    {"elan.scale_in_pause_ms", "ms"},
    {"elan.fnv1a_gbps", "GB/s"},
    {"elan.chunk_plan_us", "us"},
    {"elan.replication_bytes", "bytes"},
    {"elan.messages_per_adjustment", "count"},
    {"sim.events_per_iteration", "count"},
    {"transport.socket_rtt_us_p50", "us"},
    {"transport.socket_rtt_us_p99", "us"},
    {"transport.socket_msgs_per_s", "1/s"},
    {"transport.socket_payload_gbps", "GB/s"},
    {"sched.adjustments", "count"},
    {"sched.replay_jobs_per_s", "jobs/s"},
    {"process.peak_rss_mb", "MB"},
};

using Phase = std::function<Outcome(const Context&, Budget, Spans&, Checks&)>;

struct Workload {
  const char* name;
  Phase phase;
  /// Rounds of a brief self-test run: throughput windows (train) or scale
  /// cycles (elastic, live).
  int self_test_rounds;
};

const std::vector<Workload> kWorkloads = {
    {"train", run_train, 4},
    {"elastic", run_elastic, 2},
    {"live", run_live, 2},
};

/// Share of --seconds the main phase measures; the other workloads' companion
/// phases split the rest.
constexpr double kMainShare = 0.5;

const Workload* find_workload(const std::string& name) {
  for (const auto& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// Adds `from`'s metrics that `into` does not have yet.
void fill(std::map<std::string, double>& into, const std::map<std::string, double>& from) {
  for (const auto& [k, v] : from) into.emplace(k, v);
}

Outcome run_workload(const Context& ctx, const Workload& main, double seconds, Spans& spans,
                     Checks& checks) {
  Outcome out = main.phase(ctx, Budget{seconds * kMainShare, 0}, spans, checks);
  const double companion_s = seconds * (1 - kMainShare) / (kWorkloads.size() - 1);
  for (const auto& w : kWorkloads) {
    if (&w == &main) continue;
    const auto t0 = Clock::now();
    Outcome c = w.phase(ctx, Budget{companion_s, 0}, spans, checks);
    std::fprintf(stderr, "companion %s: %.2f s\n", w.name, seconds_between(t0, Clock::now()));
    c.end_to_end.erase("setup_s");
    c.per_layer.erase("process.peak_rss_mb");
    fill(out.end_to_end, c.end_to_end);
    fill(out.per_layer, c.per_layer);
    out.attempted += c.attempted;
    out.failed += c.failed;
  }
  return out;
}

void print_result(bool correct, const Outcome& out, const std::map<std::string, double>& values,
                  const std::vector<MetricDef>& defs) {
  bool complete = true;
  std::string metrics;
  for (const auto& d : defs) {
    const auto it = values.find(d.name);
    double value = 0;
    if (it == values.end() || !std::isfinite(it->second)) {
      std::fprintf(stderr, "metric %s was not measured\n", d.name);
      complete = false;
    } else {
      value = it->second;
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", d.name, value, d.unit);
    metrics += buf;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct && complete ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed), metrics.c_str());
  std::fflush(stdout);
}

int process_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

std::string exe_dir() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) throw std::runtime_error("cannot locate the benchmark binary");
  std::string path(buf, static_cast<std::size_t>(n));
  return path.substr(0, path.rfind('/'));
}

void make_dirs(const std::string& path) {
  for (std::size_t pos = 0; pos != std::string::npos;) {
    pos = path.find('/', pos + 1);
    ::mkdir(path.substr(0, pos).c_str(), 0755);
  }
}

struct SelfTestCase {
  const char* label;
  const char* workload;
  Fault fault;
  std::vector<std::string> must_fail;
};

/// Runs every workload briefly, clean and with each injected fault, and
/// proves the clean runs pass while every fault trips its checks.
int self_test(Context ctx) {
  const std::vector<SelfTestCase> cases = {
      {"train", "train", Fault::kNone, {}},
      {"train, one shard reported twice", "train", Fault::kDuplicateShard,
       {"train.exactly_once"}},
      {"train, one shard withheld", "train", Fault::kSkipShard, {"train.exactly_once"}},
      {"elastic", "elastic", Fault::kNone, {}},
      {"elastic, one byte of a joiner's state flipped", "elastic", Fault::kFlipJoinerByte,
       {"elastic.replicas_identical", "elastic.joiner_checksum"}},
      {"live", "live", Fault::kNone, {}},
  };
  int bad = 0;
  for (const auto& c : cases) {
    ctx.fault = c.fault;
    Spans spans(true);
    Checks checks;
    const Workload* w = find_workload(c.workload);
    w->phase(ctx, Budget{0, w->self_test_rounds}, spans, checks);
    bool pass = c.must_fail.empty() ? checks.all_ok() : true;
    for (const auto& name : c.must_fail) pass = pass && checks.failed(name);
    std::printf("self-test %-48s %s (%d checks, %zu failed)\n", c.label, pass ? "PASS" : "FAIL",
                checks.evaluated(), checks.failures().size());
    bad += pass ? 0 : 1;
  }
  for (const Fault fault : {Fault::kNone, Fault::kPerturbReplay}) {
    ctx.fault = fault;
    Outcome probes;
    Checks checks;
    run_probes(ctx, probes, checks);
    const bool pass = fault == Fault::kNone
                          ? checks.all_ok() && probes.per_layer.size() >= 18
                          : checks.failed("replay.matches_fixed_tick");
    std::printf("self-test %-48s %s\n",
                fault == Fault::kNone ? "layer probes and sched replay"
                                      : "sched replay, one metric perturbed",
                pass ? "PASS" : "FAIL");
    bad += pass ? 0 : 1;
  }
  std::printf("self-test %s\n", bad == 0 ? "OK" : "FAILED");
  return bad == 0 ? 0 : 1;
}

int run(int argc, char** argv) {
  const auto entered = Clock::now();
  std::string workload, work_dir = ".bench_build/run";
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  long long t0_ns = -1;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") workload = value();
    else if (arg == "--seed") seed = std::stoull(value());
    else if (arg == "--seconds") seconds = std::stod(value());
    else if (arg == "--trace") trace = std::stoi(value());
    else if (arg == "--t0-ns") t0_ns = std::stoll(value());
    else if (arg == "--work-dir") work_dir = value();
    else if (arg == "--self-test") selftest = true;
    else throw std::invalid_argument("unknown argument " + arg);
  }

  Context ctx;
  ctx.seed = seed;
  // The launcher passes its CLOCK_MONOTONIC reading from just before exec, so
  // setup_s covers process start-up; steady_clock reads the same clock.
  ctx.process_start = entered;
  if (t0_ns > 0) {
    const Clock::time_point t0{std::chrono::nanoseconds(t0_ns)};
    if (t0 <= entered && seconds_between(t0, entered) < 10.0) ctx.process_start = t0;
  }
  ctx.bin_dir = exe_dir();
  ctx.work_dir = work_dir;
  // Half the CPUs: the pool's parallel_for then rarely waits on a CPU that
  // the host or the live workload's processes took away.
  ctx.cpus = process_cpus();
  ctx.threads = std::max(1, ctx.cpus / 2);
  make_dirs(work_dir);
  elan::ThreadPool::set_global_threads(ctx.threads);

  if (selftest) return self_test(ctx);
  const Workload* w = find_workload(workload);
  if (w == nullptr) throw std::invalid_argument("unknown --workload '" + workload + "'");
  if (!(seconds > 0) || (trace != 0 && trace != 1)) {
    throw std::invalid_argument("--seconds must be positive and --trace 0 or 1");
  }

  Spans spans(trace == 1);
  Checks checks;
  Outcome out = run_workload(ctx, *w, seconds, spans, checks);
  if (trace == 1) {
    run_probes(ctx, out, checks);
    spans.write_jsonl(work_dir + "/spans-" + workload + "-" + std::to_string(seed) + ".jsonl",
                      ctx.process_start);
    std::string e2e;
    for (const auto& [k, v] : out.end_to_end) e2e += " " + k + "=" + std::to_string(v);
    std::fprintf(stderr, "traced end-to-end:%s\n", e2e.c_str());
  }
  for (const auto& f : checks.failures()) std::printf("check failed: %s\n", f.c_str());
  if (trace == 1) {
    print_result(checks.all_ok(), out, out.per_layer, kPerLayer);
  } else {
    print_result(checks.all_ok(), out, out.end_to_end, kEndToEnd);
  }
  return 0;
}

}  // namespace
}  // namespace elanbench

int main(int argc, char** argv) {
  try {
    return elanbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "elanbench: %s\n", e.what());
    return 2;
  }
}
