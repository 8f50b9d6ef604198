// Shared pieces of the elanbench driver: clocks, the in-memory span
// recorder, correctness checks, small statistics helpers and the entry
// points of the three workloads and the per-layer probes.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace elanbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Median and linear-interpolated quantile; both throw on an empty input.
double median(std::vector<double> values);
double quantile(std::vector<double> values, double q);

/// Spans recorded by the benchmark around its calls into the program's
/// modules. Kept in memory; summarised (and written out) after the run. A
/// disabled recorder ignores every call, so untraced runs pay one branch.
class Spans {
 public:
  struct Span {
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
  };

  explicit Spans(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  void add(std::string name, Clock::time_point start, Clock::time_point end) {
    if (enabled_) spans_.push_back(Span{std::move(name), start, end});
  }
  /// Durations (ms) of every span with this name, in record order.
  std::vector<double> durations_ms(std::string_view name) const;
  /// For every `parent` span: its duration minus the time covered by spans
  /// named in `children` that lie inside it (self time, ms).
  std::vector<double> self_ms(std::string_view parent,
                              const std::vector<std::string>& children) const;
  /// One JSON object per line: name, start and end in microseconds since
  /// `origin`.
  void write_jsonl(const std::string& path, Clock::time_point origin) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// RAII span around one call.
class ScopedSpan {
 public:
  ScopedSpan(Spans& spans, const char* name)
      : spans_(spans), name_(name), start_(spans.enabled() ? Clock::now() : Clock::time_point{}) {}
  ~ScopedSpan() {
    if (spans_.enabled()) spans_.add(name_, start_, Clock::now());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Spans& spans_;
  const char* name_;
  Clock::time_point start_;
};

/// Named correctness checks. A failed check makes the run incorrect; the
/// self-test asserts that specific names fail under injected faults.
class Checks {
 public:
  void expect(bool ok, const std::string& name, const std::string& detail = "");
  bool all_ok() const { return failures_.empty(); }
  bool failed(std::string_view name) const;
  const std::vector<std::string>& failures() const { return failures_; }
  int evaluated() const { return evaluated_; }

 private:
  std::vector<std::string> failures_;  // "name: detail"
  std::vector<std::string> failed_names_;
  int evaluated_ = 0;
};

/// Faults the self-test injects to prove each check can fail.
enum class Fault {
  kNone,
  kDuplicateShard,   // train: one shard reported twice to the exactly-once check
  kSkipShard,        // train: one shard withheld from the exactly-once check
  kFlipJoinerByte,   // elastic: one byte of one joiner's loaded state flipped
  kPerturbReplay,    // sched replay: one event-driven metric perturbed before the
                     // comparison with the fixed-tick reference
};

struct Context {
  std::uint64_t seed = 1;
  Clock::time_point process_start;
  std::string bin_dir;   // where elan_launch / elan_am / elan_worker live
  std::string work_dir;  // relative scratch directory inside the checkout
  int cpus = 1;          // CPUs this process may run on
  int threads = 1;       // global thread-pool size of the workloads
  Fault fault = Fault::kNone;
};

/// What one workload phase measured. Metric values are keyed by the names
/// of BENCHMARK.json.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;
};

/// Phase length: `seconds` of measurement, or (when zero) a fixed count of
/// rounds — the short companion runs that give every workload every metric.
struct Budget {
  double seconds = 0;
  int rounds = 0;
};

Outcome run_train(const Context& ctx, Budget budget, Spans& spans, Checks& checks);
Outcome run_elastic(const Context& ctx, Budget budget, Spans& spans, Checks& checks);
Outcome run_live(const Context& ctx, Budget budget, Spans& spans, Checks& checks);
/// The sched-layer replay (a probe, not a workload).
Outcome run_replay(const Context& ctx, int replays, Checks& checks);

/// Single-layer probes of the traced run (minidl, thread pool, comm, elan
/// data plane, socket transport, sched replay).
void run_probes(const Context& ctx, Outcome& out, Checks& checks);

/// Peak resident set of this process, and of its largest waited-for child.
double peak_rss_mb_self();
double peak_rss_mb_children();

}  // namespace elanbench
