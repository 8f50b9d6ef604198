#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "bench.h"

namespace elanbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) throw std::runtime_error("quantile of an empty sample");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

std::vector<double> Spans::durations_ms(std::string_view name) const {
  std::vector<double> out;
  for (const auto& s : spans_) {
    if (s.name == name) out.push_back(ms_between(s.start, s.end));
  }
  return out;
}

std::vector<double> Spans::self_ms(std::string_view parent,
                                   const std::vector<std::string>& children) const {
  std::vector<double> out;
  for (const auto& p : spans_) {
    if (p.name != parent) continue;
    double inside = 0;
    for (const auto& c : spans_) {
      if (c.start < p.start || c.end > p.end) continue;
      if (std::find(children.begin(), children.end(), c.name) != children.end()) {
        inside += ms_between(c.start, c.end);
      }
    }
    out.push_back(ms_between(p.start, p.end) - inside);
  }
  return out;
}

void Spans::write_jsonl(const std::string& path, Clock::time_point origin) const {
  std::ofstream f(path);
  for (const auto& s : spans_) {
    f << "{\"name\":\"" << s.name << "\",\"start_us\":"
      << std::chrono::duration<double, std::micro>(s.start - origin).count()
      << ",\"end_us\":" << std::chrono::duration<double, std::micro>(s.end - origin).count()
      << "}\n";
  }
}

void Checks::expect(bool ok, const std::string& name, const std::string& detail) {
  ++evaluated_;
  if (ok) return;
  failures_.push_back(name + (detail.empty() ? "" : ": " + detail));
  failed_names_.push_back(name);
  std::fprintf(stderr, "CHECK FAILED %s%s%s\n", name.c_str(), detail.empty() ? "" : ": ",
               detail.c_str());
}

bool Checks::failed(std::string_view name) const {
  return std::find(failed_names_.begin(), failed_names_.end(), name) != failed_names_.end();
}

double peak_rss_mb_self() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      status >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

double peak_rss_mb_children() {
  rusage usage{};
  getrusage(RUSAGE_CHILDREN, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace elanbench
