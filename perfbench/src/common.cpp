#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>

#include "bench.hpp"

namespace perfbench {

void Outcome::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  problems.push_back(what);
}

double median(std::vector<double> xs) { return quantile(std::move(xs), 0.5); }

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  return xs[lo] + (rank - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

std::optional<double> tail_percentile(std::vector<double> xs, double p) {
  const double value = quantile(xs, p / 100.0);
  const auto beyond = std::count_if(xs.begin(), xs.end(),
                                    [&](double x) { return x > value; });
  if (beyond < 10) return std::nullopt;
  return value;
}

std::int64_t Tracer::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

std::uint64_t Tracer::add(const std::string& name, std::int64_t start_ns,
                          std::int64_t end_ns, std::uint64_t parent,
                          std::uint64_t trace) {
  if (!enabled_) return 0;
  const std::uint64_t id = next_id_++;
  spans_.push_back({name, id, parent, trace, start_ns, end_ns});
  return id;
}

std::vector<double> Tracer::durations_ms(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-6);
  }
  return out;
}

bool Tracer::write_json(const std::string& path,
                        const std::map<std::string, Metric>& end_to_end) const {
  std::ofstream out(path);
  if (!out) return false;
  char buf[64];
  out << "{\"end_to_end\":{";
  bool first = true;
  for (const auto& [name, m] : end_to_end) {
    std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    out << (first ? "" : ",") << "\"" << name << "\":{\"value\":" << buf
        << ",\"unit\":\"" << m.unit << "\"}";
    first = false;
  }
  out << "},\"spans\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"trace\":" << s.trace
        << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns << "}";
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

double peak_rss_mb_self() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
