// Shared pieces of perfbench: run options, the result record,
// order statistics, the in-memory span tracer and the output checkers.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".";  // scratch files of this run (checkpoints)
  std::string serve_binary;  // pnc_serve executable
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one run reports: correctness, operation counts and metrics. The
/// end-to-end map is printed by plain runs, the per-layer map by traced
/// runs.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  std::vector<std::string> problems;  // failed checks, reported on stderr

  void e2e(const std::string& name, double value, const std::string& unit) {
    end_to_end[name] = {value, unit};
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    per_layer[name] = {value, unit};
  }
  /// Record one correctness check; a false `ok` makes the run incorrect.
  void check(bool ok, const std::string& what);
};

// --- order statistics ----------------------------------------------------

double median(std::vector<double> xs);
/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> xs, double q);
double mean(const std::vector<double>& xs);

/// The p-th percentile (0 < p < 100) of `xs`, or nothing when fewer than
/// ten samples lie beyond it: a tail estimate resting on a handful of
/// points is noise, so it is withheld rather than reported.
std::optional<double> tail_percentile(std::vector<double> xs, double p);

// --- tracing -------------------------------------------------------------

/// Spans kept in memory and written as JSON when the run ends. A span has
/// a name (`layer.operation`), its start and end on the steady clock, the
/// span that caused it (0 = none) and a trace id shared by one request's
/// spans. Disabled tracers record nothing.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint64_t trace = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  static std::int64_t now_ns();

  /// Record a finished span; returns its id (0 when disabled).
  std::uint64_t add(const std::string& name, std::int64_t start_ns,
                    std::int64_t end_ns, std::uint64_t parent = 0,
                    std::uint64_t trace = 0);

  /// Time `fn` as one span.
  template <class Fn>
  std::uint64_t time(const std::string& name, Fn&& fn,
                     std::uint64_t parent = 0) {
    const std::int64_t t0 = now_ns();
    fn();
    return add(name, t0, now_ns(), parent);
  }

  /// Durations (milliseconds) of every span with this name.
  std::vector<double> durations_ms(const std::string& name) const;
  double median_ms(const std::string& name) const {
    return median(durations_ms(name));
  }

  std::size_t size() const { return spans_.size(); }
  bool write_json(const std::string& path,
                  const std::map<std::string, Metric>& end_to_end) const;

 private:
  bool enabled_;
  std::uint64_t next_id_ = 1;
  std::vector<Span> spans_;
};

// --- process facts -------------------------------------------------------

/// Peak resident set of this process (getrusage), in MB.
double peak_rss_mb_self();

// --- output checkers (checks.cpp) ----------------------------------------

/// Bitwise equality of two logit vectors (same length, same bit patterns).
bool bit_equal(const std::vector<double>& a, const std::vector<double>& b);

/// Largest |a_i - b_i|, or +inf when the lengths differ.
double max_abs_diff(const std::vector<double>& a,
                    const std::vector<double>& b);

/// Every id in `sent` answered exactly once in `answered`, and nothing
/// else answered. `why` receives the first violation.
bool answered_exactly_once(const std::vector<std::uint64_t>& sent,
                           const std::vector<std::uint64_t>& answered,
                           std::string* why = nullptr);

/// Requests of one priority class leave in submission order:
/// `classes[i]` and `leave_order[i]` belong to the i-th submitted request.
bool fifo_within_class(const std::vector<int>& classes,
                       const std::vector<std::uint64_t>& leave_order,
                       std::string* why = nullptr);

/// Self-tests of the checkers and the percentile helper: each checker must
/// accept a clean output and reject a perturbed one. Returns the number of
/// failed self-tests and logs each to stderr.
int run_selftests();

// --- workloads -----------------------------------------------------------

void run_train_va(const Options& options, Tracer& tracer, Outcome& out);
void run_fleet(const Options& options, Tracer& tracer, Outcome& out);
void run_serve_ndjson(const Options& options, Tracer& tracer, Outcome& out);
void run_serve_backlog(const Options& options, Tracer& tracer, Outcome& out);

/// Per-layer metric names (and units) every traced run prints. A workload
/// fills the ones its layers exercise; the rest read 0.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

}  // namespace perfbench
