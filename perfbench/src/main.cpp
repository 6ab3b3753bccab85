// perfbench: one workload of the repository benchmark per invocation.
//
//   perfbench --workload train_va|fleet|serve_ndjson|serve_backlog
//             --seed N --seconds S --trace 0|1
//             [--work-dir DIR] [--serve-bin PATH]
//   perfbench --selftest
//
// The last line of stdout is one JSON object: correctness, operations
// attempted and failed, and the end-to-end metrics (plain run) or the
// per-layer metrics (traced run). perfbench/run.py builds this binary and
// is the intended entry point. The load's width is the process pool's
// (PNC_THREADS, which run.py sets to the CPUs in the affinity mask).

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "pnc/util/thread_pool.hpp"

namespace perfbench {

const char* library_simd_kind();  // simd_kind.cpp

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"latency_samples", "count"},
      // train_va
      {"autodiff.forward_loss_ms", "ms"},
      {"autodiff.backward_ms", "ms"},
      {"train.mc_round_ms", "ms"},
      {"train.mc_parallel_efficiency", "ratio"},
      {"train.optimizer_step_us", "us"},
      {"augment.batch_ms", "ms"},
      // fleet
      {"infer.stamp_us", "us"},
      {"infer.forward_row_step_ns.campaign", "ns"},
      {"reliability.fault_stamp_us", "us"},
      {"reliability.corrupt_inputs_us", "us"},
      {"calib.gradient_ms", "ms"},
      {"calib.loss_ms", "ms"},
      {"calib.iterations", "count"},
      // serve_ndjson
      {"serve_p99_ms", "ms"},
      {"session_windows_per_s", "windows/s"},
      {"session_chunk_p50_ms", "ms"},
      {"tools.frontend_ms_p50", "ms"},
      {"serve.json_parse_us", "us"},
      {"serve.queue_ms_p50", "ms"},
      {"serve.dispatch_ms_p50", "ms"},
      {"serve.batch_rows_mean", "rows"},
      {"infer.forward_row_step_ns.b1", "ns"},
      {"infer.forward_row_step_ns.b16", "ns"},
      {"infer.step_ns", "ns"},
      {"stream.feed_us_per_chunk", "us"},
      {"loadgen.lag_p99_ms", "ms"},
      // serve_backlog
      {"serve.submit_us", "us"},
      {"serve.batches", "count"},
      {"serve.overhead_per_batch_us", "us"},
  };
  return names;
}

namespace {

const std::vector<std::pair<std::string, std::string>> kEndToEnd = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"throughput", "op/s"},
    {"latency_p50_ms", "ms"},
};

[[noreturn]] void usage(const std::string& message) {
  std::cerr << "perfbench: " << message << "\n"
            << "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR] [--serve-bin PATH]\n"
            << "       perfbench --selftest\n";
  std::exit(2);
}

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void print_metrics(const std::map<std::string, Metric>& metrics,
                   const std::vector<std::pair<std::string, std::string>>& names,
                   std::ostream& os) {
  os << "{";
  bool first = true;
  for (const auto& [name, unit] : names) {
    const auto it = metrics.find(name);
    const double value = it == metrics.end() ? 0.0 : it->second.value;
    os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << fmt(value)
       << ", \"unit\": \"" << unit << "\"}";
    first = false;
  }
  os << "}";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  bool selftest_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + flag);
      return argv[++i];
    };
    try {
      if (flag == "--workload") options.workload = value();
      else if (flag == "--seed") options.seed = std::stoull(value());
      else if (flag == "--seconds") options.seconds = std::stod(value());
      else if (flag == "--trace") options.trace = value() != "0";
      else if (flag == "--work-dir") options.work_dir = value();
      else if (flag == "--serve-bin") options.serve_binary = value();
      else if (flag == "--selftest") selftest_only = true;
      else usage("unknown flag " + flag);
    } catch (const std::logic_error&) {
      usage("bad value for " + flag);
    }
  }

  const int selftest_failures = run_selftests();
  if (selftest_only) {
    std::cout << (selftest_failures == 0 ? "selftest ok" : "selftest FAILED") << "\n";
    return selftest_failures == 0 ? 0 : 1;
  }
  if (!(options.seconds > 0.0)) usage("--seconds must be > 0");
  std::filesystem::create_directories(options.work_dir);

  std::cerr << "perfbench: workload=" << options.workload
            << " seed=" << options.seed << " seconds=" << options.seconds
            << " trace=" << options.trace << " threads=" << pnc::util::hardware_threads()
            << " simd=" << library_simd_kind() << " compiler=" << __VERSION__
            << " flags=\"" << PERFBENCH_FLAGS << "\"\n";

  Tracer tracer(options.trace);
  Outcome out;
  out.check(selftest_failures == 0, "checker self-tests failed");
  try {
    if (options.workload == "train_va") run_train_va(options, tracer, out);
    else if (options.workload == "fleet") run_fleet(options, tracer, out);
    else if (options.workload == "serve_ndjson") run_serve_ndjson(options, tracer, out);
    else if (options.workload == "serve_backlog") run_serve_backlog(options, tracer, out);
    else usage("unknown workload '" + options.workload + "'");
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << options.workload << " aborted: " << error.what() << "\n";
    return 1;
  }

  for (const std::string& problem : out.problems) {
    std::cerr << "perfbench: CHECK FAILED: " << problem << "\n";
  }
  std::cerr << "perfbench: end-to-end ";
  print_metrics(out.end_to_end, kEndToEnd, std::cerr);
  std::cerr << "\n";
  if (options.trace) {
    const std::string path = options.work_dir + "/trace.json";
    if (!tracer.write_json(path, out.end_to_end)) {
      std::cerr << "perfbench: could not write " << path << "\n";
      return 1;
    }
    std::cerr << "perfbench: " << tracer.size() << " spans -> " << path << "\n";
  }

  std::cout << "{\"correct\": " << (out.correct ? "true" : "false")
            << ", \"attempted\": " << out.attempted
            << ", \"failed\": " << out.failed << ", \"metrics\": ";
  if (options.trace) {
    print_metrics(out.per_layer, per_layer_metrics(), std::cout);
  } else {
    print_metrics(out.end_to_end, kEndToEnd, std::cout);
  }
  std::cout << "}" << std::endl;
  return 0;
}
