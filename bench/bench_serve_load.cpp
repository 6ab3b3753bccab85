// Load generator for the pnc::serve runtime (ROADMAP: production-scale
// serving). Four in-process phases plus an optional external-process one:
//
//  1. direct        — apples-to-apples batch-1 vs batch-8 engine calls on
//                     the *same* request set (interleaved best-of cells,
//                     so scheduler noise hits both shapes equally). The
//                     perf-smoke CI job asserts t1_b8 >= t1_b1 from here.
//  2. ladder        — open-loop arrival schedule at a doubling target-rps
//                     ladder, at 1 and N worker shards. Latency is
//                     completion minus *scheduled* arrival (coordinated
//                     omission safe). Saturation = highest rung that is
//                     shed-free (< 1%) and achieves >= 90% of its target.
//  3. overload      — a tiny admission queue driven far past saturation
//                     must shed (bounded work, never unbounded queueing).
//  4. hot-reload    — checkpoint swaps mid-stream must produce zero
//                     errors while responses span both generations.
//  5. depth sweep   — drain a burst of 1k, 16k and 64k requests (three
//                     priority classes) through a 1-shard server whose
//                     queue holds twice the burst. The perf-smoke CI job
//                     asserts depth_scaling = rps(64k) / rps(1k) >= 0.5,
//                     so queue cost per request must not grow with depth.
//  6. --pipe-cmd C  — spawn `C` (a pnc_serve command line), drive it with
//                     NDJSON requests over its stdin/stdout, optionally
//                     injecting a mid-run reload (--pipe-reload PATH).
//                     Used by the serve-load-smoke CI job.
//
// Writes BENCH_serve_load.json: p50/p95/p99 latency, saturation rps,
// multi-shard scaling, shed rates, drain rate by queue depth and the
// dispatch batch-size histogram.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bench_common.hpp"
#include "pnc/baseline/elman_rnn.hpp"
#include "pnc/core/model.hpp"
#include "pnc/infer/engine.hpp"
#include "pnc/serve/json.hpp"
#include "pnc/serve/server.hpp"
#include "pnc/util/rng.hpp"

namespace {

using pnc::serve::Request;
using pnc::serve::Response;
using pnc::serve::Server;
using pnc::serve::ServerConfig;
using pnc::serve::Status;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::unique_ptr<pnc::core::SequenceClassifier> make_model(
    const std::string& kind) {
  if (kind == "adapt") return pnc::core::make_adapt_pnc(3, 0.01, 7, 6);
  if (kind == "elman") return pnc::baseline::make_elman(3, 7, 6);
  throw std::invalid_argument("unknown kind " + kind);
}

/// Deterministic synthetic request set: smooth series the circuits can
/// integrate without under/overflow, distinct per request.
std::vector<std::vector<double>> make_series(std::size_t count,
                                             std::size_t steps) {
  pnc::util::Rng rng(4242);
  std::vector<std::vector<double>> out(count);
  for (std::size_t i = 0; i < count; ++i) {
    out[i].resize(steps);
    const double phase = rng.uniform(0.0, 6.28);
    const double freq = rng.uniform(0.05, 0.3);
    for (std::size_t t = 0; t < steps; ++t) {
      out[i][t] = 0.6 * std::sin(phase + freq * static_cast<double>(t)) +
                  rng.uniform(-0.1, 0.1);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Phase 1: direct engine cells — batch 1 vs batch 8 on the same requests.

struct DirectResult {
  double b1_rps = 0.0;
  double b8_rps = 0.0;
};

/// Best-of over interleaved rounds: within each round time 8 batch-1
/// forwards and one batch-8 forward back to back, so drift and frequency
/// scaling bias both cells the same way.
DirectResult run_direct(const pnc::infer::Engine& engine,
                        const std::vector<std::vector<double>>& series,
                        std::size_t rounds, std::size_t reps) {
  const std::size_t kRows = 8;
  const std::size_t steps = series.front().size();

  pnc::ad::Tensor all = pnc::ad::Tensor::uninitialized(kRows, steps);
  std::vector<pnc::ad::Tensor> rows;
  for (std::size_t r = 0; r < kRows; ++r) {
    pnc::ad::Tensor row = pnc::ad::Tensor::uninitialized(1, steps);
    for (std::size_t t = 0; t < steps; ++t) {
      row(0, t) = series[r % series.size()][t];
      all(r, t) = row(0, t);
    }
    rows.push_back(std::move(row));
  }

  pnc::infer::Plan plan = engine.make_plan();
  pnc::util::Rng rng(7);
  engine.stamp(plan, pnc::variation::VariationSpec::none(), rng, 1);
  pnc::ad::Tensor logits;

  double best_b1 = 1e300;
  double best_b8 = 1e300;
  for (std::size_t round = 0; round < rounds; ++round) {
    engine.broadcast_batch(plan, 1);
    auto t0 = Clock::now();
    for (std::size_t rep = 0; rep < reps; ++rep) {
      for (std::size_t r = 0; r < kRows; ++r) {
        engine.forward(plan, rows[r], logits);
      }
    }
    best_b1 = std::min(best_b1, seconds_between(t0, Clock::now()));

    engine.broadcast_batch(plan, kRows);
    t0 = Clock::now();
    for (std::size_t rep = 0; rep < reps; ++rep) {
      engine.forward(plan, all, logits);
    }
    best_b8 = std::min(best_b8, seconds_between(t0, Clock::now()));
  }
  const double calls = static_cast<double>(kRows * reps);
  return {calls / best_b1, calls / best_b8};
}

// ---------------------------------------------------------------------------
// Phase 2: open-loop load against the in-process server.

struct LoadResult {
  double target_rps = 0.0;
  double achieved_rps = 0.0;
  double shed_rate = 0.0;
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;
  std::uint64_t errors = 0;
  std::vector<double> latencies_ms;  // completed requests only
};

/// Drive `n` requests at an open-loop `target_rps` arrival schedule:
/// request i is submitted at start + i/target_rps regardless of earlier
/// completions, and its latency is measured from that *scheduled* arrival
/// — a slow server shows up as latency, not as a slower load generator.
LoadResult run_load(Server& server,
                    const std::vector<std::vector<double>>& series,
                    double target_rps, std::size_t n) {
  LoadResult result;
  result.target_rps = target_rps;
  result.latencies_ms.assign(n, -1.0);

  std::mutex mutex;
  std::condition_variable done_cv;
  std::size_t done = 0;
  std::atomic<std::uint64_t> ok{0};
  std::atomic<std::uint64_t> shed{0};
  std::atomic<std::uint64_t> errors{0};

  const auto start = Clock::now() + std::chrono::milliseconds(5);
  for (std::size_t i = 0; i < n; ++i) {
    const auto arrival =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(static_cast<double>(i) /
                                                  target_rps));
    std::this_thread::sleep_until(arrival);
    Request req;
    req.id = i;
    req.series = series[i % series.size()];
    server.submit(std::move(req), [&, i, arrival](Response resp) {
      if (resp.status == Status::kOk) {
        result.latencies_ms[i] =
            seconds_between(arrival, Clock::now()) * 1e3;
        ++ok;
      } else if (resp.status == Status::kShed) {
        ++shed;
      } else {
        ++errors;
      }
      std::lock_guard<std::mutex> lock(mutex);
      if (++done == n) done_cv.notify_all();
    });
  }
  {
    std::unique_lock<std::mutex> lock(mutex);
    done_cv.wait(lock, [&] { return done == n; });
  }
  const double wall = seconds_between(start, Clock::now());

  result.ok = ok.load();
  result.shed = shed.load();
  result.errors = errors.load();
  result.achieved_rps = wall > 0.0 ? static_cast<double>(result.ok) / wall : 0.0;
  result.shed_rate = static_cast<double>(result.shed) / static_cast<double>(n);
  std::erase_if(result.latencies_ms, [](double v) { return v < 0.0; });
  return result;
}

struct LadderResult {
  double saturation_rps = 0.0;
  LoadResult best;               // the saturation rung
  std::vector<LoadResult> rungs;
};

/// Doubling ladder: run rungs until one sheds (>= 1%) or falls under 90%
/// of its target, keeping the last rung that passed both gates.
LadderResult run_ladder(std::shared_ptr<const pnc::infer::Engine> engine,
                        const std::vector<std::vector<double>>& series,
                        std::size_t shards, std::size_t n_per_rung,
                        double base_rps, std::size_t max_rungs) {
  LadderResult ladder;
  double target = base_rps;
  for (std::size_t rung = 0; rung < max_rungs; ++rung, target *= 2.0) {
    ServerConfig config;
    config.shards = shards;
    config.max_batch = 16;
    config.batch_deadline_us = 100.0;
    config.queue_capacity = 4096;
    Server server(config);
    server.load_model("default", {engine});
    server.start();
    LoadResult r = run_load(server, series, target, n_per_rung);
    server.stop();
    const bool pass = r.shed_rate < 0.01 && r.errors == 0 &&
                      r.achieved_rps >= 0.9 * target;
    ladder.rungs.push_back(r);
    if (!pass) break;
    ladder.saturation_rps = r.achieved_rps;
    ladder.best = std::move(r);
  }
  return ladder;
}

std::string load_result_json(const LoadResult& r) {
  const std::vector<double> p =
      pnc::util::percentiles(r.latencies_ms, {50.0, 95.0, 99.0});
  std::ostringstream out;
  out.precision(17);
  out << "{\"target_rps\":" << r.target_rps
      << ",\"achieved_rps\":" << r.achieved_rps
      << ",\"shed_rate\":" << r.shed_rate << ",\"ok\":" << r.ok
      << ",\"shed\":" << r.shed << ",\"errors\":" << r.errors
      << ",\"p50_ms\":" << p[0] << ",\"p95_ms\":" << p[1]
      << ",\"p99_ms\":" << p[2] << "}";
  return out.str();
}

// ---------------------------------------------------------------------------
// Phase 5: drain rate against queue depth.

struct BacklogResult {
  double rps = 0.0;
  std::uint64_t not_ok = 0;
};

/// Submit `depth` requests back to back, priority classes drawn from a
/// seeded mix, into a fresh 1-shard server whose queue holds 2 x depth (so
/// nothing sheds), and time from the first submit to the last answer.
BacklogResult run_backlog(std::shared_ptr<const pnc::infer::Engine> engine,
                          const std::vector<std::vector<double>>& series,
                          std::size_t depth) {
  ServerConfig config;
  config.shards = 1;
  config.max_batch = 16;
  config.queue_capacity = 2 * depth;
  Server server(config);
  server.load_model("default", {engine});
  server.start();

  pnc::util::Rng mix(depth);
  std::mutex mutex;
  std::condition_variable done_cv;
  std::size_t done = 0;
  std::atomic<std::uint64_t> not_ok{0};
  const auto start = Clock::now();
  for (std::size_t i = 0; i < depth; ++i) {
    Request req;
    req.id = i;
    req.series = series[i % series.size()];
    req.priority = static_cast<pnc::serve::Priority>(mix.uniform_int(0, 2));
    server.submit(std::move(req), [&](Response resp) {
      if (resp.status != Status::kOk) ++not_ok;
      std::lock_guard<std::mutex> lock(mutex);
      if (++done == depth) done_cv.notify_all();
    });
  }
  {
    std::unique_lock<std::mutex> lock(mutex);
    done_cv.wait(lock, [&] { return done == depth; });
  }
  const double wall = seconds_between(start, Clock::now());
  server.stop();
  return {static_cast<double>(depth) / wall, not_ok.load()};
}

// ---------------------------------------------------------------------------
// Phase 6: drive an external pnc_serve over stdin/stdout pipes.

struct PipeResult {
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;
  std::uint64_t errors = 0;
  std::uint64_t reload_ok = 0;
  std::vector<double> total_ms;
  int exit_code = -1;
};

PipeResult run_pipe(const std::string& command, std::size_t n,
                    const std::string& reload_checkpoint) {
  int to_child[2];
  int from_child[2];
  if (pipe(to_child) != 0 || pipe(from_child) != 0) {
    throw std::runtime_error("pipe: " + std::string(std::strerror(errno)));
  }
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    dup2(to_child[0], STDIN_FILENO);
    dup2(from_child[1], STDOUT_FILENO);
    close(to_child[0]);
    close(to_child[1]);
    close(from_child[0]);
    close(from_child[1]);
    execl("/bin/sh", "sh", "-c", command.c_str(), static_cast<char*>(nullptr));
    _exit(127);
  }
  close(to_child[0]);
  close(from_child[1]);

  PipeResult result;
  const auto series = make_series(64, 32);

  std::thread writer([&] {
    auto write_all = [&](const std::string& line) {
      std::string framed = line + "\n";
      const char* data = framed.data();
      std::size_t left = framed.size();
      while (left > 0) {
        const ssize_t w = write(to_child[1], data, left);
        if (w <= 0) return false;
        data += w;
        left -= static_cast<std::size_t>(w);
      }
      return true;
    };
    for (std::size_t i = 0; i < n; ++i) {
      if (!reload_checkpoint.empty() && i == n / 2) {
        write_all("{\"op\":\"reload\",\"checkpoint\":\"" +
                  pnc::serve::json_escape(reload_checkpoint) + "\"}");
      }
      std::ostringstream line;
      line.precision(17);
      line << "{\"op\":\"infer\",\"id\":" << i << ",\"series\":[";
      const std::vector<double>& s = series[i % series.size()];
      for (std::size_t t = 0; t < s.size(); ++t) {
        if (t > 0) line << ',';
        line << s[t];
      }
      line << "]}";
      if (!write_all(line.str())) break;
    }
    close(to_child[1]);  // EOF: the server drains and exits
  });

  std::string buffer;
  char chunk[4096];
  while (true) {
    const ssize_t r = read(from_child[0], chunk, sizeof(chunk));
    if (r <= 0) break;
    buffer.append(chunk, static_cast<std::size_t>(r));
    std::size_t start = 0;
    for (std::size_t nl = buffer.find('\n', start); nl != std::string::npos;
         nl = buffer.find('\n', start)) {
      const std::string line = buffer.substr(start, nl - start);
      start = nl + 1;
      if (line.empty()) continue;
      try {
        const auto doc = pnc::serve::JsonValue::parse(line);
        const std::string status = doc.string_or("status", "error");
        if (doc.string_or("op", "") == "reload") {
          if (status == "ok") ++result.reload_ok;
          continue;
        }
        if (status == "ok") {
          ++result.ok;
          result.total_ms.push_back(doc.number_or("total_us", 0.0) / 1e3);
        } else if (status == "shed") {
          ++result.shed;
        } else {
          ++result.errors;
        }
      } catch (const std::exception&) {
        ++result.errors;
      }
    }
    buffer.erase(0, start);
  }
  writer.join();
  close(from_child[0]);
  int wstatus = 0;
  waitpid(pid, &wstatus, 0);
  result.exit_code = WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : -1;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pnc;

  std::string pipe_cmd;
  std::string pipe_reload;
  std::size_t pipe_requests = 1000;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "bench_serve_load: missing value for " << flag << "\n";
        std::exit(1);
      }
      return argv[++i];
    };
    if (flag == "--pipe-cmd") pipe_cmd = value();
    else if (flag == "--pipe-reload") pipe_reload = value();
    else if (flag == "--pipe-requests") pipe_requests = std::stoul(value());
    else {
      std::cerr << "bench_serve_load: unknown flag " << flag << "\n";
      return 1;
    }
  }

  const bool quick = bench::quick_mode();
  bench::JsonReport report("serve_load");

  // Pipe mode stands alone: drive the external server, write the report,
  // done — CI runs the in-process phases in a separate invocation.
  if (!pipe_cmd.empty()) {
    PipeResult pipe;
    report.timed_phase("pipe", [&] {
      pipe = run_pipe(pipe_cmd, pipe_requests, pipe_reload);
    });
    const auto p = util::percentiles(pipe.total_ms, {50.0, 95.0, 99.0});
    report.metric("pipe_requests", static_cast<double>(pipe_requests));
    report.metric("pipe_ok", static_cast<double>(pipe.ok));
    report.metric("pipe_shed", static_cast<double>(pipe.shed));
    report.metric("pipe_errors", static_cast<double>(pipe.errors));
    report.metric("pipe_reload_ok", static_cast<double>(pipe.reload_ok));
    report.metric("pipe_exit_code", static_cast<double>(pipe.exit_code));
    report.metric("pipe_p50_ms", p[0]);
    report.metric("pipe_p95_ms", p[1]);
    report.metric("pipe_p99_ms", p[2]);
    report.write();
    std::cout << "pipe: " << pipe.ok << " ok, " << pipe.shed << " shed, "
              << pipe.errors << " errors, reload_ok=" << pipe.reload_ok
              << ", exit=" << pipe.exit_code << "\n";
    return pipe.exit_code == 0 && pipe.errors == 0 ? 0 : 1;
  }

  const std::size_t steps = 32;
  const auto series = make_series(256, steps);

  // Phase 1: direct batch-1 vs batch-8 cells per model family.
  for (const std::string kind : {"elman", "adapt"}) {
    auto model = make_model(kind);
    const auto engine = infer::Engine::compile(*model);
    DirectResult direct;
    report.timed_phase("direct_" + kind, [&] {
      direct = run_direct(engine, series, quick ? 5 : 9, quick ? 10 : 40);
    });
    report.metric(kind + "_t1_b1_rps", direct.b1_rps);
    report.metric(kind + "_t1_b8_rps", direct.b8_rps);
    report.metric(kind + "_batch8_speedup", direct.b8_rps / direct.b1_rps);
    std::cout << "direct " << kind << ": b1=" << direct.b1_rps
              << " rps, b8=" << direct.b8_rps << " rps\n";
  }

  // Phases 2-4 serve the adapt model (the paper's architecture).
  auto engine = std::make_shared<const infer::Engine>(
      infer::Engine::compile(*make_model("adapt")));

  const std::size_t n_per_rung = quick ? 200 : 800;
  const double base_rps = quick ? 500.0 : 1000.0;
  const std::size_t max_rungs = quick ? 6 : 10;
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t multi = hw >= 8 ? 4 : (hw >= 2 ? 2 : 1);

  std::ostringstream ladders;
  ladders << "{";
  double sat1 = 0.0;
  double satN = 0.0;
  for (const std::size_t shards : {std::size_t{1}, multi}) {
    LadderResult ladder;
    report.timed_phase("ladder_shards" + std::to_string(shards), [&] {
      ladder = run_ladder(engine, series, shards, n_per_rung, base_rps,
                          max_rungs);
    });
    if (shards == 1) sat1 = ladder.saturation_rps;
    satN = ladder.saturation_rps;

    const auto p =
        util::percentiles(ladder.best.latencies_ms, {50.0, 95.0, 99.0});
    const std::string tag = "shards" + std::to_string(shards);
    report.metric("saturation_rps_" + tag, ladder.saturation_rps);
    report.metric("p50_ms_" + tag, p[0]);
    report.metric("p95_ms_" + tag, p[1]);
    report.metric("p99_ms_" + tag, p[2]);
    if (ladders.str().size() > 1) ladders << ",";
    ladders << "\"" << tag << "\":[";
    for (std::size_t i = 0; i < ladder.rungs.size(); ++i) {
      if (i > 0) ladders << ",";
      ladders << load_result_json(ladder.rungs[i]);
    }
    ladders << "]";
    std::cout << "ladder " << tag << ": saturation=" << ladder.saturation_rps
              << " rps, p50=" << p[0] << " ms, p99=" << p[2] << " ms\n";
    if (multi == 1) break;  // single-core machine: one ladder is the story
  }
  ladders << "}";
  report.section("ladder", ladders.str());
  report.metric("multi_shard_scaling", sat1 > 0.0 ? satN / sat1 : 0.0);

  // Phase 3: overload a tiny admission queue — sheds must be nonzero.
  {
    ServerConfig config;
    config.shards = 1;
    config.max_batch = 8;
    config.batch_deadline_us = 0.0;
    config.queue_capacity = 16;
    Server server(config);
    server.load_model("default", {engine});
    server.start();
    LoadResult overload;
    report.timed_phase("overload", [&] {
      overload = run_load(server, series, 500000.0, quick ? 400 : 1500);
    });
    server.stop();
    report.metric("shed_rate_overload", overload.shed_rate);
    report.metric("overload_errors", static_cast<double>(overload.errors));
    std::cout << "overload: shed_rate=" << overload.shed_rate << "\n";
  }

  // Phase 4: hot reload mid-stream — zero errors, responses span both
  // generations.
  {
    ServerConfig config;
    config.shards = std::max<std::size_t>(multi, 1);
    config.max_batch = 8;
    config.batch_deadline_us = 100.0;
    config.queue_capacity = 4096;
    Server server(config);
    server.load_model("default", {engine});
    server.start();

    const std::size_t n = quick ? 300 : 1000;
    std::atomic<std::uint64_t> errors{0};
    std::atomic<std::uint64_t> min_gen{~0ULL};
    std::atomic<std::uint64_t> max_gen{0};
    std::mutex mutex;
    std::condition_variable done_cv;
    std::size_t done = 0;
    report.timed_phase("hot_reload", [&] {
      for (std::size_t i = 0; i < n; ++i) {
        if (i == n / 2) {
          serve::ModelConfig next;
          next.engine = engine;
          next.checkpoint_digest = 1;  // same weights, new revision
          server.load_model("default", std::move(next));
        }
        Request req;
        req.id = i;
        req.series = series[i % series.size()];
        server.submit(std::move(req), [&](Response resp) {
          if (resp.status != Status::kOk) {
            ++errors;
          } else {
            std::uint64_t g = resp.generation;
            std::uint64_t seen = min_gen.load();
            while (g < seen && !min_gen.compare_exchange_weak(seen, g)) {
            }
            seen = max_gen.load();
            while (g > seen && !max_gen.compare_exchange_weak(seen, g)) {
            }
          }
          std::lock_guard<std::mutex> lock(mutex);
          if (++done == n) done_cv.notify_all();
        });
      }
      std::unique_lock<std::mutex> lock(mutex);
      done_cv.wait(lock, [&] { return done == n; });
    });
    const auto stats = server.stats();
    server.stop();
    report.metric("reload_errors", static_cast<double>(errors.load()));
    report.metric("reload_generation_span",
                  static_cast<double>(max_gen.load() - min_gen.load()));
    report.metric("plan_cache_misses",
                  static_cast<double>(stats.plan_cache_misses));

    std::ostringstream hist;
    hist << "[";
    for (std::size_t i = 0; i < stats.batch_histogram.size(); ++i) {
      if (i > 0) hist << ",";
      hist << stats.batch_histogram[i];
    }
    hist << "]";
    report.section("batch_histogram", hist.str());
    std::cout << "hot reload: errors=" << errors.load()
              << ", generation span=" << (max_gen.load() - min_gen.load())
              << "\n";
  }

  // Phase 5: drain rate by queue depth (median of bursts per depth).
  {
    const std::size_t bursts = quick ? 1 : 3;
    std::uint64_t not_ok = 0;
    double rps_1k = 0.0;
    double rps_64k = 0.0;
    report.timed_phase("depth_sweep", [&] {
      for (const std::size_t depth : {1024, 16384, 65536}) {
        std::vector<double> rps;
        for (std::size_t b = 0; b < bursts; ++b) {
          const BacklogResult r = run_backlog(engine, series, depth);
          rps.push_back(r.rps);
          not_ok += r.not_ok;
        }
        const double median = util::percentiles(rps, {50.0})[0];
        const std::string tag = std::to_string(depth / 1024) + "k";
        report.metric("backlog_rps_depth_" + tag, median);
        std::cout << "backlog depth " << tag << ": " << median << " rps\n";
        if (depth == 1024) rps_1k = median;
        if (depth == 65536) rps_64k = median;
      }
    });
    report.metric("backlog_not_ok", static_cast<double>(not_ok));
    report.metric("depth_scaling", rps_1k > 0.0 ? rps_64k / rps_1k : 0.0);
    std::cout << "depth scaling (64k / 1k): "
              << (rps_1k > 0.0 ? rps_64k / rps_1k : 0.0) << "\n";
  }

  report.write();
  std::cout << "wrote BENCH_serve_load.json\n";
  return 0;
}
