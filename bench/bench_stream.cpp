// Streaming-inference bench (ROADMAP: streaming workloads). Four
// in-process phases plus an optional external-process one:
//
//  1. train         — fit a small ADAPT-pNC on PowerCons; the streaming
//                     phases below all classify continuous signals built
//                     from that dataset's generators.
//  2. parity        — the stride=window reset-mode gate: a StreamSession
//                     replaying each window from the stamped h0 must
//                     reproduce Engine::forward's logits bit-identically
//                     (metric parity_max_abs_diff, asserted == 0).
//  3. stride sweep  — detection latency / miss rate / window accuracy vs
//                     stride (window, W/2, W/4, W/8), on the clean signal
//                     and under streaming sensor faults that span window
//                     boundaries (NoiseTimeline).
//  4. serve         — N long-lived sessions fed chunk-by-chunk through
//                     pnc::serve vs the same windows as stateless
//                     requests: windows/sec for both, zero errors.
//  5. --pipe-cmd C  — spawn `C` (a pnc_serve command line) and drive the
//                     session protocol over its stdin/stdout: open a
//                     reset-mode and a carry-mode session, stream the
//                     signal in chunks, and require the returned window
//                     logits and events to match an in-process
//                     StreamSession over the same checkpoint bitwise.
//                     Used by the stream-smoke CI job.
//
// Writes BENCH_stream.json: parity, latency-vs-stride and
// accuracy-vs-stride curves, and session-vs-stateless serving rates.

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
#include "pnc/core/model.hpp"
#include "pnc/infer/engine.hpp"
#include "pnc/serve/json.hpp"
#include "pnc/serve/server.hpp"
#include "pnc/stream/session.hpp"
#include "pnc/stream/signal.hpp"
#include "pnc/util/rng.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using pnc::serve::Request;
using pnc::serve::Response;
using pnc::serve::Server;
using pnc::serve::ServerConfig;
using pnc::serve::Status;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Stamp one clean batch-1 plan the way pnc_serve's plan cache does
/// (Rng(seed), batch 1), so in-process sessions and served sessions run
/// the identical circuit.
pnc::infer::Plan stamped_plan(const pnc::infer::Engine& engine,
                              std::uint64_t seed) {
  pnc::infer::Plan plan = engine.make_plan();
  pnc::util::Rng rng(seed);
  engine.stamp(plan, pnc::variation::VariationSpec::none(), rng, 1);
  return plan;
}

// ---------------------------------------------------------------------------
// Phase 3 scoring: one session run over a signal at one stride.

struct StrideResult {
  std::size_t stride = 0;
  std::size_t windows = 0;
  double accuracy = 0.0;        // aligned windows predicted correctly
  std::size_t straddling = 0;   // windows spanning a change (not scored)
  std::size_t detected = 0;
  std::size_t missed = 0;
  std::size_t spurious = 0;
  double mean_latency = 0.0;    // samples, change -> confirming window end
  double max_latency = 0.0;
};

StrideResult run_stride(const pnc::infer::Engine& engine,
                        const pnc::infer::Plan& plan,
                        const pnc::stream::ContinuousSignal& signal,
                        const std::vector<double>& samples,
                        std::size_t window, std::size_t stride) {
  pnc::stream::StreamConfig config;
  config.window = window;
  config.stride = stride;
  config.policy = pnc::stream::StatePolicy::kCarry;
  config.confirm_windows = 2;
  pnc::stream::StreamSession session(engine, plan, config);
  session.feed(samples);

  StrideResult r;
  r.stride = stride;
  const auto windows = session.take_windows();
  r.windows = windows.size();
  std::size_t scored = 0;
  std::size_t correct = 0;
  for (const auto& w : windows) {
    // Score only windows that lie inside one class segment; a window
    // straddling a change has no single ground-truth label.
    if (signal.label_at(w.begin) != signal.label_at(w.end - 1)) {
      ++r.straddling;
      continue;
    }
    ++scored;
    if (static_cast<int>(w.predicted) == signal.label_at(w.begin)) ++correct;
  }
  r.accuracy = scored > 0
                   ? static_cast<double>(correct) / static_cast<double>(scored)
                   : 0.0;
  const auto stats = pnc::stream::match_events(
      session.take_events(), signal.changes, samples.size());
  r.detected = stats.detected;
  r.missed = stats.missed;
  r.spurious = stats.spurious;
  r.mean_latency = stats.mean_latency;
  r.max_latency = stats.max_latency;
  return r;
}

std::string stride_result_json(const StrideResult& r, const char* condition) {
  std::ostringstream out;
  out.precision(17);
  out << "{\"condition\":\"" << condition << "\",\"stride\":" << r.stride
      << ",\"windows\":" << r.windows << ",\"accuracy\":" << r.accuracy
      << ",\"straddling\":" << r.straddling << ",\"detected\":" << r.detected
      << ",\"missed\":" << r.missed << ",\"spurious\":" << r.spurious
      << ",\"mean_latency_samples\":" << r.mean_latency
      << ",\"max_latency_samples\":" << r.max_latency << "}";
  return out.str();
}

// ---------------------------------------------------------------------------
// Phase 4: long-lived serve sessions vs stateless requests.

struct ServeResult {
  double session_windows_per_sec = 0.0;
  double stateless_windows_per_sec = 0.0;
  std::uint64_t errors = 0;
  std::uint64_t session_windows = 0;
};

ServeResult run_serve(std::shared_ptr<const pnc::infer::Engine> engine,
                      const std::vector<double>& samples, std::size_t window,
                      std::size_t sessions, std::size_t shards) {
  ServeResult result;
  ServerConfig config;
  config.shards = shards;
  config.max_batch = 8;
  config.batch_deadline_us = 50.0;
  config.queue_capacity = 4096;
  Server server(config);
  server.load_model("default", {std::move(engine)});
  server.start();

  std::atomic<std::uint64_t> errors{0};

  // Sessions: one feeder thread each (chunks of one session must be
  // submitted in order), every chunk `window` samples.
  {
    for (std::size_t s = 0; s < sessions; ++s) {
      pnc::serve::SessionConfig sc;
      sc.stream.window = window;
      sc.stream.stride = window / 2;
      std::string error;
      if (server.open_session("s" + std::to_string(s), sc, &error) !=
          Status::kOk) {
        throw std::runtime_error("open_session: " + error);
      }
    }
    std::mutex mutex;
    std::condition_variable cv;
    std::size_t done = 0;
    std::size_t chunks_total = 0;
    const auto t0 = Clock::now();
    std::vector<std::thread> feeders;
    for (std::size_t s = 0; s < sessions; ++s) {
      feeders.emplace_back([&, s] {
        std::size_t sent = 0;
        for (std::size_t at = 0; at + window <= samples.size();
             at += window) {
          Request req;
          req.id = at;
          req.session = "s" + std::to_string(s);
          req.series.assign(samples.begin() + static_cast<std::ptrdiff_t>(at),
                            samples.begin() +
                                static_cast<std::ptrdiff_t>(at + window));
          const Status admitted =
              server.submit(std::move(req), [&](Response resp) {
                if (resp.status != Status::kOk) ++errors;
                std::lock_guard<std::mutex> lock(mutex);
                if (++done == chunks_total) cv.notify_all();
              });
          if (admitted == Status::kOk) ++sent;
        }
        std::lock_guard<std::mutex> lock(mutex);
        chunks_total += sent;
      });
    }
    for (auto& f : feeders) f.join();
    {
      std::unique_lock<std::mutex> lock(mutex);
      cv.wait(lock, [&] { return done == chunks_total; });
    }
    const double wall = seconds_between(t0, Clock::now());
    std::uint64_t windows = 0;
    for (std::size_t s = 0; s < sessions; ++s) {
      pnc::serve::SessionInfo info;
      server.close_session("s" + std::to_string(s), &info);
      windows += info.windows;
    }
    result.session_windows = windows;
    result.session_windows_per_sec =
        wall > 0.0 ? static_cast<double>(windows) / wall : 0.0;
  }

  // Stateless: the same per-session window count submitted as independent
  // requests (the offline shape of the same workload).
  {
    std::mutex mutex;
    std::condition_variable cv;
    std::size_t done = 0;
    std::size_t n = 0;
    const auto t0 = Clock::now();
    for (std::size_t s = 0; s < sessions; ++s) {
      for (std::size_t at = 0; at + window <= samples.size(); at += window) {
        ++n;
        Request req;
        req.id = at;
        req.series.assign(samples.begin() + static_cast<std::ptrdiff_t>(at),
                          samples.begin() +
                              static_cast<std::ptrdiff_t>(at + window));
        server.submit(std::move(req), [&](Response resp) {
          if (resp.status != Status::kOk) ++errors;
          std::lock_guard<std::mutex> lock(mutex);
          if (++done == n) cv.notify_all();
        });
      }
    }
    {
      std::unique_lock<std::mutex> lock(mutex);
      cv.wait(lock, [&] { return done == n; });
    }
    const double wall = seconds_between(t0, Clock::now());
    result.stateless_windows_per_sec =
        wall > 0.0 ? static_cast<double>(n) / wall : 0.0;
  }

  server.stop();
  result.errors = errors.load();
  return result;
}

// ---------------------------------------------------------------------------
// Phase 5: drive an external pnc_serve's session protocol over pipes.

struct PipeResult {
  std::uint64_t chunks_ok = 0;
  std::uint64_t windows = 0;
  std::uint64_t events = 0;
  std::uint64_t mismatches = 0;   // logits / events differing from in-process
  std::uint64_t errors = 0;
  bool unknown_op_listed = false; // error for a bogus op names valid ops
  bool sessions_closed = false;
  int exit_code = -1;
};

/// Expected per-window results computed in-process over the identical
/// checkpoint, plan stamp, chunking and session config.
struct Expected {
  std::vector<pnc::stream::WindowResult> windows;
  std::vector<pnc::stream::Event> events;
};

Expected run_in_process(const pnc::infer::Engine& engine,
                        const pnc::infer::Plan& plan,
                        const std::vector<double>& samples,
                        const pnc::stream::StreamConfig& config,
                        std::size_t chunk) {
  pnc::stream::StreamSession session(engine, plan, config);
  for (std::size_t at = 0; at < samples.size(); at += chunk) {
    const std::size_t n = std::min(chunk, samples.size() - at);
    session.feed(samples.data() + at, n);
  }
  return {session.take_windows(), session.take_events()};
}

std::string chunk_line(const std::string& session, std::size_t id,
                       const std::vector<double>& samples, std::size_t at,
                       std::size_t n) {
  std::ostringstream line;
  line.precision(17);
  line << "{\"op\":\"chunk\",\"session\":\"" << session << "\",\"id\":" << id
       << ",\"series\":[";
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0) line << ',';
    line << samples[at + i];
  }
  line << "]}";
  return line.str();
}

PipeResult run_pipe(const std::string& command,
                    const pnc::infer::Engine& engine,
                    const pnc::infer::Plan& plan,
                    const std::vector<double>& samples) {
  const std::size_t kWindow = 64;
  const std::size_t kChunk = 96;  // not a multiple of the window: chunks
                                  // span window boundaries

  pnc::stream::StreamConfig reset_config;
  reset_config.window = kWindow;
  reset_config.stride = kWindow;
  reset_config.policy = pnc::stream::StatePolicy::kReset;
  pnc::stream::StreamConfig carry_config;
  carry_config.window = kWindow;
  carry_config.stride = 16;
  carry_config.policy = pnc::stream::StatePolicy::kCarry;
  carry_config.confirm_windows = 1;
  const Expected expect_reset =
      run_in_process(engine, plan, samples, reset_config, kChunk);
  const Expected expect_carry =
      run_in_process(engine, plan, samples, carry_config, kChunk);

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
    write_all("{\"op\":\"bogus\"}");  // satellite: the error must list ops
    write_all(
        "{\"op\":\"session\",\"name\":\"r\",\"window\":64,\"stride\":64,"
        "\"carry\":false}");
    write_all(
        "{\"op\":\"session\",\"name\":\"c\",\"window\":64,\"stride\":16,"
        "\"carry\":true,\"confirm\":1}");
    std::size_t id = 0;
    for (std::size_t at = 0; at < samples.size(); at += kChunk) {
      const std::size_t n = std::min(kChunk, samples.size() - at);
      write_all(chunk_line("r", 1000 + id, samples, at, n));
      write_all(chunk_line("c", 2000 + id, samples, at, n));
      ++id;
    }
    write_all("{\"op\":\"session\",\"name\":\"r\",\"close\":true}");
    write_all("{\"op\":\"session\",\"name\":\"c\",\"close\":true}");
    close(to_child[1]);  // EOF: the server drains and exits
  });

  PipeResult result;
  std::vector<pnc::stream::WindowResult> got_reset;
  std::vector<pnc::stream::WindowResult> got_carry;
  std::vector<pnc::stream::Event> got_reset_events;
  std::vector<pnc::stream::Event> got_carry_events;
  std::size_t sessions_closed = 0;
  bool saw_unknown_op = false;

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
        const std::string status = doc.string_or("status", "");
        if (doc.find("error") != nullptr) {
          const std::string message = doc.string_or("error", "");
          if (message.find("bogus") != std::string::npos &&
              message.find("valid:") != std::string::npos) {
            saw_unknown_op = true;
          } else {
            ++result.errors;
            std::cerr << "pipe error: " << message << "\n";
          }
          continue;
        }
        if (doc.string_or("op", "") == "session") {
          if (status == "ok" && doc.find("closed") != nullptr) {
            ++sessions_closed;
          }
          continue;
        }
        if (status != "ok") {
          ++result.errors;
          continue;
        }
        const std::uint64_t id =
            static_cast<std::uint64_t>(doc.number_or("id", 0.0));
        auto& windows = id >= 2000 ? got_carry : got_reset;
        auto& events = id >= 2000 ? got_carry_events : got_reset_events;
        ++result.chunks_ok;
        if (const auto* ws = doc.find("windows")) {
          for (const auto& w : ws->as_array()) {
            pnc::stream::WindowResult parsed;
            parsed.begin = static_cast<std::size_t>(w.number_or("begin", 0.0));
            parsed.end = static_cast<std::size_t>(w.number_or("end", 0.0));
            parsed.predicted =
                static_cast<std::size_t>(w.number_or("predicted", 0.0));
            if (const auto* ls = w.find("logits")) {
              for (const auto& v : ls->as_array()) {
                parsed.logits.push_back(v.as_number());
              }
            }
            windows.push_back(std::move(parsed));
          }
        }
        if (const auto* es = doc.find("events")) {
          for (const auto& e : es->as_array()) {
            events.push_back(
                {static_cast<std::size_t>(e.number_or("at", 0.0)),
                 static_cast<std::size_t>(e.number_or("class", 0.0))});
          }
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
  result.unknown_op_listed = saw_unknown_op;
  result.sessions_closed = sessions_closed == 2;

  // Bitwise comparison against the in-process sessions. pnc_serve prints
  // each double in its shortest round-trip form, which parses back to the
  // same bits, so == is the right comparison.
  auto compare = [&result](const Expected& want,
                           const std::vector<pnc::stream::WindowResult>& got,
                           const std::vector<pnc::stream::Event>& got_events,
                           const char* tag) {
    if (got.size() != want.windows.size()) {
      std::cerr << "pipe " << tag << ": " << got.size() << " windows, want "
                << want.windows.size() << "\n";
      ++result.mismatches;
      return;
    }
    for (std::size_t i = 0; i < got.size(); ++i) {
      const auto& g = got[i];
      const auto& w = want.windows[i];
      bool same = g.begin == w.begin && g.end == w.end &&
                  g.predicted == w.predicted &&
                  g.logits.size() == w.logits.size();
      for (std::size_t j = 0; same && j < g.logits.size(); ++j) {
        same = g.logits[j] == w.logits[j];
      }
      if (!same) {
        std::cerr << "pipe " << tag << ": window " << i << " differs\n";
        ++result.mismatches;
      }
    }
    if (got_events.size() != want.events.size()) {
      std::cerr << "pipe " << tag << ": " << got_events.size()
                << " events, want " << want.events.size() << "\n";
      ++result.mismatches;
      return;
    }
    for (std::size_t i = 0; i < got_events.size(); ++i) {
      if (got_events[i].at != want.events[i].at ||
          got_events[i].klass != want.events[i].klass) {
        std::cerr << "pipe " << tag << ": event " << i << " differs\n";
        ++result.mismatches;
      }
    }
  };
  compare(expect_reset, got_reset, got_reset_events, "reset");
  compare(expect_carry, got_carry, got_carry_events, "carry");
  result.windows = got_reset.size() + got_carry.size();
  result.events = got_reset_events.size() + got_carry_events.size();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pnc;

  std::string pipe_cmd;
  std::string pipe_checkpoint;
  std::size_t pipe_classes = 2;
  double pipe_dt = 0.1;
  std::size_t pipe_hidden_cap = 9;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "bench_stream: missing value for " << flag << "\n";
        std::exit(1);
      }
      return argv[++i];
    };
    if (flag == "--pipe-cmd") pipe_cmd = value();
    else if (flag == "--pipe-checkpoint") pipe_checkpoint = value();
    else if (flag == "--pipe-classes") pipe_classes = std::stoul(value());
    else if (flag == "--pipe-dt") pipe_dt = std::stod(value());
    else if (flag == "--pipe-hidden-cap") pipe_hidden_cap = std::stoul(value());
    else {
      std::cerr << "bench_stream: unknown flag " << flag << "\n";
      return 1;
    }
  }

  const bool quick = bench::quick_mode();
  bench::JsonReport report("stream");

  // Pipe mode stands alone: replay the session protocol against an
  // external pnc_serve over the given checkpoint, write the report, done.
  if (!pipe_cmd.empty()) {
    if (pipe_checkpoint.empty()) {
      std::cerr << "bench_stream: --pipe-cmd needs --pipe-checkpoint\n";
      return 1;
    }
    const infer::Engine engine = infer::load_engine(
        pipe_checkpoint, "adapt", pipe_classes, pipe_dt, pipe_hidden_cap);
    const infer::Plan plan = stamped_plan(engine, 0);

    stream::SignalConfig signal_config;
    signal_config.segments = 6;
    signal_config.draws_per_segment = 2;
    signal_config.seed = 5;
    const stream::ContinuousSignal signal =
        stream::make_continuous_signal(signal_config);

    PipeResult pipe;
    report.timed_phase("pipe", [&] {
      pipe = run_pipe(pipe_cmd, engine, plan, signal.samples);
    });
    report.metric("pipe_chunks_ok", static_cast<double>(pipe.chunks_ok));
    report.metric("pipe_windows", static_cast<double>(pipe.windows));
    report.metric("pipe_events", static_cast<double>(pipe.events));
    report.metric("pipe_mismatches", static_cast<double>(pipe.mismatches));
    report.metric("pipe_errors", static_cast<double>(pipe.errors));
    report.metric("pipe_unknown_op_listed",
                  pipe.unknown_op_listed ? 1.0 : 0.0);
    report.metric("pipe_sessions_closed", pipe.sessions_closed ? 1.0 : 0.0);
    report.metric("pipe_exit_code", static_cast<double>(pipe.exit_code));
    report.write();
    std::cout << "pipe: " << pipe.chunks_ok << " chunks ok, " << pipe.windows
              << " windows, " << pipe.events << " events, "
              << pipe.mismatches << " mismatches, " << pipe.errors
              << " errors, exit=" << pipe.exit_code << "\n";
    const bool pass = pipe.exit_code == 0 && pipe.errors == 0 &&
                      pipe.mismatches == 0 && pipe.windows > 0 &&
                      pipe.unknown_op_listed && pipe.sessions_closed;
    return pass ? 0 : 1;
  }

  // Phase 1: train the classifier the streaming phases serve.
  const std::string dataset = "PowerCons";
  train::ExperimentSpec spec = train::adapt_spec(dataset);
  bench::apply_scale(spec);
  const data::Dataset ds =
      data::make_dataset(dataset, spec.data_seed, spec.sequence_length);
  const auto classes = static_cast<std::size_t>(ds.num_classes);
  auto model =
      core::make_adapt_pnc(classes, ds.sample_period, 7, spec.hidden_cap);
  report.timed_phase("train", [&] {
    std::cerr << "[stream] training ADAPT-pNC on " << dataset << "...\n";
    (void)train::train(*model, ds, spec.train);
  });

  auto engine =
      std::make_shared<const infer::Engine>(infer::Engine::compile(*model));
  const infer::Plan plan = stamped_plan(*engine, 7);

  const std::size_t window = spec.sequence_length;
  stream::SignalConfig signal_config;
  signal_config.dataset = dataset;
  signal_config.segments = quick ? 6 : 16;
  signal_config.draws_per_segment = quick ? 3 : 4;
  signal_config.series_length = window;
  signal_config.seed = 11;
  const stream::ContinuousSignal signal =
      stream::make_continuous_signal(signal_config);

  // Phase 2: the parity gate. Reset-mode stride=window logits must equal
  // Engine::forward on each aligned window, bitwise.
  {
    double max_diff = 0.0;
    report.timed_phase("parity", [&] {
      stream::StreamConfig config;
      config.window = window;
      config.stride = window;
      config.policy = stream::StatePolicy::kReset;
      stream::StreamSession session(*engine, plan, config);
      session.feed(signal.samples);
      const auto windows = session.take_windows();
      infer::Plan offline = stamped_plan(*engine, 7);
      ad::Tensor x = ad::Tensor::uninitialized(1, window);
      ad::Tensor logits;
      for (const auto& w : windows) {
        for (std::size_t t = 0; t < window; ++t) {
          x(0, t) = signal.samples[w.begin + t];
        }
        engine->forward(offline, x, logits);
        for (std::size_t j = 0; j < w.logits.size(); ++j) {
          max_diff = std::max(max_diff,
                              std::abs(w.logits[j] - logits(0, j)));
        }
      }
    });
    report.metric("parity_max_abs_diff", max_diff);
    std::cout << "parity: max |stream - forward| = " << max_diff << "\n";
    if (max_diff != 0.0) {
      std::cerr << "bench_stream: stride=window parity violated\n";
      report.write();
      return 1;
    }
  }

  // Phase 3: detection latency and accuracy vs stride, clean and under
  // boundary-spanning sensor faults.
  {
    stream::StreamNoiseSpec noise;
    noise.wander_amplitude = 0.15;
    noise.wander_period_samples = 384.0;
    noise.dropouts_per_kilosample = 1.0;
    noise.dropout_length = 24;
    noise.impulse_rate = 0.002;
    noise.impulse_magnitude = 1.5;
    const stream::NoiseTimeline timeline(noise, 23, signal.samples.size());
    const std::vector<double> corrupted = timeline.corrupted(signal.samples);

    std::ostringstream strides;
    strides << "[";
    bool first = true;
    report.timed_phase("stride_sweep", [&] {
      for (const std::size_t stride :
           {window, window / 2, window / 4, window / 8}) {
        if (stride == 0) continue;
        const StrideResult clean = run_stride(*engine, plan, signal,
                                              signal.samples, window, stride);
        const StrideResult noisy =
            run_stride(*engine, plan, signal, corrupted, window, stride);
        if (!first) strides << ",";
        first = false;
        strides << stride_result_json(clean, "clean") << ","
                << stride_result_json(noisy, "noisy");
        std::cout << "stride " << stride << ": clean acc=" << clean.accuracy
                  << " latency=" << clean.mean_latency
                  << ", noisy acc=" << noisy.accuracy
                  << " latency=" << noisy.mean_latency << "\n";
        if (stride == window) {
          report.metric("latency_stride_window", clean.mean_latency);
          report.metric("accuracy_stride_window", clean.accuracy);
          report.metric("noisy_accuracy_stride_window", noisy.accuracy);
        }
        if (stride == window / 8) {
          report.metric("latency_stride_w8", clean.mean_latency);
          report.metric("accuracy_stride_w8", clean.accuracy);
          report.metric("noisy_accuracy_stride_w8", noisy.accuracy);
        }
      }
    });
    strides << "]";
    report.section("strides", strides.str());
  }

  // Phase 4: long-lived sessions through the server vs stateless windows.
  {
    const unsigned hw = std::thread::hardware_concurrency();
    const std::size_t shards = hw >= 4 ? 2 : 1;
    const std::size_t sessions = quick ? 2 : 4;
    ServeResult serve;
    report.timed_phase("serve", [&] {
      serve = run_serve(engine, signal.samples, window, sessions, shards);
    });
    report.metric("serve_sessions", static_cast<double>(sessions));
    report.metric("serve_session_windows",
                  static_cast<double>(serve.session_windows));
    report.metric("serve_session_windows_per_sec",
                  serve.session_windows_per_sec);
    report.metric("serve_stateless_windows_per_sec",
                  serve.stateless_windows_per_sec);
    report.metric("serve_errors", static_cast<double>(serve.errors));
    std::cout << "serve: sessions=" << serve.session_windows_per_sec
              << " win/s, stateless=" << serve.stateless_windows_per_sec
              << " win/s, errors=" << serve.errors << "\n";
    if (serve.errors != 0) {
      report.write();
      return 1;
    }
  }

  report.write();
  std::cout << "wrote BENCH_stream.json\n";
  return 0;
}
