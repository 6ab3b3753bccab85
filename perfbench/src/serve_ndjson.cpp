// serve_ndjson: a `pnc_serve --logits` child over stdin/stdout pipes,
// driven by one poll-driven client thread (this one). The request path is
// NDJSON parse -> admission -> queue -> batch -> plan lease ->
// forward/step -> response build -> write; the queue stays shallow, so
// the front end, batching and the small-batch kernels dominate.
//
// After one second of closed-loop warm-up (plan cache, thread placement)
// the run repeats kCycleSeconds cycles of three phases until --seconds
// have passed:
//   closed   stateless infer, kWindow requests in flight       (45 %)
//   open     stateless infer at kOpenRate req/s on a schedule  (35 %)
//   sessions kCarrySessions carry-mode + kResetSessions reset-mode
//            streaming sessions fed kChunk-sample chunks      (20 %)
// Every request line is formatted during set-up except its id, which is
// spliced in with to_chars at send time.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string_view>

#include "bench.hpp"
#include "pnc/core/adapt_pnc.hpp"
#include "pnc/core/serialize.hpp"
#include "pnc/data/dataset.hpp"
#include "pnc/infer/engine.hpp"
#include "pnc/serve/json.hpp"
#include "pnc/stream/session.hpp"
#include "pnc_helpers.hpp"

namespace perfbench {
namespace {

using namespace pnc;
using serve::JsonValue;

constexpr const char* kDataset = "CBF";
constexpr std::size_t kLength = 32;     // samples per stateless request
constexpr std::size_t kPool = 64;       // distinct request series
constexpr std::size_t kMaxBatch = 16;
constexpr std::size_t kWindow = 64;     // closed-loop requests in flight
constexpr double kOpenRate = 2000.0;    // open-loop arrivals per second
constexpr double kWarmupSeconds = 1.0;  // lets thread placement and clocks settle
constexpr std::size_t kCarrySessions = 2;
constexpr std::size_t kResetSessions = 2;
constexpr std::size_t kSessionWindow = 32;
constexpr std::size_t kCarryStride = 8;
constexpr std::size_t kChunk = 16;
constexpr int kMinSetups = 9;
constexpr double kCycleSeconds = 1.0;  // one closed + open + sessions cycle
constexpr double kShareClosed = 0.45;
constexpr double kShareOpen = 0.35;
constexpr double kShareSessions = 0.20;

std::string fmt17(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string series_json(const double* x, std::size_t n) {
  std::string s = "[";
  for (std::size_t i = 0; i < n; ++i) {
    if (i) s += ',';
    s += fmt17(x[i]);
  }
  return s + "]";
}

/// The pnc_serve child: pipes to its stdin/stdout, non-blocking on our
/// side, with a write buffer and a line splitter. The destructor kills and
/// reaps a child that was not finished cleanly.
class ServeChild {
 public:
  explicit ServeChild(const std::vector<std::string>& argv) {
    int in[2], out[2];
    if (pipe2(in, O_CLOEXEC) != 0 || pipe2(out, O_CLOEXEC) != 0) {
      throw std::runtime_error("pipe2 failed");
    }
    // Built before fork: the child may only make async-signal-safe calls.
    std::vector<char*> args;
    for (const auto& a : argv) args.push_back(const_cast<char*>(a.c_str()));
    args.push_back(nullptr);
    pid_ = fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      dup2(in[0], 0);
      dup2(out[1], 1);
      execv(args[0], args.data());
      _exit(127);
    }
    close(in[0]);
    close(out[1]);
    in_fd_ = in[1];
    out_fd_ = out[0];
    fcntl(in_fd_, F_SETFL, fcntl(in_fd_, F_GETFL) | O_NONBLOCK);
    fcntl(out_fd_, F_SETFL, fcntl(out_fd_, F_GETFL) | O_NONBLOCK);
  }

  ~ServeChild() {
    if (in_fd_ >= 0) close(in_fd_);
    if (out_fd_ >= 0) close(out_fd_);
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
    }
  }

  ServeChild(const ServeChild&) = delete;
  ServeChild& operator=(const ServeChild&) = delete;

  /// Queue one line and write what the pipe takes now.
  void send(std::string_view line) {
    out_buf_.append(line);
    out_buf_ += '\n';
    flush();
  }

  /// Wait up to `timeout_ns` for output, then hand every complete line to
  /// `on_line(line, receive_ns)`. Returns false at EOF.
  template <class OnLine>
  bool pump(std::int64_t timeout_ns, OnLine&& on_line) {
    pollfd fds[2] = {{out_fd_, POLLIN, 0}, {in_fd_, POLLOUT, 0}};
    const nfds_t n = (in_fd_ >= 0 && written_ < out_buf_.size()) ? 2 : 1;
    timespec ts{static_cast<time_t>(timeout_ns / 1000000000),
                static_cast<long>(timeout_ns % 1000000000)};
    if (ppoll(fds, n, timeout_ns < 0 ? nullptr : &ts, nullptr) < 0 && errno != EINTR) {
      throw std::runtime_error("ppoll failed");
    }
    if (n == 2 && (fds[1].revents & POLLOUT)) flush();
    if (!(fds[0].revents & (POLLIN | POLLHUP))) return true;
    char buf[1 << 16];
    const ssize_t got = read(out_fd_, buf, sizeof(buf));
    if (got == 0) return false;
    if (got < 0) return errno == EAGAIN || errno == EINTR;
    const std::int64_t now = Tracer::now_ns();
    in_buf_.append(buf, static_cast<std::size_t>(got));
    std::size_t start = 0;
    for (std::size_t nl = in_buf_.find('\n'); nl != std::string::npos;
         nl = in_buf_.find('\n', start)) {
      on_line(std::string_view(in_buf_).substr(start, nl - start), now);
      start = nl + 1;
    }
    in_buf_.erase(0, start);
    return true;
  }

  /// Close stdin (pnc_serve drains and exits), consume the remaining
  /// output, reap the child and return its peak RSS in MB.
  template <class OnLine>
  double finish(double timeout_s, OnLine&& on_line) {
    while (written_ < out_buf_.size()) pump(1000000, on_line);
    close(in_fd_);
    in_fd_ = -1;
    const auto t0 = Clock::now();
    while (pump(100000000, on_line)) {
      if (seconds_since(t0) > timeout_s) throw std::runtime_error("pnc_serve did not exit");
    }
    rusage usage{};
    int status = 0;
    if (wait4(pid_, &status, 0, &usage) != pid_) throw std::runtime_error("wait4 failed");
    pid_ = -1;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      throw std::runtime_error("pnc_serve exited abnormally");
    }
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
  }

 private:
  void flush() {
    while (written_ < out_buf_.size()) {
      const ssize_t n = write(in_fd_, out_buf_.data() + written_, out_buf_.size() - written_);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN) break;
        throw std::runtime_error("write to pnc_serve failed");
      }
      written_ += static_cast<std::size_t>(n);
    }
    if (written_ == out_buf_.size()) {
      out_buf_.clear();
      written_ = 0;
    }
  }

  pid_t pid_ = -1;
  int in_fd_ = -1;
  int out_fd_ = -1;
  std::string out_buf_;
  std::size_t written_ = 0;
  std::string in_buf_;
};

enum Phase { kWarm, kClosed, kOpen, kSessions };

struct Record {
  Phase phase = kWarm;
  std::size_t item = 0;        // pool index, or session index for chunks
  std::int64_t due_ns = 0;     // scheduled send (open loop) or send time
  std::int64_t sent_ns = 0;
  std::int64_t recv_ns = 0;
  bool answered = false;
  bool ok = false;
  double queue_us = 0.0, total_us = 0.0, batch_rows = 0.0;
  std::vector<double> logits;
  std::vector<stream::WindowResult> windows;
};

struct ServeSetup {
  data::Dataset data;
  std::string checkpoint;
  std::vector<std::string> bodies;  // `,"series":[...]}` per pool entry
  /// Per session: the chunk bodies of one period of its signal.
  std::vector<std::vector<std::string>> chunk_bodies;
  std::unique_ptr<ServeChild> child;
};

std::vector<double> pool_series(const ServeSetup& s, std::size_t i) {
  return row_of(s.data.train.inputs, i % kPool);
}

/// Sample t of session k's continuous signal: the pool series played back
/// to back, each session starting at its own offset.
double session_sample(const ServeSetup& s, std::size_t k, std::size_t t) {
  return s.data.train.inputs((k * 7 + t / kLength) % kPool, t % kLength);
}

ServeSetup make_setup(const Options& options) {
  ServeSetup s;
  s.data = data::make_dataset(kDataset, options.seed, kLength);
  auto model = core::make_adapt_pnc(static_cast<std::size_t>(s.data.num_classes),
                                    s.data.sample_period, options.seed);
  s.checkpoint = options.work_dir + "/serve_checkpoint.txt";
  core::save_parameters(*model, s.checkpoint);
  for (std::size_t i = 0; i < kPool; ++i) {
    const auto x = pool_series(s, i);
    s.bodies.push_back(",\"series\":" + series_json(x.data(), x.size()) + "}");
  }
  for (std::size_t k = 0; k < kCarrySessions + kResetSessions; ++k) {
    std::vector<std::string> bodies;
    for (std::size_t t = 0; t < kPool * kLength; t += kChunk) {
      double x[kChunk];
      for (std::size_t i = 0; i < kChunk; ++i) x[i] = session_sample(s, k, t + i);
      bodies.push_back(",\"series\":" + series_json(x, kChunk) + "}");
    }
    s.chunk_bodies.push_back(std::move(bodies));
  }
  // One shard: the front end, not the shards, limits this path, and each
  // further shard adds a thread that sleeps and wakes per batch. With two
  // shards on a 4-vCPU guest the closed-loop rate was no higher and it
  // followed the host's steal time from run to run (10.7k-16.9k req/s
  // against 15.1k-16.5k with one shard in the same hour).
  constexpr std::size_t shards = 1;
  s.child = std::make_unique<ServeChild>(std::vector<std::string>{
      options.serve_binary, "--checkpoint", s.checkpoint, "--model", "adapt",
      "--classes", std::to_string(s.data.num_classes), "--dt",
      fmt17(s.data.sample_period), "--seed", std::to_string(options.seed),
      "--logits", "--shards", std::to_string(shards), "--max-batch",
      std::to_string(kMaxBatch), "--queue-capacity", "65536"});
  s.child->send("{\"op\":\"health\"}");
  bool ready = false;
  const auto t0 = Clock::now();
  while (!ready) {
    if (seconds_since(t0) > 30.0) throw std::runtime_error("pnc_serve not ready");
    if (!s.child->pump(100000000, [&](std::string_view line, std::int64_t) {
          ready = ready || line.find("\"ready\":true") != std::string_view::npos;
        })) {
      throw std::runtime_error("pnc_serve exited during start-up");
    }
  }
  return s;
}

/// The client: sends request lines, matches responses to their records.
class Client {
 public:
  explicit Client(ServeSetup& s) : s_(s) {}

  std::vector<Record> records{1};          // indexed by request id (from 1)
  std::vector<std::uint64_t> answered_ids; // every response id, in arrival order
  std::vector<JsonValue> op_replies;       // replies to session/stats ops

  void infer(Phase phase, std::size_t item, std::int64_t due_ns) {
    const std::uint64_t id = records.size();
    Record r;
    r.phase = phase;
    r.item = item;
    line_.assign("{\"op\":\"infer\",\"id\":");
    append_id(id);
    line_ += s_.bodies[item];
    r.sent_ns = Tracer::now_ns();
    r.due_ns = due_ns ? due_ns : r.sent_ns;
    records.push_back(std::move(r));
    s_.child->send(line_);
    ++inflight_;
  }

  void chunk(std::size_t session, std::size_t begin) {
    const std::uint64_t id = records.size();
    Record r;
    r.phase = kSessions;
    r.item = session;
    line_.assign("{\"op\":\"chunk\",\"session\":\"s");
    append_id(session);
    line_ += "\",\"id\":";
    append_id(id);
    line_ += s_.chunk_bodies[session][begin / kChunk % s_.chunk_bodies[session].size()];
    r.sent_ns = r.due_ns = Tracer::now_ns();
    records.push_back(std::move(r));
    s_.child->send(line_);
    ++inflight_;
  }

  void op(const std::string& line) {
    s_.child->send(line);
    ++ops_pending_;
  }

  /// Poll once; returns the ids answered in this call.
  const std::vector<std::uint64_t>& pump(std::int64_t timeout_ns) {
    answered_.clear();
    s_.child->pump(timeout_ns, [&](std::string_view line, std::int64_t now) {
      handle(line, now);
    });
    return answered_;
  }

  void drain() {
    const auto t0 = Clock::now();
    while (inflight_ > 0 || ops_pending_ > 0) {
      if (seconds_since(t0) > 60.0) throw std::runtime_error("responses missing");
      pump(10000000);
    }
  }

  double finish() {
    return s_.child->finish(60.0, [&](std::string_view line, std::int64_t now) {
      handle(line, now);
    });
  }

  std::size_t inflight() const { return inflight_; }

 private:
  void append_id(std::uint64_t id) {
    char buf[24];
    const auto res = std::to_chars(buf, buf + sizeof(buf), id);
    line_.append(buf, res.ptr);
  }

  void handle(std::string_view line, std::int64_t now) {
    JsonValue doc = JsonValue::parse(std::string(line));
    if (doc.find("op") != nullptr || doc.find("id") == nullptr) {
      op_replies.push_back(std::move(doc));
      if (ops_pending_ > 0) --ops_pending_;
      return;
    }
    const auto id = static_cast<std::uint64_t>(doc.number_or("id", 0.0));
    answered_ids.push_back(id);
    if (id == 0 || id >= records.size()) return;
    Record& r = records[id];
    if (!r.answered) --inflight_;
    r.answered = true;
    r.recv_ns = now;
    r.ok = doc.string_or("status", "") == "ok";
    if (!r.ok) return;
    r.queue_us = doc.number_or("queue_us", 0.0);
    r.total_us = doc.number_or("total_us", 0.0);
    r.batch_rows = doc.number_or("batch_rows", 0.0);
    if (r.phase == kSessions) {
      if (const JsonValue* ws = doc.find("windows")) {
        for (const JsonValue& w : ws->as_array()) {
          stream::WindowResult wr;
          wr.begin = static_cast<std::size_t>(w.number_or("begin", 0.0));
          wr.end = static_cast<std::size_t>(w.number_or("end", 0.0));
          wr.predicted = static_cast<std::size_t>(w.number_or("predicted", 0.0));
          if (const JsonValue* l = w.find("logits")) {
            for (const JsonValue& v : l->as_array()) wr.logits.push_back(v.as_number());
          }
          r.windows.push_back(std::move(wr));
        }
      }
    } else if (const JsonValue* l = doc.find("logits")) {
      for (const JsonValue& v : l->as_array()) r.logits.push_back(v.as_number());
    }
    answered_.push_back(id);
  }

  ServeSetup& s_;
  std::string line_;
  std::size_t inflight_ = 0;
  std::size_t ops_pending_ = 0;
  std::vector<std::uint64_t> answered_;
};

/// Milliseconds to each answer of `phase` among records[first..], from
/// its scheduled send (`from_due`) or its actual send.
std::vector<double> ms_between(const std::vector<Record>& records, Phase phase,
                               bool from_due, std::size_t first = 0) {
  std::vector<double> out;
  for (std::size_t id = first; id < records.size(); ++id) {
    const Record& r = records[id];
    if (r.phase == phase && r.ok) {
      out.push_back(static_cast<double>(r.recv_ns - (from_due ? r.due_ns : r.sent_ns)) * 1e-6);
    }
  }
  return out;
}

std::size_t count_ok(const std::vector<Record>& records, std::size_t first) {
  std::size_t n = 0;
  for (std::size_t id = first; id < records.size(); ++id) n += records[id].ok ? 1 : 0;
  return n;
}

double pct_or_zero(const std::vector<double>& xs, double p, const char* what) {
  const auto v = tail_percentile(xs, p);
  if (!v) std::cerr << "perfbench: " << what << " withheld (" << xs.size() << " samples)\n";
  return v.value_or(0.0);
}

/// In-process probes of the kernels under the request path, on the
/// workload's own checkpoint, request series and session shapes.
void trace_layers(const Options& options, const ServeSetup& s, Tracer& tracer,
                  Outcome& out) {
  const infer::Engine engine = infer::load_engine(
      s.checkpoint, "adapt", static_cast<std::size_t>(s.data.num_classes),
      s.data.sample_period, 9);
  infer::Plan plan = engine.make_plan();
  util::Rng rng(options.seed);
  engine.stamp(plan, variation::VariationSpec::none(), rng, 1);

  std::vector<std::string> lines;
  for (std::size_t i = 0; i < kPool; ++i) {
    lines.push_back("{\"op\":\"infer\",\"id\":" + std::to_string(1000000 + i) + s.bodies[i]);
  }
  out.layer("serve.json_parse_us",
            1e3 / kPool * probe_ms(tracer, "serve.json_parse", 15, [&] {
              for (const auto& l : lines) JsonValue::parse(l);
            }), "us");

  ad::Tensor logits;
  for (const std::size_t rows : {std::size_t{1}, kMaxBatch}) {
    engine.broadcast_batch(plan, rows);
    ad::Tensor inputs(rows, kLength);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t t = 0; t < kLength; ++t) inputs(r, t) = s.data.train.inputs(r, t);
    }
    const std::string tag = rows == 1 ? "b1" : "b16";
    const int calls = rows == 1 ? 256 : 16;
    const double ms = probe_ms(tracer, "infer.forward." + tag, 15, [&] {
      for (int c = 0; c < calls; ++c) engine.forward(plan, inputs, logits);
    });
    out.layer("infer.forward_row_step_ns." + tag,
              ms * 1e6 / static_cast<double>(calls * rows * kLength), "ns");
  }
  engine.broadcast_batch(plan, 1);

  const std::size_t period = kPool * kLength;
  std::vector<double> signal(period);
  for (std::size_t t = 0; t < period; ++t) signal[t] = session_sample(s, 0, t);
  infer::StreamState state;
  std::vector<double> readout(engine.num_classes());
  const double step_ms = probe_ms(tracer, "infer.step", 15, [&] {
    engine.reset_stream(plan, state);
    for (const double x : signal) engine.step(plan, state, x, readout.data());
  });
  out.layer("infer.step_ns", step_ms * 1e6 / static_cast<double>(period), "ns");

  const stream::StreamConfig carry{kSessionWindow, kCarryStride,
                                   stream::StatePolicy::kCarry, 2};
  const double feed_ms = probe_ms(tracer, "stream.feed", 15, [&] {
    stream::StreamSession session(engine, plan, carry);
    for (std::size_t t = 0; t < period; t += kChunk) session.feed(&signal[t], kChunk);
  });
  out.layer("stream.feed_us_per_chunk",
            feed_ms * 1e3 / static_cast<double>(period / kChunk), "us");
}

}  // namespace

void run_serve_ndjson(const Options& options, Tracer& tracer, Outcome& out) {
  if (options.serve_binary.empty()) throw std::runtime_error("--serve-bin is required");
  signal(SIGPIPE, SIG_IGN);

  std::vector<double> setup_s;
  ServeSetup s;
  for (int i = 0; i < kMinSetups; ++i) {
    if (s.child) s.child->finish(30.0, [](std::string_view, std::int64_t) {});
    const auto t0 = Clock::now();
    s = make_setup(options);
    setup_s.push_back(seconds_since(t0));
  }

  Client d(s);
  const std::size_t sessions = kCarrySessions + kResetSessions;

  // Closed loop: keep kWindow requests in flight.
  std::size_t next_item = 0;
  auto closed_loop = [&](Phase phase, double seconds) {
    const auto t0 = Clock::now();
    while (seconds_since(t0) < seconds) {
      while (d.inflight() < kWindow) d.infer(phase, next_item++ % kPool, 0);
      d.pump(1000000);
    }
    d.drain();
    return seconds_since(t0);
  };
  // Open loop at a fixed absolute rate, timed from each scheduled send.
  // The client polls without sleeping between sends: a timed sleep
  // overshoots by a timer-slack and vCPU wake-up that varied from run to
  // run and made up a fifth of the measured latency.
  auto open_loop = [&](double seconds) {
    const std::int64_t period_ns = static_cast<std::int64_t>(1e9 / kOpenRate);
    const std::int64_t t0 = Tracer::now_ns();
    const std::int64_t end = t0 + static_cast<std::int64_t>(seconds * 1e9);
    std::int64_t k = 0;
    for (std::int64_t now = t0; now < end; now = Tracer::now_ns()) {
      for (; t0 + k * period_ns <= now; ++k) {
        d.infer(kOpen, next_item++ % kPool, t0 + k * period_ns);
      }
      d.pump(0);
    }
    d.drain();
  };
  // Streaming sessions: one chunk in flight per session; each session's
  // signal continues where the previous cycle left it.
  std::vector<std::size_t> fed(sessions, 0);
  auto feed_sessions = [&](double seconds) {
    const auto t0 = Clock::now();
    for (std::size_t k = 0; k < sessions; ++k) {
      d.chunk(k, fed[k]);
      fed[k] += kChunk;
    }
    while (seconds_since(t0) < seconds) {
      for (const std::uint64_t id : d.pump(1000000)) {
        const std::size_t k = d.records[id].item;
        d.chunk(k, fed[k]);
        fed[k] += kChunk;
      }
    }
    d.drain();
    return seconds_since(t0);
  };

  closed_loop(kWarm, kWarmupSeconds);
  for (std::size_t k = 0; k < sessions; ++k) {
    const bool carry = k < kCarrySessions;
    d.op("{\"op\":\"session\",\"name\":\"s" + std::to_string(k) + "\",\"window\":" +
         std::to_string(kSessionWindow) + ",\"stride\":" +
         std::to_string(carry ? kCarryStride : kSessionWindow) +
         ",\"carry\":" + (carry ? "true" : "false") + "}");
  }
  d.drain();
  // The phases alternate in short cycles, so each metric samples the whole
  // run rather than one stretch of it: slow spells of the machine then
  // touch every metric alike instead of whichever phase they fall in.
  // The end-to-end figures are medians over the cycles, so a spell that
  // slows fewer than half of them does not move them.
  std::vector<double> closed_rps, open_p50_ms;
  double sessions_s = 0.0;
  const auto t_run = Clock::now();
  do {
    std::size_t first = d.records.size();
    const double closed_s = closed_loop(kClosed, kShareClosed * kCycleSeconds);
    closed_rps.push_back(static_cast<double>(count_ok(d.records, first)) / closed_s);
    first = d.records.size();
    open_loop(kShareOpen * kCycleSeconds);
    open_p50_ms.push_back(median(ms_between(d.records, kOpen, true, first)));
    sessions_s += feed_sessions(kShareSessions * kCycleSeconds);
  } while (seconds_since(t_run) < options.seconds);
  for (std::size_t k = 0; k < sessions; ++k) {
    d.op("{\"op\":\"session\",\"name\":\"s" + std::to_string(k) + "\",\"close\":true}");
  }
  d.op("{\"op\":\"stats\"}");
  d.drain();
  const double child_rss_mb = d.finish();

  // --- metrics -------------------------------------------------------
  const std::vector<Record>& records = d.records;
  std::size_t closed_n = 0, windows = 0;
  std::vector<double> frontend, queue, dispatch, rows;
  for (const Record& r : records) {
    if (r.phase == kSessions && r.ok) windows += r.windows.size();
    if (r.phase != kClosed || !r.ok) continue;
    ++closed_n;
    frontend.push_back(static_cast<double>(r.recv_ns - r.sent_ns) * 1e-6 - r.total_us * 1e-3);
    queue.push_back(r.queue_us * 1e-3);
    dispatch.push_back((r.total_us - r.queue_us) * 1e-3);
    rows.push_back(r.batch_rows);
  }
  const std::vector<double> open_ms = ms_between(records, kOpen, true);
  const std::vector<double> chunk_ms = ms_between(records, kSessions, false);
  std::vector<double> lag_ms;
  for (const Record& r : records) {
    if (r.phase == kOpen) lag_ms.push_back(static_cast<double>(r.sent_ns - r.due_ns) * 1e-6);
  }

  out.e2e("setup_s", median(setup_s), "s");
  out.e2e("peak_rss_mb", child_rss_mb, "MB");
  out.e2e("throughput", median(closed_rps), "op/s");
  out.e2e("latency_p50_ms", median(open_p50_ms), "ms");
  out.layer("latency_samples", static_cast<double>(open_ms.size()), "count");
  out.layer("serve_p99_ms", pct_or_zero(open_ms, 99.0, "serve_p99_ms"), "ms");
  out.layer("session_windows_per_s", static_cast<double>(windows) / sessions_s, "windows/s");
  out.layer("session_chunk_p50_ms", median(chunk_ms), "ms");
  out.layer("tools.frontend_ms_p50", median(frontend), "ms");
  out.layer("serve.queue_ms_p50", median(queue), "ms");
  out.layer("serve.dispatch_ms_p50", median(dispatch), "ms");
  out.layer("serve.batch_rows_mean", mean(rows), "rows");
  out.layer("loadgen.lag_p99_ms", pct_or_zero(lag_ms, 99.0, "loadgen.lag_p99_ms"), "ms");
  std::cerr << "perfbench: serve_ndjson " << closed_rps.size() << " cycles; closed "
            << closed_n << " req, per cycle " << quantile(closed_rps, 0.25) << " / "
            << median(closed_rps) << " / " << quantile(closed_rps, 0.75)
            << " req/s (q1/median/q3); open " << open_ms.size() << " req at " << kOpenRate
            << "/s, cycle p50s " << quantile(open_p50_ms, 0.25) << " / "
            << median(open_p50_ms) << " / " << quantile(open_p50_ms, 0.75)
            << " ms; sessions " << chunk_ms.size() << " chunks, " << windows << " windows\n";

  if (tracer.enabled()) {
    for (std::size_t id = 1; id < records.size(); ++id) {
      const Record& r = records[id];
      if (!r.ok) continue;
      // The server's share is known only as a duration; it is placed to
      // end when the response arrived.
      const std::uint64_t span = tracer.add("tools.request", r.sent_ns, r.recv_ns, 0, id);
      tracer.add("serve.server", r.recv_ns - static_cast<std::int64_t>(r.total_us * 1e3),
                 r.recv_ns, span, id);
    }
  }

  // --- checks --------------------------------------------------------
  std::vector<std::uint64_t> sent_ids;
  for (std::uint64_t id = 1; id < records.size(); ++id) sent_ids.push_back(id);
  std::string why;
  out.check(answered_exactly_once(sent_ids, d.answered_ids, &why), "serve_ndjson: " + why);
  out.attempted += sent_ids.size();
  for (const Record& r : records) {
    if (&r != &records[0] && !r.ok) ++out.failed;
  }
  std::size_t stateless_ok = 0, chunks_ok = 0;
  for (const Record& r : records) {
    if (r.ok) ++(r.phase == kSessions ? chunks_ok : stateless_ok);
  }
  bool have_stats = false;
  for (const JsonValue& reply : d.op_replies) {
    out.check(reply.string_or("status", "ok") == "ok", "an op reply was not ok");
    if (reply.string_or("op", "") != "stats") continue;
    // The server's own counters must agree with what the client saw
    // ("completed" counts session chunks too).
    have_stats = true;
    out.check(reply.number_or("completed", -1) == static_cast<double>(stateless_ok + chunks_ok) &&
                  reply.number_or("session_chunks", -1) == static_cast<double>(chunks_ok) &&
                  reply.number_or("shed", -1) == 0 && reply.number_or("errors", -1) == 0,
              "stats op disagrees with the responses received");
  }
  out.check(have_stats, "no stats reply");

  // Reference: the autodiff graph path on the same checkpoint, clean spec,
  // Rng(seed), batch 1.
  auto model = core::make_adapt_pnc(static_cast<std::size_t>(s.data.num_classes),
                                    s.data.sample_period, 1);
  core::load_parameters(*model, s.checkpoint);
  const auto clean = variation::VariationSpec::none();
  auto graph_logits = [&](std::vector<double> x) {
    util::Rng rng(options.seed);
    const std::size_t n = x.size();
    return values_of(model->predict(ad::Tensor(1, n, std::move(x)), clean, rng));
  };
  std::vector<std::vector<double>> expected;
  for (std::size_t i = 0; i < kPool; ++i) expected.push_back(graph_logits(pool_series(s, i)));
  std::size_t mismatched = 0;
  for (const Record& r : records) {
    if (r.ok && r.phase != kSessions && !bit_equal(r.logits, expected[r.item])) ++mismatched;
  }
  out.check(mismatched == 0, std::to_string(mismatched) +
                                 " stateless responses differ from the graph path");

  // Sessions: reset-mode windows against the graph path, carry-mode
  // windows against the mean of this process's own Engine::step read-outs.
  const infer::Engine engine = infer::load_engine(
      s.checkpoint, "adapt", static_cast<std::size_t>(s.data.num_classes),
      s.data.sample_period, 9);
  infer::Plan plan = engine.make_plan();
  util::Rng stamp_rng(options.seed);
  engine.stamp(plan, clean, stamp_rng, 1);
  const std::size_t c = engine.num_classes();
  std::vector<std::vector<double>> readouts(kCarrySessions);
  for (std::size_t k = 0; k < kCarrySessions; ++k) {
    infer::StreamState state;
    engine.reset_stream(plan, state);
    readouts[k].resize(fed[k] * c);
    for (std::size_t t = 0; t < fed[k]; ++t) {
      engine.step(plan, state, session_sample(s, k, t), &readouts[k][t * c]);
    }
  }
  std::size_t reset_bad = 0, carry_bad = 0, checked = 0;
  std::vector<std::size_t> session_windows(sessions, 0);
  for (const Record& r : records) {
    if (r.phase != kSessions || !r.ok) continue;
    const std::size_t k = r.item;
    for (const stream::WindowResult& w : r.windows) {
      ++session_windows[k];
      ++checked;
      if (k >= kCarrySessions) {
        std::vector<double> x;
        for (std::size_t t = w.begin; t < w.end; ++t) x.push_back(session_sample(s, k, t));
        if (!bit_equal(w.logits, graph_logits(std::move(x)))) ++reset_bad;
      } else {
        std::vector<double> mean_readout(c, 0.0);
        for (std::size_t t = w.begin; t < w.end; ++t) {
          for (std::size_t j = 0; j < c; ++j) mean_readout[j] += readouts[k][t * c + j];
        }
        for (double& v : mean_readout) v /= static_cast<double>(w.end - w.begin);
        if (!(max_abs_diff(w.logits, mean_readout) <= 1e-12)) ++carry_bad;
      }
    }
  }
  out.check(reset_bad == 0, std::to_string(reset_bad) +
                                " reset-mode windows differ from the graph path");
  out.check(carry_bad == 0, std::to_string(carry_bad) +
                                " carry-mode windows differ from Engine::step by > 1e-12");
  for (std::size_t k = 0; k < sessions; ++k) {
    const std::size_t stride = k < kCarrySessions ? kCarryStride : kSessionWindow;
    const std::size_t want = fed[k] < kSessionWindow ? 0 : (fed[k] - kSessionWindow) / stride + 1;
    out.check(session_windows[k] == want,
              "session " + std::to_string(k) + " produced " +
                  std::to_string(session_windows[k]) + " windows, expected " +
                  std::to_string(want));
  }
  std::cerr << "perfbench: checked " << expected.size() << " reference series, " << checked
            << " session windows\n";

  if (tracer.enabled()) trace_layers(options, s, tracer, out);
}

}  // namespace perfbench
