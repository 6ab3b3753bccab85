// Persistent serving front-end for pnc::serve: load a checkpoint, start
// the in-process server, and speak an NDJSON protocol (one JSON object
// per line) over stdin/stdout (--stdio, the default) or an AF_UNIX
// stream socket (--socket PATH).
//
//   ./pnc_serve --checkpoint ckpt.txt --model adapt --classes 2 --dt 1
//
// Requests:
//   {"op":"infer","id":7,"series":[0.1,0.2,...]}        -> one response line
//   {"op":"reload","checkpoint":"new.txt"}              -> swap "default"
//   {"op":"stats"}                                      -> counter snapshot
//
// Responses carry "status": "ok" | "shed" | "error". Shedding is the
// admission control: a full queue rejects instead of queueing unbounded
// work. Numbers are printed in the shortest decimal form that reads back
// to the same double, so parsed logits are bit-exact.
//
// Both modes run one connection loop, serve_stream(in_fd, out_fd): read(2)
// chunks go through a bounded LineFramer (a line over --max-line-bytes
// gets one error and is dropped, never buffered whole), and responses go
// out through one FdWriter that owns the output fd. EOF on stdin, or a
// socket client's close or half-close (shutdown(SHUT_WR)), ends reading;
// every admitted request is still answered, because the fd is closed only
// when the last in-flight callback releases the writer. A client that
// leaves without reading its answers costs only its own session: SIGPIPE
// is ignored and a write that fails with EPIPE drops that writer's lines.

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

#include "pnc/calib/overlay.hpp"
#include "pnc/infer/engine.hpp"
#include "pnc/serve/framing.hpp"
#include "pnc/serve/json.hpp"
#include "pnc/serve/server.hpp"
#include "pnc/util/digest.hpp"
#include "pnc/util/failpoint.hpp"

namespace {

using pnc::serve::JsonValue;
using pnc::serve::Request;
using pnc::serve::Response;
using pnc::serve::ServerStats;
using pnc::serve::Status;

constexpr const char* kUsage = R"(usage: pnc_serve --checkpoint PATH --classes C [options]

Serve a trained checkpoint over an NDJSON request protocol.

required:
  --checkpoint PATH   trained parameters, registered as model "default"
  --classes C         classes the checkpoint was trained for (>= 2)

model options:
  --model KIND        adapt | ptpnc | elman            (default adapt)
  --dt SECONDS        sampling period it was trained for (default 1)
  --hidden-cap N      hidden-sizing cap used at training (default 9)
  --variation DELTA   serve one +/-DELTA fabricated circuit (default clean)
  --seed S            variation stamp seed             (default 0)
  --overlay NAME=PATH register the calibration overlay at PATH under NAME
                      (repeatable; requests select it with "overlay":NAME;
                      must match the checkpoint, family and --seed)

server options:
  --shards N          worker threads                   (default 1)
  --max-batch N       dynamic batch cap                (default 16)
  --deadline-us U     coalescing deadline, microseconds (default 200)
  --queue-capacity N  admission threshold              (default 1024)
  --overlay-capacity N registered-overlay LRU bound    (default 256)
  --watchdog-ms M     replace a shard hung on one batch for > M ms
                      (default 0 = watchdog off)
  --max-line-bytes N  longest accepted request line    (default 1048576)
  --logits            include raw logits in responses
  --stdio             serve stdin/stdout               (default)
  --socket PATH       serve an AF_UNIX stream socket at PATH
  --help, -h          print this message and exit

protocol (one JSON object per line):
  {"op":"infer","id":N,"series":[...]}       classify one series
    optional "overlay":NAME                  serve a calibrated device
    optional "priority":"interactive"|"batch"|"best_effort"
    optional "deadline_us":U                 shed if still queued past U
  {"op":"session","name":N,"window":W}       open a streaming session
    optional "stride":S                      window hop (default W)
    optional "carry":true|false              carry state across windows
                                             (default true; false replays
                                             each window from reset)
    optional "confirm":K                     windows to confirm an event
    optional "model":ID, "overlay":NAME      pinned for the session's life
  {"op":"session","name":N,"close":true}     close it; returns totals
  {"op":"chunk","session":N,"id":I,"series":[...]}
                                             append samples to a session;
                                             response carries the windows
                                             classified and events detected
  {"op":"reload","checkpoint":PATH}          hot-swap the "default" model
  {"op":"stats"}                             server counters
  {"op":"health"}                            readiness probe
)";

[[noreturn]] void die(const std::string& message) {
  std::cerr << "pnc_serve: " << message << "\n"
            << "try: pnc_serve --help\n";
  std::exit(1);
}

double parse_double(const std::string& flag, const std::string& text) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(text, &pos);
    if (pos != text.size()) throw std::invalid_argument(text);
    return v;
  } catch (const std::exception&) {
    die("invalid number '" + text + "' for " + flag);
  }
}

std::size_t parse_size(const std::string& flag, const std::string& text) {
  try {
    std::size_t pos = 0;
    const unsigned long v = std::stoul(text, &pos);
    if (pos != text.size()) throw std::invalid_argument(text);
    return static_cast<std::size_t>(v);
  } catch (const std::exception&) {
    die("invalid non-negative integer '" + text + "' for " + flag);
  }
}

std::uint64_t parse_u64(const std::string& flag, const std::string& text) {
  try {
    std::size_t pos = 0;
    const unsigned long long v = std::stoull(text, &pos);
    if (pos != text.size()) throw std::invalid_argument(text);
    return static_cast<std::uint64_t>(v);
  } catch (const std::exception&) {
    die("invalid non-negative integer '" + text + "' for " + flag);
  }
}

/// Builds one protocol line in a std::string. Integers and doubles go
/// through std::to_chars; a double prints in its shortest round-trip form,
/// which parses back to the same bits.
class LineBuilder {
 public:
  LineBuilder& operator<<(std::string_view text) {
    line_ += text;
    return *this;
  }
  LineBuilder& operator<<(char c) {
    line_ += c;
    return *this;
  }
  template <class T, std::enable_if_t<std::is_arithmetic_v<T>, int> = 0>
  LineBuilder& operator<<(T value) {
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof(buf), value);
    line_.append(buf, res.ptr);
    return *this;
  }
  std::string take() { return std::move(line_); }

 private:
  std::string line_;
};

/// The one response sink of a connection. Shard threads write to it
/// concurrently; a mutex keeps each line whole. The writer owns its fd and
/// closes it when the last reference drops: the reader holds one until
/// EOF and each in-flight request's callback holds one, so the fd outlives
/// every answer and a late callback can never write to a reused fd number.
class FdWriter {
 public:
  explicit FdWriter(int fd) : fd_(fd) {}
  ~FdWriter() { ::close(fd_); }
  FdWriter(const FdWriter&) = delete;
  FdWriter& operator=(const FdWriter&) = delete;

  void write_line(std::string&& line) {
    line += '\n';
    std::lock_guard<std::mutex> lock(mutex_);
    if (peer_gone_) return;
    const char* data = line.data();
    std::size_t left = line.size();
    while (left > 0) {
      // Chaos: force a 1-byte write so the retry loop below is exercised
      // the way a slow client exercises it (armed under PNC_CHAOS only).
      const std::size_t chunk =
          PNC_FAILPOINT_FIRE("serve.socket_write") ? 1 : left;
      const ssize_t n = ::write(fd_, data, chunk);
      if (n >= 0) {
        data += n;
        left -= static_cast<std::size_t>(n);
      } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
        pollfd ready{fd_, POLLOUT, 0};  // non-blocking fd: wait, then retry
        ::poll(&ready, 1, -1);
      } else if (errno != EINTR) {
        peer_gone_ = true;  // EPIPE and the like: the reader left
        return;
      }
    }
  }

 private:
  std::mutex mutex_;
  int fd_;
  bool peer_gone_ = false;
};

std::string response_to_json(const Response& resp, bool with_logits) {
  LineBuilder out;
  out << "{\"id\":" << resp.id << ",\"status\":\""
      << pnc::serve::status_name(resp.status) << "\"";
  if (resp.status == Status::kOk) {
    out << ",\"predicted\":" << resp.predicted
        << ",\"generation\":" << resp.generation
        << ",\"batch_rows\":" << resp.batch_rows
        << ",\"queue_us\":" << resp.queue_seconds * 1e6
        << ",\"total_us\":" << resp.total_seconds * 1e6;
    if (with_logits) {
      out << ",\"logits\":[";
      for (std::size_t i = 0; i < resp.logits.size(); ++i) {
        if (i > 0) out << ',';
        out << resp.logits[i];
      }
      out << ']';
    }
    if (resp.session_samples > 0) {  // session chunk: windowed results
      out << ",\"session_samples\":" << resp.session_samples
          << ",\"windows\":[";
      for (std::size_t i = 0; i < resp.windows.size(); ++i) {
        const auto& w = resp.windows[i];
        if (i > 0) out << ',';
        out << "{\"begin\":" << w.begin << ",\"end\":" << w.end
            << ",\"predicted\":" << w.predicted;
        if (with_logits) {
          out << ",\"logits\":[";
          for (std::size_t j = 0; j < w.logits.size(); ++j) {
            if (j > 0) out << ',';
            out << w.logits[j];
          }
          out << ']';
        }
        out << '}';
      }
      out << "],\"events\":[";
      for (std::size_t i = 0; i < resp.events.size(); ++i) {
        if (i > 0) out << ',';
        out << "{\"at\":" << resp.events[i].at
            << ",\"class\":" << resp.events[i].klass << '}';
      }
      out << ']';
    }
  } else {
    out << ",\"error\":\"" << pnc::serve::json_escape(resp.error) << "\"";
  }
  out << '}';
  return out.take();
}

std::string stats_to_json(const ServerStats& s) {
  LineBuilder out;
  out << "{\"op\":\"stats\",\"submitted\":" << s.submitted
      << ",\"completed\":" << s.completed << ",\"shed\":" << s.shed
      << ",\"deadline_expired\":" << s.deadline_expired
      << ",\"errors\":" << s.errors << ",\"batches\":" << s.batches
      << ",\"reloads\":" << s.reloads
      << ",\"worker_restarts\":" << s.worker_restarts
      << ",\"plan_cache_hits\":" << s.plan_cache_hits
      << ",\"plan_cache_misses\":" << s.plan_cache_misses
      << ",\"plan_cache_evictions\":" << s.plan_cache_evictions
      << ",\"overlay_evictions\":" << s.overlay_evictions
      << ",\"sessions_opened\":" << s.sessions_opened
      << ",\"sessions_closed\":" << s.sessions_closed
      << ",\"session_chunks\":" << s.session_chunks
      << ",\"session_windows\":" << s.session_windows
      << ",\"session_events\":" << s.session_events;
  for (std::size_t k = 0; k < pnc::serve::kPriorityClasses; ++k) {
    const char* name =
        pnc::serve::priority_name(static_cast<pnc::serve::Priority>(k));
    out << ",\"served_" << name << "\":" << s.served_by_class[k]
        << ",\"shed_" << name << "\":" << s.shed_by_class[k]
        << ",\"deadline_" << name << "\":" << s.deadline_by_class[k];
  }
  out << ",\"batch_histogram\":[";
  for (std::size_t i = 0; i < s.batch_histogram.size(); ++i) {
    if (i > 0) out << ',';
    out << s.batch_histogram[i];
  }
  out << "]}";
  return out.take();
}

std::string error_line(const std::string& message) {
  return "{\"status\":\"error\",\"error\":\"" +
         pnc::serve::json_escape(message) + "\"}";
}

/// Immutable checkpoint-compilation settings shared by the initial load
/// and every reload op.
struct ModelRecipe {
  std::string kind = "adapt";
  std::size_t n_classes = 0;
  std::size_t hidden_cap = 9;
  double dt = 1.0;
  pnc::variation::VariationSpec variation =
      pnc::variation::VariationSpec::none();
  std::uint64_t variation_seed = 0;
};

pnc::serve::ModelConfig build_model(const ModelRecipe& recipe,
                                    const std::string& checkpoint_path) {
  pnc::serve::ModelConfig config;
  config.engine = std::make_shared<pnc::infer::Engine>(pnc::infer::load_engine(
      checkpoint_path, recipe.kind, recipe.n_classes, recipe.dt,
      recipe.hidden_cap));
  config.checkpoint_digest = pnc::util::fnv1a64_file(checkpoint_path);
  config.variation = recipe.variation;
  config.variation_seed = recipe.variation_seed;
  return config;
}

/// Handle one protocol line. Infer responses are written asynchronously
/// by the submit callback; everything else is written before returning.
void handle_line(pnc::serve::Server& server, const ModelRecipe& recipe,
                 std::string_view line,
                 const std::shared_ptr<FdWriter>& writer,
                 bool with_logits) {
  JsonValue doc;
  try {
    doc = JsonValue::parse(line);
  } catch (const std::exception& error) {
    writer->write_line(error_line(error.what()));
    return;
  }
  const std::string op = doc.string_or("op", "infer");

  if (op == "infer") {
    Request req;
    req.id = static_cast<std::uint64_t>(doc.number_or("id", 0.0));
    req.model = doc.string_or("model", "default");
    req.overlay = doc.string_or("overlay", "");
    const std::string priority = doc.string_or("priority", "interactive");
    if (!pnc::serve::parse_priority(priority, req.priority)) {
      writer->write_line(error_line("unknown priority '" + priority + "'"));
      return;
    }
    req.deadline_us = doc.number_or("deadline_us", 0.0);
    if (req.deadline_us < 0.0) {
      writer->write_line(error_line("deadline_us must be >= 0"));
      return;
    }
    const JsonValue* series = doc.find("series");
    if (series != nullptr) {
      try {
        const std::vector<JsonValue>& values = series->as_array();
        req.series.reserve(values.size());
        for (const JsonValue& v : values) req.series.push_back(v.as_number());
      } catch (const std::exception& error) {
        writer->write_line(error_line(error.what()));
        return;
      }
    }
    server.submit(std::move(req), [writer, with_logits](Response resp) {
      writer->write_line(response_to_json(resp, with_logits));
    });
    return;
  }

  if (op == "session") {
    const std::string name = doc.string_or("name", "");
    if (name.empty()) {
      writer->write_line(error_line("session: missing name"));
      return;
    }
    bool close = false;
    if (const JsonValue* c = doc.find("close")) {
      try {
        close = c->as_bool();
      } catch (const std::exception& error) {
        writer->write_line(error_line(error.what()));
        return;
      }
    }
    if (close) {
      pnc::serve::SessionInfo info;
      std::string error;
      if (server.close_session(name, &info, &error) != Status::kOk) {
        writer->write_line(error_line("session: " + error));
        return;
      }
      LineBuilder out;
      out << "{\"op\":\"session\",\"status\":\"ok\",\"name\":\""
          << pnc::serve::json_escape(name)
          << "\",\"closed\":true,\"generation\":" << info.generation
          << ",\"samples\":" << info.samples
          << ",\"windows\":" << info.windows << ",\"events\":" << info.events
          << "}";
      writer->write_line(out.take());
      return;
    }
    pnc::serve::SessionConfig config;
    config.model = doc.string_or("model", "default");
    config.overlay = doc.string_or("overlay", "");
    const double window = doc.number_or("window", 64.0);
    if (window < 1.0) {
      writer->write_line(error_line("session: window must be >= 1"));
      return;
    }
    config.stream.window = static_cast<std::size_t>(window);
    const double stride = doc.number_or("stride", window);
    if (stride < 1.0 || stride > window) {
      writer->write_line(error_line("session: stride must be in [1, window]"));
      return;
    }
    config.stream.stride = static_cast<std::size_t>(stride);
    const double confirm = doc.number_or("confirm", 2.0);
    if (confirm < 1.0) {
      writer->write_line(error_line("session: confirm must be >= 1"));
      return;
    }
    config.stream.confirm_windows = static_cast<std::size_t>(confirm);
    bool carry = true;
    if (const JsonValue* c = doc.find("carry")) {
      try {
        carry = c->as_bool();
      } catch (const std::exception& error) {
        writer->write_line(error_line(error.what()));
        return;
      }
    }
    config.stream.policy = carry ? pnc::stream::StatePolicy::kCarry
                                 : pnc::stream::StatePolicy::kReset;
    std::string error;
    if (server.open_session(name, config, &error) != Status::kOk) {
      writer->write_line(error_line("session: " + error));
      return;
    }
    LineBuilder out;
    out << "{\"op\":\"session\",\"status\":\"ok\",\"name\":\""
        << pnc::serve::json_escape(name) << "\",\"window\":"
        << config.stream.window << ",\"stride\":" << config.stream.stride
        << ",\"carry\":" << (carry ? "true" : "false") << "}";
    writer->write_line(out.take());
    return;
  }

  if (op == "chunk") {
    Request req;
    req.id = static_cast<std::uint64_t>(doc.number_or("id", 0.0));
    req.session = doc.string_or("session", "");
    if (req.session.empty()) {
      writer->write_line(error_line("chunk: missing session"));
      return;
    }
    const JsonValue* series = doc.find("series");
    if (series != nullptr) {
      try {
        const std::vector<JsonValue>& values = series->as_array();
        req.series.reserve(values.size());
        for (const JsonValue& v : values) req.series.push_back(v.as_number());
      } catch (const std::exception& error) {
        writer->write_line(error_line(error.what()));
        return;
      }
    }
    server.submit(std::move(req), [writer, with_logits](Response resp) {
      writer->write_line(response_to_json(resp, with_logits));
    });
    return;
  }

  if (op == "reload") {
    const std::string checkpoint = doc.string_or("checkpoint", "");
    const std::string model_id = doc.string_or("model", "default");
    if (checkpoint.empty()) {
      writer->write_line(error_line("reload: missing checkpoint"));
      return;
    }
    try {
      pnc::serve::ModelConfig config = build_model(recipe, checkpoint);
      const std::uint64_t digest = config.checkpoint_digest;
      const std::uint64_t generation =
          server.load_model(model_id, std::move(config));
      LineBuilder out;
      out << "{\"op\":\"reload\",\"status\":\"ok\",\"model\":\""
          << pnc::serve::json_escape(model_id)
          << "\",\"generation\":" << generation << ",\"digest\":" << digest
          << "}";
      writer->write_line(out.take());
    } catch (const std::exception& error) {
      writer->write_line(error_line(std::string("reload: ") + error.what()));
    }
    return;
  }

  if (op == "stats") {
    writer->write_line(stats_to_json(server.stats()));
    return;
  }

  if (op == "health") {
    const pnc::serve::Health health = server.health();
    LineBuilder out;
    out << "{\"op\":\"health\",\"health\":\""
        << pnc::serve::health_name(health) << "\",\"ready\":"
        << (server.ready() ? "true" : "false") << "}";
    writer->write_line(out.take());
    return;
  }

  writer->write_line(error_line(
      "unknown op '" + op +
      "' (valid: infer, session, chunk, reload, stats, health)"));
}

/// One connection: frame request lines read from `in_fd` until EOF and
/// answer on `out_fd`, which the writer takes over (see FdWriter). A line
/// over the cap is answered with one error instead of killing the server:
/// one abusive or broken client must not take down everyone else's
/// session. Returns at EOF with answers possibly still in flight.
void serve_stream(pnc::serve::Server& server, const ModelRecipe& recipe,
                  int in_fd, int out_fd, bool with_logits,
                  std::size_t max_line_bytes) {
  const auto writer = std::make_shared<FdWriter>(out_fd);
  pnc::serve::LineFramer framer(max_line_bytes);
  const auto on_line = [&](std::string_view line) {
    handle_line(server, recipe, line, writer, with_logits);
  };
  const auto on_too_long = [&] {
    writer->write_line(error_line("line too long (over " +
                                  std::to_string(max_line_bytes) + " bytes)"));
  };
  char chunk[16384];
  for (;;) {
    const ssize_t n = ::read(in_fd, chunk, sizeof(chunk));
    if (n > 0) {
      framer.feed(std::string_view(chunk, static_cast<std::size_t>(n)),
                  on_line, on_too_long);
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd ready{in_fd, POLLIN, 0};  // non-blocking fd: wait for input
      ::poll(&ready, 1, -1);
    } else if (n == 0 || errno != EINTR) {
      break;  // EOF, half-close, or the connection failed
    }
  }
  framer.finish(on_line);
}

int serve_socket(pnc::serve::Server& server, const ModelRecipe& recipe,
                 const std::string& path, bool with_logits,
                 std::size_t max_line_bytes) {
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listener < 0) die("socket: " + std::string(std::strerror(errno)));
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) die("socket path too long");
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  ::unlink(path.c_str());
  if (::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    die("bind " + path + ": " + std::strerror(errno));
  }
  if (::listen(listener, 16) != 0) {
    die("listen: " + std::string(std::strerror(errno)));
  }
  std::cerr << "pnc_serve: listening on " << path << "\n";
  while (true) {
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;
    }
    std::thread(
        [&server, &recipe, fd, with_logits, max_line_bytes] {
          serve_stream(server, recipe, fd, fd, with_logits, max_line_bytes);
        })
        .detach();
  }
  ::close(listener);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pnc;

  std::string checkpoint_path;
  std::string socket_path;
  ModelRecipe recipe;
  serve::ServerConfig config;
  double variation_delta = 0.0;
  bool with_logits = false;
  std::size_t max_line_bytes = 1 << 20;
  std::vector<std::pair<std::string, std::string>> overlay_specs;

  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) die("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--help" || flag == "-h") {
      std::cout << kUsage;
      return 0;
    }
    else if (flag == "--checkpoint") checkpoint_path = value();
    else if (flag == "--model") recipe.kind = value();
    else if (flag == "--classes") recipe.n_classes = parse_size(flag, value());
    else if (flag == "--dt") recipe.dt = parse_double(flag, value());
    else if (flag == "--hidden-cap") recipe.hidden_cap = parse_size(flag, value());
    else if (flag == "--variation") variation_delta = parse_double(flag, value());
    else if (flag == "--seed") recipe.variation_seed = parse_u64(flag, value());
    else if (flag == "--overlay") {
      const std::string spec = value();
      const std::size_t eq = spec.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 == spec.size()) {
        die("--overlay wants NAME=PATH, got '" + spec + "'");
      }
      overlay_specs.emplace_back(spec.substr(0, eq), spec.substr(eq + 1));
    }
    else if (flag == "--shards") config.shards = parse_size(flag, value());
    else if (flag == "--max-batch") config.max_batch = parse_size(flag, value());
    else if (flag == "--deadline-us") config.batch_deadline_us = parse_double(flag, value());
    else if (flag == "--queue-capacity") config.queue_capacity = parse_size(flag, value());
    else if (flag == "--overlay-capacity") config.overlay_capacity = parse_size(flag, value());
    else if (flag == "--watchdog-ms") config.watchdog_budget_ms = parse_double(flag, value());
    else if (flag == "--max-line-bytes") max_line_bytes = parse_size(flag, value());
    else if (flag == "--logits") with_logits = true;
    else if (flag == "--stdio") socket_path.clear();
    else if (flag == "--socket") socket_path = value();
    else die("unknown flag " + flag);
  }
  if (checkpoint_path.empty()) die("--checkpoint is required");
  if (recipe.n_classes < 2) die("--classes must be >= 2");
  if (recipe.dt <= 0.0) die("--dt must be > 0");
  if (config.shards == 0) die("--shards must be >= 1");
  if (config.max_batch == 0) die("--max-batch must be >= 1");
  if (config.queue_capacity == 0) die("--queue-capacity must be >= 1");
  if (config.batch_deadline_us < 0.0) die("--deadline-us must be >= 0");
  if (config.watchdog_budget_ms < 0.0) die("--watchdog-ms must be >= 0");
  if (config.overlay_capacity == 0) die("--overlay-capacity must be >= 1");
  if (max_line_bytes == 0) die("--max-line-bytes must be >= 1");
  if (variation_delta < 0.0) die("--variation must be >= 0");
  if (variation_delta > 0.0) {
    recipe.variation = variation::VariationSpec::printing(variation_delta);
  }

#if defined(PNC_CHAOS)
  // Chaos builds only: arm fail points from the environment so an
  // external harness can fault-inject a real pnc_serve process, e.g.
  //   PNC_CHAOS_SPEC='serve.socket_write=fire:0.2;serve.batch_forward=throw:0.05'
  if (const char* chaos = std::getenv("PNC_CHAOS_SPEC")) {
    try {
      util::FailPoints::arm_from_spec(chaos);
      std::cerr << "pnc_serve: chaos fail points armed: " << chaos << "\n";
    } catch (const std::exception& error) {
      die(std::string("PNC_CHAOS_SPEC: ") + error.what());
    }
  }
#endif

  serve::Server server(config);
  try {
    serve::ModelConfig model = build_model(recipe, checkpoint_path);
    const std::string family = model.engine->model_name();
    const std::uint64_t digest = model.checkpoint_digest;
    server.load_model("default", std::move(model));
    for (const auto& [name, path] : overlay_specs) {
      // Fail fast on a mis-keyed overlay instead of erroring per request.
      calib::Overlay overlay = calib::load_overlay(path);
      calib::require_overlay_matches(overlay, family, digest,
                                     recipe.variation_seed);
      server.register_overlay(name, std::move(overlay));
      std::cerr << "pnc_serve: overlay '" << name << "' <- " << path << "\n";
    }
  } catch (const std::exception& error) {
    die(error.what());
  }
  // A client that closes without reading its answers must not kill the
  // server: its writes fail with EPIPE instead (see FdWriter).
  std::signal(SIGPIPE, SIG_IGN);
  server.start();

  if (!socket_path.empty()) {
    return serve_socket(server, recipe, socket_path, with_logits,
                        max_line_bytes);
  }
  serve_stream(server, recipe, STDIN_FILENO, STDOUT_FILENO, with_logits,
               max_line_bytes);
  server.stop();  // drain in-flight requests; callbacks write before exit
  return 0;
}
