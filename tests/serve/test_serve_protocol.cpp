// pnc_serve end to end: the real binary over stdin/stdout pipes and over
// its AF_UNIX socket, on a checkpoint made here. Every admitted request is
// answered before EOF (stdio) or before the server closes a half-closed
// connection; logits read back bit-equal to Engine::forward; op replies
// parse; a client that leaves unread does not kill the server; a
// non-blocking stdout loses no answer; an oversized line costs bounded
// memory and the next request is still served.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "pnc/core/adapt_pnc.hpp"
#include "pnc/core/serialize.hpp"
#include "pnc/infer/engine.hpp"
#include "pnc/serve/json.hpp"
#include "pnc/util/rng.hpp"

namespace pnc {
namespace {

using serve::JsonValue;
using namespace std::chrono_literals;

constexpr std::size_t kClasses = 3;
constexpr std::size_t kLength = 24;
constexpr std::size_t kPool = 16;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "pnc_serve_protocol_" + std::to_string(::getpid()) +
         "_" + name;
}

/// A checkpoint, request bodies and their series' Engine::forward logits.
struct Fixture {
  std::string checkpoint = temp_path("checkpoint.txt");
  std::vector<std::vector<double>> logits;
  std::vector<std::string> bodies;  // `,"series":[...]}` per series

  Fixture() {
    auto model = core::make_adapt_pnc(kClasses, 1.0, 7, 9);
    core::save_parameters(*model, checkpoint);
    const infer::Engine engine = infer::load_engine(checkpoint, "adapt", kClasses, 1.0, 9);
    infer::Plan plan = engine.make_plan();
    util::Rng stamp_rng(0);
    engine.stamp(plan, variation::VariationSpec::none(), stamp_rng, 1);
    util::Rng rng(11);
    for (std::size_t i = 0; i < kPool; ++i) {
      std::vector<double> x(kLength);
      for (double& v : x) v = rng.normal(0.0, 1.0);
      ad::Tensor out;
      engine.forward(plan, ad::Tensor(1, kLength, x), out);
      logits.emplace_back(out.data().begin(), out.data().end());
      std::string body = ",\"series\":[";
      for (std::size_t t = 0; t < kLength; ++t) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%s%.17g", t ? "," : "", x[t]);
        body += buf;
      }
      bodies.push_back(body + "]}");
    }
  }
  ~Fixture() { std::remove(checkpoint.c_str()); }

  std::string infer_line(std::uint64_t id) const {
    return "{\"op\":\"infer\",\"id\":" + std::to_string(id) + bodies[id % kPool] + "\n";
  }
};

const Fixture& fixture() {
  static const Fixture f;
  return f;
}

/// Write `input` to `wfd` while reading `rfd` (the same fd for a socket);
/// once all is written, end the sending side — close `wfd`, or shut a
/// socket down for writing — and read on until EOF. Returns what was read.
std::string round_trip(int wfd, int rfd, std::string_view input) {
  const bool socket = wfd == rfd;
  ::signal(SIGPIPE, SIG_IGN);  // a dead child shows up as a short answer list
  ::fcntl(wfd, F_SETFL, ::fcntl(wfd, F_GETFL) | O_NONBLOCK);
  std::string output;
  std::size_t sent = 0;
  bool sending = true;
  char buf[1 << 16];
  const auto t0 = std::chrono::steady_clock::now();
  for (;;) {
    if (sending && sent == input.size()) {
      if (socket) {
        ::shutdown(wfd, SHUT_WR);
      } else {
        ::close(wfd);
      }
      sending = false;
    }
    if (std::chrono::steady_clock::now() - t0 > 120s) {
      throw std::runtime_error("round trip timed out");
    }
    pollfd fds[2] = {{rfd, POLLIN, 0}, {wfd, POLLOUT, 0}};
    const nfds_t n_fds = sending && !socket ? 2 : 1;
    if (sending && socket) fds[0].events |= POLLOUT;
    ::poll(fds, n_fds, 1000);
    if (sending && (fds[n_fds - 1].revents & (POLLOUT | POLLERR)) != 0) {
      const std::size_t len = std::min<std::size_t>(input.size() - sent, 1 << 16);
      const ssize_t n = socket ? ::send(wfd, input.data() + sent, len, MSG_NOSIGNAL)
                               : ::write(wfd, input.data() + sent, len);
      if (n > 0) {
        sent += static_cast<std::size_t>(n);
      } else if (errno != EAGAIN && errno != EINTR) {
        sent = input.size();  // the server is gone; read what it left
      }
    }
    if ((fds[0].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
      const ssize_t n = ::read(rfd, buf, sizeof(buf));
      if (n == 0) return output;
      if (n > 0) {
        output.append(buf, static_cast<std::size_t>(n));
      } else if (errno != EINTR && errno != EAGAIN) {
        return output;
      }
    }
  }
}

/// A running pnc_serve child. In stdio mode `in`/`out` are our ends of
/// its stdin/stdout pipes; in socket mode it listens on `socket_path`.
class ServeProcess {
 public:
  explicit ServeProcess(std::vector<std::string> extra, std::string socket_path = "",
                        bool nonblocking_stdout = false)
      : socket_path_(std::move(socket_path)) {
    std::vector<std::string> argv = {PNC_SERVE_BINARY, "--checkpoint",
                                     fixture().checkpoint, "--classes",
                                     std::to_string(kClasses), "--logits"};
    if (!socket_path_.empty()) {
      argv.push_back("--socket");
      argv.push_back(socket_path_);
    }
    argv.insert(argv.end(), extra.begin(), extra.end());
    std::vector<char*> args;
    for (auto& a : argv) args.push_back(a.data());
    args.push_back(nullptr);
    int to_child[2], from_child[2];
    if (::pipe2(to_child, O_CLOEXEC) != 0 || ::pipe2(from_child, O_CLOEXEC) != 0) {
      throw std::runtime_error("pipe2 failed");
    }
    if (nonblocking_stdout) {
      ::fcntl(from_child[1], F_SETFL, ::fcntl(from_child[1], F_GETFL) | O_NONBLOCK);
    }
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      ::dup2(to_child[0], 0);
      ::dup2(from_child[1], 1);
      ::execv(args[0], args.data());
      ::_exit(127);
    }
    ::close(to_child[0]);
    ::close(from_child[1]);
    in = to_child[1];
    out = from_child[0];
  }

  ~ServeProcess() {
    close_in();
    if (out >= 0) ::close(out);
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    if (!socket_path_.empty()) ::unlink(socket_path_.c_str());
  }

  void close_in() {
    if (in >= 0) ::close(in);
    in = -1;
  }

  /// Stdio mode: send `input`, close stdin, read stdout until EOF.
  std::string talk(std::string_view input) {
    return round_trip(std::exchange(in, -1), out, input);
  }

  /// A new connection to the socket, retried while the server starts.
  int connect() const {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, socket_path_.c_str(), sizeof(addr.sun_path) - 1);
    const auto t0 = std::chrono::steady_clock::now();
    for (;;) {
      const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
      if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0) {
        return fd;
      }
      ::close(fd);
      if (!alive()) throw std::runtime_error("pnc_serve exited");
      if (std::chrono::steady_clock::now() - t0 > 30s) {
        throw std::runtime_error("pnc_serve socket never came up");
      }
      std::this_thread::sleep_for(10ms);
    }
  }

  /// Still running; a child that exited stays unreaped for wait().
  bool alive() const {
    siginfo_t info{};
    ::waitid(P_PID, static_cast<id_t>(pid_), &info, WEXITED | WNOHANG | WNOWAIT);
    return info.si_pid == 0;
  }

  /// Ask the server to end (socket mode never ends by itself).
  void terminate() const { ::kill(pid_, SIGTERM); }

  /// Reap the child: its wait status and peak RSS in KiB.
  std::pair<int, long> wait() {
    rusage usage{};
    int status = 0;
    if (::wait4(pid_, &status, 0, &usage) != pid_) throw std::runtime_error("wait4 failed");
    pid_ = -1;
    return {status, usage.ru_maxrss};
  }

  int in = -1;
  int out = -1;

 private:
  std::string socket_path_;
  pid_t pid_ = -1;
};

std::vector<JsonValue> parse_lines(const std::string& output) {
  std::vector<JsonValue> docs;
  std::size_t start = 0;
  for (std::size_t nl = output.find('\n'); nl != std::string::npos;
       nl = output.find('\n', start)) {
    docs.push_back(JsonValue::parse(std::string_view(output).substr(start, nl - start)));
    start = nl + 1;
  }
  EXPECT_EQ(start, output.size()) << "unterminated last line";
  return docs;
}

bool bit_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// `n` infer answers, ids 1..n each exactly once, all ok, logits bit-equal
/// to Engine::forward on the request's series.
void expect_answers(const std::string& output, std::size_t n) {
  const std::vector<JsonValue> docs = parse_lines(output);
  ASSERT_EQ(docs.size(), n);
  std::set<std::uint64_t> ids;
  std::size_t mismatched = 0;
  for (const JsonValue& doc : docs) {
    ASSERT_EQ(doc.string_or("status", ""), "ok");
    const auto id = static_cast<std::uint64_t>(doc.number_or("id", 0.0));
    ids.insert(id);
    const JsonValue* values = doc.find("logits");
    ASSERT_NE(values, nullptr);
    std::vector<double> logits;
    for (const JsonValue& v : values->as_array()) logits.push_back(v.as_number());
    if (!bit_equal(logits, fixture().logits[id % kPool])) ++mismatched;
  }
  EXPECT_EQ(ids.size(), n);
  EXPECT_EQ(*ids.begin(), 1u);
  EXPECT_EQ(*ids.rbegin(), n);
  EXPECT_EQ(mismatched, 0u);
}

std::string infer_lines(std::size_t n) {
  std::string input;
  for (std::uint64_t id = 1; id <= n; ++id) input += fixture().infer_line(id);
  return input;
}

TEST(ServeProtocol, StdioAnswersEveryRequestBeforeExitWithBitExactLogits) {
  constexpr std::size_t kN = 500;
  ServeProcess serve({"--queue-capacity", "65536"});
  const std::string output = serve.talk(infer_lines(kN));
  expect_answers(output, kN);
  const auto [status, rss] = serve.wait();
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << "status " << status;
}

TEST(ServeProtocol, SocketHalfCloseDrainsEveryAnswer) {
  constexpr std::size_t kN = 2000;
  ServeProcess serve({"--queue-capacity", "65536"}, temp_path("drain.sock"));
  for (int round = 0; round < 2; ++round) {  // the second reuses fd numbers
    const int fd = serve.connect();
    const std::string output = round_trip(fd, fd, infer_lines(kN));
    ::close(fd);
    SCOPED_TRACE("round " + std::to_string(round));
    expect_answers(output, kN);
  }
  serve.terminate();
  const auto [status, rss] = serve.wait();
  EXPECT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGTERM) << "status " << status;
}

TEST(ServeProtocol, OpRepliesParse) {
  ServeProcess serve({});
  const std::string output = serve.talk(
      "{\"op\":\"health\"}\n{\"op\":\"session\",\"name\":\"s\",\"window\":8}\n"
      "{\"op\":\"session\",\"name\":\"s\",\"close\":true}\n{\"op\":\"bogus\"}\n"
      "not json\n{\"op\":\"stats\"}\n");
  const std::vector<JsonValue> docs = parse_lines(output);
  ASSERT_EQ(docs.size(), 6u);
  EXPECT_EQ(docs[0].string_or("op", ""), "health");
  EXPECT_TRUE(docs[0].find("ready")->as_bool());
  EXPECT_EQ(docs[1].string_or("status", ""), "ok");
  EXPECT_DOUBLE_EQ(docs[1].number_or("window", 0.0), 8.0);
  EXPECT_TRUE(docs[2].find("closed")->as_bool());
  EXPECT_EQ(docs[3].string_or("status", ""), "error");
  EXPECT_NE(docs[3].string_or("error", "").find("unknown op 'bogus'"), std::string::npos);
  EXPECT_EQ(docs[4].string_or("status", ""), "error");
  EXPECT_EQ(docs[5].string_or("op", ""), "stats");
  EXPECT_DOUBLE_EQ(docs[5].number_or("sessions_opened", -1.0), 1.0);
  ASSERT_NE(docs[5].find("batch_histogram"), nullptr);
  EXPECT_EQ(docs[5].find("batch_histogram")->type(), JsonValue::Type::kArray);
  EXPECT_EQ(serve.wait().first, 0);
}

/// One request/reply round trip on a connected socket.
JsonValue ask(int fd, const std::string& line) {
  if (::send(fd, line.data(), line.size(), MSG_NOSIGNAL) != static_cast<ssize_t>(line.size())) {
    throw std::runtime_error("send failed");
  }
  std::string reply;
  char c = 0;
  while (reply.empty() || reply.back() != '\n') {
    if (::read(fd, &c, 1) != 1) throw std::runtime_error("server closed the connection");
    reply += c;
  }
  reply.pop_back();
  return JsonValue::parse(reply);
}

TEST(ServeProtocol, ClientLeavingWithoutReadingDoesNotKillServer) {
  ServeProcess serve({"--queue-capacity", "65536"}, temp_path("vanish.sock"));
  {
    const int fd = serve.connect();
    const std::string input = infer_lines(2000);
    for (std::size_t sent = 0; sent < input.size();) {
      const ssize_t n = ::send(fd, input.data() + sent, input.size() - sent, MSG_NOSIGNAL);
      ASSERT_GT(n, 0);
      sent += static_cast<std::size_t>(n);
    }
    ::close(fd);  // gone before a single answer is read
  }
  // Let the server write answers to the vanished client before a new
  // connection can take over its fd number.
  std::this_thread::sleep_for(300ms);
  // Wait until every request the server took has been answered, i.e.
  // written to the vanished client, and the count has settled.
  const int probe = serve.connect();
  double last_submitted = -1.0;
  const auto t0 = std::chrono::steady_clock::now();
  for (;;) {
    ASSERT_LT(std::chrono::steady_clock::now() - t0, 60s);
    const JsonValue stats = ask(probe, "{\"op\":\"stats\"}\n");
    const double submitted = stats.number_or("submitted", 0.0);
    const double done = stats.number_or("completed", 0.0) + stats.number_or("errors", 0.0) +
                        stats.number_or("shed", 0.0);
    if (submitted > 0.0 && done == submitted && submitted == last_submitted) break;
    last_submitted = submitted;
    std::this_thread::sleep_for(50ms);
  }
  EXPECT_TRUE(serve.alive());
  const JsonValue answer = ask(probe, fixture().infer_line(3));
  EXPECT_EQ(answer.string_or("status", ""), "ok");
  ::close(probe);
  serve.terminate();
  const auto [status, rss] = serve.wait();
  EXPECT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGTERM) << "status " << status;
}

TEST(ServeProtocol, NonBlockingStdoutLosesNoAnswer) {
  constexpr std::size_t kN = 2000;
  ServeProcess serve({"--queue-capacity", "65536"}, "", /*nonblocking_stdout=*/true);
  // Send everything without reading, so the stdout pipe fills and the
  // server's writes hit EAGAIN; then read it all.
  const std::string input = infer_lines(kN);
  for (std::size_t sent = 0; sent < input.size();) {
    const ssize_t n = ::write(serve.in, input.data() + sent, input.size() - sent);
    ASSERT_GT(n, 0);
    sent += static_cast<std::size_t>(n);
  }
  serve.close_in();
  std::this_thread::sleep_for(300ms);
  std::string output;
  char buf[1 << 16];
  for (ssize_t n; (n = ::read(serve.out, buf, sizeof(buf))) != 0;) {
    if (n < 0 && errno == EINTR) continue;
    ASSERT_GT(n, 0);
    output.append(buf, static_cast<std::size_t>(n));
  }
  expect_answers(output, kN);
  EXPECT_EQ(serve.wait().first, 0);
}

/// Sends `junk_bytes` of one newline-free line, then a valid request, to
/// a server capped at 1 KiB per line. Expects one "line too long" error
/// and one answer; returns the server's peak RSS in KiB.
long oversized_line_peak_rss(std::size_t junk_bytes, bool socket) {
  ServeProcess serve({"--max-line-bytes", "1024"}, socket ? temp_path("big.sock") : "");
  const std::string input = std::string(junk_bytes, 'x') + "\n" + fixture().infer_line(1);
  std::string output;
  if (socket) {
    const int fd = serve.connect();
    output = round_trip(fd, fd, input);
    ::close(fd);
    serve.terminate();
  } else {
    output = serve.talk(input);
  }
  const std::vector<JsonValue> docs = parse_lines(output);
  EXPECT_EQ(docs.size(), 2u);
  if (docs.size() == 2) {
    EXPECT_NE(docs[0].string_or("error", "").find("line too long"), std::string::npos);
    EXPECT_EQ(docs[1].string_or("status", ""), "ok");
  }
  return serve.wait().second;
}

void expect_bounded_oversized_line(bool socket) {
  const long small = oversized_line_peak_rss(4096, socket);
  const long large = oversized_line_peak_rss(std::size_t{48} << 20, socket);
  // 48 MiB in one line: buffering it would add at least that much.
  EXPECT_LT(large - small, 16L * 1024) << "peak RSS " << small << " KiB vs " << large << " KiB";
}

TEST(ServeProtocol, OversizedLineOnStdioKeepsMemoryBounded) {
  expect_bounded_oversized_line(false);
}

TEST(ServeProtocol, OversizedLineOnSocketKeepsMemoryBounded) {
  expect_bounded_oversized_line(true);
}

}  // namespace
}  // namespace pnc
