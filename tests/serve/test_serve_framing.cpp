// LineFramer: the bounded NDJSON line splitter under pnc_serve's read(2)
// loop. Lines across chunk borders, empty lines, one error per oversized
// line with the buffer held within the cap, and a seeded fuzz check that
// any chunking of a stream gives the same events as feeding it whole.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "pnc/serve/framing.hpp"
#include "pnc/util/rng.hpp"

namespace pnc::serve {
namespace {

constexpr const char* kTooLong = "<too long>";

/// Feeds `stream` in the given chunk sizes (cycled), then finishes; the
/// events are lines and kTooLong markers in emission order. Checks the
/// buffer bound after every chunk.
std::vector<std::string> frame(std::string_view stream, std::size_t cap,
                               const std::vector<std::size_t>& chunks) {
  LineFramer framer(cap);
  std::vector<std::string> events;
  const auto on_line = [&](std::string_view line) { events.emplace_back(line); };
  const auto on_too_long = [&] { events.emplace_back(kTooLong); };
  for (std::size_t at = 0, k = 0; at < stream.size(); ++k) {
    const std::size_t n = std::min(chunks[k % chunks.size()], stream.size() - at);
    framer.feed(stream.substr(at, n), on_line, on_too_long);
    EXPECT_LE(framer.buffered(), cap);
    at += n;
  }
  framer.finish(on_line);
  EXPECT_EQ(framer.buffered(), 0u);
  return events;
}

std::vector<std::string> frame_whole(std::string_view stream, std::size_t cap) {
  return frame(stream, cap, {std::max<std::size_t>(stream.size(), 1)});
}

TEST(ServeFraming, SplitsLinesAcrossChunkBorders) {
  const std::string stream = "{\"op\":\"stats\"}\n{\"op\":\"health\"}\nabc\n";
  const std::vector<std::string> want = {"{\"op\":\"stats\"}", "{\"op\":\"health\"}",
                                         "abc"};
  EXPECT_EQ(frame_whole(stream, 64), want);
  EXPECT_EQ(frame(stream, 64, {1}), want);
  EXPECT_EQ(frame(stream, 64, {3, 7}), want);
}

TEST(ServeFraming, SkipsEmptyLines) {
  EXPECT_EQ(frame_whole("\n\na\n\n\nb\n\n", 8), (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(frame_whole("\n\n\n", 8).empty());
}

TEST(ServeFraming, LineAtTheCapIsServedOneByteOverIsNot) {
  EXPECT_EQ(frame("abcd\n", 4, {1}), (std::vector<std::string>{"abcd"}));
  EXPECT_EQ(frame("abcde\n", 4, {1}), (std::vector<std::string>{kTooLong}));
}

TEST(ServeFraming, OneErrorPerOversizedLineThenNextLineServed) {
  const std::string stream = std::string(100, 'x') + "\nok\n" + std::string(50, 'y') +
                             "\n" + std::string(9, 'z') + "\nlast\n";
  const std::vector<std::string> want = {kTooLong, "ok", kTooLong, kTooLong, "last"};
  for (const std::size_t chunk : {1, 2, 5, 16, 4096}) {
    SCOPED_TRACE("chunk " + std::to_string(chunk));
    EXPECT_EQ(frame(stream, 8, {chunk}), want);
  }
}

TEST(ServeFraming, BufferStaysWithinCapOnMultiMegabyteLineWithoutNewline) {
  constexpr std::size_t kCap = 1024;
  LineFramer framer(kCap);
  std::size_t errors = 0;
  std::vector<std::string> lines;
  const auto on_line = [&](std::string_view line) { lines.emplace_back(line); };
  const auto on_too_long = [&] { ++errors; };
  const std::string junk(16384, 'x');
  for (int i = 0; i < 512; ++i) {  // 8 MiB, no newline
    framer.feed(junk, on_line, on_too_long);
    ASSERT_LE(framer.buffered(), kCap);
  }
  EXPECT_EQ(errors, 1u);
  framer.feed("tail\n{\"op\":\"health\"}\n", on_line, on_too_long);
  framer.finish(on_line);
  EXPECT_EQ(errors, 1u);
  EXPECT_EQ(lines, (std::vector<std::string>{"{\"op\":\"health\"}"}));
}

TEST(ServeFraming, UnterminatedLastLineIsHandedOverAtFinish) {
  EXPECT_EQ(frame("a\nb", 8, {1}), (std::vector<std::string>{"a", "b"}));
  // An oversized unterminated tail was reported when it crossed the cap.
  EXPECT_EQ(frame("a\nbbbbbbbbbbbb", 8, {3}), (std::vector<std::string>{"a", kTooLong}));
}

// Seeded streams mixing valid, empty, oversized and unterminated lines.
// Each stream's expected events follow from how it was built; feeding it
// whole and in random chunk sizes must both reproduce them.
TEST(ServeFraming, RandomChunkingMatchesWholeStreamOnSeededStreams) {
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Rng rng(seed);
    const auto cap = static_cast<std::size_t>(rng.uniform_int(1, 48));
    const auto random_line = [&](std::size_t length) {
      std::string line(length, ' ');
      for (char& c : line) c = static_cast<char>(rng.uniform_int(32, 126));
      return line;
    };
    std::string stream;
    std::vector<std::string> want;
    const auto n_lines = rng.uniform_int(0, 40);
    for (std::int64_t i = 0; i < n_lines; ++i) {
      const double kind = rng.uniform();
      if (kind < 0.2) {
        stream += '\n';  // empty: no event
      } else if (kind < 0.4) {
        const auto length = static_cast<std::size_t>(
            rng.uniform_int(static_cast<std::int64_t>(cap) + 1, 4 * cap + 8));
        stream += random_line(length) + '\n';
        want.emplace_back(kTooLong);
      } else {
        const auto length = static_cast<std::size_t>(
            rng.uniform_int(1, static_cast<std::int64_t>(cap)));
        std::string line = random_line(length);
        stream += line + '\n';
        want.push_back(std::move(line));
      }
    }
    if (rng.bernoulli(0.5)) {  // unterminated last line, valid or oversized
      const bool oversized = rng.bernoulli(0.5);
      const auto length = static_cast<std::size_t>(
          oversized ? rng.uniform_int(static_cast<std::int64_t>(cap) + 1, 3 * cap + 2)
                    : rng.uniform_int(1, static_cast<std::int64_t>(cap)));
      std::string line = random_line(length);
      stream += line;
      want.push_back(oversized ? std::string(kTooLong) : std::move(line));
    }

    ASSERT_EQ(frame_whole(stream, cap), want);
    std::vector<std::size_t> chunks(static_cast<std::size_t>(rng.uniform_int(1, 8)));
    for (std::size_t& c : chunks) c = static_cast<std::size_t>(rng.uniform_int(1, 3 * cap));
    ASSERT_EQ(frame(stream, cap, chunks), want);
  }
}

}  // namespace
}  // namespace pnc::serve
