#pragma once

#include <cstddef>
#include <string>
#include <string_view>

namespace pnc::serve {

/// Splits a byte stream into newline-terminated lines, for the NDJSON
/// front end. Bytes arrive in chunks of any size (one `read(2)` each);
/// `feed` hands every complete line to `on_line` as a view that is valid
/// only during the call. A line that fits inside one chunk is handed over
/// without a copy; only a line split across chunks is buffered.
///
/// Memory is bounded: a line longer than `max_line_bytes` is reported
/// once to `on_too_long`, as soon as it crosses the cap, and its remaining
/// bytes are dropped up to the next newline without being buffered. The
/// buffer therefore never holds more than `max_line_bytes`. Empty lines
/// are skipped. The result depends only on the byte stream, not on how it
/// was chunked.
class LineFramer {
 public:
  explicit LineFramer(std::size_t max_line_bytes) : max_(max_line_bytes) {}

  template <class OnLine, class OnTooLong>
  void feed(std::string_view bytes, OnLine&& on_line, OnTooLong&& on_too_long) {
    while (!bytes.empty()) {
      const std::size_t nl = bytes.find('\n');
      const std::string_view part = bytes.substr(0, nl);
      if (discarding_) {
        // Tail of a line already reported as too long.
      } else if (partial_.size() + part.size() > max_) {
        on_too_long();
        partial_.clear();
        discarding_ = true;
      } else if (nl == std::string_view::npos) {
        partial_.append(part);
      } else if (partial_.empty()) {
        if (!part.empty()) on_line(part);
      } else {
        partial_.append(part);
        on_line(std::string_view(partial_));
        partial_.clear();
      }
      if (nl == std::string_view::npos) return;
      discarding_ = false;
      bytes.remove_prefix(nl + 1);
    }
  }

  /// End of stream: an unterminated last line is handed over like any
  /// other (an oversized one was already reported).
  template <class OnLine>
  void finish(OnLine&& on_line) {
    if (!discarding_ && !partial_.empty()) on_line(std::string_view(partial_));
    partial_.clear();
    discarding_ = false;
  }

  /// Bytes held for a line not yet terminated; never above the cap.
  std::size_t buffered() const { return partial_.size(); }

 private:
  std::size_t max_;
  std::string partial_;
  bool discarding_ = false;
};

}  // namespace pnc::serve
