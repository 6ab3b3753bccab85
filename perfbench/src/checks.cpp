#include <cmath>
#include <cstring>
#include <iostream>
#include <limits>
#include <unordered_map>

#include "bench.hpp"

namespace perfbench {

bool bit_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

double max_abs_diff(const std::vector<double>& a,
                    const std::vector<double>& b) {
  if (a.size() != b.size()) return std::numeric_limits<double>::infinity();
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = std::abs(a[i] - b[i]);
    if (!(d <= worst)) worst = d;  // NaN-propagating max
  }
  return worst;
}

bool answered_exactly_once(const std::vector<std::uint64_t>& sent,
                           const std::vector<std::uint64_t>& answered,
                           std::string* why) {
  std::unordered_map<std::uint64_t, int> count;
  count.reserve(sent.size());
  for (const std::uint64_t id : sent) {
    if (!count.emplace(id, 0).second) {
      if (why) *why = "id " + std::to_string(id) + " sent twice";
      return false;
    }
  }
  for (const std::uint64_t id : answered) {
    const auto it = count.find(id);
    if (it == count.end()) {
      if (why) *why = "answer for unknown id " + std::to_string(id);
      return false;
    }
    if (++it->second > 1) {
      if (why) *why = "id " + std::to_string(id) + " answered twice";
      return false;
    }
  }
  for (const std::uint64_t id : sent) {
    if (count[id] == 0) {
      if (why) *why = "id " + std::to_string(id) + " never answered";
      return false;
    }
  }
  return true;
}

bool fifo_within_class(const std::vector<int>& classes,
                       const std::vector<std::uint64_t>& leave_order,
                       std::string* why) {
  if (classes.size() != leave_order.size()) {
    if (why) *why = "class and order vectors differ in length";
    return false;
  }
  std::unordered_map<int, std::uint64_t> last;
  for (std::size_t i = 0; i < classes.size(); ++i) {
    const auto it = last.find(classes[i]);
    if (it != last.end() && leave_order[i] <= it->second) {
      if (why) {
        *why = "request " + std::to_string(i) + " of class " +
               std::to_string(classes[i]) + " left before an earlier one";
      }
      return false;
    }
    last[classes[i]] = leave_order[i];
  }
  return true;
}

namespace {

int expect(bool ok, const char* what) {
  if (ok) return 0;
  std::cerr << "perfbench selftest failed: " << what << "\n";
  return 1;
}

std::vector<double> flip_low_bit(std::vector<double> v, std::size_t i) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v[i], sizeof(bits));
  bits ^= 1u;
  std::memcpy(&v[i], &bits, sizeof(bits));
  return v;
}

}  // namespace

int run_selftests() {
  int failures = 0;

  const std::vector<double> logits = {0.3141592653589793, -1.25, 2.0e-7};
  failures += expect(bit_equal(logits, logits), "bit_equal accepts equal logits");
  failures += expect(!bit_equal(logits, flip_low_bit(logits, 1)),
                     "bit_equal rejects one flipped logit bit");
  failures += expect(!bit_equal(logits, {0.3141592653589793, -1.25}),
                     "bit_equal rejects a missing logit");
  failures += expect(max_abs_diff(logits, flip_low_bit(logits, 0)) > 0.0 &&
                         max_abs_diff(logits, flip_low_bit(logits, 0)) < 1e-12,
                     "max_abs_diff sees a one-ulp change within 1e-12");

  const std::vector<std::uint64_t> sent = {1, 2, 3, 4, 5};
  failures += expect(answered_exactly_once(sent, {5, 3, 1, 2, 4}),
                     "exactly-once accepts a permuted complete answer set");
  failures += expect(!answered_exactly_once(sent, {5, 3, 1, 2}),
                     "exactly-once rejects a dropped response");
  failures += expect(!answered_exactly_once(sent, {5, 3, 1, 2, 4, 3}),
                     "exactly-once rejects a duplicated id");
  failures += expect(!answered_exactly_once(sent, {5, 3, 1, 2, 4, 9}),
                     "exactly-once rejects an unknown id");

  const std::vector<int> classes = {0, 2, 1, 0, 2, 1};
  failures += expect(fifo_within_class(classes, {0, 5, 1, 2, 7, 3}),
                     "fifo accepts in-class order with cross-class interleave");
  failures += expect(!fifo_within_class(classes, {2, 5, 1, 0, 7, 3}),
                     "fifo rejects two swapped requests of one class");

  std::vector<double> xs;
  for (int i = 1; i <= 100; ++i) xs.push_back(i);
  failures += expect(!tail_percentile(xs, 99.0).has_value(),
                     "p99 of 100 samples (1 beyond) is withheld");
  failures += expect(tail_percentile(xs, 90.0).has_value(),
                     "p90 of 100 samples (10 beyond) is reported");
  xs.resize(1000);
  for (int i = 0; i < 1000; ++i) xs[static_cast<std::size_t>(i)] = i;
  failures += expect(tail_percentile(xs, 99.0).has_value(),
                     "p99 of 1000 samples (10 beyond) is reported");
  failures += expect(median({3.0, 1.0, 2.0}) == 2.0, "median of three");
  return failures;
}

}  // namespace perfbench
