// Helpers the workloads share that need the library headers.
#pragma once

#include <cstddef>
#include <vector>

#include "bench.hpp"
#include "pnc/autodiff/tensor.hpp"

namespace perfbench {

inline std::vector<double> row_of(const pnc::ad::Tensor& t, std::size_t r) {
  std::vector<double> out(t.cols());
  for (std::size_t c = 0; c < t.cols(); ++c) out[c] = t(r, c);
  return out;
}

inline std::vector<double> values_of(const pnc::ad::Tensor& t) {
  return {t.data().begin(), t.data().end()};
}

/// Run `fn` `reps` times, each as one span named `name`, after `warmup`
/// untimed calls. Returns the median duration in milliseconds.
template <class Fn>
double probe_ms(Tracer& tracer, const std::string& name, int reps, Fn&& fn,
                int warmup = 1) {
  for (int i = 0; i < warmup; ++i) fn();
  for (int i = 0; i < reps; ++i) tracer.time(name, fn);
  return tracer.median_ms(name);
}

}  // namespace perfbench
