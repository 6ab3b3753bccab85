// serve_backlog: an in-process serve::Server with one worker shard and one
// producer. Each round the producer submits a burst of kBurst stateless
// requests, mixed over the three priority classes, into a queue large
// enough to shed nothing, and the server then drains it. This is the one
// workload where CoalescingQueue depth dominates; serve_ndjson is its
// shallow-queue control.
//
// One shard keeps the callback order equal to the order requests leave
// the queue, so the per-class FIFO check is exact.

#include <atomic>
#include <condition_variable>
#include <iostream>
#include <memory>
#include <mutex>

#include "bench.hpp"
#include "pnc/core/adapt_pnc.hpp"
#include "pnc/data/dataset.hpp"
#include "pnc/infer/engine.hpp"
#include "pnc/serve/server.hpp"
#include "pnc_helpers.hpp"

namespace perfbench {
namespace {

using namespace pnc;

constexpr const char* kDataset = "CBF";
constexpr std::size_t kLength = 32;
constexpr std::size_t kPool = 64;
constexpr std::size_t kBurst = 16384;
constexpr std::size_t kWarmup = 1024;
constexpr std::size_t kMaxBatch = 16;
constexpr int kMinSetups = 9;

struct BacklogSetup {
  data::Dataset data;
  std::unique_ptr<core::PrintedTemporalNetwork> model;
  std::shared_ptr<const infer::Engine> engine;
  std::unique_ptr<serve::Server> server;
};

BacklogSetup make_setup(const Options& options) {
  BacklogSetup s;
  s.data = data::make_dataset(kDataset, options.seed, kLength);
  s.model = core::make_adapt_pnc(static_cast<std::size_t>(s.data.num_classes),
                                 s.data.sample_period, options.seed);
  s.engine = std::make_shared<infer::Engine>(infer::Engine::compile(*s.model));
  serve::ServerConfig config;
  config.shards = 1;
  config.max_batch = kMaxBatch;
  config.queue_capacity = 2 * kBurst;
  s.server = std::make_unique<serve::Server>(config);
  serve::ModelConfig model;
  model.engine = s.engine;
  model.checkpoint_digest = options.seed;
  model.variation_seed = options.seed;
  s.server->load_model("default", model);
  s.server->start();
  return s;
}

struct Answer {
  serve::Status status = serve::Status::kError;
  std::vector<double> logits;
  double total_seconds = 0.0;
  std::uint64_t order = 0;  // position in completion order
  int times = 0;
};

/// One burst: submit every request, wait until all are answered.
struct Burst {
  std::vector<Answer> answers;
  double submit_s = 0.0;
  double drain_s = 0.0;
  std::uint64_t batches = 0;
};

Burst run_burst(BacklogSetup& s, std::size_t n, std::uint64_t first_id,
                const std::vector<int>& classes) {
  std::vector<serve::Request> requests(n);
  for (std::size_t i = 0; i < n; ++i) {
    requests[i].id = first_id + i;
    requests[i].series = row_of(s.data.train.inputs, i % kPool);
    requests[i].priority = static_cast<serve::Priority>(classes[i]);
  }
  Burst b;
  b.answers.resize(n);
  std::atomic<std::uint64_t> order{0};
  std::mutex mutex;
  std::condition_variable cv;
  std::size_t done = 0;  // guarded by mutex
  const std::uint64_t batches_before = s.server->stats().batches;

  const auto t0 = Clock::now();
  for (serve::Request& req : requests) {
    s.server->submit(std::move(req), [&, first_id](serve::Response resp) {
      Answer& a = b.answers.at(resp.id - first_id);
      a.status = resp.status;
      a.logits = std::move(resp.logits);
      a.total_seconds = resp.total_seconds;
      a.order = order.fetch_add(1);
      ++a.times;
      std::lock_guard<std::mutex> lock(mutex);
      if (++done == n) cv.notify_one();
    });
  }
  b.submit_s = seconds_since(t0);
  {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return done == n; });
  }
  b.drain_s = seconds_since(t0);
  b.batches = s.server->stats().batches - batches_before;
  return b;
}

}  // namespace

void run_serve_backlog(const Options& options, Tracer& tracer, Outcome& out) {
  std::vector<double> setup_s;
  BacklogSetup s;
  for (int i = 0; i < kMinSetups; ++i) {
    if (s.server) s.server->stop();
    const auto t0 = Clock::now();
    s = make_setup(options);
    setup_s.push_back(seconds_since(t0));
  }

  util::Rng mix(options.seed ^ 0x6d6978ULL);
  std::vector<int> classes(kBurst);
  for (int& c : classes) c = static_cast<int>(mix.uniform_int(0, 2));

  // Reference logits: the graph path, clean spec, Rng(seed), batch 1.
  std::vector<std::vector<double>> expected;
  for (std::size_t i = 0; i < kPool; ++i) {
    util::Rng rng(options.seed);
    expected.push_back(values_of(s.model->predict(
        ad::Tensor(1, kLength, row_of(s.data.train.inputs, i)),
        variation::VariationSpec::none(), rng)));
  }

  std::vector<double> rps, p50_ms, submit_us, batches, overhead_inputs;
  std::size_t not_ok = 0, wrong_logits = 0, bad_order = 0, not_once = 0;
  std::uint64_t next_id = 1;
  auto verify = [&](const Burst& b, std::size_t n) {
    std::vector<std::uint64_t> leave(n);
    for (std::size_t i = 0; i < n; ++i) {
      const Answer& a = b.answers[i];
      if (a.times != 1) ++not_once;
      if (a.status != serve::Status::kOk) {
        ++not_ok;
        continue;
      }
      if (!bit_equal(a.logits, expected[i % kPool])) ++wrong_logits;
      leave[i] = a.order;
    }
    if (!fifo_within_class({classes.begin(), classes.begin() + static_cast<long>(n)}, leave)) {
      ++bad_order;
    }
    out.attempted += n;
  };

  verify(run_burst(s, kWarmup, next_id, classes), kWarmup);
  next_id += kWarmup;

  const auto t_start = Clock::now();
  do {
    const std::int64_t span = Tracer::now_ns();
    const Burst b = run_burst(s, kBurst, next_id, classes);
    tracer.add("serve.burst", span, Tracer::now_ns());
    next_id += kBurst;
    rps.push_back(static_cast<double>(kBurst) / b.drain_s);
    std::vector<double> lat;
    for (const Answer& a : b.answers) lat.push_back(a.total_seconds * 1e3);
    p50_ms.push_back(median(std::move(lat)));
    submit_us.push_back(b.submit_s * 1e6 / kBurst);
    batches.push_back(static_cast<double>(b.batches));
    overhead_inputs.push_back(b.drain_s * 1e6 / static_cast<double>(b.batches));
    verify(b, kBurst);
  } while (seconds_since(t_start) < options.seconds);
  s.server->stop();

  out.e2e("setup_s", median(setup_s), "s");
  out.e2e("peak_rss_mb", peak_rss_mb_self(), "MB");
  out.e2e("throughput", median(rps), "op/s");
  out.e2e("latency_p50_ms", median(p50_ms), "ms");
  out.layer("latency_samples", static_cast<double>(rps.size() * kBurst), "count");
  out.layer("serve.submit_us", median(submit_us), "us");
  out.layer("serve.batches", median(batches), "count");
  std::cerr << "perfbench: serve_backlog " << rps.size() << " bursts of " << kBurst
            << ", drain " << median(rps) << " req/s, " << median(batches)
            << " batches per burst\n";

  out.failed += not_ok;
  out.check(not_once == 0, std::to_string(not_once) + " requests not answered exactly once");
  out.check(not_ok == 0, std::to_string(not_ok) + " requests not served ok");
  out.check(wrong_logits == 0,
            std::to_string(wrong_logits) + " responses differ from the graph path");
  out.check(bad_order == 0, "requests of one priority class left out of submission order");

  if (tracer.enabled()) {
    // Server overhead per batch: drain time per batch minus one forward at
    // the mean batch shape.
    const double mean_rows = static_cast<double>(kBurst) / median(batches);
    const std::size_t rows = std::max<std::size_t>(1, static_cast<std::size_t>(mean_rows + 0.5));
    infer::Plan plan = s.engine->make_plan();
    util::Rng rng(options.seed);
    s.engine->stamp(plan, variation::VariationSpec::none(), rng, 1);
    s.engine->broadcast_batch(plan, rows);
    ad::Tensor inputs(rows, kLength), logits;
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t t = 0; t < kLength; ++t) inputs(r, t) = s.data.train.inputs(r, t);
    }
    const double forward_ms = probe_ms(tracer, "infer.forward.backlog", 15, [&] {
      for (int c = 0; c < 64; ++c) s.engine->forward(plan, inputs, logits);
    });
    out.layer("serve.overhead_per_batch_us",
              median(overhead_inputs) - forward_ms * 1e3 / 64.0, "us");
  }
}

}  // namespace perfbench
