// fleet: offline analysis of a trained model's device population.
// reliability::run_campaign (engine path) sweeps a fault x noise grid,
// then calib::calibrate tunes a fixed set of drifted or defective
// devices. The batched Engine::forward and the Dual<K> gradient do the
// work here; there is no autodiff in the timed loop and no serving.
//
// One round = one campaign plus one calibration of every device, the
// devices calibrated concurrently, one per pool thread. The throughput is
// campaign circuits per second; the latency is the time to calibrate one
// device. Rounds repeat until --seconds have passed.

#include <iostream>
#include <memory>

#include "bench.hpp"
#include "pnc/calib/calibrator.hpp"
#include "pnc/core/adapt_pnc.hpp"
#include "pnc/data/dataset.hpp"
#include "pnc/infer/engine.hpp"
#include "pnc/reliability/campaign.hpp"
#include "pnc/reliability/fault.hpp"
#include "pnc/reliability/noise.hpp"
#include "pnc/train/trainer.hpp"
#include "pnc/util/thread_pool.hpp"
#include "pnc_helpers.hpp"

namespace perfbench {
namespace {

using namespace pnc;

constexpr const char* kDataset = "CBF";
constexpr std::size_t kLength = 64;
constexpr int kTrainEpochs = 6;
constexpr int kTrainMc = 4;
constexpr double kDelta = 0.10;
constexpr std::size_t kDevices = 4;
constexpr int kCalibIterations = 20;
constexpr int kMinSetups = 5;

struct FleetDevice {
  reliability::FaultMask mask;
  std::unique_ptr<infer::Engine> engine;  // clean engine with the mask stamped
  std::uint64_t variation_seed = 0;
};

struct FleetSetup {
  data::Dataset data;
  std::unique_ptr<core::PrintedTemporalNetwork> model;
  std::unique_ptr<infer::Engine> engine;
  reliability::CampaignConfig campaign;
  reliability::FaultSpec fault_unit;
  reliability::NoiseSpec noise_unit;
  std::vector<FleetDevice> devices;
  calib::CalibConfig calib;
};

FleetSetup make_setup(const Options& options) {
  const std::uint64_t seed = options.seed;
  FleetSetup s;
  s.data = data::make_dataset(kDataset, seed, kLength);
  s.model = core::make_adapt_pnc(static_cast<std::size_t>(s.data.num_classes),
                                 s.data.sample_period, seed);
  train::TrainConfig tc;
  tc.max_epochs = kTrainEpochs;
  tc.patience = kTrainEpochs + 1;
  tc.min_lr = 0.0;
  tc.train_variation = variation::VariationSpec::printing(kDelta, kTrainMc);
  tc.seed = seed;
  // One thread: which pool thread trains which Monte-Carlo sample decides
  // what each thread's tensor buffer cache keeps, and so the peak RSS.
  tc.num_threads = 1;
  train::train(*s.model, s.data, tc);
  s.engine = std::make_unique<infer::Engine>(infer::Engine::compile(*s.model));

  s.campaign.fault_severities = {0.0, 0.05, 0.1};
  s.campaign.noise_severities = {0.0, 0.5, 1.0};
  s.campaign.circuits_per_cell = 8;
  s.campaign.seed = seed;
  s.campaign.variation = variation::VariationSpec::printing(kDelta);
  s.fault_unit = reliability::FaultSpec::mixed(1.0);
  s.noise_unit = reliability::NoiseSpec::sensor(0.2);

  // Even devices drifted (RC out of tolerance only), odd ones defective
  // (stuck conductances and drift); no sensor faults, which calibration
  // of the filters cannot address.
  for (std::size_t d = 0; d < kDevices; ++d) {
    reliability::FaultSpec f;
    if (d % 2 == 0) {
      f.rc_drift_rate = 0.3;
    } else {
      f = reliability::FaultSpec::mixed(0.08);
      f.dead_sensor_rate = 0.0;
      f.saturated_sensor_rate = 0.0;
    }
    FleetDevice dev;
    dev.mask = reliability::FaultInjector(f, seed * 1000 + d).draw(*s.engine);
    dev.engine = std::make_unique<infer::Engine>(*s.engine);
    reliability::apply_faults(*dev.engine, dev.mask);
    dev.variation_seed = seed * 7919 + d;
    s.devices.push_back(std::move(dev));
  }
  s.calib.iterations = kCalibIterations;
  s.calib.delta_decay = 1e-3;
  s.calib.threads = 1;
  return s;
}

calib::Device make_device(const FleetSetup& s, const FleetDevice& dev) {
  return calib::Device(*dev.engine, s.campaign.variation, dev.variation_seed,
                       s.data.validation.size());
}

bool same_cell(const reliability::CellResult& a, const reliability::CellResult& b) {
  return bit_equal(a.stats.accuracies, b.stats.accuracies) &&
         bit_equal({a.stats.mean_accuracy, a.stats.yield, a.mean_fault_count},
                   {b.stats.mean_accuracy, b.stats.yield, b.mean_fault_count});
}

void trace_layers(const Options& options, const FleetSetup& s,
                  Tracer& tracer, Outcome& out) {
  constexpr int kReps = 15;
  const data::Split& test = s.data.test;
  const infer::Engine& engine = *s.engine;
  infer::Plan plan = engine.make_plan();
  util::Rng rng(options.seed ^ 0x666c656574ULL);
  out.layer("infer.stamp_us", 1e3 * probe_ms(tracer, "infer.stamp", kReps, [&] {
              engine.stamp(plan, s.campaign.variation, rng, test.size());
            }), "us");
  ad::Tensor logits;
  const double fwd = probe_ms(tracer, "infer.forward.campaign", kReps,
                              [&] { engine.forward(plan, test.inputs, logits); });
  out.layer("infer.forward_row_step_ns.campaign",
            fwd * 1e6 / static_cast<double>(test.size() * test.length()), "ns");

  std::uint64_t k = 0;
  out.layer("reliability.fault_stamp_us",
            1e3 * probe_ms(tracer, "reliability.fault_stamp", kReps, [&] {
              infer::Engine copy = engine;
              const auto mask = reliability::FaultInjector(
                                    s.fault_unit.scaled(0.05), options.seed + k++)
                                    .draw(copy);
              reliability::apply_faults(copy, mask);
            }), "us");
  out.layer("reliability.corrupt_inputs_us",
            1e3 * probe_ms(tracer, "reliability.corrupt_inputs", kReps, [&] {
              reliability::corrupt_inputs(test.inputs, s.noise_unit, options.seed + k++);
            }), "us");

  util::ThreadPool& pool = util::global_pool();
  calib::Device device = make_device(s, s.devices[0]);
  out.layer("calib.gradient_ms", probe_ms(tracer, "calib.gradient", kReps, [&] {
              device.gradient(s.data.validation, pool);
            }), "ms");
  out.layer("calib.loss_ms", probe_ms(tracer, "calib.loss", kReps, [&] {
              device.loss(s.data.validation, pool);
            }), "ms");
}

}  // namespace

void run_fleet(const Options& options, Tracer& tracer, Outcome& out) {
  std::vector<double> setup_s;
  FleetSetup s;
  for (int i = 0; i < kMinSetups; ++i) {
    const auto t0 = Clock::now();
    s = make_setup(options);
    setup_s.push_back(seconds_since(t0));
  }

  const std::size_t circuits = s.campaign.fault_severities.size() *
                               s.campaign.noise_severities.size() *
                               static_cast<std::size_t>(s.campaign.circuits_per_cell);
  std::vector<double> circuits_per_s;
  std::vector<double> calib_ms;
  std::vector<double> iterations;
  std::vector<reliability::RobustnessReport> reports;
  std::vector<calib::CalibResult> first_round;
  bool never_worse = true;

  const auto t_start = Clock::now();
  do {
    const std::int64_t span = Tracer::now_ns();
    const auto t0 = Clock::now();
    reports.push_back(reliability::run_campaign(*s.model, s.data.test, s.fault_unit,
                                                s.noise_unit, s.campaign));
    circuits_per_s.push_back(static_cast<double>(circuits) / seconds_since(t0));
    tracer.add("reliability.run_campaign", span, Tracer::now_ns());
    ++out.attempted;
    if (reports.size() > 2) reports.erase(reports.begin() + 1);  // keep first + last

    // Devices are independent: calibrate them side by side on the pool,
    // one single-threaded calibration per device.
    std::vector<calib::CalibResult> results(s.devices.size());
    std::vector<std::int64_t> begin_ns(s.devices.size()), end_ns(s.devices.size());
    util::global_pool().parallel_for(s.devices.size(), [&](std::size_t d) {
      begin_ns[d] = Tracer::now_ns();
      calib::Device device = make_device(s, s.devices[d]);
      results[d] = calib::calibrate(device, s.data.validation, s.calib);
      end_ns[d] = Tracer::now_ns();
    });
    for (std::size_t d = 0; d < s.devices.size(); ++d) {
      calib_ms.push_back(static_cast<double>(end_ns[d] - begin_ns[d]) * 1e-6);
      tracer.add("calib.calibrate", begin_ns[d], end_ns[d]);
      ++out.attempted;
      iterations.push_back(results[d].iterations_run);
      never_worse = never_worse && results[d].final_loss <= results[d].initial_loss;
    }
    if (first_round.empty()) first_round = results;
  } while (seconds_since(t_start) < options.seconds);
  const double rss_mb = peak_rss_mb_self();  // before the checks allocate

  out.e2e("setup_s", median(setup_s), "s");
  out.e2e("peak_rss_mb", rss_mb, "MB");
  out.e2e("throughput", median(circuits_per_s), "op/s");
  out.e2e("latency_p50_ms", median(calib_ms), "ms");
  out.layer("latency_samples", static_cast<double>(calib_ms.size()), "count");
  out.layer("calib.iterations", mean(iterations), "count");
  std::cerr << "perfbench: fleet " << circuits_per_s.size() << " campaigns of "
            << circuits << " circuits, " << calib_ms.size()
            << " device calibrations; clean accuracy "
            << reports.back().clean_accuracy << "\n";

  // --- checks --------------------------------------------------------
  out.check(never_worse, "a calibrated device ended with final_loss > initial_loss");
  for (std::size_t d = 0; d < first_round.size(); ++d) {
    std::cerr << "perfbench: device " << d << " (" << s.devices[d].mask.count()
              << " defects) loss " << first_round[d].initial_loss << " -> "
              << first_round[d].final_loss << "\n";
  }
  const auto& first = reports.front();
  const auto& last = reports.back();
  bool repeatable = first.cells.size() == last.cells.size();
  for (std::size_t i = 0; repeatable && i < first.cells.size(); ++i) {
    repeatable = same_cell(first.cells[i], last.cells[i]);
  }
  out.check(repeatable, "repeated campaigns with one seed disagree");

  // The engine campaign's clean cell and one faulted cell must equal the
  // graph-path (use_engine = false) evaluation of the same cells.
  reliability::CampaignConfig graph_cfg = s.campaign;
  graph_cfg.fault_severities = {0.0, 0.05};
  graph_cfg.noise_severities = {0.0};
  graph_cfg.use_engine = false;
  const auto graph = reliability::run_campaign(*s.model, s.data.test, s.fault_unit,
                                               s.noise_unit, graph_cfg);
  out.check(same_cell(last.cell(0, 0), graph.cell(0, 0)),
            "campaign clean cell differs from the graph path");
  out.check(same_cell(last.cell(1, 0), graph.cell(1, 0)),
            "campaign faulted cell (0.05, 0) differs from the graph path");

  // Each device's first dual gradient against the reverse-mode tape on
  // the same faulted circuit.
  util::ThreadPool& pool = util::global_pool();
  for (std::size_t d = 0; d < s.devices.size(); ++d) {
    calib::Device device = make_device(s, s.devices[d]);
    const std::vector<double> dual = device.gradient(s.data.validation, pool);
    std::vector<double> tape;
    {
      reliability::ScopedFault faulted(*s.model, s.devices[d].mask);
      tape = calib::tape_filter_gradients(*s.model, s.campaign.variation,
                                          s.devices[d].variation_seed,
                                          s.data.validation);
    }
    bool close = dual.size() == tape.size();
    for (std::size_t k = 0; close && k < dual.size(); ++k) {
      close = std::abs(dual[k] - tape[k]) <= 1e-9 * std::max(1.0, std::abs(tape[k]));
    }
    out.check(close, "device " + std::to_string(d) +
                         " dual gradient differs from the tape by more than 1e-9");
  }

  if (tracer.enabled()) trace_layers(options, s, tracer, out);
}

}  // namespace perfbench
