// fleet_budgeted: a 1e5-device FleetEngine under a BudgetSpec global cap
// with the rl apportioner and one 10x cap step mid-run (8 W -> 0.8 W per
// device, as in bench_budget), 5 s simulated (50 budget epochs). Block
// sweeps are farmed over two runfarm worker threads.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "budget/budget_tree.hpp"
#include "common.hpp"
#include "fleet/fleet_engine.hpp"
#include "fleet/policy.hpp"

namespace perfbench {
namespace {

using namespace pmrl;

constexpr std::size_t kDevices = 100000;
constexpr double kDurationS = 5.0;
constexpr double kCapPerDeviceW = 8.0;
constexpr double kStepPerDeviceW = 0.8;
/// Planted "settle" defect: below the ~0.6 W/device pinned-OPP floor, so
/// the step can never settle.
constexpr double kUnsettleablePerDeviceW = 0.3;

/// Two runfarm workers, fewer on a machine with fewer than three CPUs, so
/// the serial budget pass and the host keep a CPU of their own.
std::size_t fleet_jobs() {
  return std::min<std::size_t>(2, std::max(1u, cpu_count() - 1));
}

fleet::FleetConfig make_config(std::uint64_t seed, bool budgeted,
                               const Options& opt) {
  fleet::FleetConfig config;
  config.devices = kDevices;
  config.seed = seed;
  config.duration_s = kDurationS;
  config.jobs = fleet_jobs();
  if (budgeted) {
    const double n = static_cast<double>(kDevices);
    const double step =
        opt.plant == "settle" ? kUnsettleablePerDeviceW : kStepPerDeviceW;
    config.budget.global_cap_w = kCapPerDeviceW * n;
    config.budget.groups = 8;
    config.budget.policy = "rl";
    config.budget.seed = seed;
    config.budget.schedule = {{kDurationS * 0.5, step * n}};
  }
  return config;
}

std::uint64_t fleet_seed(const Options& opt) {
  return static_cast<std::uint64_t>(
      Rng(opt.seed ^ 0xF1EE7ull).uniform_int(1, 1 << 30));
}

/// Checks one budgeted run: every audit passed, the single cap step fired
/// and settled, and the run repeated the first run's aggregates bit for bit.
void check_run(const fleet::FleetResult& res, const fleet::FleetResult* first,
               Result& r, std::uint64_t& failed) {
  bool ok = true;
  if (!res.budget.audit_error.empty()) {
    ok = false;
    r.check(false, "fleet_budgeted: budget audit failed: " +
                       res.budget.audit_error);
  }
  if (res.budget.cap_steps != 1 || res.budget.settle_epochs < 0) {
    ok = false;
    r.check(false, "fleet_budgeted: the cap step did not settle (steps " +
                       std::to_string(res.budget.cap_steps) + ", settle " +
                       std::to_string(res.budget.settle_epochs) + ")");
  }
  if (first && (res.energy_j != first->energy_j ||
                res.served != first->served ||
                res.budget.over_cap_device_epochs !=
                    first->budget.over_cap_device_epochs)) {
    ok = false;
    r.check(false, "fleet_budgeted: a repeated run changed its aggregates");
  }
  if (!ok) ++failed;
}

double over_cap_pct(const fleet::FleetResult& res) {
  return 100.0 * static_cast<double>(res.budget.over_cap_device_epochs) /
         (static_cast<double>(res.devices) * static_cast<double>(res.epochs));
}

void print_fleet(const fleet::FleetResult& res) {
  std::printf("fleet: fleet_eps_p95 %.6g J/capacity-s | budget_over_cap_pct "
              "%.4f %% | budget_settle_epochs %ld | violation rate %.4f\n",
              res.energy_per_served_p95, over_cap_pct(res),
              res.budget.settle_epochs, res.violation_rate);
}

}  // namespace

Result run_fleet_budgeted(const Options& opt) {
  Result r;
  r.shape["threads"] = std::to_string(fleet_jobs() + (fleet_jobs() > 1));
  r.shape["fleet_jobs"] = std::to_string(fleet_jobs());
  const fleet::FleetConfig config = make_config(fleet_seed(opt), true, opt);

  // One untimed warm-up run first: the first run in a process was about
  // 20% slower than the rest, and with some 30 timed runs the p90 would
  // often be that run. It is also the reference the timed runs must repeat.
  fleet::FleetResult first;
  ++r.attempted;
  try {
    fleet::FleetEngine engine(config);
    first = engine.run();
    check_run(first, nullptr, r, r.failed);
    print_fleet(first);
  } catch (const std::exception& ex) {
    ++r.failed;
    r.check(false, std::string("fleet_budgeted: run threw: ") + ex.what());
    return r;
  }

  // Every timed run builds the engine it then runs: the construction
  // (fleetgen + SoA allocation) is one set-up sample, the run one operation.
  SampleSet setups;
  SampleSet rates;
  SampleSet run_us;
  const auto t0 = Clock::now();
  for (std::size_t i = 0;
       i == 0 || seconds_between(t0, Clock::now()) < opt.seconds; ++i) {
    ++r.attempted;
    try {
      auto t = Clock::now();
      fleet::FleetEngine engine(config);
      setups.add(seconds_between(t, Clock::now()));
      t = Clock::now();
      const fleet::FleetResult res = engine.run();
      const double wall = seconds_between(t, Clock::now());
      rates.add(static_cast<double>(res.device_ticks) / wall);
      run_us.add(wall * 1e6);
      check_run(res, &first, r, r.failed);
    } catch (const std::exception& ex) {
      ++r.failed;
      r.check(false, std::string("fleet_budgeted: run threw: ") + ex.what());
    }
  }
  std::printf("fleet: run walls (s):");
  for (double us : run_us.samples()) std::printf(" %.3f", us * 1e-6);
  std::printf("\nfleet: set-up walls (ms):");
  for (double s : setups.samples()) std::printf(" %.1f", s * 1e3);
  std::printf("\n");
  std::printf("fleet: %zu budgeted runs of %zu devices x %zu ticks, "
              "fleet_device_ticks_per_s median %.4g\n",
              rates.count(), kDevices, first.epochs * first.ticks_per_epoch,
              rates.median());
  r.set("fleet_device_ticks_per_s", rates.median(), "1/s");
  r.set("fleet_eps_p95", first.energy_per_served_p95, "J/capacity-s");
  r.set("budget_over_cap_pct", over_cap_pct(first), "%");
  r.set("budget_settle_epochs", static_cast<double>(first.budget.settle_epochs),
        "epochs");
  r.set("setup_s", setups.median(), "s");
  r.set("work_per_s", rates.median(), "1/s");
  r.set("op_p50_us", run_us.median(), "us");
  r.set("op_p90_us", run_us.quantile(0.90), "us");
  r.set("op_p99_us", run_us.quantile(0.99), "us");
  r.set("op_samples", static_cast<double>(run_us.count()), "count");
  return r;
}

Result trace_fleet_budgeted(const Options& opt) {
  Result r;
  Tracer tracer("fleet_budgeted");
  const std::uint32_t span_setup = tracer.id("fleet.setup");
  const std::uint32_t span_free = tracer.id("fleet.run_free");
  const std::uint32_t span_budgeted = tracer.id("fleet.run_budgeted");
  const std::uint32_t span_apportion = tracer.id("budget.apportion");
  const std::uint32_t span_greedy = tracer.id("fleet.greedy_batch");
  const std::uint64_t seed = fleet_seed(opt);
  const fleet::FleetConfig budgeted_cfg = make_config(seed, true, opt);
  const fleet::FleetConfig free_cfg = make_config(seed, false, opt);

  // Untraced reference of the budgeted run for the overhead.
  fleet::FleetEngine plain(budgeted_cfg);
  auto t = Clock::now();
  const fleet::FleetResult plain_res = plain.run();
  const double untraced_s = seconds_between(t, Clock::now());

  const auto wall0 = Clock::now();
  // The engines timed as set-up are the ones the traced runs use.
  std::vector<double> setups;
  auto build = [&](const fleet::FleetConfig& cfg) {
    const auto ts = Clock::now();
    Span span(&tracer, span_setup);
    auto engine = std::make_unique<fleet::FleetEngine>(cfg);
    setups.push_back(seconds_between(ts, Clock::now()));
    return engine;
  };
  auto free_engine = build(free_cfg);
  auto budget_engine = build(budgeted_cfg);
  fleet::FleetResult free_res;
  fleet::FleetResult budget_res;
  t = Clock::now();
  {
    Span span(&tracer, span_free);
    free_res = free_engine->run();
  }
  const double free_s = seconds_between(t, Clock::now());
  t = Clock::now();
  {
    Span span(&tracer, span_budgeted);
    budget_res = budget_engine->run();
  }
  const double budget_s = seconds_between(t, Clock::now());
  r.attempted = 3;
  check_run(plain_res, nullptr, r, r.failed);
  check_run(budget_res, &plain_res, r, r.failed);
  print_fleet(budget_res);

  // Standalone apportionment at the workload's device count and epochs.
  budget::BudgetTree tree(budgeted_cfg.budget, kDevices);
  tree.reset();
  Rng rng(seed);
  std::vector<double> demand(kDevices);
  for (double& d : demand) d = 0.3 + 1.3 * rng.uniform();
  std::vector<double> caps;
  const std::size_t epochs = budget_res.epochs;
  const double epoch_s = kDurationS / static_cast<double>(epochs);
  t = Clock::now();
  for (std::size_t e = 0; e < epochs; ++e) {
    tree.begin_epoch(static_cast<double>(e) * epoch_s);
    Span span(&tracer, span_apportion);
    tree.apportion(demand, caps);
  }
  const double apportion_s = seconds_between(t, Clock::now());
  r.check(tree.audit_error().empty(),
          "fleet_budgeted: standalone apportion audit failed: " +
              tree.audit_error());

  // Standalone FleetPolicy::greedy_batch over one default-size block.
  const fleet::FleetPolicy policy = fleet::FleetPolicy::default_policy();
  const std::size_t block = free_cfg.block_size;
  std::vector<std::uint64_t> states(block);
  for (auto& s : states) {
    s = static_cast<std::uint64_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(fleet::kStateCount) - 1));
  }
  std::vector<std::uint32_t> actions(block);
  const std::size_t reps = 2000;
  t = Clock::now();
  for (std::size_t i = 0; i < reps; ++i) {
    Span span(&tracer, span_greedy);
    policy.greedy_batch(states.data(), block, actions.data());
  }
  const double greedy_s = seconds_between(t, Clock::now());
  const double wall_s = seconds_between(wall0, Clock::now());

  const double dticks = static_cast<double>(free_res.device_ticks);
  const double free_ns = free_s * 1e9 / dticks;
  r.set("fleet.setup_ms", 1e3 * setups.back(), "ms");  // the budgeted engine
  r.set("fleet.free_ns_per_device_tick", free_ns, "ns");
  r.set("budget.overhead_ns_per_device_tick",
        budget_s * 1e9 / static_cast<double>(budget_res.device_ticks) -
            free_ns,
        "ns");
  r.set("budget.apportion_us_per_epoch",
        apportion_s * 1e6 / static_cast<double>(epochs), "us");
  r.set("fleet.greedy_batch_ns",
        greedy_s * 1e9 / static_cast<double>(reps * block), "ns");
  r.set("fleet_budgeted.coverage_share",
        static_cast<double>(tracer.root_ns()) / (wall_s * 1e9), "share");
  r.set("fleet_budgeted.overhead_share", (budget_s - untraced_s) / untraced_s,
        "share");
  write_spans(opt.out_dir + "/spans-fleet_budgeted.csv", {&tracer});
  return r;
}

}  // namespace perfbench
