// paper_e1: the paper's result end to end. E1 trains the default RL policy
// for 60 episodes, then evaluates RL, the six paper governors and
// schedutil on the six scenarios at a held-out seed. E2 captures the
// joint fixed-point policy's invocation stream and replays it through
// hw::run_latency_experiment.
//
// The first pass of every run uses the paper's fixed seeds (train 42,
// eval 9001) and is checked exactly against the recorded E1/E2 values;
// later passes draw their train and eval seeds from --seed.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/engine.hpp"
#include "core/metrics.hpp"
#include "governors/registry.hpp"
#include "hw/latency.hpp"
#include "rl/rl_governor.hpp"
#include "rl/trainer.hpp"
#include "soc/soc.hpp"
#include "workload/scenarios.hpp"

namespace perfbench {
namespace {

using namespace pmrl;

constexpr std::uint64_t kPaperTrainSeed = 42;
constexpr std::uint64_t kPaperEvalSeed = 9001;
constexpr std::size_t kEpisodes = 60;
constexpr std::size_t kCaptureEpisodes = 4;

// Recorded at the paper seeds (bench_energy_per_qos / bench_hw_latency
// print them rounded as 28.59% and 3.86x). Compared bit for bit: a change
// that moves them must re-record them here on purpose.
constexpr double kExpectedGainPct = 28.591079721848629;
constexpr double kExpectedHwSpeedup = 3.8611539188640784;

/// Joint fixed-point policy matching the modelled accelerator (1024 states
/// x 9 actions, Q5.10), as in bench_hw_latency.
rl::RlGovernorConfig hw_joint_config() {
  rl::RlGovernorConfig config;
  config.structure = rl::PolicyStructure::Joint;
  config.backend = rl::AgentBackend::Fixed;
  config.state.util_bins = 4;
  config.state.opp_bins = 4;
  config.state.qos_bins = 4;
  config.action.jump = 0;
  return config;
}

/// Span ids and counters of one traced pass.
struct PaperTrace {
  explicit PaperTrace(Tracer& t)
      : tracer(t),
        run(t.id("core.run")),
        tick(t.id("workload.tick")),
        submit(t.id("workload.submit")),
        gov_decide(t.id("governors.decide")),
        rl_train(t.id("rl.decide_train")),
        rl_eval(t.id("rl.decide_eval")),
        rl_capture(t.id("rl.decide_capture")),
        train(t.id("core.train")),
        eval(t.id("core.eval")),
        capture(t.id("hw.capture")),
        replay(t.id("hw.replay")) {}
  Tracer& tracer;
  std::uint32_t run, tick, submit, gov_decide, rl_train, rl_eval, rl_capture,
      train, eval, capture, replay;
};

/// WorkloadHost decorator: times each submit (SoC enqueue + QoS release).
class TracedHost : public workload::WorkloadHost {
 public:
  TracedHost(PaperTrace& trace) : trace_(trace) {}
  workload::WorkloadHost* inner = nullptr;

  soc::TaskId create_task(std::string name, soc::Affinity affinity,
                          double weight) override {
    return inner->create_task(std::move(name), affinity, weight);
  }
  void submit(soc::TaskId task, double work_cycles,
              double deadline_s) override {
    Span span(&trace_.tracer, trace_.submit);
    inner->submit(task, work_cycles, deadline_s);
  }

 private:
  PaperTrace& trace_;
};

/// Scenario decorator: times Scenario::tick, with submits as children.
class TracedScenario : public workload::Scenario {
 public:
  TracedScenario(workload::Scenario& inner, PaperTrace& trace)
      : inner_(inner), trace_(trace), host_(trace) {}
  std::string name() const override { return inner_.name(); }
  void setup(workload::WorkloadHost& host) override {
    host_.inner = &host;
    inner_.setup(host_);
  }
  void tick(workload::WorkloadHost& host, double now_s,
            double dt_s) override {
    host_.inner = &host;
    Span span(&trace_.tracer, trace_.tick);
    inner_.tick(host_, now_s, dt_s);
  }

 private:
  workload::Scenario& inner_;
  PaperTrace& trace_;
  TracedHost host_;
};

/// Governor decorator: times Governor::decide under the given span name.
class TracedGovernor : public governors::Governor {
 public:
  TracedGovernor(governors::Governor& inner, Tracer& tracer,
                 std::uint32_t span)
      : inner_(inner), tracer_(tracer), span_(span) {}
  std::string name() const override { return inner_.name(); }
  void reset(const governors::PolicyObservation& initial) override {
    inner_.reset(initial);
  }
  void decide(const governors::PolicyObservation& obs,
              governors::OppRequest& request) override {
    Span span(&tracer_, span_);
    inner_.decide(obs, request);
  }

 private:
  governors::Governor& inner_;
  Tracer& tracer_;
  std::uint32_t span_;
};

/// Records (encoded state, reward) of every decision of `policy` while
/// `decider` (the policy itself, or a traced wrapper of it) decides.
class CapturingGovernor : public governors::Governor {
 public:
  CapturingGovernor(rl::RlGovernor& policy, governors::Governor& decider,
                    std::vector<hw::InvocationRecord>& out)
      : policy_(policy), decider_(decider), out_(out) {}
  std::string name() const override { return policy_.name(); }
  void reset(const governors::PolicyObservation& initial) override {
    decider_.reset(initial);
  }
  void decide(const governors::PolicyObservation& obs,
              governors::OppRequest& request) override {
    out_.push_back({policy_.encoder().encode(obs),
                    policy_.reward()(obs, false)});
    decider_.decide(obs, request);
  }

 private:
  rl::RlGovernor& policy_;
  governors::Governor& decider_;
  std::vector<hw::InvocationRecord>& out_;
};

/// Outcome of one E1+E2 pass.
struct Pass {
  double gain_pct = 0.0;
  double violation_pct = 0.0;
  double hw_speedup = 0.0;
  bool rl_first = false;
  double rl_eqos = 0.0;
  std::vector<double> baseline_eqos;  ///< the six paper governors
  std::uint64_t ticks = 0;
  double run_s = 0.0;  ///< summed wall time of the engine runs
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double wall_s = 0.0;
  double setup_s = 0.0;  ///< building the engine, policies and governors
  std::vector<double> run_us;  ///< wall of every engine run (one op each)
  double train_s = 0.0;
  std::size_t invocations = 0;
  unsigned decide_cycles = 0;
  unsigned update_cycles = 0;
};

/// True when `eqos` is strictly below every baseline's E/QoS.
bool ranks_first(double eqos, const std::vector<double>& baselines) {
  return std::all_of(baselines.begin(), baselines.end(),
                     [eqos](double b) { return eqos < b; });
}

class PaperPipeline {
 public:
  explicit PaperPipeline(PaperTrace* trace) : trace_(trace) {
    const core::EngineConfig cfg;
    ticks_per_run_ =
        static_cast<std::uint64_t>(cfg.duration_s / cfg.tick_s + 0.5);
  }

  Pass run(std::uint64_t train_seed, std::uint64_t eval_seed) {
    pass_ = Pass{};
    const auto t0 = Clock::now();

    // ---- set-up: everything the pass uses before its first tick ---------
    engine_.emplace(soc::default_mobile_soc_config(), core::EngineConfig{});
    const std::size_t clusters = engine_->soc_config().clusters.size();
    rl::RlGovernor rl(rl::RlGovernorConfig{}, clusters);
    rl::RlGovernor policy(hw_joint_config(), clusters);
    std::vector<governors::GovernorPtr> paper_governors;
    for (const auto& name : governors::baseline_governor_names()) {
      paper_governors.push_back(governors::make_governor(name));
    }
    auto schedutil = governors::make_governor("schedutil");
    pass_.setup_s = seconds_between(t0, Clock::now());

    // ---- E1: train -----------------------------------------------------
    rl::TrainerConfig schedule;
    schedule.episodes = kEpisodes;
    schedule.workload_seed = train_seed;
    {
      Span phase(tracer(), trace_ ? trace_->train : 0);
      const auto tt = Clock::now();
      for (std::size_t e = 0; e < schedule.episodes; ++e) {
        // Same steps as rl::Trainer::train_episode.
        auto scenario = workload::make_scenario(schedule.episode_kind(e),
                                                schedule.episode_seed(e));
        rl.begin_episode();
        run_one(*scenario, rl, trace_ ? trace_->rl_train : 0);
      }
      pass_.train_s = seconds_between(tt, Clock::now());
    }

    // ---- E1: evaluate --------------------------------------------------
    std::vector<core::PolicySummary> baselines;
    core::PolicySummary ours;
    core::PolicySummary extra;
    {
      Span phase(tracer(), trace_ ? trace_->eval : 0);
      for (const auto& governor : paper_governors) {
        baselines.push_back(evaluate(*governor, eval_seed,
                                     trace_ ? trace_->gov_decide : 0));
      }
      ours = evaluate(rl, eval_seed, trace_ ? trace_->rl_eval : 0);
      extra = evaluate(*schedutil, eval_seed,
                       trace_ ? trace_->gov_decide : 0);
    }
    pass_.gain_pct =
        100.0 * core::improvement_vs_mean_baseline(ours, baselines);
    pass_.violation_pct = 100.0 * ours.mean_violation_rate();
    pass_.rl_eqos = ours.mean_energy_per_qos();
    for (const auto& b : baselines) {
      pass_.baseline_eqos.push_back(b.mean_energy_per_qos());
    }
    pass_.rl_first = ranks_first(pass_.rl_eqos, pass_.baseline_eqos);

    // ---- E2: capture + replay -------------------------------------------
    std::vector<hw::InvocationRecord> stream;
    {
      Span phase(tracer(), trace_ ? trace_->capture : 0);
      std::unique_ptr<TracedGovernor> traced;
      governors::Governor* decider = &policy;
      if (trace_) {
        traced = std::make_unique<TracedGovernor>(policy, trace_->tracer,
                                                  trace_->rl_capture);
        decider = traced.get();
      }
      CapturingGovernor capture(policy, *decider, stream);
      for (std::size_t episode = 0; episode < kCaptureEpisodes; ++episode) {
        auto scenario = workload::make_scenario(
            workload::ScenarioKind::Mixed, train_seed + episode);
        policy.begin_episode();
        run_one(*scenario, capture, 0);
      }
    }
    hw::LatencyExperimentConfig config;
    config.hw.agent.learning = hw_joint_config().learning;
    const std::size_t states = policy.encoder().state_count();
    const std::size_t actions = policy.actions().action_count();
    ++pass_.attempted;
    try {
      Span replay(tracer(), trace_ ? trace_->replay : 0);
      const auto result =
          hw::run_latency_experiment(config, states, actions, stream);
      pass_.hw_speedup = result.mean_speedup_end_to_end();
    } catch (const std::exception& ex) {
      ++pass_.failed;
      std::fprintf(stderr, "paper_e1: hw replay threw: %s\n", ex.what());
    }
    pass_.invocations = stream.size();
    hw::HwPolicyEngine probe(config.hw, states, actions);
    pass_.decide_cycles = probe.datapath().decide_cycle_count();
    pass_.update_cycles = probe.datapath().update_cycle_count();
    pass_.wall_s = seconds_between(t0, Clock::now());
    return pass_;
  }

 private:
  Tracer* tracer() { return trace_ ? &trace_->tracer : nullptr; }

  core::PolicySummary evaluate(governors::Governor& governor,
                               std::uint64_t seed, std::uint32_t span) {
    core::PolicySummary summary;
    summary.governor = governor.name();
    for (const auto kind : workload::all_scenario_kinds()) {
      auto scenario = workload::make_scenario(kind, seed);
      summary.runs.push_back(run_one(*scenario, governor, span));
    }
    return summary;
  }

  /// One timed engine run; a run that throws or returns non-finite
  /// aggregates counts as failed.
  core::RunResult run_one(workload::Scenario& scenario,
                          governors::Governor& governor,
                          std::uint32_t decide_span) {
    ++pass_.attempted;
    core::RunResult result;
    try {
      const auto t0 = Clock::now();
      if (trace_) {
        Span span(&trace_->tracer, trace_->run);
        TracedScenario traced_scenario(scenario, *trace_);
        if (decide_span != 0) {
          TracedGovernor traced(governor, trace_->tracer, decide_span);
          result = engine_->run(traced_scenario, traced);
        } else {
          result = engine_->run(traced_scenario, governor);
        }
      } else {
        result = engine_->run(scenario, governor);
      }
      const double wall = seconds_between(t0, Clock::now());
      pass_.run_us.push_back(wall * 1e6);
      pass_.ticks += ticks_per_run_;
      pass_.run_s += wall;
      if (!std::isfinite(result.energy_per_qos) || result.energy_j <= 0.0 ||
          result.quality <= 0.0) {
        ++pass_.failed;
      }
    } catch (const std::exception& ex) {
      ++pass_.failed;
      std::fprintf(stderr, "paper_e1: run threw: %s\n", ex.what());
    }
    return result;
  }

  std::optional<core::SimEngine> engine_;
  PaperTrace* trace_;
  std::uint64_t ticks_per_run_ = 0;
  Pass pass_;
};

void check_paper_pass(const Pass& pass, const Options& opt, Result& r) {
  double want_gain = kExpectedGainPct;
  double want_hw = kExpectedHwSpeedup;
  if (opt.plant == "e1") want_gain += 0.01;
  if (opt.plant == "hw") want_hw += 0.01;
  // Planted "rank": rank the worst paper governor's E/QoS in RL's place.
  const bool first =
      opt.plant == "rank"
          ? ranks_first(*std::max_element(pass.baseline_eqos.begin(),
                                          pass.baseline_eqos.end()),
                        pass.baseline_eqos)
          : pass.rl_first;
  char buf[160];
  std::snprintf(buf, sizeof buf, "paper_e1: rl_eqos_gain_pct %.17g != %.17g",
                pass.gain_pct, want_gain);
  r.check(pass.gain_pct == want_gain, buf);
  std::snprintf(buf, sizeof buf, "paper_e1: hw_speedup_x %.17g != %.17g",
                pass.hw_speedup, want_hw);
  r.check(pass.hw_speedup == want_hw, buf);
  r.check(first, "paper_e1: RL does not rank first among the six governors");
}

void print_paper_pass(const char* label, const Pass& p) {
  std::printf("%s: rl_eqos_gain_pct %.4f %% | rl_violation_pct %.4f %% | "
              "hw_speedup_x %.4f x | rl_first %s | %zu invocations | "
              "%.3f s wall\n",
              label, p.gain_pct, p.violation_pct, p.hw_speedup,
              p.rl_first ? "yes" : "NO", p.invocations, p.wall_s);
}

}  // namespace

Result run_paper_e1(const Options& opt) {
  Result r;
  const unsigned threads = cpu_count();
  r.shape["threads"] = std::to_string(threads);

  // One pipeline per thread (the calling thread is worker 0), each running
  // whole passes until the deadline. Worker 0's first pass is the paper's
  // fixed-seed reproduction; every other pass draws its seeds from --seed.
  struct Worker {
    std::vector<Pass> passes;
    std::vector<std::uint64_t> train_seeds;
    std::string error;  ///< what a throwing pass threw
  };
  std::vector<Worker> workers(threads);
  const auto t0 = Clock::now();
  auto work = [&](unsigned k) {
    try {
      PaperPipeline pipeline(nullptr);
      Rng rng(opt.seed * 0x9E3779B97F4A7C15ull + k);
      for (std::size_t p = 0;
           p == 0 || seconds_between(t0, Clock::now()) < opt.seconds; ++p) {
        const bool paper = k == 0 && p == 0;
        const auto drawn = [&rng] {
          return static_cast<std::uint64_t>(rng.uniform_int(0, (1 << 30) - 1));
        };
        const std::uint64_t train_seed = paper ? kPaperTrainSeed : drawn();
        const std::uint64_t eval_seed =
            paper ? kPaperEvalSeed : (1u << 30) + drawn();
        workers[k].passes.push_back(pipeline.run(train_seed, eval_seed));
        workers[k].train_seeds.push_back(train_seed);
      }
    } catch (const std::exception& ex) {
      workers[k].error = ex.what();
    }
  };
  std::vector<std::thread> pool;
  for (unsigned k = 1; k < threads; ++k) pool.emplace_back(work, k);
  work(0);
  for (auto& t : pool) t.join();

  SampleSet setups;  // one per pass
  SampleSet run_us;  // one per engine run
  std::size_t passes = 0;
  std::uint64_t ticks = 0;
  double run_s = 0.0;
  for (unsigned k = 0; k < threads; ++k) {
    if (!workers[k].error.empty()) {
      ++r.attempted;
      ++r.failed;
      r.check(false, "paper_e1: thread " + std::to_string(k) +
                         " threw: " + workers[k].error);
    }
    for (std::size_t p = 0; p < workers[k].passes.size(); ++p) {
      const Pass& pass = workers[k].passes[p];
      r.attempted += pass.attempted;
      r.failed += pass.failed;
      ++passes;
      setups.add(pass.setup_s);
      for (const double us : pass.run_us) run_us.add(us);
      ticks += pass.ticks;
      run_s += pass.run_s;
      char label[80];
      std::snprintf(label, sizeof label, "thread %u pass %zu (train seed %llu)",
                    k, p, static_cast<unsigned long long>(workers[k].train_seeds[p]));
      print_paper_pass(label, pass);
      if (k == 0 && p == 0) {
        check_paper_pass(pass, opt, r);
        r.set("rl_eqos_gain_pct", pass.gain_pct, "%");
        r.set("rl_violation_pct", pass.violation_pct, "%");
        r.set("hw_speedup_x", pass.hw_speedup, "x");
      } else {
        r.check(std::isfinite(pass.gain_pct) && pass.hw_speedup > 1.0,
                "paper_e1: non-finite E1 gain or no E2 speed-up at a drawn seed");
      }
    }
  }
  r.check(r.failed == 0, "paper_e1: an engine run or replay failed");
  // Engine throughput per thread: ticks over the summed wall time of the
  // engine runs (a mean over every run, so it does not jump between the
  // per-scenario clusters the way a median of per-run rates does).
  const double ticks_per_s = static_cast<double>(ticks) / run_s;
  std::printf("engine: %.4g ticks in %.3f s of engine-run wall on %u threads "
              "-> sim_ticks_per_s %.4g; %zu passes, %zu engine runs\n",
              static_cast<double>(ticks), run_s, threads, ticks_per_s,
              passes, run_us.count());
  r.set("sim_ticks_per_s", ticks_per_s, "1/s");
  r.set("setup_s", setups.median(), "s");
  r.set("work_per_s", ticks_per_s, "1/s");
  r.set("op_p50_us", run_us.median(), "us");
  r.set("op_p90_us", run_us.quantile(0.90), "us");
  r.set("op_p99_us", run_us.quantile(0.99), "us");
  r.set("op_samples", static_cast<double>(run_us.count()), "count");
  return r;
}

Result trace_paper_e1(const Options& opt) {
  Result r;
  // The same pass untraced, then traced; the difference is the overhead.
  PaperPipeline plain(nullptr);
  const Pass untraced = plain.run(kPaperTrainSeed, kPaperEvalSeed);
  Tracer tracer("paper_e1");
  PaperTrace ids(tracer);
  PaperPipeline traced(&ids);
  const Pass pass = traced.run(kPaperTrainSeed, kPaperEvalSeed);
  print_paper_pass("traced pass", pass);
  r.attempted = untraced.attempted + pass.attempted;
  r.failed = untraced.failed + pass.failed;
  check_paper_pass(pass, opt, r);
  r.check(untraced.gain_pct == pass.gain_pct &&
              untraced.hw_speedup == pass.hw_speedup,
          "paper_e1: tracing changed the E1/E2 results");

  const auto per = [](std::int64_t ns, std::uint64_t n) {
    return n ? static_cast<double>(ns) / static_cast<double>(n) : 0.0;
  };
  const auto& tick = tracer.stat("workload.tick");
  const auto& submit = tracer.stat("workload.submit");
  const auto& run = tracer.stat("core.run");
  const auto& replay = tracer.stat("hw.replay");
  const std::int64_t wall_ns = static_cast<std::int64_t>(pass.wall_s * 1e9);
  r.set("workload.tick_ns", per(tick.self_ns(), tick.count), "ns");
  r.set("workload.submit_ns", per(submit.total_ns, submit.count), "ns");
  r.set("workload.jobs_per_tick",
        per(static_cast<std::int64_t>(submit.count), tick.count), "count");
  for (const char* name :
       {"governors.decide", "rl.decide_train", "rl.decide_eval"}) {
    const auto& s = tracer.stat(name);
    r.set(std::string(name) + "_ns", per(s.total_ns, s.count), "ns");
  }
  // Residual: engine run time not inside a scenario tick or a decision —
  // the SoC step, QoS completion and the observation.
  r.set("soc.step_ns_per_tick", per(run.self_ns(), tick.count), "ns");
  r.set("core.train_share", pass.train_s / pass.wall_s, "share");
  r.set("hw.replay_ns_per_invocation",
        per(replay.total_ns, pass.invocations), "ns");
  r.set("hw.decide_cycles", pass.decide_cycles, "cycles");
  r.set("hw.update_cycles", pass.update_cycles, "cycles");
  r.set("paper_e1.coverage_share",
        static_cast<double>(tracer.root_ns()) / static_cast<double>(wall_ns),
        "share");
  r.set("paper_e1.overhead_share",
        (pass.wall_s - untraced.wall_s) / untraced.wall_s, "share");
  std::printf("paper_e1 traced: wall %.3f s, untraced %.3f s, %llu ticks, "
              "%zu spans dropped from the dump\n",
              pass.wall_s, untraced.wall_s,
              static_cast<unsigned long long>(tick.count),
              static_cast<std::size_t>(tracer.dropped()));
  write_spans(opt.out_dir + "/spans-paper_e1.csv", {&tracer});
  return r;
}

}  // namespace perfbench
