// serve_query and serve_rollout: closed-loop pipelined Query traffic over a
// Unix-domain socket to an in-process PolicyServer.
//
// Shape: one server shard (connection->shard placement is then fixed; the
// shared UDS listener is accept-raced with more shards), two connections,
// each driven by its own client thread that keeps kDepth requests in
// flight, sent kChunk frames per write. With the main thread that is four
// threads in the process.
//
// The traffic is replayed from simulation, not drawn at random. The served
// incumbent is the RL policy trained on the E1 schedule (rl::TrainerConfig
// defaults) at a seed drawn from --seed; the canary candidate is the more
// regressed of two early snapshots of the same training
// (kCandidateEpisodes). Each connection replays one
// simulated device's evaluation pass under the policy its arm serves: the
// six scenarios at core::EngineConfig defaults, one Query per agent per
// decision epoch, with the states the device's governor actually saw.
//
// serve_query is the pure read path: no reports, no reloads, metrics
// detached. serve_rollout adds the write path as an operator runs it
// (`pmrl_cli serve --registry R --canary 50 --candidate V`, DESIGN.md §13):
// each connection sends one Report with its pass's energy and QoS every
// time it finishes replaying the pass (the unit the rollout controller and
// E1 both compare: energy per QoS), the controller's default window and
// settle counts turn those into verdicts, and every verdict is followed by
// request_reload(), which reloads the incumbent checkpoint and re-stages the
// candidate from the registry. A MetricsRegistry is attached.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.hpp"
#include "core/engine.hpp"
#include "obs/metrics.hpp"
#include "policy/registry.hpp"
#include "policy/rollout.hpp"
#include "rl/policy_io.hpp"
#include "rl/rl_governor.hpp"
#include "rl/trainer.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"
#include "soc/soc.hpp"
#include "util/framing.hpp"
#include "workload/scenarios.hpp"

namespace perfbench {
namespace {

using namespace pmrl;

constexpr std::size_t kConnections = 2;
constexpr std::size_t kShards = 1;
constexpr std::size_t kDepth = 64;
constexpr std::size_t kChunk = 16;
constexpr double kCanaryPct = 50.0;
/// Training snapshots the canary candidate is picked from (the incumbent
/// gets the full E1 schedule): the one whose device pass has the higher
/// energy per QoS. Either alone sometimes matches the incumbent; over 32
/// seeds the worse of the two regressed by 18.7% or more.
constexpr std::size_t kCandidateEpisodes[] = {2, 3};
/// Every kSampleEvery-th request id gets its round trip recorded.
constexpr std::uint64_t kSampleEvery = 8;
/// Chunk send-time ring; larger than the chunks a connection has in flight.
constexpr std::size_t kChunkRing = 64;
/// Deployments timed before and again after the measured load, for the
/// set-up median, one every kSetupGap so that each phase spans about 1 s.
constexpr int kSetupSamples = 50;
constexpr auto kSetupGap = std::chrono::milliseconds(20);
/// How often the operator (the bench's main thread) looks for a verdict.
constexpr auto kOperatorPoll = std::chrono::milliseconds(10);

static_assert(kDepth % kChunk == 0 && kDepth / kChunk < kChunkRing);

struct Query {
  std::uint32_t agent;
  std::uint64_t state;
};

/// One simulated device's evaluation pass under a frozen policy: the state
/// of every agent at every decision epoch, in order, and the pass's totals.
struct DeviceTrace {
  std::vector<Query> queries;
  double energy_j = 0.0;
  double quality = 0.0;
  double energy_per_qos() const { return energy_j / quality; }
};

/// Expected action per (arm, agent, state): arm 0 = incumbent, 1 = candidate.
struct Expected {
  std::vector<std::uint32_t> table[2];
  std::size_t states = 0;
  std::uint32_t at(int arm, std::uint32_t agent, std::uint64_t state) const {
    return table[arm][agent * states + state];
  }
};

/// Everything a serve run replays, made from --seed before any timing.
struct Inputs {
  std::string incumbent;  ///< checkpoint bytes
  std::string candidate;
  std::size_t candidate_episodes = 0;
  std::uint64_t train_seed = 0;
  std::uint64_t route_salt = 0;
  bool canary[kConnections] = {};  ///< connection routes to the candidate
  /// The same device workload (one eval seed) under each arm's policy:
  /// [0] incumbent, [1] candidate (serve_rollout only).
  DeviceTrace passes[2];
  double make_s = 0.0;
  const DeviceTrace& trace(std::size_t conn) const {
    return passes[canary[conn] ? 1 : 0];
  }
  /// Connection `conn` starts its replay this far into its pass, so the
  /// connections do not query in lockstep.
  std::size_t offset(std::size_t conn) const {
    return conn * trace(conn).queries.size() / kConnections;
  }
};

std::size_t cluster_count() {
  return soc::default_mobile_soc_config().clusters.size();
}

std::string checkpoint(const rl::RlGovernor& gov) {
  std::ostringstream out;
  rl::save_policy(gov, out);
  return out.str();
}

std::unique_ptr<rl::RlGovernor> from_checkpoint(const std::string& bytes) {
  auto gov = std::make_unique<rl::RlGovernor>(rl::RlGovernorConfig{},
                                              cluster_count());
  std::istringstream in(bytes);
  rl::load_policy(*gov, in);
  gov->set_frozen(true);
  return gov;
}

/// Governor decorator: records each agent's state, then lets the policy
/// decide.
class StateCapture : public governors::Governor {
 public:
  StateCapture(rl::RlGovernor& policy, std::vector<Query>& out)
      : policy_(policy), out_(out) {}
  std::string name() const override { return policy_.name(); }
  void reset(const governors::PolicyObservation& initial) override {
    policy_.reset(initial);
  }
  void decide(const governors::PolicyObservation& obs,
              governors::OppRequest& request) override {
    for (std::size_t a = 0; a < policy_.agent_count(); ++a) {
      out_.push_back({static_cast<std::uint32_t>(a),
                      policy_.encoder().encode_cluster(obs, a)});
    }
    policy_.decide(obs, request);
  }

 private:
  rl::RlGovernor& policy_;
  std::vector<Query>& out_;
};

DeviceTrace simulate_device(const std::string& policy_bytes,
                            std::uint64_t eval_seed) {
  auto policy = from_checkpoint(policy_bytes);
  core::SimEngine engine(soc::default_mobile_soc_config(),
                         core::EngineConfig{});
  DeviceTrace trace;
  StateCapture capture(*policy, trace.queries);
  for (const auto kind : workload::all_scenario_kinds()) {
    auto scenario = workload::make_scenario(kind, eval_seed);
    const core::RunResult run = engine.run(*scenario, capture);
    trace.energy_j += run.energy_j;
    trace.quality += run.quality;
  }
  return trace;
}

/// Route salt from the seed, bumped until exactly one of the two
/// connections falls in the canary cohort.
std::uint64_t pick_salt(std::uint64_t seed) {
  std::uint64_t salt = Rng(seed ^ 0x5A17ull)();
  while (policy::RolloutController::routes_to_candidate(0, kCanaryPct, salt) ==
         policy::RolloutController::routes_to_candidate(1, kCanaryPct, salt)) {
    ++salt;
  }
  return salt;
}

Inputs make_inputs(const Options& opt, bool rollout) {
  const auto t0 = Clock::now();
  Inputs in;
  Rng rng(opt.seed ^ 0x5E77Eull);
  const auto drawn = [&rng] {
    return static_cast<std::uint64_t>(rng.uniform_int(0, (1 << 30) - 1));
  };
  in.train_seed = drawn();
  core::SimEngine engine(soc::default_mobile_soc_config(),
                         core::EngineConfig{});
  rl::RlGovernor rl(rl::RlGovernorConfig{}, cluster_count());
  rl::TrainerConfig schedule;
  schedule.workload_seed = in.train_seed;
  rl::Trainer trainer(engine, rl, schedule);
  std::vector<std::pair<std::size_t, std::string>> snapshots;
  for (std::size_t e = 0; e < schedule.episodes; ++e) {
    for (const std::size_t at : kCandidateEpisodes) {
      if (e == at) snapshots.emplace_back(e, checkpoint(rl));
    }
    trainer.train_episode(e, schedule.episode_kind(e));
  }
  in.incumbent = checkpoint(rl);
  in.route_salt = pick_salt(opt.seed);
  for (std::size_t c = 0; c < kConnections; ++c) {
    in.canary[c] = rollout && policy::RolloutController::routes_to_candidate(
                                  c, kCanaryPct, in.route_salt);
  }
  const std::uint64_t eval_seed = (1u << 30) + drawn();
  in.passes[0] = simulate_device(in.incumbent, eval_seed);
  if (rollout) {
    for (const auto& [episodes, bytes] : snapshots) {
      DeviceTrace pass = simulate_device(bytes, eval_seed);
      if (in.candidate.empty() ||
          pass.energy_per_qos() > in.passes[1].energy_per_qos()) {
        in.candidate = bytes;
        in.candidate_episodes = episodes;
        in.passes[1] = std::move(pass);
      }
    }
    // Planted defect: a candidate that does not regress.
    if (opt.plant == "candidate") {
      in.candidate = in.incumbent;
      in.passes[1] = in.passes[0];
    }
  }
  in.make_s = seconds_between(t0, Clock::now());
  return in;
}

/// In-process greedy_actions over every state of every agent.
std::vector<std::uint32_t> greedy_table(rl::RlGovernor& gov,
                                        std::size_t* states) {
  *states = gov.agent(0).state_count();
  std::vector<std::uint64_t> all(*states);
  for (std::size_t s = 0; s < all.size(); ++s) all[s] = s;
  std::vector<std::uint32_t> out(gov.agent_count() * *states);
  for (std::size_t a = 0; a < gov.agent_count(); ++a) {
    gov.agent(a).greedy_actions(all.data(), all.size(),
                                out.data() + a * *states);
  }
  return out;
}

/// Per-connection load statistics.
struct ConnStats {
  std::uint64_t sent = 0;
  std::uint64_t responses = 0;
  std::uint64_t safe_defaults = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t canary = 0;
  std::uint64_t wrong = 0;
  std::uint64_t reports = 0;
  bool dropped = false;
  std::string error;
  /// Per measurement window: responses received and sampled round trips.
  std::vector<std::uint64_t> window_responses;
  std::vector<LatencyHistogram> window_rtt;
};

/// The load is cut into windows of equal length; decision rate and p50 are
/// medians over the windows of each window's figure, so a stall that hits a
/// few seconds of the run moves them less. Tail quantiles are taken over
/// every sampled round trip of the run. Responses drained after the
/// deadline fall outside every window.
struct Windows {
  Clock::time_point t0;
  double window_s = 1.0;
  std::size_t count = 1;
  std::size_t at(Clock::time_point now) const {
    return static_cast<std::size_t>(seconds_between(t0, now) / window_s);
  }
};

/// Everything one serve run sets up: checkpoint, registry, server,
/// connections.
struct Deployment {
  std::string dir;
  std::string incumbent_path;
  std::unique_ptr<policy::PolicyRegistry> registry;
  std::uint64_t candidate_version = 0;
  std::unique_ptr<serve::PolicyServer> server;
  std::vector<serve::Client> clients;

  ~Deployment() {
    clients.clear();
    if (server) server->stop();
    std::error_code ec;
    if (!dir.empty()) std::filesystem::remove_all(dir, ec);
  }
};

std::unique_ptr<Deployment> deploy(const Options& opt, const Inputs& in,
                                   bool rollout, int index,
                                   obs::MetricsRegistry* metrics) {
  auto d = std::make_unique<Deployment>();
  d->dir = opt.out_dir + "/serve-" + std::to_string(::getpid()) + "-" +
           std::to_string(index);
  std::filesystem::create_directories(d->dir);
  d->incumbent_path = d->dir + "/incumbent.pmrl";
  {
    std::ofstream out(d->incumbent_path, std::ios::binary);
    out << in.incumbent;
  }
  serve::ServerConfig config;
  config.uds_path = d->dir + "/s.sock";
  config.workers = kShards;
  config.policy_path = d->incumbent_path;
  if (rollout) {
    config.registry_dir = d->dir + "/reg";
    d->registry = std::make_unique<policy::PolicyRegistry>(config.registry_dir);
    policy::PolicyMeta meta;
    meta.train_seed = in.train_seed;
    meta.episodes = rl::TrainerConfig{}.episodes;
    d->registry->promote(d->registry->add(*from_checkpoint(in.incumbent), meta));
    meta.episodes = in.candidate_episodes;
    d->candidate_version =
        d->registry->add(*from_checkpoint(in.candidate), meta);
    config.candidate_version = d->candidate_version;
    config.rollout.canary_pct = kCanaryPct;
    config.rollout.route_salt = in.route_salt;
  }
  d->server = std::make_unique<serve::PolicyServer>(config);
  if (metrics) d->server->set_metrics(metrics);
  d->server->start();
  for (std::size_t c = 0; c < kConnections; ++c) {
    d->clients.push_back(serve::Client::connect_uds(config.uds_path));
  }
  return d;
}

/// Span ids of one client thread.
struct ClientSpans {
  explicit ClientSpans(Tracer& t)
      : tracer(t),
        encode(t.id("serve.client_encode")),
        send(t.id("serve.send")),
        recv(t.id("serve.recv")),
        report(t.id("policy.report")) {}
  Tracer& tracer;
  std::uint32_t encode, send, recv, report;
};

/// Closed-loop pipelined replay of `trace` on one connection until the last
/// window ends, then a full drain. Every response is checked against the
/// expected table. With `rollout`, a Report with the pass's totals follows
/// every completed pass.
void drive_connection(serve::Client& client, const DeviceTrace& trace,
                      std::size_t offset, const Expected& expected,
                      bool rollout,
                      const Windows& win, ClientSpans* spans, ConnStats& st) {
  const auto until =
      win.t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(win.window_s *
                                                 static_cast<double>(win.count)));
  st.window_responses.assign(win.count, 0);
  st.window_rtt.resize(win.count);
  const auto& seq = trace.queries;
  std::size_t window = 0;
  Tracer* tracer = spans ? &spans->tracer : nullptr;
  std::string buf;
  Clock::time_point sent_at[kChunkRing];
  std::uint64_t next_id = 1;
  std::size_t inflight = 0;
  std::uint64_t next_report = seq.size();
  const auto query = [&](std::uint64_t id) -> const Query& {
    return seq[(offset + id - 1) % seq.size()];
  };
  auto send_chunk = [&] {
    {
      Span span(tracer, spans ? spans->encode : 0);
      buf.clear();
      for (std::size_t i = 0; i < kChunk; ++i, ++next_id) {
        const Query& q = query(next_id);
        serve::append_query(buf, serve::QueryMsg{next_id, q.agent, q.state});
      }
    }
    const auto now = Clock::now();
    sent_at[((next_id - 1) / kChunk - 1) % kChunkRing] = now;
    window = win.at(now);
    Span span(tracer, spans ? spans->send : 0);
    client.send_raw(buf.data(), buf.size());
    inflight += kChunk;
    st.sent += kChunk;
  };
  auto recv_one = [&] {
    serve::ResponseMsg msg;
    {
      Span span(tracer, spans ? spans->recv : 0);
      msg = client.recv_response();
    }
    --inflight;
    ++st.responses;
    if (window < win.count) {
      ++st.window_responses[window];
      if (msg.request_id % kSampleEvery == 0) {
        const auto sent =
            sent_at[((msg.request_id - 1) / kChunk) % kChunkRing];
        st.window_rtt[window].add(static_cast<std::uint64_t>(
            ns_between(sent, Clock::now())));
      }
    }
    if (msg.flags & serve::kRespSafeDefault) {
      ++st.safe_defaults;
      return;
    }
    const bool canary = (msg.flags & serve::kRespCanary) != 0;
    st.canary += canary;
    st.cache_hits += (msg.flags & serve::kRespCacheHit) != 0;
    const Query& q = query(msg.request_id);
    if (msg.action != expected.at(canary ? 1 : 0, q.agent, q.state)) {
      ++st.wrong;
    }
  };
  try {
    while (inflight + kChunk <= kDepth) send_chunk();
    while (Clock::now() < until) {
      for (std::size_t i = 0; i < kChunk; ++i) recv_one();
      send_chunk();
      if (rollout && next_id - 1 >= next_report) {
        Span span(tracer, spans ? spans->report : 0);
        client.report(trace.energy_j, trace.quality);
        ++st.reports;
        next_report += seq.size();
      }
    }
    while (inflight > 0) recv_one();
  } catch (const std::exception& ex) {
    st.dropped = true;
    st.error = ex.what();
  }
}

/// Aggregate outcome of one load segment.
struct Load {
  std::vector<ConnStats> conns;
  double wall_s = 0.0;
  std::uint64_t sent = 0;
  std::uint64_t responses = 0;
  std::uint64_t safe_defaults = 0;
  std::uint64_t wrong = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t reports = 0;
  bool dropped = false;
  SampleSet window_rate;    ///< decisions per s, per window
  SampleSet window_p50_us;  ///< round-trip p50, per window
  LatencyHistogram rtt;     ///< every sampled round trip (ns)
  std::uint64_t verdicts = 0;
  std::uint64_t promotions = 0;
  std::uint64_t reloads = 0;
  std::uint64_t reload_failures = 0;
  double reload_s = 0.0;
  std::string control_error;  ///< a reload that threw
  double decisions_per_s() const { return window_rate.median(); }
  double p50_us() const { return window_p50_us.median(); }
  double p90_us() const { return 1e-3 * rtt.quantile(0.90); }
  double p99_us() const { return 1e-3 * rtt.quantile(0.99); }
  double report_share() const {
    return static_cast<double>(reports) /
           static_cast<double>(std::max<std::uint64_t>(1, sent + reports));
  }
};

/// Runs the closed loop for `seconds` on an already deployed server. With
/// rollout, the calling thread plays the operator: after every verdict it
/// calls request_reload(), which re-stages the candidate.
Load run_load(Deployment& d, const Inputs& in, const Expected& expected,
              bool rollout, double seconds,
              std::vector<std::unique_ptr<Tracer>>* tracers) {
  Load load;
  load.conns.resize(kConnections);
  std::vector<std::unique_ptr<ClientSpans>> spans(kConnections);
  Tracer* main_tracer = nullptr;
  std::uint32_t span_reload = 0;
  if (tracers) {
    tracers->push_back(std::make_unique<Tracer>("main"));
    main_tracer = tracers->back().get();
    span_reload = main_tracer->id("serve.reload");
    for (std::size_t c = 0; c < kConnections; ++c) {
      tracers->push_back(
          std::make_unique<Tracer>("client" + std::to_string(c)));
      spans[c] = std::make_unique<ClientSpans>(*tracers->back());
    }
  }
  const std::uint64_t verdicts0 =
      d.server->rollbacks() + d.server->promotions();
  const std::uint64_t promotions0 = d.server->promotions();
  Windows win;
  win.window_s = std::min(1.0, seconds);
  win.count = std::max<std::size_t>(
      1, static_cast<std::size_t>(seconds / win.window_s + 1e-9));
  win.t0 = Clock::now();
  const auto t0 = win.t0;
  const auto until =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(win.window_s *
                                             static_cast<double>(win.count)));
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      drive_connection(d.clients[c], in.trace(c), in.offset(c), expected,
                       rollout, win, spans[c].get(), load.conns[c]);
    });
  }
  if (rollout) {
    try {
      while (Clock::now() < until) {
        std::this_thread::sleep_for(kOperatorPoll);
        if (d.server->rollout_state() == policy::RolloutState::Canary) {
          continue;
        }
        const auto tr = Clock::now();
        Span span(main_tracer, span_reload);
        const bool ok = d.server->request_reload();
        load.reload_s += seconds_between(tr, Clock::now());
        ++load.reloads;
        load.reload_failures += !ok;
      }
    } catch (const std::exception& ex) {
      load.control_error = ex.what();
    }
  }
  for (auto& t : threads) t.join();
  load.wall_s = seconds_between(t0, Clock::now());
  load.verdicts = d.server->rollbacks() + d.server->promotions() - verdicts0;
  load.promotions = d.server->promotions() - promotions0;
  for (auto& st : load.conns) {
    load.sent += st.sent;
    load.responses += st.responses;
    load.safe_defaults += st.safe_defaults;
    load.wrong += st.wrong;
    load.cache_hits += st.cache_hits;
    load.reports += st.reports;
    load.dropped = load.dropped || st.dropped;
  }
  for (std::size_t w = 0; w < win.count; ++w) {
    std::uint64_t responses = 0;
    LatencyHistogram rtt;
    for (const auto& st : load.conns) {
      if (st.window_responses.size() != win.count) continue;  // dropped early
      responses += st.window_responses[w];
      rtt.merge(st.window_rtt[w]);
    }
    load.window_rate.add(static_cast<double>(responses) / win.window_s);
    load.window_p50_us.add(1e-3 * rtt.quantile(0.50));
    load.rtt.merge(rtt);
  }
  return load;
}

Expected expected_actions(const Deployment& d, const Options& opt,
                          const Inputs& in, bool rollout) {
  Expected e;
  {
    std::ifstream file(d.incumbent_path, std::ios::binary);
    auto incumbent = std::make_unique<rl::RlGovernor>(rl::RlGovernorConfig{},
                                                      cluster_count());
    rl::load_policy(*incumbent, file);
    e.table[0] = greedy_table(*incumbent, &e.states);
  }
  if (rollout) {
    rl::RlGovernor candidate(rl::RlGovernorConfig{}, cluster_count());
    d.registry->load(d.candidate_version, candidate);
    e.table[1] = greedy_table(candidate, &e.states);
  } else {
    e.table[1] = e.table[0];
  }
  if (opt.plant == "action") {
    // Planted defect: expect a different action for the first state the
    // first connection queries.
    const Query& q = in.trace(0).queries[in.offset(0)];
    for (auto& table : e.table) {
      auto& slot = table[q.agent * e.states + q.state];
      slot = (slot + 1) % 3;
    }
  }
  return e;
}

/// Correctness checks on the inputs: the replayed traces are non-empty and,
/// on serve_rollout, the candidate's pass regresses beyond the controller's
/// threshold, so every verdict is a rollback and the incumbent never changes.
void check_inputs(const Inputs& in, bool rollout, const char* name,
                  Result& r) {
  const std::string wl = name;
  for (std::size_t arm = 0; arm < (rollout ? 2 : 1); ++arm) {
    const DeviceTrace& t = in.passes[arm];
    r.check(!t.queries.empty() && t.quality > 0.0,
            wl + ": a simulated device pass has no decisions or no QoS");
  }
  if (!rollout) return;
  const double epq[2] = {in.passes[0].energy_per_qos(),
                         in.passes[1].energy_per_qos()};
  const double threshold = policy::RolloutConfig{}.regression_threshold;
  std::printf("%s: candidate (%zu episodes) E/QoS %.6g vs incumbent %.6g "
              "(%+.2f %%, rollback threshold %+.2f %%)\n",
              name, in.candidate_episodes, epq[1], epq[0],
              100.0 * (epq[1] / epq[0] - 1.0), 100.0 * threshold);
  r.check(epq[1] > epq[0] * (1.0 + threshold),
          wl + ": the candidate pass does not regress beyond the rollout "
               "threshold, so verdicts would not all be rollbacks");
}

/// Correctness and failure accounting shared by measured and traced runs.
void account(const Load& load, const Inputs& in, const Options& opt,
             bool rollout, const char* name, Result& r) {
  const std::uint64_t unanswered = load.sent - load.responses;
  r.attempted += load.sent + load.reports;
  r.failed += load.safe_defaults + unanswered;
  std::string wl = name;
  for (const auto& st : load.conns) {
    if (st.dropped) r.failed += 1;
    r.check(!st.dropped, wl + ": a connection dropped: " + st.error);
  }
  r.check(unanswered == 0, wl + ": " + std::to_string(unanswered) +
                               " requests unanswered");
  r.check(load.wrong == 0, wl + ": " + std::to_string(load.wrong) +
                               " actions differ from greedy_actions");
  if (!rollout) return;
  // Canary cohort: which connections ever got a candidate decision must
  // match the deterministic route hash over the connection sequence.
  std::size_t observed = 0;
  for (std::size_t c = 0; c < kConnections; ++c) {
    bool want = policy::RolloutController::routes_to_candidate(
        c, kCanaryPct, in.route_salt);
    if (opt.plant == "canary" && c == 0) want = !want;
    const bool saw = load.conns[c].canary > 0;
    observed += saw;
    r.check(saw == want, wl + ": connection " + std::to_string(c) +
                             (want ? " expected in" : " expected outside") +
                             " the canary cohort");
  }
  r.set("serve.canary_share",
        static_cast<double>(observed) / static_cast<double>(kConnections),
        "share");
  r.check(load.promotions == 0,
          wl + ": a canary was promoted; the expected incumbent changed");
  r.check(load.reload_failures == 0, wl + ": a reload was rejected");
  r.check(load.control_error.empty(),
          wl + ": reloading threw: " + load.control_error);
}

void print_load(const char* label, const Load& load) {
  const double per_s = 1.0 / load.wall_s;
  std::printf("%s: decisions_per_s %.4g | decision_p50_us %.2f | "
              "decision_p90_us %.2f | decision_p99_us %.2f (%llu samples) | "
              "%.4g decisions/s over the whole run | safe-default %llu | "
              "cache hits %.4f\n",
              label, load.decisions_per_s(), load.p50_us(), load.p90_us(),
              load.p99_us(), static_cast<unsigned long long>(load.rtt.count()),
              static_cast<double>(load.responses) * per_s,
              static_cast<unsigned long long>(load.safe_defaults),
              static_cast<double>(load.cache_hits) /
                  static_cast<double>(std::max<std::uint64_t>(1, load.responses)));
  std::printf("%s mix: reports %llu (%.3g/s, share %.3g of frames) | "
              "verdicts %llu (%.3g/s) | reloads %llu (%.3g/s)\n",
              label, static_cast<unsigned long long>(load.reports),
              static_cast<double>(load.reports) * per_s, load.report_share(),
              static_cast<unsigned long long>(load.verdicts),
              static_cast<double>(load.verdicts) * per_s,
              static_cast<unsigned long long>(load.reloads),
              static_cast<double>(load.reloads) * per_s);
  std::printf("%s round trip (us):", label);
  for (const double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999}) {
    std::printf(" p%g %.1f", 100.0 * q, 1e-3 * load.rtt.quantile(q));
  }
  std::printf("\n");
  std::printf("%s windows (decisions/s):", label);
  for (const double rate : load.window_rate.samples()) {
    std::printf(" %.4g", rate);
  }
  std::printf("\n");
}

const char* serve_name(bool rollout) {
  return rollout ? "serve_rollout" : "serve_query";
}

void set_shape(Result& r) {
  r.shape["threads"] = std::to_string(1 + kShards + kConnections);
  r.shape["shards"] = std::to_string(kShards);
  r.shape["connections"] = std::to_string(kConnections);
  r.shape["depth"] = std::to_string(kDepth);
  r.shape["chunk"] = std::to_string(kChunk);
}

/// ns per call of `fn`, repeated `reps` times.
template <typename Fn>
double time_per_call(std::size_t reps, Fn&& fn) {
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < reps; ++i) fn(i);
  return static_cast<double>(ns_between(t0, Clock::now())) /
         static_cast<double>(reps);
}

}  // namespace

Result run_serve(const Options& opt, bool rollout) {
  Result r;
  set_shape(r);
  const char* name = serve_name(rollout);
  const Inputs in = make_inputs(opt, rollout);
  std::printf("%s: inputs (training, device passes) took %.3f s; %zu "
              "queries per incumbent device pass\n",
              name, in.make_s, in.passes[0].queries.size());
  check_inputs(in, rollout, name, r);
  obs::MetricsRegistry registry;
  obs::MetricsRegistry* metrics = rollout ? &registry : nullptr;
  // Set-up (checkpoint and registry writes, server start, connections) is
  // timed in two phases apart from the load, before and after it, plus the
  // measured deployment itself: a core's set-up speed changes over seconds
  // here, and one burst of samples sees only one state. The samples of a
  // phase are spread over about a second for the same reason.
  SampleSet setups;
  auto time_setups = [&](int first) {
    for (int i = first; i < first + kSetupSamples; ++i) {
      {
        const auto t = Clock::now();
        const auto spare = deploy(opt, in, rollout, i, metrics);
        setups.add(seconds_between(t, Clock::now()));
      }
      std::this_thread::sleep_for(kSetupGap);
    }
  };
  time_setups(1);
  const auto t0 = Clock::now();
  auto d = deploy(opt, in, rollout, 0, metrics);
  setups.add(seconds_between(t0, Clock::now()));
  const Expected expected = expected_actions(*d, opt, in, rollout);
  const Load load = run_load(*d, in, expected, rollout, opt.seconds, nullptr);
  print_load(name, load);
  account(load, in, opt, rollout, name, r);
  d.reset();
  time_setups(1 + kSetupSamples);
  std::printf("%s: set-up walls (ms):", name);
  for (const double s : setups.samples()) std::printf(" %.3f", s * 1e3);
  std::printf("\n");
  r.set("decisions_per_s", load.decisions_per_s(), "1/s");
  r.set("decision_p50_us", load.p50_us(), "us");
  r.set("decision_p99_us", load.p99_us(), "us");
  r.set("setup_s", setups.median(), "s");
  r.set("work_per_s", load.decisions_per_s(), "1/s");
  r.set("op_p50_us", load.p50_us(), "us");
  r.set("op_p90_us", load.p90_us(), "us");
  r.set("op_p99_us", load.p99_us(), "us");
  r.set("op_samples", static_cast<double>(load.rtt.count()), "count");
  r.set("decision_mean_us", 1e-3 * load.rtt.mean(), "us");
  r.set("decision_p90_us", load.p90_us(), "us");
  return r;
}

Result trace_serve(const Options& opt, bool rollout) {
  Result r;
  const char* name = serve_name(rollout);
  const std::string wl = name;
  // Rollout segments are long enough to hold several verdicts.
  const double segment_s =
      std::clamp(opt.seconds / 4.0, 0.5, rollout ? 5.0 : 2.0);
  const Inputs in = make_inputs(opt, rollout);
  check_inputs(in, rollout, name, r);

  // Untraced then traced segment, both with the registry attached so the
  // server's own batch-size and queue-depth instruments can be read.
  obs::MetricsRegistry plain_registry;
  auto plain = deploy(opt, in, rollout, 0, &plain_registry);
  const Expected expected = expected_actions(*plain, opt, in, rollout);
  const Load untraced =
      run_load(*plain, in, expected, rollout, segment_s, nullptr);
  account(untraced, in, opt, rollout, name, r);
  plain.reset();

  obs::MetricsRegistry registry;
  auto d = deploy(opt, in, rollout, 1, &registry);
  std::vector<std::unique_ptr<Tracer>> tracers;
  const Load load = run_load(*d, in, expected, rollout, segment_s, &tracers);
  print_load("traced", load);
  account(load, in, opt, rollout, name, r);
  d.reset();
  Tracer all("merged");
  std::int64_t client_root_ns = 0;
  for (std::size_t i = 0; i < tracers.size(); ++i) {
    all.merge_stats(*tracers[i]);
    if (i > 0) client_root_ns += tracers[i]->root_ns();  // [0] is main
  }
  std::vector<const Tracer*> dump;
  for (const auto& t : tracers) dump.push_back(t.get());
  write_spans(opt.out_dir + "/spans-" + wl + ".csv", dump);

  // Metrics attached vs detached, alternating fresh servers.
  SampleSet on_ns;
  SampleSet off_ns;
  for (int i = 0; i < 4; ++i) {
    const bool on = i % 2 == 1;
    obs::MetricsRegistry seg_registry;
    auto seg = deploy(opt, in, rollout, 2 + i, on ? &seg_registry : nullptr);
    const Load l =
        run_load(*seg, in, expected, rollout, segment_s / 2, nullptr);
    account(l, in, opt, rollout, name, r);
    (on ? on_ns : off_ns).add(1e9 / l.decisions_per_s());
  }

  // Standalone layer costs on the same inputs.
  const auto& seq = in.passes[0].queries;
  const std::size_t n = seq.size();
  std::string frames;
  for (std::size_t i = 0; i < n; ++i) {
    serve::append_query(frames, serve::QueryMsg{i + 1, seq[i].agent, seq[i].state});
  }
  const std::size_t reps = std::max<std::size_t>(n, 1 << 18);
  std::size_t offset = 0;
  std::size_t parsed = 0;
  const double decode_ns = time_per_call(reps, [&](std::size_t) {
    if (offset >= frames.size()) offset = 0;
    util::Frame frame;
    serve::QueryMsg q;
    if (util::decode_frame(frames, offset, frame) == util::FrameStatus::Ok &&
        serve::parse_query(frame, q)) {
      ++parsed;
    }
  });
  r.check(parsed == reps, wl + ": decode_frame/parse_query failed");
  std::string out;
  const double response_ns = time_per_call(reps, [&](std::size_t i) {
    if ((i & 1023) == 0) out.clear();
    serve::append_response(out, serve::ResponseMsg{i, 1, 0});
  });
  const double batch_mean =
      std::max(1.0, registry.histogram("serve.batch_size",
                                       {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0,
                                        128.0})
                        .mean());
  const auto batch = static_cast<std::size_t>(batch_mean + 0.5);
  auto incumbent = from_checkpoint(in.incumbent);
  std::vector<std::uint64_t> states(n);
  for (std::size_t i = 0; i < n; ++i) states[i] = seq[i].state;
  std::vector<std::uint32_t> actions(batch);
  const std::size_t batches = n / batch;
  const double greedy_call_ns =
      time_per_call(reps / batch, [&](std::size_t i) {
        incumbent->agent(0).greedy_actions(
            states.data() + (i % batches) * batch, batch, actions.data());
      });
  const double greedy_ns = greedy_call_ns / static_cast<double>(batch);

  const auto per = [](std::int64_t ns, std::uint64_t count) {
    return count ? static_cast<double>(ns) / static_cast<double>(count) : 0.0;
  };
  const auto& enc = all.stat("serve.client_encode");
  const double encode_ns = per(enc.total_ns, enc.count * kChunk);
  const double rtt_p50 = load.p50_us();
  r.set("serve.client_encode_ns", encode_ns, "ns");
  r.set("serve.frame_decode_ns", decode_ns, "ns");
  r.set("rl.greedy_batch_ns", greedy_ns, "ns");
  r.set("serve.response_encode_ns", response_ns, "ns");
  r.set("serve.batch_size_mean", batch_mean, "count");
  r.set("serve.queue_depth_max",
        std::max(0.0, registry.gauge("serve.queue_depth").max()), "count");
  r.set("serve.cache_hit_share",
        static_cast<double>(load.cache_hits) /
            static_cast<double>(std::max<std::uint64_t>(1, load.responses)),
        "share");
  // Residual: median round trip not spent in the four measured stages.
  r.set("serve.transport_wait_us",
        rtt_p50 - 1e-3 * (encode_ns + decode_ns + greedy_ns + response_ns),
        "us");
  r.set("obs.metrics_cost_ns", on_ns.median() - off_ns.median(), "ns");
  const double thread_s = load.wall_s * static_cast<double>(kConnections);
  r.set(wl + ".coverage_share",
        static_cast<double>(client_root_ns) / (thread_s * 1e9), "share");
  r.set(wl + ".overhead_share",
        untraced.decisions_per_s() / load.decisions_per_s() - 1.0, "share");
  if (rollout) {
    const auto& rep = all.stat("policy.report");
    r.set("serve.reload_ms",
          load.reloads ? 1e3 * load.reload_s / static_cast<double>(load.reloads)
                       : 0.0,
          "ms");
    r.set("policy.report_rtt_us", 1e-3 * per(rep.total_ns, rep.count), "us");
    r.set("policy.verdicts", static_cast<double>(load.verdicts), "count");
    // Standalone RolloutController::report on both arms' pass totals.
    policy::RolloutConfig rc;
    rc.canary_pct = kCanaryPct;
    policy::RolloutController controller(rc);
    controller.start(1);
    r.set("policy.rollout_report_ns",
          time_per_call(1 << 20,
                        [&](std::size_t i) {
                          const DeviceTrace& t = in.trace(i & 1);
                          if (controller.report(in.canary[i & 1], t.energy_j,
                                                t.quality) !=
                              policy::RolloutDecision::None) {
                            controller.start(1);
                          }
                        }),
          "ns");
  }
  return r;
}

}  // namespace perfbench
