// perfbench: the repository benchmark binary. Runs one workload, checks
// its outputs, and prints as its last line a JSON object with `correct`,
// `attempted`, `failed` and every metric it measured (name, value, unit).
// perfbench/run.py builds this binary and narrows that line to the metrics
// BENCHMARK.json names. See perfbench/README.md.

#include <cpuid.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "common.hpp"
#include "rl/batch_argmax.hpp"

namespace {

using namespace perfbench;

constexpr const char* kWorkloads[] = {"paper_e1", "fleet_budgeted",
                                      "serve_query", "serve_rollout"};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "paper_e1|fleet_budgeted|serve_query|serve_rollout "
               "[--seed N] [--seconds S] [--trace 0|1] [--plant NAME] "
               "[--out-dir DIR] [--git-sha SHA]\n",
               why);
  std::exit(2);
}

std::string cpu_model() {
  unsigned regs[12] = {};
  for (unsigned i = 0; i < 3; ++i) {
    if (!__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                     &regs[4 * i + 2], &regs[4 * i + 3])) {
      return "unknown";
    }
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s = brand;
  while (!s.empty() && s.front() == ' ') s.erase(s.begin());
  while (!s.empty() && s.back() == ' ') s.pop_back();
  return s;
}

Result run(const std::string& wl, const Options& opt) {
  if (wl == "paper_e1") return opt.trace ? trace_paper_e1(opt) : run_paper_e1(opt);
  if (wl == "fleet_budgeted") {
    return opt.trace ? trace_fleet_budgeted(opt) : run_fleet_budgeted(opt);
  }
  const bool rollout = wl == "serve_rollout";
  return opt.trace ? trace_serve(opt, rollout) : run_serve(opt, rollout);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string git_sha = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') usage("--seed needs an integer");
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(opt.seconds > 0.0)) usage("--seconds needs a positive number");
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") usage("--trace needs 0 or 1");
      opt.trace = value == "1";
    } else if (arg == "--plant") {
      opt.plant = value;
    } else if (arg == "--out-dir") {
      opt.out_dir = value;
    } else if (arg == "--git-sha") {
      git_sha = value;
    } else {
      usage(("unknown flag " + arg).c_str());
    }
  }
  bool known = false;
  for (const char* w : kWorkloads) known = known || opt.workload == w;
  if (!known) usage("unknown or missing --workload");

  std::printf("env: nproc %u | cpu %s | simd %s | compiler %s | build %s | "
              "git %s\n",
              cpu_count(), cpu_model().c_str(), pmrl::rl::batch_argmax_backend(),
              PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, git_sha.c_str());
  std::fflush(stdout);

  Result r;
  try {
    std::filesystem::create_directories(opt.out_dir);
    r = run(opt.workload, opt);
    if (opt.trace) {
      // A traced run prints every per-layer metric: layers this workload
      // does not exercise come from the traced runs of the other workloads,
      // filling only names still missing.
      for (const char* other : kWorkloads) {
        if (other == opt.workload) continue;
        const Result o = run(other, opt);
        r.correct = r.correct && o.correct;
        r.attempted += o.attempted;
        r.failed += o.failed;
        r.errors.insert(r.errors.end(), o.errors.begin(), o.errors.end());
        for (const auto& [name, m] : o.metrics) r.metrics.emplace(name, m);
      }
    } else {
      r.set("peak_rss_mb", peak_rss_mib(), "MiB");
      r.set("ok_share",
            r.attempted ? static_cast<double>(r.attempted - r.failed) /
                              static_cast<double>(r.attempted)
                        : 0.0,
            "share");
    }
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(),
                 ex.what());
    return 1;
  }
  if (r.attempted == 0) r.check(false, "nothing was attempted");
  for (const auto& e : r.errors) std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());

  std::printf("shape:");
  for (const auto& [k, v] : r.shape) std::printf(" %s=%s", k.c_str(), v.c_str());
  std::printf("\n");
  for (const auto& [name, m] : r.metrics) {
    std::printf("metric %-36s %.10g %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    if (!std::isfinite(m.value)) continue;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", json_escape(name).c_str(), m.value,
                json_escape(m.unit).c_str());
    first = false;
  }
  std::printf("}}\n");
  return 0;
}
