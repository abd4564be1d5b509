#pragma once
// Shared pieces of the perfbench binary: options, the per-run result that
// main() prints as the closing JSON line, a latency histogram, and the span
// tracer used by traced runs. Sample sets and random streams are pmrl's own
// (util/stats.hpp, util/rng.hpp).
//
// Every layer is timed from outside: spans open and close around calls into
// the library's public functions and virtual interfaces (see the workload
// files). Nothing inside src/ is instrumented for the benchmark.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "util/rng.hpp"
#include "util/stats.hpp"

namespace perfbench {

using pmrl::Rng;
using pmrl::SampleSet;

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Planted defect for the self-test ("" = none): corrupts one expected
  /// value so the matching correctness check must fail.
  std::string plant;
  /// Directory for span dumps and run records.
  std::string out_dir = ".bench_out";
};

/// One named metric with its unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Outcome of one workload run.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Failed correctness checks, one line each.
  std::vector<std::string> errors;
  /// Threads, shards and connections the workload used.
  std::map<std::string, std::string> shape;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Records a correctness check; a false `ok` marks the run incorrect.
  void check(bool ok, const std::string& what);
};

/// Log-bucketed latency histogram (values in ns, ~3% bucket width) with
/// quantiles interpolated inside the bucket, so memory stays fixed however
/// many samples a run takes.
class LatencyHistogram {
 public:
  LatencyHistogram() : buckets_(kBuckets, 0) {}
  void add(std::uint64_t ns);
  void merge(const LatencyHistogram& other);
  std::uint64_t count() const { return count_; }
  /// Mean of the added values in ns (0 when empty).
  double mean() const {
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_)
                  : 0.0;
  }
  /// q-quantile in ns (0 when empty).
  double quantile(double q) const;

 private:
  static constexpr unsigned kSub = 32;
  static constexpr std::size_t kBuckets = 64 + 58 * kSub;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
};

/// Peak resident set size of this process in MiB.
double peak_rss_mib();
/// Online CPU count of this machine.
unsigned cpu_count();

/// Span recorder for traced runs. One Tracer per thread. Each closed span
/// adds its duration to its name's total and to its parent's child time,
/// so self time = total - child. The first `kMaxRecords` spans are also
/// kept verbatim (name, start, end, parent) and written out at exit.
class Tracer {
 public:
  struct Stat {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t child_ns = 0;
    std::int64_t self_ns() const { return total_ns - child_ns; }
  };
  struct Record {
    std::uint32_t name = 0;
    std::int32_t parent = -1;  ///< index into records, -1 = root
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };
  static constexpr std::size_t kMaxRecords = 1 << 17;

  explicit Tracer(std::string thread_name = "main");

  /// Interns a span name; the id is stable for this tracer.
  std::uint32_t id(const std::string& name);

  void open(std::uint32_t name);
  void close();

  const Stat& stat(const std::string& name) const;
  /// Adds another tracer's per-name statistics into this one.
  void merge_stats(const Tracer& other);
  /// Sum of durations of spans that had no open parent.
  std::int64_t root_ns() const { return root_ns_; }
  std::uint64_t dropped() const { return dropped_; }
  /// Appends the kept spans as CSV rows (thread,name,start_ns,end_ns,parent).
  void write_csv(std::FILE* out) const;

 private:
  struct Open {
    std::uint32_t name;
    std::int32_t record;
    Clock::time_point start;
    std::int64_t child_ns;
  };
  std::string thread_;
  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t> ids_;
  std::vector<Stat> stats_;
  std::vector<Open> stack_;
  std::vector<Record> records_;
  std::int64_t root_ns_ = 0;
  std::uint64_t dropped_ = 0;
  Clock::time_point epoch_;
};

/// RAII span; a null tracer makes it free apart from the pointer test.
class Span {
 public:
  Span(Tracer* tracer, std::uint32_t name) : tracer_(tracer) {
    if (tracer_) tracer_->open(name);
  }
  ~Span() {
    if (tracer_) tracer_->close();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
};

/// Appends every tracer's kept spans to `path` (CSV with a header line).
void write_spans(const std::string& path,
                 const std::vector<const Tracer*>& tracers);

// Workload entry points (wl_*.cpp). Untraced runs fill the end-to-end
// metrics; traced runs fill the per-layer metrics of that workload.
Result run_paper_e1(const Options& opt);
Result run_fleet_budgeted(const Options& opt);
Result run_serve(const Options& opt, bool rollout);
Result trace_paper_e1(const Options& opt);
Result trace_fleet_budgeted(const Options& opt);
Result trace_serve(const Options& opt, bool rollout);

}  // namespace perfbench
