#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

void Result::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  errors.push_back(what);
}

namespace {

/// Bucket of `v`: exact below 64, then kSub buckets per power of two.
std::size_t bucket_of(std::uint64_t v, unsigned sub_bits) {
  if (v < 64) return static_cast<std::size_t>(v);
  const unsigned e = 63u - static_cast<unsigned>(__builtin_clzll(v));
  const std::uint64_t sub = (v >> (e - sub_bits)) & ((1u << sub_bits) - 1);
  return 64 + (e - 6) * (1u << sub_bits) + static_cast<std::size_t>(sub);
}

}  // namespace

void LatencyHistogram::add(std::uint64_t ns) {
  ++buckets_[std::min(bucket_of(ns, 5), kBuckets - 1)];
  ++count_;
  sum_ += ns;
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  sum_ += other.sum_;
}

double LatencyHistogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  const double rank = q * static_cast<double>(count_ - 1);
  double before = 0.0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    const auto n = static_cast<double>(buckets_[i]);
    if (n == 0.0 || before + n <= rank) {
      before += n;
      continue;
    }
    double lower = static_cast<double>(i);
    double width = 1.0;
    if (i >= 64) {
      const std::size_t e = (i - 64) / kSub + 6;
      const std::size_t sub = (i - 64) % kSub;
      width = static_cast<double>(1ull << (e - 5));
      lower = static_cast<double>(kSub + sub) * width;
    }
    return lower + width * (rank - before + 0.5) / n;
  }
  return 0.0;
}

double peak_rss_mib() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

unsigned cpu_count() {
  const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<unsigned>(n) : 1u;
}

Tracer::Tracer(std::string thread_name)
    : thread_(std::move(thread_name)), epoch_(Clock::now()) {
  records_.reserve(1024);
}

std::uint32_t Tracer::id(const std::string& name) {
  const auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.push_back(name);
  ids_.emplace(name, id);
  stats_.emplace_back();
  return id;
}

void Tracer::open(std::uint32_t name) {
  std::int32_t record = -1;
  const auto now = Clock::now();
  if (records_.size() < kMaxRecords) {
    record = static_cast<std::int32_t>(records_.size());
    records_.push_back(Record{name, stack_.empty() ? -1 : stack_.back().record,
                              ns_between(epoch_, now), 0});
  } else {
    ++dropped_;
  }
  stack_.push_back(Open{name, record, now, 0});
}

void Tracer::close() {
  const auto now = Clock::now();
  const Open top = stack_.back();
  stack_.pop_back();
  const std::int64_t dur = ns_between(top.start, now);
  Stat& s = stats_[top.name];
  ++s.count;
  s.total_ns += dur;
  s.child_ns += top.child_ns;
  if (top.record >= 0) records_[top.record].end_ns = ns_between(epoch_, now);
  if (stack_.empty()) {
    root_ns_ += dur;
  } else {
    stack_.back().child_ns += dur;
  }
}

const Tracer::Stat& Tracer::stat(const std::string& name) const {
  static const Stat kEmpty;
  const auto it = ids_.find(name);
  return it == ids_.end() ? kEmpty : stats_[it->second];
}

void Tracer::merge_stats(const Tracer& other) {
  for (std::size_t i = 0; i < other.names_.size(); ++i) {
    Stat& s = stats_[id(other.names_[i])];
    s.count += other.stats_[i].count;
    s.total_ns += other.stats_[i].total_ns;
    s.child_ns += other.stats_[i].child_ns;
  }
  root_ns_ += other.root_ns_;
  dropped_ += other.dropped_;
}

void Tracer::write_csv(std::FILE* out) const {
  for (const Record& r : records_) {
    std::fprintf(out, "%s,%s,%lld,%lld,%d\n", thread_.c_str(),
                 names_[r.name].c_str(), static_cast<long long>(r.start_ns),
                 static_cast<long long>(r.end_ns), r.parent);
  }
}

void write_spans(const std::string& path,
                 const std::vector<const Tracer*>& tracers) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (!out) throw std::runtime_error("cannot write span file " + path);
  std::fprintf(out, "thread,name,start_ns,end_ns,parent\n");
  for (const Tracer* t : tracers) t->write_csv(out);
  std::fclose(out);
}

}  // namespace perfbench
