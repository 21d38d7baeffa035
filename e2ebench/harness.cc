#include "harness.h"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>
#include <unordered_map>

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

namespace e2e {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t CpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double PeakRssMb() {
  // VmHWM is this process image's own high-water mark. getrusage's
  // ru_maxrss is not: it keeps the peak of the process that exec'd us
  // (e.g. the Python launcher), which can exceed a small workload's.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.compare(0, 6, "VmHWM:") == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // kB on Linux
}

int BindToCurrentCpu() {
  int cpu = sched_getcpu();
  if (cpu < 0) return -1;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0 ? cpu : -1;
}

namespace {

int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// Resident set size of this process now, in MB.
double RssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.compare(0, 6, "VmRSS:") == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0;
}

/// One sample of the reference loop: lookups of pseudo-random keys in a
/// fixed table of 200 000 entries, a quarter of them hits. The first
/// pass brings the table back into the caches the workload evicted it
/// from, so that the sample does not depend on the workload's footprint;
/// the second is timed. Returns lookups per second of this thread's CPU
/// time.
double ReferenceRate() {
  constexpr uint64_t kKeys = 200'000;
  constexpr int kLookups = 150'000;
  static const std::unordered_map<uint64_t, uint64_t> table = [] {
    std::unordered_map<uint64_t, uint64_t> t;
    Rng rng(1);
    for (uint64_t i = 0; t.size() < kKeys; ++i) t[rng.Below(4 * kKeys)] = i;
    return t;
  }();
  // The lookups' result is stored where the compiler must keep it.
  static std::atomic<uint64_t> sink{0};
  auto pass = [] {
    Rng rng(2);
    uint64_t sum = 0;
    for (int i = 0; i < kLookups; ++i) {
      auto it = table.find(rng.Below(4 * kKeys));
      if (it != table.end()) sum += it->second;
    }
    sink.store(sum, std::memory_order_relaxed);
  };
  pass();
  int64_t t0 = ThreadCpuNs();
  pass();
  int64_t ns = ThreadCpuNs() - t0;
  return ns > 0 ? kLookups * 1e9 / static_cast<double>(ns) : 0;
}

}  // namespace

void HostSpeed::MaybeSample() {
  int64_t now = NowNs();
  if (last_ns_ != 0 && now - last_ns_ < 1'000'000'000) return;
  // The first sample builds the table, which stays resident.
  double rss0 = last_ns_ == 0 ? RssMb() : 0;
  double rate = ReferenceRate();
  if (last_ns_ == 0) table_mb_ = RssMb() - rss0;
  if (rate > 0) rates_.push_back(rate);
  last_ns_ = NowNs();
}

double HostSpeed::Rate() const { return Median(rates_); }

// ---- tracing ----

struct Tracer::ThreadState {
  std::vector<Span>* buffer = nullptr;
  uint64_t op = 0;
  uint64_t parent = 0;
};

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

Tracer::ThreadState& Tracer::Local() {
  thread_local ThreadState state;
  if (state.buffer == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<std::vector<Span>>());
    state.buffer = buffers_.back().get();
  }
  return state;
}

std::vector<Span> Tracer::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> all;
  for (const auto& b : buffers_) all.insert(all.end(), b->begin(), b->end());
  return all;
}

ScopedSpan::ScopedSpan(const char* name) {
  Tracer& t = Tracer::Get();
  if (!t.enabled()) return;
  Tracer::ThreadState& s = t.Local();
  active_ = true;
  span_.op = s.op;
  span_.id = t.next_id_.fetch_add(1, std::memory_order_relaxed);
  span_.parent = s.parent;
  span_.name = name;
  saved_parent_ = s.parent;
  s.parent = span_.id;
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  span_.end_ns = NowNs();
  Tracer::ThreadState& s = Tracer::Get().Local();
  s.parent = saved_parent_;
  s.buffer->push_back(span_);
}

ScopedOp::ScopedOp(const char* name) {
  Tracer& t = Tracer::Get();
  if (!t.enabled()) return;
  Tracer::ThreadState& s = t.Local();
  active_ = true;
  saved_op_ = s.op;
  s.op = t.next_id_.fetch_add(1, std::memory_order_relaxed);
  root_ = std::make_unique<ScopedSpan>(name);
}

ScopedOp::~ScopedOp() {
  if (!active_) return;
  root_.reset();
  Tracer::Get().Local().op = saved_op_;
}

std::map<std::string, SpanSummary> SummarizeSpans(
    const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  // Per name, per op: summed duration and summed self time.
  std::map<std::string, std::map<uint64_t, std::pair<int64_t, int64_t>>>
      per_op;
  std::map<std::string, uint64_t> counts;
  for (const Span& s : spans) {
    int64_t dur = s.end_ns - s.start_ns;
    // Union of the child intervals clipped to this span.
    std::vector<std::pair<int64_t, int64_t>> iv;
    auto it = children.find(s.id);
    if (it != children.end()) {
      for (const Span* c : it->second) {
        int64_t a = std::max(c->start_ns, s.start_ns);
        int64_t b = std::min(c->end_ns, s.end_ns);
        if (b > a) iv.emplace_back(a, b);
      }
    }
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0, cur_a = 0, cur_b = 0;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (open && a <= cur_b) {
        cur_b = std::max(cur_b, b);
        continue;
      }
      if (open) covered += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
      open = true;
    }
    if (open) covered += cur_b - cur_a;
    auto& slot = per_op[s.name][s.op];
    slot.first += dur;
    slot.second += dur - covered;
    ++counts[s.name];
  }
  std::map<std::string, SpanSummary> out;
  for (const auto& [name, ops] : per_op) {
    std::vector<double> total, self;
    for (const auto& [op, v] : ops) {
      total.push_back(NsToMs(v.first));
      self.push_back(NsToMs(v.second));
    }
    SpanSummary& sum = out[name];
    sum.ops = ops.size();
    sum.spans = counts[name];
    sum.total_ms_p50 = Median(total);
    sum.self_ms_p50 = Median(self);
  }
  return out;
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) return false;
  for (const Span& s : spans) {
    out << "{\"op\":" << s.op << ",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << "}\n";
  }
  return static_cast<bool>(out);
}

// ---- results ----

bool Result::Count(bool ok, const std::string& why) {
  ++attempted;
  if (!ok) {
    ++failed;
    if (notes.size() < 5) notes.push_back(why);
  }
  return ok;
}

void Result::Merge(const Result& other) {
  attempted += other.attempted;
  failed += other.failed;
  for (const std::string& n : other.notes) {
    if (notes.size() < 5) notes.push_back(n);
  }
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string MetricsJson(const std::map<std::string, Metric>& metrics) {
  std::ostringstream os;
  os.precision(17);
  os << "{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) os << ", ";
    first = false;
    os << "\"" << name << "\": {\"value\": "
       << (std::isfinite(m.value) ? m.value : 0.0) << ", \"unit\": \""
       << m.unit << "\"}";
  }
  os << "}";
  return os.str();
}

namespace {

/// Effective cores: the CPU time nproc threads spinning for 0.2 s
/// receive, per second of wall time. Time the host gives to other
/// tenants (steal included) is not CPU time of ours, so this is at most
/// nproc and lower the busier the host is.
double SpinProbeCores(int nproc) {
  constexpr int64_t kSpinNs = 200'000'000;
  std::atomic<int64_t> cpu_ns{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < nproc; ++t) {
    pool.emplace_back([&cpu_ns] {
      timespec c0{}, c1{};
      clock_gettime(CLOCK_THREAD_CPUTIME_ID, &c0);
      volatile uint64_t sink = 0;
      int64_t until = NowNs() + kSpinNs;
      while (NowNs() < until) {
        for (int i = 0; i < 1000; ++i) sink = sink + i;
      }
      clock_gettime(CLOCK_THREAD_CPUTIME_ID, &c1);
      cpu_ns.fetch_add((c1.tv_sec - c0.tv_sec) * 1'000'000'000 +
                       (c1.tv_nsec - c0.tv_nsec));
    });
  }
  for (auto& th : pool) th.join();
  return static_cast<double>(cpu_ns.load()) / static_cast<double>(kSpinNs);
}

bool ComparableBuild(std::string* why) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  *why = "sanitizer build";
  return false;
#else
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  *why = "sanitizer build";
  return false;
#endif
#endif
  std::string type = E2E_BUILD_TYPE;
  if (type != "Release" && type != "RelWithDebInfo") {
    *why = "build type " + type;
    return false;
  }
#ifndef __OPTIMIZE__
  *why = "built without optimization";
  return false;
#endif
  return true;
#endif
}

}  // namespace

std::string EnvironmentJson(const Args& args) {
  int nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  std::string why;
  bool comparable = ComparableBuild(&why);
  std::ostringstream os;
  os.precision(4);
  os << "{\"build_type\": \"" << E2E_BUILD_TYPE << "\", \"compiler\": \""
     << JsonEscape(
#if defined(__clang__)
            "clang " __clang_version__
#elif defined(__GNUC__)
            "gcc " __VERSION__
#else
            "unknown"
#endif
            )
     << "\", \"nproc\": " << nproc
     << ", \"effective_cores\": " << SpinProbeCores(nproc)
     << ", \"source\": \"" << JsonEscape(args.source_id)
     << "\", \"workload\": \"" << args.workload
     << "\", \"seed\": " << args.seed << ", \"seconds\": " << args.seconds
     << ", \"trace\": " << (args.trace ? 1 : 0)
     << ", \"cpu\": " << args.cpu
     << ", \"comparable\": " << (comparable ? "true" : "false");
  if (!comparable) os << ", \"not_comparable_because\": \"" << why << "\"";
  os << "}";
  return os.str();
}

}  // namespace e2e
