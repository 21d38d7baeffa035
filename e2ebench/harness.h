// End-to-end benchmark harness: command line, clocks and quantiles, the
// in-memory span tracer, the environment record and the result printer.
// Everything here sits outside the engine; the workloads (serve.cc,
// closure.cc, update.cc) call into CORAL only through its public
// functions and wrap those calls in spans.

#ifndef E2EBENCH_HARNESS_H_
#define E2EBENCH_HARNESS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace e2e {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Directory (inside the checkout) for the trace and result files.
  std::string out_dir = ".";
  /// Identifies the source tree (git sha or content digest).
  std::string source_id = "unknown";
  /// The CPU the workload ran on (set by main, -1 if unpinned).
  int cpu = -1;
};

int64_t NowNs();
/// CPU time of this process, every thread summed, in ns. Unlike wall
/// time it leaves out the time a shared host runs something else on our
/// CPUs, including time the hypervisor takes the virtual CPU away
/// (steal), and time spent waiting. It counts the work done, so it is the
/// steadier measure on a shared host (NOTES.md, "Steadiness").
int64_t CpuNs();
inline double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Linear-interpolation quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// splitmix64: a tiny deterministic generator, so the same seed gives the
/// same inputs with any standard library.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

/// Peak resident set size of this process, in MB.
double PeakRssMb();

/// Binds the calling thread, and every thread it starts afterwards, to
/// the CPU it is running on. Returns that CPU, or -1 if binding failed.
/// The workloads run bound: a request's hand-offs between the client
/// and server threads then stay on one CPU, and the CPU time they cost
/// does not depend on how busy the host's other CPUs are (NOTES.md,
/// "Steadiness").
int BindToCurrentCpu();

/// How fast the host runs a fixed reference loop, sampled through a run.
/// On a shared host the speed of a core changes by a third within
/// minutes with what the neighbours do, in CPU time as well as wall time
/// (NOTES.md, "Steadiness"). The gated times are scaled by the speed
/// measured in the same run, so that they follow the program rather than
/// the host's load. The reference loop (hash-table lookups, a table of a
/// few MB) uses nothing of CORAL, so a change to CORAL leaves it alone.
class HostSpeed {
 public:
  /// Reference lookups per CPU second that Scale() maps to 1: about an
  /// uncontended core of the host the notes come from, so scaled times
  /// read close to CPU times there.
  static constexpr double kNominalRate = 2e7;

  /// Runs the reference loop (about 20 ms) unless it ran within the last
  /// second of wall time. The first call always runs it.
  void MaybeSample();
  /// Reference lookups per CPU second, the median of the samples.
  double Rate() const;
  /// Rate() / kNominalRate: a CPU time multiplied by it is in reference
  /// seconds, the CPU time the same work takes at the nominal speed.
  double Scale() const { return Rate() / kNominalRate; }
  size_t samples() const { return rates_.size(); }
  /// Resident memory of the reference table, in MB: not the workload's.
  double table_mb() const { return table_mb_; }

 private:
  std::vector<double> rates_;
  int64_t last_ns_ = 0;
  double table_mb_ = 0;
};

// ---- tracing ----

/// One timed call into a layer. All spans of one workload operation share
/// `op`; `parent` is 0 for the operation's root span.
struct Span {
  uint64_t op = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Records spans in memory. Thread-safe: each emitting thread appends to
/// its own buffer (registered once under a lock), so concurrent client
/// threads never contend on the hot path. Spans are written out only when
/// the run ends.
class Tracer {
 public:
  static Tracer& Get();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Every span recorded so far, from all threads.
  std::vector<Span> Collect() const;

 private:
  friend class ScopedSpan;
  friend class ScopedOp;
  struct ThreadState;
  ThreadState& Local();

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<std::vector<Span>>> buffers_;
};

/// A span around one call; nested ScopedSpans on the same thread become
/// its children. A no-op (one branch) while the tracer is disabled.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool active_ = false;
  Span span_;
  uint64_t saved_parent_ = 0;
};

/// The root span of one workload operation: assigns a fresh op id to
/// every span opened on this thread until it closes.
class ScopedOp {
 public:
  explicit ScopedOp(const char* name);
  ~ScopedOp();
  ScopedOp(const ScopedOp&) = delete;
  ScopedOp& operator=(const ScopedOp&) = delete;

 private:
  bool active_ = false;
  uint64_t saved_op_ = 0;
  std::unique_ptr<ScopedSpan> root_;
};

/// Per span name: how many operations contained it, and the median over
/// those operations of the summed duration and of the summed self time
/// (duration minus the part of it covered by child spans).
struct SpanSummary {
  uint64_t ops = 0;
  uint64_t spans = 0;
  double total_ms_p50 = 0;
  double self_ms_p50 = 0;
};
std::map<std::string, SpanSummary> SummarizeSpans(
    const std::vector<Span>& spans);

/// Writes spans as JSON lines (one object per span).
bool WriteSpans(const std::string& path, const std::vector<Span>& spans);

// ---- results ----

struct Metric {
  double value = 0;
  std::string unit;
};

/// What one run produced: the operation tally, the metrics of the
/// requested mode, and extra figures reported beside them. Not
/// thread-safe: each client thread fills its own and they are merged.
struct Result {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Informational figures printed on the detail line, not gated.
  std::map<std::string, Metric> detail;
  /// Free-form notes (e.g. the first wrong answer seen).
  std::vector<std::string> notes;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void Detail(const std::string& name, double value,
              const std::string& unit) {
    detail[name] = Metric{value, unit};
  }
  /// Counts one operation; `ok` false marks it failed (error or wrong
  /// answer). Returns `ok`.
  bool Count(bool ok, const std::string& why = "");
  /// Adds another tally (attempted, failed, notes) to this one.
  void Merge(const Result& other);
};

/// The environment record: build type, compiler, cores, source id, seed.
std::string EnvironmentJson(const Args& args);

std::string JsonEscape(const std::string& s);
std::string MetricsJson(const std::map<std::string, Metric>& metrics);

}  // namespace e2e

#endif  // E2EBENCH_HARNESS_H_
