// The three workloads. Each runs a closed loop over a fixed, seeded
// sequence of operations for `args.seconds`, checks every answer against
// a reference computed here from the generated facts (never with the
// engine), and fills the end-to-end metrics (args.trace false) or the
// per-layer metrics (args.trace true) of its Result.
//
// An operation ("op") is the workload's unit of work:
//   serve   — one query round trip over loopback JSONL;
//   closure — one pass of the four analytics queries;
//   update  — one cycle: a committed update, then a fresh read.

#ifndef E2EBENCH_WORKLOADS_H_
#define E2EBENCH_WORKLOADS_H_

#include <string>
#include <vector>

#include "harness.h"

namespace e2e {

Result RunServe(const Args& args);
Result RunClosure(const Args& args);
Result RunUpdate(const Args& args);

/// How many times set-up runs back to back before the timed loop. Each
/// epoch of the loop sets up again; setup_s is the median of them all.
inline constexpr int kSetupRepeats = 3;

/// Fills the end-to-end metrics shared by every workload: the median of
/// the set-ups' CPU times `setup_s` and ops per CPU second of the timed
/// loop (`cpu_s` spent on the ops), both in reference seconds (`speed`
/// sampled through the run), and peak memory `rss_mb` (read after a
/// fixed number of ops) less the reference table. The unscaled CPU
/// figures and the wall-clock
/// ones, the ops' latencies `op_ms` and their throughput over `wall_s`,
/// go on the detail line.
void ReportEndToEnd(Result* r, const std::vector<double>& setup_s,
                    const std::vector<double>& op_ms, double wall_s,
                    double cpu_s, double rss_mb, const HostSpeed& speed);

/// Writes the traced run's spans and their per-name summary into
/// `args.out_dir`, and prints the summary to stderr.
void DumpTrace(const Args& args);

}  // namespace e2e

#endif  // E2EBENCH_WORKLOADS_H_
