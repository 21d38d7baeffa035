// coral_e2e: the end-to-end benchmark program.
//
//   coral_e2e --workload serve|closure|update --seed N --seconds S
//             --trace 0|1 [--out-dir DIR] [--source-id ID]
//
// Prints the environment record and a detail line, then, as the last line
// of standard output, one JSON object with the keys correct, attempted,
// failed and metrics. --trace 0 reports the end-to-end metrics; --trace 1
// reports the per-layer metrics and writes the spans to DIR.

#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace e2e {

void ReportEndToEnd(Result* r, const std::vector<double>& setup_s,
                    const std::vector<double>& op_ms, double wall_s,
                    double cpu_s, double rss_mb, const HostSpeed& speed) {
  const double ops = static_cast<double>(op_ms.size());
  const double scale = speed.Scale();
  r->Set("setup_s", Median(setup_s) * scale, "s");
  r->Set("ops_per_ref_s", cpu_s > 0 ? ops / (cpu_s * scale) : 0, "1/s");
  r->Set("peak_rss_mb", rss_mb - speed.table_mb(), "MB");
  // Unscaled and wall-clock figures swing with the shared host's load
  // (NOTES.md), so they are reported beside the gated metrics.
  r->Detail("setup_cpu_s", Median(setup_s), "s");
  r->Detail("ops_per_cpu_s", cpu_s > 0 ? ops / cpu_s : 0, "1/s");
  r->Detail("ref_rate", speed.Rate(), "1/s");
  r->Detail("ref_samples", static_cast<double>(speed.samples()), "count");
  r->Detail("ops_per_s", wall_s > 0 ? ops / wall_s : 0, "1/s");
  r->Detail("op_p50_ms", Quantile(op_ms, 0.5), "ms");
  r->Detail("op_p90_ms", Quantile(op_ms, 0.9), "ms");
  r->Detail("ops", ops, "count");
}

void DumpTrace(const Args& args) {
  std::vector<Span> spans = Tracer::Get().Collect();
  std::string base = args.out_dir + "/" + args.workload + "-seed" +
                     std::to_string(args.seed);
  if (!WriteSpans(base + "-spans.jsonl", spans)) {
    std::cerr << "warning: could not write " << base << "-spans.jsonl\n";
  }
  std::cerr << "span                      ops   spans  total_p50_ms  "
               "self_p50_ms\n";
  for (const auto& [name, s] : SummarizeSpans(spans)) {
    char line[160];
    std::snprintf(line, sizeof(line), "%-24s %5llu %7llu %13.4f %12.4f\n",
                  name.c_str(), static_cast<unsigned long long>(s.ops),
                  static_cast<unsigned long long>(s.spans), s.total_ms_p50,
                  s.self_ms_p50);
    std::cerr << line;
  }
}

}  // namespace e2e

namespace {

int Usage() {
  std::cerr << "usage: coral_e2e --workload serve|closure|update --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR] [--source-id ID]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return Usage();
    std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else if (flag == "--source-id") {
      args.source_id = value;
    } else {
      return Usage();
    }
  }
  if (args.seconds < 1) return Usage();

  // The workload runs bound to one CPU; the environment probe afterwards
  // needs them all again.
  cpu_set_t all;
  bool have_all = sched_getaffinity(0, sizeof(all), &all) == 0;
  args.cpu = e2e::BindToCurrentCpu();
  e2e::Result r;
  if (args.workload == "serve") {
    r = e2e::RunServe(args);
  } else if (args.workload == "closure") {
    r = e2e::RunClosure(args);
  } else if (args.workload == "update") {
    r = e2e::RunUpdate(args);
  } else {
    return Usage();
  }
  if (have_all) sched_setaffinity(0, sizeof(all), &all);
  if (r.attempted == 0) {
    std::cerr << "no operation completed\n";
    return 1;
  }
  double error_rate =
      static_cast<double>(r.failed) / static_cast<double>(r.attempted);
  if (args.trace) {
    r.Set("error_rate", error_rate, "ratio");
    e2e::DumpTrace(args);
  } else {
    r.Detail("error_rate", error_rate, "ratio");
  }
  for (const std::string& note : r.notes) std::cerr << "failed: " << note << "\n";

  std::cout << "{\"env\": " << e2e::EnvironmentJson(args) << "}\n";
  std::cout << "{\"detail\": " << e2e::MetricsJson(r.detail) << "}\n";
  std::cout << "{\"correct\": " << (r.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << r.attempted
            << ", \"failed\": " << r.failed
            << ", \"metrics\": " << e2e::MetricsJson(r.metrics) << "}"
            << std::endl;
  return 0;
}
