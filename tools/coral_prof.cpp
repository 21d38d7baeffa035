// coral_prof: evaluation profiler for CORAL programs.
//
//   coral_prof [--query='tc(X, Y)'] [--trace=FILE.jsonl]
//              [--deadline-ms=N] [--max-inflight=N]
//              [--plan] [--bytecode] [--verify]
//              [--no-auto-optimize] [--no-vm] file.crl ...
//
// Consults each file with profiling enabled, executes the queries found
// in the files (plus any --query flags, which run after all files are
// loaded), and prints the per-module evaluation profile: rule application
// counts, join probes, solutions, duplicates, per-iteration delta sizes
// and wall times — the cost signals used to tune recursive programs
// (paper §8). With --trace, every evaluation event (module calls,
// iteration begin/end, rule firings, tuple inserts) is additionally
// written to FILE.jsonl, one JSON object per line, in a format
// round-trippable through coral::obs::TraceEvent::FromJson.
//
// With --plan, the report ends with the optimizer plan of every compiled
// query form: inferred modes (groundness/types/cardinality), the chosen
// literal order, and the argument indexes created (paper §4.2, §5.3).
// --no-auto-optimize turns automatic join reordering and index selection
// off, for comparing plans and profiles against the unoptimized baseline.
//
// With --bytecode, the report ends with the compiled join bytecode of
// every query form (the disassembly docs/VM.md describes) and the
// database-wide per-opcode VM execution counters. --no-vm turns the
// bytecode VM off (rule bodies interpret), for comparing profiles; the
// bytecode listing still prints, since compilation is unconditional.
//
// With --verify, the report ends with the bytecode verifier verdicts of
// every export form (docs/VM.md "Verification"): per-form verified /
// rejected / warning counts with the CRL3xx findings, plus the verifier
// counters — why a rule version runs interpreted.
//
// --deadline-ms bounds each --query evaluation (a query over budget
// fails with DeadlineExceeded — profile the ones that finish).
// --max-inflight=N runs the --query list through N concurrent sessions
// (the server's execution model) instead of sequentially; profiles
// aggregate across sessions.
//
// Exits 1 when a file cannot be loaded or a query fails, and 2 on an
// unknown flag or a missing file argument (with the usage line) or an
// unwritable trace file.

#include <atomic>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include <coral/coral.h>

namespace {

constexpr const char* kUsage =
    "usage: coral_prof [--query='p(X)'] [--trace=FILE.jsonl]"
    " [--deadline-ms=N] [--max-inflight=N]"
    " [--plan] [--bytecode] [--verify]"
    " [--no-auto-optimize] [--no-vm] file.crl ...\n";

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> files;
  std::vector<std::string> queries;
  std::string trace_path;
  long long deadline_ms = 0;
  int max_inflight = 1;
  bool plan = false;
  bool bytecode = false;
  bool verify = false;
  bool auto_optimize = true;
  bool use_vm = true;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--query=", 0) == 0) {
      queries.push_back(arg.substr(8));
    } else if (arg.rfind("--trace=", 0) == 0) {
      trace_path = arg.substr(8);
    } else if (arg.rfind("--deadline-ms=", 0) == 0) {
      deadline_ms = std::atoll(arg.c_str() + 14);
    } else if (arg.rfind("--max-inflight=", 0) == 0) {
      max_inflight = std::atoi(arg.c_str() + 15);
    } else if (arg == "--plan") {
      plan = true;
    } else if (arg == "--bytecode") {
      bytecode = true;
    } else if (arg == "--verify") {
      verify = true;
    } else if (arg == "--no-auto-optimize") {
      auto_optimize = false;
    } else if (arg == "--no-vm") {
      use_vm = false;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << kUsage;
      return 0;
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "coral_prof: unknown flag " << arg << "\n" << kUsage;
      return 2;
    } else {
      files.push_back(std::move(arg));
    }
  }
  if (files.empty()) {
    std::cerr << kUsage;
    return 2;
  }

  coral::Database db;
  db.set_profiling(true);
  db.set_auto_optimize(auto_optimize);
  db.set_use_vm(use_vm);

  std::ofstream trace_out;
  std::unique_ptr<coral::obs::JsonlTraceSink> sink;
  if (!trace_path.empty()) {
    trace_out.open(trace_path);
    if (!trace_out) {
      std::cerr << "coral_prof: cannot open " << trace_path << "\n";
      return 2;
    }
    sink = std::make_unique<coral::obs::JsonlTraceSink>(&trace_out);
    db.set_trace_sink(sink.get());
  }

  int failed = 0;
  for (const std::string& file : files) {
    // Run executes the queries the file contains; declarations load as
    // with consult.
    std::ifstream in(file);
    if (!in) {
      std::cerr << file << ": error: cannot open file\n";
      failed = 1;
      continue;
    }
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    auto out = db.Run(text);
    if (!out.ok()) {
      std::cerr << file << ": error: " << out.status().ToString() << "\n";
      failed = 1;
      continue;
    }
    std::cout << *out;
  }
  if (max_inflight > 1 && queries.size() > 1) {
    // Server-style execution: N sessions over the shared database, each
    // with the deadline, draining the query list concurrently.
    std::vector<std::thread> sessions;
    coral::Mutex out_mu;
    std::atomic<size_t> next{0};
    std::atomic<int> query_failed{0};
    sessions.reserve(static_cast<size_t>(max_inflight));
    for (int w = 0; w < max_inflight; ++w) {
      sessions.emplace_back([&] {
        coral::Session session(&db, deadline_ms);
        while (true) {
          size_t i = next.fetch_add(1);
          if (i >= queries.size()) return;
          auto res = session.EvalQuery(queries[i]);
          coral::MutexLock lock(&out_mu);
          if (!res.ok()) {
            std::cerr << "query '" << queries[i]
                      << "': " << res.status().ToString() << "\n";
            query_failed.store(1);
          } else {
            std::cout << res->ToString();
          }
        }
      });
    }
    for (std::thread& t : sessions) t.join();
    if (query_failed.load() != 0) failed = 1;
  } else if (!queries.empty()) {
    coral::Session session(&db, deadline_ms);
    for (const std::string& q : queries) {
      auto res = session.EvalQuery(q);
      if (!res.ok()) {
        std::cerr << "query '" << q << "': " << res.status().ToString()
                  << "\n";
        failed = 1;
        continue;
      }
      std::cout << res->ToString();
    }
  }

  db.set_trace_sink(nullptr);
  std::cout << "\n" << db.ProfileReport();
  if (plan) {
    std::cout << "\n=== optimizer plans ===\n" << db.PlanReport();
  }
  if (bytecode) {
    // The bytecode listing rides in the plan report (one section per
    // compiled form); print it plus the per-opcode execution counters.
    if (!plan) {
      std::cout << "\n=== optimizer plans (with bytecode) ===\n"
                << db.PlanReport();
    }
    std::cout << "\n" << coral::obs::RenderVmCounters(*db.vm_counters());
  }
  if (verify) {
    // Per-form bytecode verifier verdicts: why each rule version runs
    // compiled or interpreted (docs/VM.md "Verification"), plus the
    // verifier counters.
    std::cout << "\n" << db.BytecodeVerifierReport();
    if (!bytecode) {
      std::cout << "\n" << coral::obs::RenderVmCounters(*db.vm_counters());
    }
  }
  if (sink != nullptr) {
    std::cout << "trace written to " << trace_path << "\n";
  }
  return failed;
}
