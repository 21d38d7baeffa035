// Per-layer measurement helpers: snapshots of the counters the engine
// already exposes (obs::VmCounters, MaintenanceCounters, ModuleProfile,
// TermFactory sizes), timed calls into Parser and Database::PlanListing,
// and the fixed catalogue of per-layer metric names every traced run
// prints (a layer a workload bypasses reports 0).

#ifndef E2EBENCH_LAYERS_H_
#define E2EBENCH_LAYERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include <coral/coral.h>

#include "harness.h"

namespace e2e {

/// Sets every per-layer metric to 0 with its unit; workloads overwrite
/// the ones they measure.
void InitLayerMetrics(Result* r);

struct VmSnapshot {
  uint64_t applications = 0, runtime_fallbacks = 0, probe_scan_fallbacks = 0,
           programs_verified = 0, verifier_rejected = 0, compile_skips = 0,
           bind_fallbacks = 0, scan_full = 0, probe_index = 0;
  static VmSnapshot Of(const coral::obs::VmCounters& c);
  VmSnapshot Minus(const VmSnapshot& before) const;
  VmSnapshot Plus(const VmSnapshot& other) const;
};

struct MaintSnapshot {
  uint64_t maintained = 0, invalidated = 0, derived_inserted = 0,
           derived_deleted = 0, rederived = 0;
  static MaintSnapshot Of(const coral::obs::MaintenanceCounters& c);
  MaintSnapshot Minus(const MaintSnapshot& before) const;
  MaintSnapshot Plus(const MaintSnapshot& other) const;
};

/// ModuleProfile totals over every profiled module.
struct ProfileTotals {
  uint64_t iterations = 0, solutions = 0, derived = 0, inserted = 0,
           probes = 0;
  std::vector<double> iteration_ms;
  static ProfileTotals Of(const coral::obs::StatsRegistry& stats);
};

/// Reports the VM counters: compile-time outcomes from `compile` (a twin
/// database that compiled every form once), run-time counts from `run`
/// divided by `ops`.
void ReportVm(Result* r, const VmSnapshot& compile, const VmSnapshot& run,
              double ops);
/// Reports core.* and rel.examined_per_answer from profiling totals of
/// `ops` operations that returned `answer_rows` rows.
void ReportProfile(Result* r, const ProfileTotals& p, double ops,
                   uint64_t answer_rows);
/// Reports `bytes` of term arena grown over `ops` ops, and the hash-cons
/// table size.
void ReportArena(Result* r, coral::Database* db, uint64_t bytes,
                 double ops);
void ReportMaintenance(Result* r, const MaintSnapshot& m, double ops);

/// Parser::ParseProgram on `text`; returns its wall time in ns (<0 on a
/// parse error).
int64_t TimedParse(const std::string& text, coral::TermFactory* factory);

/// One exported query form, as Database::PlanListing names it.
struct Form {
  std::string module, pred, adornment;
};

/// Reports the set-up layers: lang.load_parse_s (Parser on `program`,
/// into a fresh TermFactory) and rewrite.form_compile_ms (first-use
/// compile: `program` loaded into a fresh twin database, then
/// Database::PlanListing — rewrite, absint planning, VM compile and
/// verify — timed for each form). Returns the twin's VM counters after
/// the compiles.
VmSnapshot ReportSetupLayers(Result* r, const std::string& program,
                             const std::vector<Form>& forms);

/// Reports the span-timed layers of the traced segment: median per op of
/// lang.parse, core.eval and ivm.apply.
void ReportSpanLayers(Result* r);

/// The text of binding `var` in `row`, or "".
std::string Binding(const coral::AnswerRow& row, const std::string& var);

/// Parses the integer suffix of an atom like "v123" after `prefix`;
/// -1 when it does not match.
int64_t AtomIndex(const std::string& atom, const std::string& prefix);

}  // namespace e2e

#endif  // E2EBENCH_LAYERS_H_
