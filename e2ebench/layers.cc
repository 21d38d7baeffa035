#include "layers.h"

#include <utility>

#include "src/lang/parser.h"

namespace e2e {

namespace {

uint64_t Load(const std::atomic<uint64_t>& a) {
  return a.load(std::memory_order_relaxed);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

void InitLayerMetrics(Result* r) {
  static const std::pair<const char*, const char*> kCatalogue[] = {
      // Step latencies of the workload, from the untraced segment.
      {"op_p50_ms", "ms"},
      {"qps", "1/s"},
      {"query_p50_ms", "ms"},
      {"query_p99_ms", "ms"},
      {"commit_p50_ms", "ms"},
      {"commit_p99_ms", "ms"},
      {"read_p50_ms", "ms"},
      {"tc_ms", "ms"},
      {"sp_ms", "ms"},
      {"strat_ms", "ms"},
      {"error_rate", "ratio"},
      {"trace.overhead_pct", "%"},
      // Layers.
      {"lang.parse_us_per_op", "us"},
      {"lang.load_parse_s", "s"},
      {"rewrite.form_compile_ms", "ms"},
      {"vm.compile_skips", "count"},
      {"vm.programs_verified", "count"},
      {"vm.verifier_rejected", "count"},
      {"vm.bind_fallbacks", "count/op"},
      {"vm.applications", "count/op"},
      {"vm.runtime_fallbacks", "count/op"},
      {"vm.probe_index", "count/op"},
      {"vm.probe_scan_fallbacks", "count/op"},
      {"vm.scan_full", "count/op"},
      {"vm.probe_hit_ratio", "ratio"},
      {"core.eval_ms", "ms"},
      {"core.iterations", "count/op"},
      {"core.solutions", "count/op"},
      {"core.derived", "count/op"},
      {"core.inserted", "count/op"},
      {"core.dup_ratio", "ratio"},
      {"core.iter_p50_ms", "ms"},
      {"rel.examined_per_answer", "ratio"},
      {"data.arena_bytes_per_op", "B/op"},
      {"data.hashcons_entries", "count"},
      {"ivm.apply_ms", "ms"},
      {"ivm.maintained", "count"},
      {"ivm.invalidated", "count"},
      {"ivm.derived_inserted", "count/op"},
      {"ivm.derived_deleted", "count/op"},
      {"ivm.rederived", "count/op"},
      {"ivm.rederive_ratio", "ratio"},
      {"server.self_ms", "ms"},
      {"server.shed", "count"},
      {"server.errors", "count"},
      {"server.timeouts", "count"},
      {"server.eval_p50_ms", "ms"},
  };
  for (const auto& [name, unit] : kCatalogue) r->Set(name, 0, unit);
}

VmSnapshot VmSnapshot::Of(const coral::obs::VmCounters& c) {
  VmSnapshot s;
  s.applications = Load(c.applications);
  s.runtime_fallbacks = Load(c.runtime_fallbacks);
  s.probe_scan_fallbacks = Load(c.probe_scan_fallbacks);
  s.programs_verified = Load(c.programs_verified);
  s.verifier_rejected = Load(c.verifier_rejected);
  s.compile_skips = Load(c.compile_skips);
  s.bind_fallbacks = Load(c.bind_fallbacks);
  s.scan_full = Load(c.scan_full);
  s.probe_index = Load(c.probe_index);
  return s;
}

namespace {

VmSnapshot Combine(const VmSnapshot& a, const VmSnapshot& b, int sign) {
  auto f = [sign](uint64_t x, uint64_t y) {
    return sign > 0 ? x + y : x - y;
  };
  VmSnapshot s;
  s.applications = f(a.applications, b.applications);
  s.runtime_fallbacks = f(a.runtime_fallbacks, b.runtime_fallbacks);
  s.probe_scan_fallbacks = f(a.probe_scan_fallbacks, b.probe_scan_fallbacks);
  s.programs_verified = f(a.programs_verified, b.programs_verified);
  s.verifier_rejected = f(a.verifier_rejected, b.verifier_rejected);
  s.compile_skips = f(a.compile_skips, b.compile_skips);
  s.bind_fallbacks = f(a.bind_fallbacks, b.bind_fallbacks);
  s.scan_full = f(a.scan_full, b.scan_full);
  s.probe_index = f(a.probe_index, b.probe_index);
  return s;
}

}  // namespace

VmSnapshot VmSnapshot::Minus(const VmSnapshot& b) const {
  return Combine(*this, b, -1);
}

VmSnapshot VmSnapshot::Plus(const VmSnapshot& b) const {
  return Combine(*this, b, +1);
}

MaintSnapshot MaintSnapshot::Of(const coral::obs::MaintenanceCounters& c) {
  MaintSnapshot s;
  s.maintained = Load(c.maintained);
  s.invalidated = Load(c.invalidated);
  s.derived_inserted = Load(c.derived_inserted);
  s.derived_deleted = Load(c.derived_deleted);
  s.rederived = Load(c.rederived);
  return s;
}

MaintSnapshot MaintSnapshot::Minus(const MaintSnapshot& b) const {
  MaintSnapshot s;
  s.maintained = maintained - b.maintained;
  s.invalidated = invalidated - b.invalidated;
  s.derived_inserted = derived_inserted - b.derived_inserted;
  s.derived_deleted = derived_deleted - b.derived_deleted;
  s.rederived = rederived - b.rederived;
  return s;
}

MaintSnapshot MaintSnapshot::Plus(const MaintSnapshot& b) const {
  MaintSnapshot s;
  s.maintained = maintained + b.maintained;
  s.invalidated = invalidated + b.invalidated;
  s.derived_inserted = derived_inserted + b.derived_inserted;
  s.derived_deleted = derived_deleted + b.derived_deleted;
  s.rederived = rederived + b.rederived;
  return s;
}

ProfileTotals ProfileTotals::Of(const coral::obs::StatsRegistry& stats) {
  ProfileTotals t;
  for (const coral::obs::ModuleProfile* p : stats.profiles()) {
    t.iterations += p->total_iterations();
    t.solutions += p->total_solutions();
    t.derived += p->total_derived();
    t.inserted += p->total_inserted();
    for (size_t i = 0; i < p->rule_count(); ++i) {
      t.probes += Load(p->rule(i).probes);
    }
    for (const coral::obs::IterationStats& it : p->iterations()) {
      t.iteration_ms.push_back(NsToMs(static_cast<int64_t>(it.wall_ns)));
    }
  }
  return t;
}

void ReportVm(Result* r, const VmSnapshot& compile, const VmSnapshot& run,
              double ops) {
  r->Set("vm.compile_skips", static_cast<double>(compile.compile_skips),
         "count");
  r->Set("vm.programs_verified",
         static_cast<double>(compile.programs_verified), "count");
  r->Set("vm.verifier_rejected",
         static_cast<double>(compile.verifier_rejected), "count");
  auto per_op = [&](uint64_t v) { return Ratio(static_cast<double>(v), ops); };
  r->Set("vm.bind_fallbacks", per_op(run.bind_fallbacks), "count/op");
  r->Set("vm.applications", per_op(run.applications), "count/op");
  r->Set("vm.runtime_fallbacks", per_op(run.runtime_fallbacks), "count/op");
  r->Set("vm.probe_index", per_op(run.probe_index), "count/op");
  r->Set("vm.probe_scan_fallbacks", per_op(run.probe_scan_fallbacks),
         "count/op");
  r->Set("vm.scan_full", per_op(run.scan_full), "count/op");
  r->Set("vm.probe_hit_ratio",
         Ratio(static_cast<double>(run.probe_index),
               static_cast<double>(run.probe_index + run.probe_scan_fallbacks)),
         "ratio");
}

void ReportProfile(Result* r, const ProfileTotals& p, double ops,
                   uint64_t answer_rows) {
  auto per_op = [&](uint64_t v) { return Ratio(static_cast<double>(v), ops); };
  r->Set("core.iterations", per_op(p.iterations), "count/op");
  r->Set("core.solutions", per_op(p.solutions), "count/op");
  r->Set("core.derived", per_op(p.derived), "count/op");
  r->Set("core.inserted", per_op(p.inserted), "count/op");
  r->Set("core.dup_ratio",
         Ratio(static_cast<double>(p.inserted), static_cast<double>(p.derived)),
         "ratio");
  r->Set("core.iter_p50_ms", Median(p.iteration_ms), "ms");
  r->Set("rel.examined_per_answer",
         Ratio(static_cast<double>(p.probes), static_cast<double>(answer_rows)),
         "ratio");
}

void ReportArena(Result* r, coral::Database* db, uint64_t bytes,
                 double ops) {
  r->Set("data.arena_bytes_per_op", Ratio(static_cast<double>(bytes), ops),
         "B/op");
  r->Set("data.hashcons_entries",
         static_cast<double>(db->factory()->hashcons_size()), "count");
}

void ReportMaintenance(Result* r, const MaintSnapshot& m, double ops) {
  auto per_op = [&](uint64_t v) { return Ratio(static_cast<double>(v), ops); };
  r->Set("ivm.maintained", static_cast<double>(m.maintained), "count");
  r->Set("ivm.invalidated", static_cast<double>(m.invalidated), "count");
  r->Set("ivm.derived_inserted", per_op(m.derived_inserted), "count/op");
  r->Set("ivm.derived_deleted", per_op(m.derived_deleted), "count/op");
  r->Set("ivm.rederived", per_op(m.rederived), "count/op");
  r->Set("ivm.rederive_ratio",
         Ratio(static_cast<double>(m.rederived),
               static_cast<double>(m.derived_deleted)),
         "ratio");
}

int64_t TimedParse(const std::string& text, coral::TermFactory* factory) {
  ScopedSpan span("lang.parse");
  int64_t start = NowNs();
  coral::Parser parser(text, factory);
  auto prog = parser.ParseProgram();
  int64_t elapsed = NowNs() - start;
  return prog.ok() ? elapsed : -1;
}

VmSnapshot ReportSetupLayers(Result* r, const std::string& program,
                             const std::vector<Form>& forms) {
  coral::TermFactory fresh;
  r->Set("lang.load_parse_s",
         static_cast<double>(TimedParse(program, &fresh)) / 1e9, "s");
  coral::Database twin;
  if (!twin.Consult(program).ok()) return {};
  int64_t total = 0;
  for (const Form& f : forms) {
    int64_t start = NowNs();
    auto listing = twin.PlanListing(f.module, f.pred, f.adornment);
    total += NowNs() - start;
    if (!listing.ok()) return {};
  }
  r->Set("rewrite.form_compile_ms", NsToMs(total), "ms");
  return VmSnapshot::Of(*twin.vm_counters());
}

void ReportSpanLayers(Result* r) {
  auto spans = SummarizeSpans(Tracer::Get().Collect());
  r->Set("lang.parse_us_per_op", spans["lang.parse"].total_ms_p50 * 1e3,
         "us");
  r->Set("core.eval_ms", spans["core.eval"].total_ms_p50, "ms");
  r->Set("ivm.apply_ms", spans["ivm.apply"].total_ms_p50, "ms");
}

std::string Binding(const coral::AnswerRow& row, const std::string& var) {
  for (const auto& [name, arg] : row.bindings) {
    if (name == var) return arg->ToString();
  }
  return "";
}

int64_t AtomIndex(const std::string& atom, const std::string& prefix) {
  if (atom.size() <= prefix.size() || atom.compare(0, prefix.size(), prefix))
    return -1;
  int64_t v = 0;
  for (size_t i = prefix.size(); i < atom.size(); ++i) {
    if (atom[i] < '0' || atom[i] > '9') return -1;
    v = v * 10 + (atom[i] - '0');
  }
  return v;
}

}  // namespace e2e
