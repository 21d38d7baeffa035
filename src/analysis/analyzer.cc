#include "src/analysis/analyzer.h"

#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/analysis/absint.h"

namespace coral {

namespace analysis {

bool IsBuiltinLiteral(const Literal& lit, const AnalyzerOptions& opts,
                      const DepGraph& graph) {
  if (graph.IsDerived(lit.pred_ref())) return false;
  if (IsOperatorSymbol(lit.pred)) return true;
  return opts.is_builtin != nullptr &&
         opts.is_builtin(lit.pred->name,
                         static_cast<uint32_t>(lit.args.size()));
}

namespace {

/// Export validity (CRL111, CRL112): each exported query form must name a
/// predicate defined in the module, with an adornment whose length is the
/// predicate's arity. These were CORAL's original load-time errors; they
/// now flow through the common diagnostics channel.
void CheckExports(const ModuleDecl& mod, DiagnosticList* out) {
  for (const QueryFormDecl& form : mod.exports) {
    bool defined = false;
    for (const Rule& r : mod.rules) {
      if (r.head.pred != form.pred) continue;
      defined = true;
      if (r.head.args.size() != form.adornment.size()) {
        Diagnostic d;
        d.severity = DiagSeverity::kError;
        d.code = diag::kExportArityMismatch;
        d.module_name = mod.name;
        d.pred = r.head.pred_ref().ToString();
        d.loc = form.loc.valid() ? form.loc : mod.loc;
        d.message = "export adornment '" + form.adornment +
                    "' does not match arity of " +
                    r.head.pred_ref().ToString();
        out->Add(std::move(d));
        break;
      }
    }
    if (!defined) {
      Diagnostic d;
      d.severity = DiagSeverity::kError;
      d.code = diag::kExportUndefined;
      d.module_name = mod.name;
      d.pred = form.pred->name;
      d.loc = form.loc.valid() ? form.loc : mod.loc;
      d.message =
          "exports undefined predicate '" + form.pred->name + "'";
      out->Add(std::move(d));
    }
  }
}

/// Arity consistency (CRL110): the same predicate name used with several
/// arities almost always indicates a typo'd argument list. Distinct
/// arities are distinct predicates, so this is a warning, not an error.
void CheckArities(const ModuleDecl& mod, const AnalyzerOptions& opts,
                  const DepGraph& graph, DiagnosticList* out) {
  struct Use {
    std::set<uint32_t> arities;
    SourceLoc first_loc;
  };
  std::map<std::string, Use> uses;
  auto record = [&](const Literal& lit) {
    if (IsBuiltinLiteral(lit, opts, graph)) return;
    Use& u = uses[lit.pred->name];
    u.arities.insert(static_cast<uint32_t>(lit.args.size()));
    if (!u.first_loc.valid()) u.first_loc = lit.loc;
  };
  for (const Rule& r : mod.rules) {
    record(r.head);
    for (const Literal& lit : r.body) record(lit);
  }
  for (const QueryFormDecl& form : mod.exports) {
    auto it = uses.find(form.pred->name);
    if (it != uses.end()) {
      it->second.arities.insert(
          static_cast<uint32_t>(form.adornment.size()));
    }
  }
  for (const auto& [name, use] : uses) {
    if (use.arities.size() < 2) continue;
    std::string list;
    for (uint32_t a : use.arities) {
      if (!list.empty()) list += ", ";
      list += std::to_string(a);
    }
    Diagnostic d;
    d.severity = DiagSeverity::kWarning;
    d.code = diag::kArityConflict;
    d.module_name = mod.name;
    d.pred = name;
    d.loc = use.first_loc;
    d.message = "predicate '" + name + "' is used with arities " + list +
                "; these are distinct predicates";
    out->Add(std::move(d));
  }
}

/// Which annotation family a flag-style annotation belongs to; members of
/// one family overwrite each other in the parsed ModuleDecl.
const char* FamilyOf(const std::string& name, std::string* value) {
  if (name == "pipelining" || name == "materialized" ||
      name == "materialization") {
    *value = name == "pipelining" ? "pipelined" : "materialized";
    return "evaluation mode";
  }
  if (name == "naive" || name == "bsn" || name == "basic_seminaive" ||
      name == "psn" || name == "predicate_seminaive") {
    *value = name == "naive" ? "naive"
             : (name == "psn" || name == "predicate_seminaive")
                 ? "psn"
                 : "bsn";
    return "fixpoint";
  }
  if (name == "no_rewriting" || name == "magic" ||
      name == "supplementary_magic" || name == "sup_magic" ||
      name == "factoring" || name == "context_factoring") {
    *value = name == "no_rewriting" ? "none"
             : name == "magic"      ? "magic"
             : (name == "factoring" || name == "context_factoring")
                 ? "factoring"
                 : "sup_magic";
    return "rewriting";
  }
  return nullptr;
}

SourceLoc AnnotationLoc(const ModuleDecl& mod, const std::string& name) {
  for (const AnnotationUse& a : mod.annotations) {
    if (a.name == name) return a.loc;
  }
  return mod.loc;
}

/// Annotation validation (CRL130-CRL132). Contradictory combinations that
/// the rewriter would reject at first query become load-time errors;
/// same-family annotations overriding earlier ones, and declarations
/// targeting predicates the module never mentions, are warnings.
void CheckAnnotations(const ModuleDecl& mod, DiagnosticList* out) {
  // CRL130: combinations with no valid compilation.
  if (mod.ordered_search && mod.rewrite == RewriteKind::kNone) {
    Diagnostic d;
    d.severity = DiagSeverity::kError;
    d.code = diag::kAnnotationConflict;
    d.module_name = mod.name;
    d.loc = AnnotationLoc(mod, "ordered_search");
    d.message =
        "@ordered_search requires a magic rewriting (paper §5.4.1); "
        "remove @no_rewriting";
    out->Add(std::move(d));
  }
  if (mod.reorder_joins && mod.no_reorder_joins) {
    Diagnostic d;
    d.severity = DiagSeverity::kWarning;
    d.code = diag::kAnnotationConflict;
    d.module_name = mod.name;
    d.loc = AnnotationLoc(mod, "no_reorder_joins");
    d.message =
        "@reorder_joins conflicts with @no_reorder_joins; join "
        "reordering stays off for this module";
    out->Add(std::move(d));
  }
  // CRL134: @profile on a pipelined module records only rule activation
  // and answer counts (no fixpoint, delta, or iteration statistics).
  if (mod.profile && mod.eval_mode == EvalMode::kPipelined) {
    Diagnostic d;
    d.severity = DiagSeverity::kWarning;
    d.code = diag::kProfilePipelined;
    d.module_name = mod.name;
    d.loc = AnnotationLoc(mod, "profile");
    d.message =
        "@profile on a @pipelining module records rule activations and "
        "answers only; fixpoint iteration statistics are not collected";
    out->Add(std::move(d));
  }
  if (mod.rewrite == RewriteKind::kFactoring && mod.save_module) {
    Diagnostic d;
    d.severity = DiagSeverity::kError;
    d.code = diag::kAnnotationConflict;
    d.module_name = mod.name;
    d.loc = AnnotationLoc(mod, "save_module");
    d.message =
        "@factoring is incompatible with @save_module: factored answers "
        "are only attributable to a single seed per call";
    out->Add(std::move(d));
  }

  // CRL131: a later same-family annotation silently overrides an earlier
  // one (last writer wins in the parser).
  struct Last {
    std::string name;
    std::string value;
    SourceLoc loc;
  };
  std::map<std::string, Last> last_of_family;
  for (const AnnotationUse& a : mod.annotations) {
    std::string value;
    const char* family = FamilyOf(a.name, &value);
    if (family == nullptr) continue;
    auto it = last_of_family.find(family);
    if (it != last_of_family.end()) {
      Diagnostic d;
      d.severity = DiagSeverity::kWarning;
      d.code = diag::kAnnotationIgnored;
      d.module_name = mod.name;
      d.loc = it->second.loc;
      d.message =
          it->second.value == value
              ? "duplicate " + std::string(family) + " annotation @" +
                    a.name
              : "@" + it->second.name + " is overridden by the later @" +
                    a.name + " (" + family + " annotations pick one " +
                    "strategy; the last wins)";
      out->Add(std::move(d));
    }
    last_of_family[family] = Last{a.name, value, a.loc};
  }

  // CRL132: declarations that name a predicate the module never mentions.
  std::set<std::string> mentioned;
  for (const Rule& r : mod.rules) {
    mentioned.insert(r.head.pred->name);
    for (const Literal& lit : r.body) mentioned.insert(lit.pred->name);
  }
  auto check_target = [&](Symbol pred, const SourceLoc& loc,
                          const std::string& which) {
    if (pred == nullptr || mentioned.count(pred->name) > 0) return;
    Diagnostic d;
    d.severity = DiagSeverity::kWarning;
    d.code = diag::kAnnotationTarget;
    d.module_name = mod.name;
    d.pred = pred->name;
    d.loc = loc.valid() ? loc : mod.loc;
    d.message = which + " targets predicate '" + pred->name +
                "', which no rule in this module mentions";
    out->Add(std::move(d));
  };
  for (Symbol pred : mod.multiset_preds) {
    check_target(pred, AnnotationLoc(mod, "multiset"), "@multiset");
  }
  for (const AggSelDecl& decl : mod.agg_selections) {
    check_target(decl.pred, decl.loc, "@aggregate_selection");
  }
  for (const IndexDecl& decl : mod.indexes) {
    check_target(decl.pred, decl.loc, "@make_index");
  }
}

/// Stratification (CRL140). Reported as a warning, not an error: magic
/// rewriting can both break stratification (the rewriter then protects
/// the affected predicates) and leave it intact, and @ordered_search
/// handles modularly stratified programs — the rewriter keeps the
/// authoritative query-time error. Pipelined modules evaluate negation
/// top-down and are exempt.
void CheckStratification(const ModuleDecl& mod, const DepGraph& graph,
                         DiagnosticList* out) {
  if (mod.eval_mode != EvalMode::kMaterialized) return;
  if (mod.ordered_search) return;
  if (graph.stratified()) return;
  Diagnostic d;
  d.severity = DiagSeverity::kWarning;
  d.code = diag::kNotStratified;
  d.module_name = mod.name;
  d.loc = mod.loc;
  d.message = "module is not stratified (" + graph.violation() +
              "); if magic rewriting cannot isolate the offending "
              "predicates, queries will fail — consider @ordered_search";
  out->Add(std::move(d));
}

}  // namespace

}  // namespace analysis

DiagnosticList AnalyzeModule(const ModuleDecl& mod,
                             const AnalyzerOptions& opts) {
  DiagnosticList out;
  DepGraph graph = DepGraph::Build(mod.rules);
  analysis::CheckExports(mod, &out);
  analysis::CheckArities(mod, opts, graph, &out);
  analysis::CheckAnnotations(mod, &out);
  analysis::CheckStratification(mod, graph, &out);
  analysis::CheckSafety(mod, opts, graph, &out);
  analysis::CheckDeadCode(mod, opts, graph, &out);
  absint::CheckAbstractDomains(mod, opts, graph, &out);
  absint::CheckIndexDecls(mod, opts, graph, &out);
  out.Normalize();
  return out;
}

DiagnosticList AnalyzeProgram(const Program& prog,
                              const AnalyzerOptions& opts) {
  DiagnosticList out;
  for (const ModuleDecl& mod : prog.modules) {
    out.Append(AnalyzeModule(mod, opts));
  }
  return out;
}

}  // namespace coral
