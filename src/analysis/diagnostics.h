// Copyright (c) 1993-style CORAL reproduction authors.
// Compile-time diagnostics (paper §4, §9): the front end checks programs
// before rewriting/evaluation and reports violations with source
// positions, instead of failing deep inside the rewriter or mid-fixpoint.
// Every semantic check — rule safety, builtin binding modes, arity
// consistency, dead code, annotation validation, stratification — reports
// through this one channel; severity decides whether module loading is
// refused (errors) or merely annotated (warnings, promoted to errors
// under strict mode).

#ifndef CORAL_ANALYSIS_DIAGNOSTICS_H_
#define CORAL_ANALYSIS_DIAGNOSTICS_H_

#include <string>
#include <vector>

#include "src/lang/ast.h"

namespace coral {

enum class DiagSeverity { kError, kWarning, kNote };

const char* DiagSeverityName(DiagSeverity s);

/// Diagnostic codes, stable identifiers for tests, docs and tooling.
/// See docs/LANGUAGE.md "Diagnostics & program checks" for the catalog.
namespace diag {
inline constexpr const char* kUnsafeHeadVar = "CRL101";
inline constexpr const char* kUnboundNegationVar = "CRL102";
inline constexpr const char* kUnboundBuiltinArg = "CRL103";
inline constexpr const char* kBoundTooLate = "CRL104";
inline constexpr const char* kBuiltinMode = "CRL105";
inline constexpr const char* kArityConflict = "CRL110";
inline constexpr const char* kExportUndefined = "CRL111";
inline constexpr const char* kExportArityMismatch = "CRL112";
inline constexpr const char* kDeadPredicate = "CRL120";
inline constexpr const char* kSingletonVar = "CRL121";
inline constexpr const char* kAnnotationConflict = "CRL130";
inline constexpr const char* kAnnotationIgnored = "CRL131";
inline constexpr const char* kAnnotationTarget = "CRL132";
// CRL133 is retired (it checked @parallel(N) thread counts); not reused.
inline constexpr const char* kProfilePipelined = "CRL134";
inline constexpr const char* kIndexArity = "CRL135";
inline constexpr const char* kDuplicateIndex = "CRL136";
inline constexpr const char* kIndexAutoCovered = "CRL137";
inline constexpr const char* kNotStratified = "CRL140";
// CRL2xx: abstract-interpretation findings (src/analysis/absint.*).
inline constexpr const char* kTypeConflictEmpty = "CRL201";
inline constexpr const char* kUnindexableProbe = "CRL202";
inline constexpr const char* kInfiniteDomain = "CRL203";
}  // namespace diag

/// One finding: severity, stable code, human message, and where it is —
/// predicate, rule index within the module, and the source line/col
/// propagated from lexer tokens through the AST.
struct Diagnostic {
  DiagSeverity severity = DiagSeverity::kError;
  const char* code = "";     // "CRL101", ... (static storage)
  std::string message;
  std::string module_name;   // may be empty (top-level)
  std::string pred;          // "p/2" or empty
  int rule_index = -1;       // index into ModuleDecl::rules, -1 if n/a
  SourceLoc loc;

  /// "line 12:3: error: head variable 'Y' ... [CRL101]" — one line,
  /// grep- and editor-friendly.
  std::string ToString() const;

  /// One JSON object on one line: {"code":...,"severity":...,"file":...,
  /// "line":...,"col":...,"module":...,"pred":...,"message":...}. The
  /// file name comes from the caller (the AST records only line/col).
  std::string ToJson(const std::string& file) const;
};

/// An ordered collection of diagnostics from one analysis run.
class DiagnosticList {
 public:
  void Add(Diagnostic d) { items_.push_back(std::move(d)); }
  void Append(const DiagnosticList& other);

  bool empty() const { return items_.empty(); }
  size_t size() const { return items_.size(); }
  const std::vector<Diagnostic>& items() const { return items_; }

  size_t error_count() const;
  size_t warning_count() const;

  /// True if loading should be refused: any error, or any warning when
  /// `strict` (warnings-as-errors) is on.
  bool ShouldReject(bool strict) const;

  /// True if some diagnostic carries `code`.
  bool Has(const char* code) const;

  /// All diagnostics, one per line, in source order.
  std::string ToString() const;

  /// Only the rejecting diagnostics (errors; plus warnings when strict),
  /// one per line — the payload of the Status returned on module load.
  std::string RejectionText(bool strict) const;

  /// Orders by (line, col), keeping relative order of unlocated items.
  void SortBySource();

  /// Deterministic rendering order regardless of analysis traversal:
  /// sorts by (line, col, code, pred, message) and drops duplicates with
  /// equal (code, line, col, pred) — checks that run once per adornment
  /// or rewrite variant otherwise repeat findings in traversal order.
  void Normalize();

  /// One JSON object per line, in current order (see Diagnostic::ToJson).
  std::string ToJsonLines(const std::string& file) const;

 private:
  std::vector<Diagnostic> items_;
};

}  // namespace coral

#endif  // CORAL_ANALYSIS_DIAGNOSTICS_H_
