// Copyright (c) 1993-style CORAL reproduction authors.
// The join bytecode executor: a nested-loops join over the Levels of a
// RuleProgram with a flat register file of canonical ground Args. No
// BindEnv, no trail, no unification on the hot path — every match is a
// pointer comparison (docs/VM.md). The interpreter remains the oracle:
// any tuple the VM cannot handle (non-ground stored facts) aborts the
// application and the caller re-runs it interpreted.

#ifndef CORAL_VM_VM_H_
#define CORAL_VM_VM_H_

#include <cstdint>
#include <span>
#include <utility>

#include "src/data/term_factory.h"
#include "src/rel/hash_relation.h"
#include "src/rel/relation.h"
#include "src/vm/bytecode.h"

namespace coral::vm {

/// Per-opcode execution counts for one run; the caller folds them into
/// the Database-wide obs::VmCounters once per rule application.
struct OpCounts {
  uint64_t scan_full = 0;
  uint64_t scan_delta = 0;
  uint64_t probe_index = 0;
  uint64_t probe_scan_fallbacks = 0;
  uint64_t unify_arg = 0;
  uint64_t test_builtin = 0;
  uint64_t project = 0;
  uint64_t insert = 0;
};

/// Receives derived head tuples; Emit inserts and returns whether the
/// relation changed.
class TupleSink {
 public:
  virtual ~TupleSink() = default;
  virtual bool Emit(const Tuple* t) = 0;
};

enum class RunResult {
  kOk,
  /// A stored candidate tuple was non-ground (or a storage scan failed):
  /// the caller must re-run this rule application through the
  /// interpreter. Tuples already emitted stay — head relations accepted
  /// by the compiler are duplicate-eliminating, so the re-run is
  /// idempotent.
  kFallback,
};

struct RunInput {
  const RuleProgram* prog = nullptr;
  /// Bound relations, one per prog->levels entry, in level order.
  std::span<Relation* const> rels;
  /// Probe targets per level; a null entry always scans.
  std::span<HashRelation* const> hash_rels;
  /// [from, to) mark windows per *body literal*, indexed by Level::lit.
  /// The driver computes these (BSN/PSN/naive all differ only here).
  std::span<const std::pair<Mark, Mark>> windows;
  TermFactory* factory = nullptr;
};

struct RunStats {
  uint64_t solutions = 0;  // full body matches (PROJECT executions)
  uint64_t tuples = 0;     // candidate tuples examined across all levels
  bool changed = false;    // any Emit returned true
  OpCounts ops;
};

RunResult Execute(const RunInput& in, TupleSink* sink, RunStats* out);

}  // namespace coral::vm

#endif  // CORAL_VM_VM_H_
