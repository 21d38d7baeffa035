// Copyright (c) 1993-style CORAL reproduction authors.
// Evaluation statistics (paper §6, §8: the profiling mode users tune
// recursive programs with; LDL++ and Brass/Stephan credit rule-level
// application counts and delta sizes as the primary cost signal).
//
// A StatsRegistry is owned by the Database and keyed by module name, so
// counts aggregate across activations (a non-save module creates a fresh
// MaterializedInstance per call). The evaluation engines hold a raw
// ModuleProfile* that is nullptr unless profiling is on — every hook is
// a single pointer test when disabled. Counters are relaxed atomics:
// concurrent Session queries may evaluate activations of the same module,
// whose counts land in one profile; the sums stay exact and only their
// ordering depends on the schedule.

#ifndef CORAL_OBS_STATS_H_
#define CORAL_OBS_STATS_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "src/util/sync.h"

namespace coral::obs {

/// Counters for one rule of a module (indexed by the rule's position in
/// the module's rule list), written by the evaluating thread with one
/// relaxed add per rule application, not per tuple. `probes` counts
/// get-next-tuple calls on body goal sources.
struct RuleStats {
  std::atomic<uint64_t> applications{0};  // semi-naive version evaluations
  std::atomic<uint64_t> probes{0};        // goal-source get-next calls
  std::atomic<uint64_t> solutions{0};     // body solutions enumerated
  std::atomic<uint64_t> derived{0};       // head tuples produced
  std::atomic<uint64_t> inserted{0};      // new tuples after dup checks

  /// Head tuples rejected as duplicates (or merged by an aggregate
  /// selection): derived - inserted.
  uint64_t duplicates() const {
    uint64_t d = derived.load(std::memory_order_relaxed);
    uint64_t i = inserted.load(std::memory_order_relaxed);
    return d >= i ? d - i : 0;
  }
};

/// One fixpoint iteration of one SCC: the delta size (new tuples), the
/// solutions enumerated and wall time.
struct IterationStats {
  uint32_t scc = 0;
  uint64_t inserts = 0;    // delta size: tuples new this iteration
  uint64_t solutions = 0;  // body solutions enumerated this iteration
  uint64_t wall_ns = 0;
};

/// All statistics recorded for one module, aggregated across activations.
/// Rule slots are created up front (EnsureRules) by the single-threaded
/// Init of an activation; after that, rule(i) is lock-free.
class ModuleProfile {
 public:
  explicit ModuleProfile(std::string module_name)
      : name_(std::move(module_name)) {}
  ModuleProfile(const ModuleProfile&) = delete;
  ModuleProfile& operator=(const ModuleProfile&) = delete;

  const std::string& name() const { return name_; }

  /// Grows the rule table to `n` slots; `text_of(i)` supplies a printable
  /// rule for the report (stored once). Single-threaded (module Init).
  template <typename TextFn>
  void EnsureRules(size_t n, TextFn text_of) {
    MutexLock lock(&mu_);
    while (rules_.size() < n) {
      rule_texts_.push_back(text_of(rules_.size()));
      rules_.emplace_back();
    }
  }

  size_t rule_count() const {
    MutexLock lock(&mu_);
    return rules_.size();
  }
  /// Valid for any index < rule_count(); the deque never shrinks, so the
  /// reference stays stable for the registry's lifetime. Lock-free on
  /// purpose: evaluation bumps these counters once per rule application,
  /// and slot growth (EnsureRules) happens only in the activation's Init,
  /// which happens-before its evaluation.
  RuleStats& rule(size_t i)
      CORAL_TS_UNSAFE("deque references are stable and slots are created "
                      "in Init, before evaluation; see docs/CONCURRENCY.md") {
    return rules_[i];
  }
  const RuleStats& rule(size_t i) const
      CORAL_TS_UNSAFE("same invariant as the non-const overload") {
    return rules_[i];
  }
  std::string rule_text(size_t i) const {
    MutexLock lock(&mu_);
    return i < rule_texts_.size() ? rule_texts_[i] : std::string();
  }

  /// Records one finished fixpoint iteration (driver thread only). The
  /// per-iteration log is capped; totals keep counting past the cap.
  void RecordIteration(IterationStats it);
  /// Copy of the per-iteration log (up to the cap).
  std::vector<IterationStats> iterations() const {
    MutexLock lock(&mu_);
    return iterations_;
  }
  uint64_t total_iterations() const {
    return total_iterations_.load(std::memory_order_relaxed);
  }

  void RecordActivation() {
    activations_.fetch_add(1, std::memory_order_relaxed);
  }
  uint64_t activations() const {
    return activations_.load(std::memory_order_relaxed);
  }

  // Ordered Search context bookkeeping (paper §5.4.1): subgoals made
  // available, and stack collapses on mutually dependent subgoals.
  std::atomic<uint64_t> os_subgoals_released{0};
  std::atomic<uint64_t> os_collapses{0};

  /// Module-level totals summed over rules.
  uint64_t total_solutions() const;
  uint64_t total_derived() const;
  uint64_t total_inserted() const;
  uint64_t total_duplicates() const;

  /// Per-iteration log cap: keeps reports and memory bounded on long
  /// fixpoints; RecordIteration keeps counting past it.
  static constexpr size_t kMaxIterationLog = 4096;

 private:
  std::string name_;
  /// Guards growth + iteration log, not the atomic counters.
  mutable Mutex mu_{kRankModuleProfile};
  std::deque<RuleStats> rules_ CORAL_GUARDED_BY(mu_);
  std::vector<std::string> rule_texts_ CORAL_GUARDED_BY(mu_);
  std::vector<IterationStats> iterations_ CORAL_GUARDED_BY(mu_);
  std::atomic<uint64_t> total_iterations_{0};
  std::atomic<uint64_t> activations_{0};
};

/// Database-wide counters for the incremental update path
/// (Database::ApplyUpdate, docs/MAINTENANCE.md). Relaxed atomics: updates
/// serialize on the commit lock, so sums are exact; atomics only make
/// concurrent readers (ProfileReport) race-free.
struct MaintenanceCounters {
  std::atomic<uint64_t> updates{0};      // ApplyUpdate batches committed
  std::atomic<uint64_t> maintained{0};   // saved instances updated in place
  std::atomic<uint64_t> invalidated{0};  // saved instances dropped
  std::atomic<uint64_t> derived_inserted{0};
  std::atomic<uint64_t> derived_deleted{0};
  std::atomic<uint64_t> rederived{0};  // DRed candidates that survived
};

/// Registry of per-module profiles, owned by the Database. GetOrCreate is
/// called from single-threaded compilation/Init paths; profile pointers
/// stay valid until Clear() or registry destruction.
class StatsRegistry {
 public:
  StatsRegistry() = default;
  StatsRegistry(const StatsRegistry&) = delete;
  StatsRegistry& operator=(const StatsRegistry&) = delete;

  ModuleProfile* GetOrCreate(const std::string& module_name);
  /// nullptr when the module has never been profiled.
  const ModuleProfile* Find(const std::string& module_name) const;
  /// Profiles in first-profiled order.
  std::vector<const ModuleProfile*> profiles() const;
  bool empty() const;
  /// Drops all recorded statistics (invalidates ModuleProfile pointers —
  /// callers must not hold any across Clear; the engine re-fetches at
  /// every activation).
  void Clear();

 private:
  mutable Mutex mu_{kRankStatsRegistry};
  std::deque<ModuleProfile> profiles_ CORAL_GUARDED_BY(mu_);
  std::vector<ModuleProfile*> order_ CORAL_GUARDED_BY(mu_);
};

}  // namespace coral::obs

#endif  // CORAL_OBS_STATS_H_
