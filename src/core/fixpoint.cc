// Fixpoint iteration engine of MaterializedInstance: Basic Semi-Naive,
// Predicate Semi-Naive and Naive drivers over the compiled SCC plans
// (paper §4.2, §5.3).

#include <chrono>
#include <unordered_set>

#include "src/core/database.h"
#include "src/core/eval_context.h"
#include "src/core/module_eval.h"
#include "src/util/logging.h"

namespace coral {

namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Folds one rule application's plain opcode counts into the Database-wide
// atomic counters — one flush per application keeps atomics off the
// per-tuple path. Relaxed order: these are statistics, read at quiescent
// points (coral_prof --bytecode).
void FlushVmOps(obs::VmCounters* c, const vm::OpCounts& o) {
  auto add = [](std::atomic<uint64_t>& a, uint64_t n) {
    if (n != 0) a.fetch_add(n, std::memory_order_relaxed);
  };
  add(c->scan_full, o.scan_full);
  add(c->scan_delta, o.scan_delta);
  add(c->probe_index, o.probe_index);
  add(c->probe_scan_fallbacks, o.probe_scan_fallbacks);
  add(c->unify_arg, o.unify_arg);
  add(c->test_builtin, o.test_builtin);
  add(c->project, o.project);
  add(c->insert, o.insert);
}

}  // namespace

std::pair<Mark, Mark> MaterializedInstance::WindowFor(
    size_t scc_idx, const PredRef& pred, RangeSel sel,
    const std::unordered_map<PredRef, Mark, PredRefHash>* cur) {
  Relation* rel = internal(pred);
  if (rel == nullptr) return {0, kMaxMark};  // external: full extension
  Mark prev = 0;
  auto pit = prev_marks_[scc_idx].find(pred);
  if (pit != prev_marks_[scc_idx].end()) prev = pit->second;
  Mark cur_mark = kMaxMark;
  if (cur != nullptr) {
    auto cit = cur->find(pred);
    if (cit != cur->end()) cur_mark = cit->second;
  }
  switch (sel) {
    case RangeSel::kFull:
      return {0, cur_mark};
    case RangeSel::kOld:
      return {0, prev};
    case RangeSel::kDelta:
      return {prev, cur_mark};
  }
  CORAL_UNREACHABLE();
}

StatusOr<std::unique_ptr<GoalSource>> MaterializedInstance::MakeSource(
    const Literal* lit, BindEnv* env, Mark from, Mark to) {
  PredRef pred = lit->pred_ref();
  if (Relation* rel = internal(pred)) {
    if (lit->negated) {
      return std::unique_ptr<GoalSource>(
          new NegationGoalSource(lit, env, rel));
    }
    return std::unique_ptr<GoalSource>(
        new RelationGoalSource(lit, env, rel, from, to));
  }
  return ExternalResolver(db_).Make(lit, env);
}

bool MaterializedInstance::HeadInsert(const PredRef& pred, const Tuple* t) {
  // Under Ordered Search, magic facts are intercepted into staging: the
  // context decides when a subgoal becomes available (paper §5.4.1).
  if (prog_->ordered_search) {
    if (Relation* stage = staging(pred)) {
      bool inserted = stage->Insert(t);
      if (inserted) ++stats_.inserts;
      return inserted;
    }
  }
  Relation* rel = internal(pred);
  CORAL_CHECK(rel != nullptr) << pred.ToString();
  bool inserted = rel->Insert(t);
  if (inserted) {
    ++stats_.inserts;
    if (trace_ != nullptr) {
      obs::TraceEvent ev;
      ev.kind = obs::TraceKind::kInsert;
      ev.module = decl_->name;
      ev.pred = DisplayName(pred);
      ev.detail = t->ToString();
      trace_->Emit(ev);
    }
  }
  return inserted;
}

StatusOr<bool> MaterializedInstance::ApplyVersion(
    size_t scc_idx, const RuleVersion& v, bool naive_override,
    const std::unordered_map<PredRef, Mark, PredRefHash>* cur) {
  const Rule& rule = prog_->rules[v.rule_index];
  const bool psn = !v.evaluate_once && cur == nullptr;

  // Applications are counted before the empty-delta short circuits: one
  // per version per iteration, whether or not its delta is empty.
  obs::RuleStats* rs =
      profile_ != nullptr ? &profile_->rule(v.rule_index) : nullptr;
  if (rs != nullptr) rs->applications.fetch_add(1, std::memory_order_relaxed);
  const uint64_t obs_sols0 = stats_.solutions;
  const uint64_t obs_ins0 = stats_.inserts;

  // Empty-delta short circuit (BSN/naive path; PSN has its own below):
  // without it a version whose delta literal sits late in the body would
  // enumerate the whole join prefix every iteration just to find nothing.
  if (!psn && v.delta_pos >= 0 && !naive_override) {
    PredRef dpred = rule.body[v.delta_pos].pred_ref();
    auto [dfrom, dto] = WindowFor(scc_idx, dpred, RangeSel::kDelta, cur);
    if (dfrom >= dto) return false;
    Relation* drel = internal(dpred);
    if (drel != nullptr) {
      // The window may span only empty subsidiaries; a quick probe.
      std::unique_ptr<TupleIterator> probe = drel->ScanRange(dfrom, dto);
      if (probe->Next() == nullptr) return false;
    }
  }

  // PSN: the delta window closes at a snapshot taken now, so facts
  // derived by earlier rules in this very pass are already visible
  // (immediate availability — the property PSN exploits, paper §4.2).
  const size_t version_idx = VersionIndex(scc_idx, v);
  Mark psn_from = 0, psn_to = 0;
  if (psn && v.delta_pos >= 0) {
    Relation* drel = internal(rule.body[v.delta_pos].pred_ref());
    CORAL_CHECK(drel != nullptr);
    psn_from = psn_marks_[scc_idx][version_idx];
    psn_to = drel->Snapshot();
    if (psn_from >= psn_to) return false;  // empty delta: skip
  }

  // Per-literal mark windows, computed once and shared by the VM and the
  // interpreter — BSN, PSN and Naive differ only here, which is what lets
  // one compiled program serve every driver.
  std::vector<std::pair<Mark, Mark>> windows(rule.body.size(),
                                             {Mark{0}, kMaxMark});
  for (size_t i = 0; i < rule.body.size(); ++i) {
    const Literal& lit = rule.body[i];
    if (lit.negated || internal(lit.pred_ref()) == nullptr) continue;
    if (psn) {
      if (static_cast<int>(i) == v.delta_pos) {
        windows[i] = {psn_from, psn_to};
      } else {
        windows[i] = {0, internal(lit.pred_ref())->Snapshot()};
      }
    } else {
      RangeSel sel = naive_override ? RangeSel::kFull : v.ranges[i];
      windows[i] = WindowFor(scc_idx, lit.pred_ref(), sel, cur);
    }
  }

  bool changed = false;
  bool vm_done = false;
  uint64_t probes = 0;
  uint64_t obs_derived = 0;

  // Join bytecode first; on kFallback the interpreter below re-runs the
  // application (tuples the VM already inserted are deduplicated, so the
  // re-run is idempotent — bind-time checks exclude multiset heads).
  if (const VmBoundRule* vb =
          VmRuleFor(scc_idx, v.evaluate_once, version_idx)) {
    struct Sink : vm::TupleSink {
      MaterializedInstance* self;
      PredRef head;
      HashRelation* hrel;  // non-null: skip the per-solution PredRef lookup
      bool Emit(const Tuple* t) override {
        if (hrel != nullptr) {
          if (!hrel->Insert(t)) return false;
          ++self->stats_.inserts;
          return true;
        }
        return self->HeadInsert(head, t);
      }
    } sink;
    sink.self = this;
    sink.head = rule.head.pred_ref();
    // The head relation was resolved once at bind time; re-resolving it by
    // PredRef hash on every solution showed up in profiles. Tracing still
    // needs HeadInsert's event emission, and ordered-search modules never
    // compile, so the staging intercept is unreachable here.
    sink.hrel = trace_ == nullptr ? vb->head : nullptr;
    vm::RunInput in;
    in.prog = vb->prog;
    in.rels = vb->rels;
    in.hash_rels = vb->hash_rels;
    in.windows = windows;
    in.factory = db_->factory();
    vm::RunStats rst;
    vm::RunResult r = vm::Execute(in, &sink, &rst);
    obs::VmCounters* vc = db_->vm_counters();
    vc->applications.fetch_add(1, std::memory_order_relaxed);
    FlushVmOps(vc, rst.ops);
    if (r == vm::RunResult::kOk) {
      stats_.solutions += rst.solutions;
      changed = rst.changed;
      probes = rst.tuples;
      obs_derived = rst.solutions;
      vm_done = true;
    } else {
      // Discard the VM's solution count — the interpreter re-counts from
      // scratch, so stats match an interpreter-only run exactly.
      vc->runtime_fallbacks.fetch_add(1, std::memory_order_relaxed);
    }
  }

  if (!vm_done) {
    BindEnv* env =
        EnvFor(scc_idx, v.evaluate_once, version_idx, rule.var_count);

    std::vector<std::unique_ptr<GoalSource>> sources;
    sources.reserve(rule.body.size());
    for (size_t i = 0; i < rule.body.size(); ++i) {
      const Literal& lit = rule.body[i];
      auto [from, to] = windows[i];
      CORAL_ASSIGN_OR_RETURN(std::unique_ptr<GoalSource> src,
                             MakeSource(&lit, env, from, to));
      sources.push_back(std::move(src));
    }

    RuleCursor cursor(std::move(sources), v.backtrack,
                      decl_->intelligent_backtracking, &trail_);
    Status inner;

    if (v.is_aggregate) {
      const AggHeadSpec* spec = AggSpecFor(v.rule_index);
      GroupAccumulator acc(spec, env, db_->factory());
      while (cursor.Next()) {
        ++stats_.solutions;
        inner = acc.Feed();
        if (!inner.ok()) break;
      }
      cursor.UndoAll();
      CORAL_RETURN_IF_ERROR(inner);
      CORAL_RETURN_IF_ERROR(cursor.status());
      CORAL_ASSIGN_OR_RETURN(std::vector<const Tuple*> tuples, acc.Finish());
      obs_derived = tuples.size();
      PredRef head = rule.head.pred_ref();
      for (const Tuple* t : tuples) changed |= HeadInsert(head, t);
    } else {
      PredRef head = rule.head.pred_ref();
      std::vector<TermRef> head_refs(rule.head.args.size());
      while (cursor.Next()) {
        ++stats_.solutions;
        for (size_t i = 0; i < rule.head.args.size(); ++i) {
          head_refs[i] = {rule.head.args[i], env};
        }
        const Tuple* t = ResolveTuple(head_refs, db_->factory());
        bool inserted = HeadInsert(head, t);
        changed |= inserted;
        if (inserted && decl_->explain) {
          // Explanation tool: record which body facts produced the head.
          Derivation d;
          d.head_pred = head;
          d.head = t;
          d.rule_index = v.rule_index;
          for (const Literal& lit : rule.body) {
            if (lit.negated) continue;
            if (db_->builtins()->Find(lit.pred->name,
                                      static_cast<uint32_t>(lit.args.size()))
                != nullptr &&
                internal(lit.pred_ref()) == nullptr) {
              continue;
            }
            std::vector<TermRef> refs;
            refs.reserve(lit.args.size());
            for (const Arg* a : lit.args) refs.push_back({a, env});
            d.body.emplace_back(lit.pred_ref(),
                                ResolveTuple(refs, db_->factory()));
          }
          derivations_.push_back(std::move(d));
        }
      }
      cursor.UndoAll();
      CORAL_RETURN_IF_ERROR(cursor.status());
      obs_derived = stats_.solutions - obs_sols0;  // one head tuple each
    }
    probes = cursor.probes();
  }

  if (rs != nullptr) {
    rs->probes.fetch_add(probes, std::memory_order_relaxed);
    rs->solutions.fetch_add(stats_.solutions - obs_sols0,
                            std::memory_order_relaxed);
    rs->derived.fetch_add(obs_derived, std::memory_order_relaxed);
    rs->inserted.fetch_add(stats_.inserts - obs_ins0,
                           std::memory_order_relaxed);
  }
  if (trace_ != nullptr) {
    obs::TraceEvent ev;
    ev.kind = obs::TraceKind::kRuleFire;
    ev.module = decl_->name;
    ev.scc = static_cast<int32_t>(scc_idx);
    ev.rule = static_cast<int32_t>(v.rule_index);
    ev.count = stats_.solutions - obs_sols0;
    trace_->Emit(ev);
  }

  if (psn && v.delta_pos >= 0) {
    psn_marks_[scc_idx][version_idx] = psn_to;
  }
  return changed;
}

Status MaterializedInstance::RunOnceRules(size_t scc_idx) {
  for (const RuleVersion& v : prog_->seminaive.sccs[scc_idx].once) {
    CORAL_RETURN_IF_ERROR(ApplyVersion(scc_idx, v, false, nullptr).status());
  }
  return Status::OK();
}

Status MaterializedInstance::RunIteration(size_t scc_idx, bool* changed) {
  *changed = false;
  const SccPlan& plan = prog_->seminaive.sccs[scc_idx];
  FixpointKind kind = decl_->fixpoint;

  if (kind == FixpointKind::kPredicateSemiNaive) {
    for (const RuleVersion& v : plan.versions) {
      CORAL_ASSIGN_OR_RETURN(bool c, ApplyVersion(scc_idx, v, false, nullptr));
      *changed |= c;
    }
    return Status::OK();
  }

  // BSN / Naive: within one iteration every read is bounded by a snapshot
  // taken at iteration start.
  std::unordered_map<PredRef, Mark, PredRefHash> cur;
  cur.reserve(internal_.size());
  for (auto& [pred, rel] : internal_) cur[pred] = rel->Snapshot();

  if (kind == FixpointKind::kNaive) {
    // One application per distinct rule, full windows.
    std::unordered_set<uint32_t> seen;
    for (const RuleVersion& v : plan.versions) {
      if (!seen.insert(v.rule_index).second) continue;
      CORAL_ASSIGN_OR_RETURN(bool c, ApplyVersion(scc_idx, v, true, &cur));
      *changed |= c;
    }
    return Status::OK();
  }

  for (const RuleVersion& v : plan.versions) {
    CORAL_ASSIGN_OR_RETURN(bool c, ApplyVersion(scc_idx, v, false, &cur));
    *changed |= c;
  }
  prev_marks_[scc_idx] = std::move(cur);
  return Status::OK();
}

Status MaterializedInstance::RunIterationObserved(size_t scc_idx,
                                                  bool* changed) {
  // Iteration-granularity deadline poll (the probe-granularity poll lives
  // in RuleCursor::Next); bounds how long a runaway fixpoint can overstay.
  CORAL_RETURN_IF_ERROR(CheckEvalDeadline());
  if (profile_ == nullptr && trace_ == nullptr) {
    return RunIteration(scc_idx, changed);
  }
  const uint64_t iter = stats_.iterations + 1;
  if (trace_ != nullptr) {
    obs::TraceEvent ev;
    ev.kind = obs::TraceKind::kIterBegin;
    ev.module = decl_->name;
    ev.scc = static_cast<int32_t>(scc_idx);
    ev.iter = iter;
    trace_->Emit(ev);
  }
  const uint64_t ins0 = stats_.inserts;
  const uint64_t sols0 = stats_.solutions;
  const uint64_t t0 = NowNs();
  Status st = RunIteration(scc_idx, changed);
  const uint64_t wall = NowNs() - t0;
  if (profile_ != nullptr) {
    obs::IterationStats it;
    it.scc = static_cast<uint32_t>(scc_idx);
    it.inserts = stats_.inserts - ins0;
    it.solutions = stats_.solutions - sols0;
    it.wall_ns = wall;
    profile_->RecordIteration(std::move(it));
  }
  if (trace_ != nullptr) {
    obs::TraceEvent ev;
    ev.kind = obs::TraceKind::kIterEnd;
    ev.module = decl_->name;
    ev.scc = static_cast<int32_t>(scc_idx);
    ev.iter = iter;
    ev.count = stats_.inserts - ins0;
    ev.ns = wall;
    trace_->Emit(ev);
  }
  return st;
}

Status MaterializedInstance::RunGlobalPass(bool* changed) {
  *changed = false;
  size_t n = prog_->seminaive.sccs.size();
  for (size_t s = 0; s < n; ++s) {
    if (!once_done_[s]) {
      CORAL_RETURN_IF_ERROR(RunOnceRules(s));
      once_done_[s] = true;
      *changed = true;
    }
    bool scc_changed = true;
    while (scc_changed) {
      CORAL_RETURN_IF_ERROR(RunIterationObserved(s, &scc_changed));
      ++stats_.iterations;
      *changed |= scc_changed;
    }
  }
  return Status::OK();
}

}  // namespace coral
