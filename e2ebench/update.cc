// update: keeping a saved view fresh while reading it, through the
// embedded path. The view is a @save_module tc(ff) over disjoint
// 10-edge chains. One op is a cycle on one thread:
//   1. Session::ApplyUpdate commits a delete or re-insert of one chain
//      edge (cycles come in pairs: delete edge j of chain K, then put it
//      back, so every commit is a real net change and every even cycle
//      ends at the base state);
//   2. Database::EvalQuery("tc(cKn0, Y)") reads the touched chain fresh.
// Reads use Database, not Session: a Session reader never uses a saved
// instance and re-materializes the module instead (see NOTES.md).
// Reference answer: after deleting edge j the chain root reaches exactly
// nodes n1..nj; after the re-insert, n1..n10.

#include <string>
#include <vector>

#include <coral/coral.h>

#include "layers.h"
#include "src/lang/parser.h"
#include "workloads.h"

namespace e2e {
namespace {

constexpr int kChains = 3000;
constexpr int kChainLen = 10;
/// Cycle pairs in the traced segment (a fixed count, so its counters
/// repeat; pairs, so it ends at the base state).
constexpr int kTracedPairs = 100;
/// Cycles per epoch of the untraced loop (even: an epoch ends at the
/// base state).
constexpr size_t kEpochCycles = 500;
/// Untraced cycles before peak memory is read (within the first epoch).
constexpr size_t kRssAtCycles = 400;

constexpr char kModule[] = R"(
module tc.
export tc(ff).
@save_module.
tc(X, Y) :- edge(X, Y).
tc(X, Y) :- edge(X, Z), tc(Z, Y).
end_module.
)";

std::string Node(int chain, int i) {
  return "c" + std::to_string(chain) + "n" + std::to_string(i);
}

std::string EdgeFact(int chain, int i) {
  return "edge(" + Node(chain, i) + ", " + Node(chain, i + 1) + ").";
}

std::string ChainFacts() {
  std::string out;
  for (int c = 0; c < kChains; ++c) {
    for (int i = 0; i < kChainLen; ++i) out += EdgeFact(c, i) + "\n";
  }
  return out;
}

/// The seeded op sequence: cycle 2k deletes edge `edge` of `chain`,
/// cycle 2k+1 re-inserts it.
struct Cycle {
  int chain;
  std::string text;  // the update batch text
  int expect;        // rows of tc(chain n0, Y) after the commit
};

class CycleSource {
 public:
  explicit CycleSource(uint64_t seed) : rng_(seed * 0x2545f491 + 3) {}
  Cycle Next() {
    if (n_++ % 2 == 0) {
      chain_ = static_cast<int>(rng_.Below(kChains));
      edge_ = static_cast<int>(rng_.Below(kChainLen));
      return {chain_, "-" + EdgeFact(chain_, edge_) + "\n", edge_};
    }
    return {chain_, "+" + EdgeFact(chain_, edge_) + "\n", kChainLen};
  }

 private:
  Rng rng_;
  uint64_t n_ = 0;
  int chain_ = 0, edge_ = 0;
};

bool CheckRead(const Cycle& c, const coral::QueryResult& r) {
  if (r.rows.size() != static_cast<size_t>(c.expect)) return false;
  std::vector<char> seen(kChainLen + 1, 0);
  const std::string prefix = "c" + std::to_string(c.chain) + "n";
  for (const coral::AnswerRow& row : r.rows) {
    int64_t i = AtomIndex(Binding(row, "Y"), prefix);
    if (i < 1 || i > c.expect || seen[i]) return false;
    seen[i] = 1;
  }
  return true;
}

/// Parses an update text into a batch the way Session::ApplyUpdate does,
/// so the traced replay can time Parser and Database::ApplyUpdate apart.
bool ParseBatch(const std::string& text, coral::TermFactory* factory,
                coral::UpdateBatch* batch) {
  ScopedSpan span("lang.parse");
  size_t end = text.find_last_not_of("\n");
  std::string fact = text.substr(1, end);
  coral::Parser parser(fact, factory);
  auto prog = parser.ParseProgram();
  if (!prog.ok() || prog->top_facts.size() != 1) return false;
  (text[0] == '+' ? batch->inserts : batch->deletes)
      .push_back(std::move(prog->top_facts[0]));
  return true;
}

struct Timings {
  std::vector<double> commit_ms, read_ms, op_ms;
  double cpu_s = 0;   // CPU time of the ops
  uint64_t rows = 0;  // answer rows read
};

/// One cycle. `replay` commits through Parser + Database::ApplyUpdate
/// (traced segment); otherwise through Session::ApplyUpdate.
void RunCycle(coral::Database* db, coral::Session* session, const Cycle& c,
              bool replay, Result* r, Timings* t) {
  ScopedOp op("update.cycle");
  int64_t cpu0 = CpuNs();
  int64_t t0 = NowNs();
  coral::StatusOr<coral::UpdateResult> up = coral::Status::Internal("");
  {
    ScopedSpan commit("update.commit");
    if (replay) {
      coral::UpdateBatch batch;
      if (ParseBatch(c.text, db->factory(), &batch)) {
        ScopedSpan apply("ivm.apply");
        up = db->ApplyUpdate(batch);
      }
    } else {
      up = session->ApplyUpdate(c.text);
    }
  }
  int64_t t1 = NowNs();
  coral::StatusOr<coral::QueryResult> res = coral::Status::Internal("");
  {
    ScopedSpan read("update.read");
    ScopedSpan eval("core.eval");
    res = db->EvalQuery("tc(" + Node(c.chain, 0) + ", Y)");
  }
  int64_t t2 = NowNs();
  t->cpu_s += static_cast<double>(CpuNs() - cpu0) / 1e9;
  t->commit_ms.push_back(NsToMs(t1 - t0));
  t->read_ms.push_back(NsToMs(t2 - t1));
  t->op_ms.push_back(NsToMs(t2 - t0));
  ScopedSpan chk("bench.check");
  if (!up.ok()) {
    r->Count(false, "commit: " + up.status().ToString());
    return;
  }
  if (!res.ok()) {
    r->Count(false, "read: " + res.status().ToString());
    return;
  }
  t->rows += res->rows.size();
  // The view must be maintained in place, never dropped.
  r->Count(up->invalidated == 0 && up->base_deleted + up->base_inserted == 1 &&
               CheckRead(c, *res),
           c.text + " then tc(" + Node(c.chain, 0) + ", Y): wrong answer");
}

}  // namespace

Result RunUpdate(const Args& args) {
  Result r;
  const std::string program = std::string(kModule) + ChainFacts();
  CycleSource cycles(args.seed);

  // Set-up: consult, materialize the saved instance, then one warm cycle
  // pair (the first commit pays support counting and probe-index
  // backfill once). Returns the set-up's CPU time in seconds, or < 0.
  std::unique_ptr<coral::Session> session;
  std::unique_ptr<coral::Database> db;
  auto setup = [&]() -> double {
    session.reset();
    db.reset();
    int64_t t0 = CpuNs();
    db = std::make_unique<coral::Database>();
    if (!db->Consult(program).ok()) {
      r.Count(false, "consult failed");
      return -1;
    }
    session = std::make_unique<coral::Session>(db.get());
    Result scratch;
    Timings warm;
    for (int k = 0; k < 2; ++k) {
      RunCycle(db.get(), session.get(), cycles.Next(), false, &scratch,
               &warm);
    }
    if (scratch.failed > 0) {
      r.Count(false, "warm-up: " + scratch.notes.front());
      return -1;
    }
    return static_cast<double>(CpuNs() - t0) / 1e9;
  };
  HostSpeed speed;
  speed.MaybeSample();
  std::vector<double> setup_s;
  for (int i = 0; i < (args.trace ? 1 : kSetupRepeats); ++i) {
    setup_s.push_back(setup());
    if (setup_s.back() < 0) return r;
  }

  int64_t deadline =
      NowNs() + static_cast<int64_t>(args.seconds) * 1'000'000'000;
  Timings t;

  if (args.trace) {
    InitLayerMetrics(&r);
    VmSnapshot compile =
        ReportSetupLayers(&r, program, {{"tc", "tc", "ff"}});
    // Traced segment: a fixed number of cycle pairs replayed through
    // Parser + Database::ApplyUpdate with spans and profiling, each pair
    // followed by an untraced pair for the overhead comparison.
    db->ClearStats();
    VmSnapshot vm_run;
    MaintSnapshot maint;
    uint64_t bytes = 0;
    Timings traced, plain;
    for (int i = 0; i < kTracedPairs; ++i) {
      VmSnapshot vm0 = VmSnapshot::Of(*db->vm_counters());
      MaintSnapshot m0 = MaintSnapshot::Of(db->maintenance_counters());
      uint64_t bytes0 = db->factory()->bytes_allocated();
      db->set_profiling(true);
      Tracer::Get().set_enabled(true);
      for (int k = 0; k < 2; ++k) {
        RunCycle(db.get(), session.get(), cycles.Next(), true, &r, &traced);
      }
      Tracer::Get().set_enabled(false);
      db->set_profiling(false);
      vm_run = vm_run.Plus(VmSnapshot::Of(*db->vm_counters()).Minus(vm0));
      maint = maint.Plus(
          MaintSnapshot::Of(db->maintenance_counters()).Minus(m0));
      bytes += db->factory()->bytes_allocated() - bytes0;
      for (int k = 0; k < 2; ++k) {
        RunCycle(db.get(), session.get(), cycles.Next(), false, &r, &plain);
      }
    }
    const double ops = 2.0 * kTracedPairs;
    r.Set("trace.overhead_pct",
          (Median(traced.op_ms) / Median(plain.op_ms) - 1) * 100, "%");
    ReportVm(&r, compile, vm_run, ops);
    ReportMaintenance(&r, maint, ops);
    ReportProfile(&r, ProfileTotals::Of(*db->stats()), ops, traced.rows);
    ReportArena(&r, db.get(), bytes, ops);
    ReportSpanLayers(&r);
  }

  // Untraced loop for the (rest of the) run. Reads slow down as
  // committed updates accumulate in the saved instance (NOTES.md), so the
  // loop runs in epochs of kEpochCycles cycles, each on a fresh set-up
  // that is timed into setup_s: the cost of op i of an epoch then does
  // not depend on how many ops ran before it, and set-ups spread over the
  // run sample the same host conditions as the ops. Epochs end at the
  // base state. Peak memory is read after a fixed number of cycles, so it
  // does not grow with throughput.
  double rss_mb = 0;
  size_t epoch_cycles = args.trace ? kEpochCycles : 0;
  do {
    if (epoch_cycles == kEpochCycles) {
      setup_s.push_back(setup());
      if (setup_s.back() < 0) return r;
      epoch_cycles = 0;
    }
    for (int k = 0; k < 2; ++k) {
      RunCycle(db.get(), session.get(), cycles.Next(), false, &r, &t);
    }
    epoch_cycles += 2;
    speed.MaybeSample();
    if (t.op_ms.size() == kRssAtCycles) rss_mb = PeakRssMb();
  } while (NowNs() < deadline);
  if (rss_mb == 0) rss_mb = PeakRssMb();

  if (args.trace) {
    r.Set("op_p50_ms", Quantile(t.op_ms, 0.5), "ms");
    r.Set("commit_p50_ms", Quantile(t.commit_ms, 0.5), "ms");
    r.Set("commit_p99_ms", Quantile(t.commit_ms, 0.99), "ms");
    r.Set("read_p50_ms", Quantile(t.read_ms, 0.5), "ms");
  } else {
    double busy_s = 0;
    for (double ms : t.op_ms) busy_s += ms / 1e3;
    ReportEndToEnd(&r, setup_s, t.op_ms, busy_s, t.cpu_s, rss_mb, speed);
    r.Detail("commit_p50_ms", Quantile(t.commit_ms, 0.5), "ms");
    r.Detail("commit_p99_ms", Quantile(t.commit_ms, 0.99), "ms");
    r.Detail("read_p50_ms", Quantile(t.read_ms, 0.5), "ms");
  }
  return r;
}

}  // namespace e2e
