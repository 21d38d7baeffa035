// closure: batch analytics in-process through Database::EvalQuery (no
// Session, so the live path with indexes). One op is a pass of four
// queries over a seeded random graph with E = 4V (out-degree 4) and edge costs:
//   tc(X, Y)             all-pairs transitive closure
//   sp(vK, Y, C)         Fig. 3 shortest path, @aggregate_selection min(C)
//   fanout(X, count(<Y>)) an aggregation stratum over tc
//   unreached(X, Y)      a negation stratum over tc (kept inside the
//                        defining module: across a module boundary every
//                        pair would reactivate the called module)
// Reference answers: BFS from every node (pair counts, fanout counts, the
// unreached count) and Dijkstra from each sampled sp source.

#include <algorithm>
#include <cstdio>
#include <map>
#include <queue>
#include <set>
#include <string>
#include <vector>

#include <coral/coral.h>

#include "layers.h"
#include "workloads.h"

namespace e2e {
namespace {

constexpr int kNodes = 80;
constexpr int kEdgesPerNode = 4;
constexpr int kMaxCost = 9;
/// Passes in the traced segment: a fixed count, so its counters repeat.
constexpr int kTracedPasses = 8;
/// Untraced passes before peak memory is read.
constexpr size_t kRssAtPasses = 30;
/// Passes per epoch of the untraced loop.
constexpr size_t kEpochPasses = 60;

constexpr char kModule[] = R"(
module closure.
export tc(ff), sp(bff), fanout(ff), unreached(ff).
@aggregate_selection p(X, Y, C) (X, Y) min(C).
tc(X, Y) :- edge(X, Y, C).
tc(X, Y) :- tc(X, Z), edge(Z, Y, C).
p(X, Y, C) :- edge(X, Y, C).
p(X, Y, C) :- p(X, Z, C1), edge(Z, Y, C2), C = C1 + C2.
sp(X, Y, min(<C>)) :- p(X, Y, C).
fanout(X, count(<Y>)) :- tc(X, Y).
unreached(X, Y) :- node(X), node(Y), not tc(X, Y).
end_module.
)";

struct Edge {
  int to;
  int cost;
};

struct Graph {
  std::vector<std::vector<Edge>> adj;
  std::string facts;
  // Reference answers.
  std::vector<int> reach;  // |{Y : path X ->+ Y}| per X
  uint64_t pairs = 0;
};

Graph MakeGraph(uint64_t seed) {
  Graph g;
  g.adj.resize(kNodes);
  Rng rng(seed * 0x51ed27 + 2);
  std::set<std::pair<int, int>> seen;
  for (int i = 0; i < kNodes; ++i) {
    g.facts += "node(v" + std::to_string(i) + ").\n";
  }
  // Every node gets kEdgesPerNode distinct random successors: a fixed
  // out-degree keeps the closure's size, and so a pass's cost, nearly
  // the same from seed to seed.
  for (int a = 0; a < kNodes; ++a) {
    while (g.adj[a].size() < static_cast<size_t>(kEdgesPerNode)) {
      int b = static_cast<int>(rng.Below(kNodes));
      if (a == b || !seen.insert({a, b}).second) continue;
      int c = 1 + static_cast<int>(rng.Below(kMaxCost));
      g.adj[a].push_back({b, c});
      g.facts += "edge(v" + std::to_string(a) + ", v" + std::to_string(b) +
                 ", " + std::to_string(c) + ").\n";
    }
  }
  g.reach.resize(kNodes);
  for (int s = 0; s < kNodes; ++s) {
    std::vector<char> seen_node(kNodes, 0);
    std::vector<int> stack;
    for (const Edge& e : g.adj[s]) stack.push_back(e.to);
    int count = 0;
    while (!stack.empty()) {
      int n = stack.back();
      stack.pop_back();
      if (seen_node[n]) continue;
      seen_node[n] = 1;
      ++count;
      for (const Edge& e : g.adj[n]) stack.push_back(e.to);
    }
    g.reach[s] = count;
    g.pairs += count;
  }
  return g;
}

/// Least path cost (path of length >= 1) from `s` to every node; -1 when
/// unreachable. A node reaches itself only around a cycle.
std::vector<int> Dijkstra(const Graph& g, int s) {
  std::vector<int> dist(kNodes, -1);
  using Item = std::pair<int, int>;  // cost, node
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  for (const Edge& e : g.adj[s]) pq.push({e.cost, e.to});
  while (!pq.empty()) {
    auto [c, n] = pq.top();
    pq.pop();
    if (dist[n] >= 0) continue;
    dist[n] = c;
    for (const Edge& e : g.adj[n]) {
      if (dist[e.to] < 0) pq.push({c + e.cost, e.to});
    }
  }
  return dist;
}

struct Checker {
  const Graph& g;
  std::map<int, std::vector<int>> sp_ref;

  bool Tc(const coral::QueryResult& r) const {
    if (r.rows.size() != g.pairs) return false;
    std::vector<int> per_source(kNodes, 0);
    for (const coral::AnswerRow& row : r.rows) {
      int64_t x = AtomIndex(Binding(row, "X"), "v");
      if (x < 0 || x >= kNodes || AtomIndex(Binding(row, "Y"), "v") < 0)
        return false;
      ++per_source[x];
    }
    return per_source == g.reach;
  }
  bool Sp(int source, const coral::QueryResult& r) {
    auto it = sp_ref.find(source);
    if (it == sp_ref.end()) it = sp_ref.emplace(source, Dijkstra(g, source)).first;
    const std::vector<int>& dist = it->second;
    size_t reachable = 0;
    for (int d : dist) reachable += d >= 0;
    if (r.rows.size() != reachable) return false;
    for (const coral::AnswerRow& row : r.rows) {
      int64_t y = AtomIndex(Binding(row, "Y"), "v");
      if (y < 0 || y >= kNodes) return false;
      if (Binding(row, "C") != std::to_string(dist[y])) return false;
    }
    return true;
  }
  bool Fanout(const coral::QueryResult& r) const {
    size_t nonzero = 0;
    for (int c : g.reach) nonzero += c > 0;
    if (r.rows.size() != nonzero) return false;
    for (const coral::AnswerRow& row : r.rows) {
      int64_t x = AtomIndex(Binding(row, "X"), "v");
      if (x < 0 || x >= kNodes) return false;
      if (Binding(row, "N") != std::to_string(g.reach[x])) return false;
    }
    return true;
  }
  bool Unreached(const coral::QueryResult& r) const {
    return r.rows.size() ==
           static_cast<size_t>(kNodes) * kNodes - g.pairs;
  }
};

/// Per-pass latencies of each query, in ms, their summed CPU time, and
/// the answer rows.
struct PassTimes {
  double tc = 0, sp = 0, fanout = 0, unreached = 0;
  double cpu_ms = 0;
  uint64_t rows = 0;
  double total() const { return tc + sp + fanout + unreached; }
};

/// Runs one pass; every query's answer is checked (outside the timings)
/// and counted in `r`. `parse_each` also times Parser on each query.
void RunPass(coral::Database* db, Checker* check, int source, Result* r,
             PassTimes* times, bool parse_each) {
  ScopedOp op("closure.pass");
  const std::string sp_text = "sp(v" + std::to_string(source) + ", Y, C)";
  struct Q {
    const char* span;
    std::string text;
    double* slot;
  };
  Q queries[] = {{"closure.tc", "tc(X, Y)", &times->tc},
                 {"closure.sp", sp_text, &times->sp},
                 {"closure.fanout", "fanout(X, N)", &times->fanout},
                 {"closure.unreached", "unreached(X, Y)", &times->unreached}};
  for (int i = 0; i < 4; ++i) {
    ScopedSpan span(queries[i].span);
    if (parse_each) TimedParse("?- " + queries[i].text + ".", db->factory());
    coral::StatusOr<coral::QueryResult> res = coral::Status::Internal("");
    int64_t cpu0 = CpuNs();
    int64_t t0 = NowNs();
    {
      ScopedSpan eval("core.eval");
      res = db->EvalQuery(queries[i].text);
    }
    *queries[i].slot = NsToMs(NowNs() - t0);
    times->cpu_ms += NsToMs(CpuNs() - cpu0);
    ScopedSpan chk("bench.check");
    bool ok = res.ok();
    if (ok) {
      times->rows += res->rows.size();
      switch (i) {
        case 0: ok = check->Tc(*res); break;
        case 1: ok = check->Sp(source, *res); break;
        case 2: ok = check->Fanout(*res); break;
        default: ok = check->Unreached(*res); break;
      }
    }
    r->Count(ok, queries[i].text + (res.ok() ? ": wrong answer"
                                             : ": " + res.status().ToString()));
  }
}

}  // namespace

Result RunClosure(const Args& args) {
  Result r;
  Graph g = MakeGraph(args.seed);
  Checker check{g, {}};
  const std::string program = std::string(kModule) + g.facts;
  Rng sources(args.seed * 7919 + 11);
  auto next_source = [&] { return static_cast<int>(sources.Below(kNodes)); };

  // Set-up: consult, then one warm pass (first-use compile of every
  // form). Returns the set-up's CPU time in seconds, or < 0.
  std::unique_ptr<coral::Database> db;
  auto setup = [&]() -> double {
    db.reset();
    int64_t t0 = CpuNs();
    db = std::make_unique<coral::Database>();
    if (!db->Consult(program).ok()) {
      r.Count(false, "consult failed");
      return -1;
    }
    PassTimes warm;
    Result scratch;
    RunPass(db.get(), &check, next_source(), &scratch, &warm, false);
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
  std::vector<PassTimes> untraced;

  if (args.trace) {
    InitLayerMetrics(&r);
    VmSnapshot compile = ReportSetupLayers(&r, program,
                                           {{"closure", "tc", "ff"},
                                            {"closure", "sp", "bff"},
                                            {"closure", "fanout", "ff"},
                                            {"closure", "unreached", "ff"}});
    // Traced segment: a fixed number of passes with spans and profiling,
    // each followed by an untraced pass for the overhead comparison.
    db->ClearStats();
    VmSnapshot vm_run;
    uint64_t bytes = 0, traced_rows = 0;
    std::vector<double> traced_ms, plain_ms;
    for (int i = 0; i < kTracedPasses; ++i) {
      VmSnapshot vm0 = VmSnapshot::Of(*db->vm_counters());
      uint64_t bytes0 = db->factory()->bytes_allocated();
      db->set_profiling(true);
      Tracer::Get().set_enabled(true);
      PassTimes t;
      RunPass(db.get(), &check, next_source(), &r, &t, true);
      Tracer::Get().set_enabled(false);
      db->set_profiling(false);
      vm_run = vm_run.Plus(VmSnapshot::Of(*db->vm_counters()).Minus(vm0));
      bytes += db->factory()->bytes_allocated() - bytes0;
      traced_ms.push_back(t.total());
      traced_rows += t.rows;
      PassTimes plain;
      RunPass(db.get(), &check, next_source(), &r, &plain, false);
      untraced.push_back(plain);
      plain_ms.push_back(plain.total());
    }
    r.Set("trace.overhead_pct",
          (Median(traced_ms) / Median(plain_ms) - 1) * 100, "%");
    ReportVm(&r, compile, vm_run, kTracedPasses);
    ReportProfile(&r, ProfileTotals::Of(*db->stats()), kTracedPasses,
                  traced_rows);
    ReportArena(&r, db.get(), bytes, kTracedPasses);
    ReportSpanLayers(&r);
  }

  // Untraced loop for the (rest of the) run, in epochs of kEpochPasses
  // passes, each on a fresh set-up that is timed into setup_s: set-ups
  // spread over the run sample the same host conditions as the ops
  // (NOTES.md). Peak memory is read after a fixed number of passes, so it
  // does not grow with throughput.
  double busy_s = 0, cpu_s = 0, rss_mb = 0;
  size_t epoch_passes = 0;
  do {
    if (epoch_passes == kEpochPasses) {
      setup_s.push_back(setup());
      if (setup_s.back() < 0) return r;
      epoch_passes = 0;
    }
    PassTimes t;
    RunPass(db.get(), &check, next_source(), &r, &t, false);
    untraced.push_back(t);
    busy_s += t.total() / 1e3;
    cpu_s += t.cpu_ms / 1e3;
    ++epoch_passes;
    speed.MaybeSample();
    if (untraced.size() == kRssAtPasses) rss_mb = PeakRssMb();
  } while (NowNs() < deadline);
  if (rss_mb == 0) rss_mb = PeakRssMb();

  std::vector<double> op_ms, tc, sp, strat;
  for (const PassTimes& t : untraced) {
    op_ms.push_back(t.total());
    tc.push_back(t.tc);
    sp.push_back(t.sp);
    strat.push_back(t.fanout + t.unreached);
  }
  if (args.trace) {
    r.Set("op_p50_ms", Median(op_ms), "ms");
    r.Set("tc_ms", Median(tc), "ms");
    r.Set("sp_ms", Median(sp), "ms");
    r.Set("strat_ms", Median(strat), "ms");
  } else {
    ReportEndToEnd(&r, setup_s, op_ms, busy_s, cpu_s, rss_mb, speed);
    r.Detail("tc_ms", Median(tc), "ms");
    r.Detail("sp_ms", Median(sp), "ms");
    r.Detail("strat_ms", Median(strat), "ms");
  }
  return r;
}

}  // namespace e2e
