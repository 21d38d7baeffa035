// Experiment F3/C1 (DESIGN.md): the paper's Fig. 3 shortest-path program.
// Claim (§5.5.2): with the @aggregate_selection annotations a
// single-source query runs in O(E·V); without them the program generates
// ever-costlier cyclic paths (here made finite with a cost bound, to show
// the blow-up in derived facts).

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/core/database.h"

namespace coral {
namespace {

constexpr char kWithSelection[] = R"(
  module s_p.
  export s_p(bfff).
  @aggregate_selection p(X, Y, P, C) (X, Y) min(C).
  @aggregate_selection p(X, Y, P, C) (X, Y, C) any(P).
  s_p(X, Y, P, C) :- s_p_length(X, Y, C), p(X, Y, P, C).
  s_p_length(X, Y, min(<C>)) :- p(X, Y, P, C).
  p(X, Y, P1, C1) :- p(X, Z, P, C), edge(Z, Y, EC),
                     append([edge(Z, Y)], P, P1), C1 = C + EC.
  p(X, Y, [edge(X, Y)], C) :- edge(X, Y, C).
  end_module.
)";

// The same program WITHOUT aggregate selections, kept finite by a cost
// bound far above any shortest path (cyclic paths are enumerated up to
// the bound).
constexpr char kNoSelectionBounded[] = R"(
  module s_p.
  export s_p(bfff).
  s_p(X, Y, P, C) :- s_p_length(X, Y, C), p(X, Y, P, C).
  s_p_length(X, Y, min(<C>)) :- p(X, Y, P, C).
  p(X, Y, P1, C1) :- p(X, Z, P, C), edge(Z, Y, EC),
                     C1 = C + EC, C1 < 22,
                     append([edge(Z, Y)], P, P1).
  p(X, Y, [edge(X, Y)], C) :- edge(X, Y, C).
  end_module.
)";

void RunQuery(Database* db, benchmark::State& state) {
  auto res = db->EvalQuery("s_p(v0, Y, P, C)");
  if (!res.ok()) {
    state.SkipWithError(res.status().ToString().c_str());
    return;
  }
  benchmark::DoNotOptimize(res->rows.size());
}

/// O(E·V) scaling: V grows, E = 4V, cyclic random graphs.
void BM_ShortestPath_WithAggregateSelection(benchmark::State& state) {
  int v = static_cast<int>(state.range(0));
  Database db;
  bench::MaybeProfile(&db);
  if (!db.Consult(kWithSelection).ok()) return;
  if (!db.Consult(bench::RandomGraphFacts("edge", v, 4 * v, true)).ok()) {
    return;
  }
  for (auto _ : state) RunQuery(&db, state);
  bench::MaybeDumpProfile(&db, "ShortestPath with-selection/" + std::to_string(v));
  state.counters["EV"] = static_cast<double>(v) * (4 * v);
  state.counters["derivations"] = static_cast<double>(
      db.modules()->last_stats().solutions);
  state.counters["inserts"] =
      static_cast<double>(db.modules()->last_stats().inserts);
}
BENCHMARK(BM_ShortestPath_WithAggregateSelection)
    ->Arg(16)->Arg(32)->Arg(64)->Arg(128);

/// Without the selection (cost-bounded): derived-fact explosion.
void BM_ShortestPath_NoSelectionBounded(benchmark::State& state) {
  int v = static_cast<int>(state.range(0));
  Database db;
  bench::MaybeProfile(&db);
  if (!db.Consult(kNoSelectionBounded).ok()) return;
  if (!db.Consult(bench::RandomGraphFacts("edge", v, 4 * v, true)).ok()) {
    return;
  }
  for (auto _ : state) RunQuery(&db, state);
  bench::MaybeDumpProfile(&db, "ShortestPath no-selection/" + std::to_string(v));
  state.counters["inserts"] =
      static_cast<double>(db.modules()->last_stats().inserts);
}
BENCHMARK(BM_ShortestPath_NoSelectionBounded)->Arg(16);

}  // namespace
}  // namespace coral

int main(int argc, char** argv) {
  coral::bench::ParseHarnessFlags(&argc, argv);
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
