// Concurrency tests for the session/snapshot layer: N reader sessions
// querying while M writer commits land must each see a result equal to
// some from-scratch evaluation at a commit boundary (snapshot isolation
// — never a torn read in the middle of a batch), deadlines must abort
// runaway queries, and Database teardown must be safe with observers
// registered. Run under CORAL_SANITIZE="thread" in the CI thread matrix,
// these tests are the data-race harness for the commit/publish protocol.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/core/database.h"
#include "src/core/session.h"
#include "src/obs/trace.h"
#include "src/rel/readview.h"

namespace coral {
namespace {

std::string PathModule() {
  return "module paths.\n"
         "export path(bf, ff).\n"
         "path(X, Y) :- edge(X, Y).\n"
         "path(X, Z) :- path(X, Y), edge(Y, Z).\n"
         "end_module.\n";
}

std::string EdgeBatch(int from, int count) {
  std::string out;
  for (int i = from; i < from + count; ++i) {
    out += "edge(" + std::to_string(i) + ", " + std::to_string(i + 1) +
           ").\n";
  }
  return out;
}

// Readers see some commit-boundary state, verified against from-scratch
// evaluations: a chain grows in batches of kBatch edges; every reader
// answer count must equal the count a fresh database produces at one of
// the boundaries.
TEST(SnapshotTest, ReadersSeeCommitBoundariesOnly) {
  constexpr int kBatches = 6;
  constexpr int kBatch = 10;
  constexpr int kReaders = 4;

  // From-scratch reference: answer counts at every commit boundary.
  std::set<size_t> boundary_counts;
  for (int b = 1; b <= kBatches; ++b) {
    Database fresh;
    ASSERT_TRUE(fresh.Consult(PathModule()).ok());
    ASSERT_TRUE(fresh.Consult(EdgeBatch(1, b * kBatch)).ok());
    auto result = fresh.EvalQuery("?- path(1, X).");
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    boundary_counts.insert(result->rows.size());
  }
  ASSERT_EQ(boundary_counts.size(), kBatches);  // distinct per boundary

  Database db;
  ASSERT_TRUE(db.Consult(PathModule()).ok());
  ASSERT_TRUE(db.Consult(EdgeBatch(1, kBatch)).ok());

  std::atomic<bool> done{false};
  std::atomic<int> torn{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&db, &done, &torn, &boundary_counts] {
      while (!done.load(std::memory_order_acquire)) {
        Session session(&db);
        auto result = session.EvalQuery("?- path(1, X).");
        if (!result.ok()) {
          ADD_FAILURE() << result.status().ToString();
          torn.fetch_add(1);
          return;
        }
        if (boundary_counts.count(result->rows.size()) == 0) {
          torn.fetch_add(1);
        }
      }
    });
  }

  // Writer: commit the remaining batches, one Consult per boundary.
  for (int b = 1; b < kBatches; ++b) {
    auto committed = db.Consult(EdgeBatch(1 + b * kBatch, kBatch));
    ASSERT_TRUE(committed.ok()) << committed.status().ToString();
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(torn.load(), 0)
      << "a reader observed a state not matching any commit boundary";
}

// Same discipline on direct base-relation queries (no module): counts
// must be multiples of the batch size.
TEST(SnapshotTest, BaseRelationScansAreSnapshotted) {
  constexpr int kBatches = 5;
  constexpr int kBatch = 50;
  Database db;
  ASSERT_TRUE(db.Consult(EdgeBatch(1, kBatch)).ok());

  std::atomic<bool> done{false};
  std::atomic<int> torn{0};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      Session session(&db);
      auto result = session.EvalQuery("?- edge(X, Y).");
      if (!result.ok()) {
        ADD_FAILURE() << result.status().ToString();
        return;
      }
      if (result->rows.size() % kBatch != 0) torn.fetch_add(1);
    }
  });
  for (int b = 1; b < kBatches; ++b) {
    ASSERT_TRUE(db.Consult(EdgeBatch(1 + b * kBatch, kBatch)).ok());
  }
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(torn.load(), 0);
}

TEST(SnapshotTest, SessionReadsItsOwnWritesAfterConsult) {
  Database db;
  Session session(&db);
  ASSERT_TRUE(session.Consult("edge(1, 2).\nedge(2, 3).\n").ok());
  auto result = session.EvalQuery("?- edge(X, Y).");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 2u);

  // A second session holds its snapshot across the first one's commit
  // until it refreshes.
  Session other(&db);
  auto before = other.EvalQuery("?- edge(X, Y).");
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(session.Consult("edge(3, 4).\n").ok());
  auto stale = other.EvalQuery("?- edge(X, Y).");
  ASSERT_TRUE(stale.ok());
  EXPECT_EQ(stale->rows.size(), before->rows.size());
  other.Refresh();
  auto fresh = other.EvalQuery("?- edge(X, Y).");
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->rows.size(), 3u);
}

TEST(SnapshotTest, LoadFactsCountsNewFacts) {
  Database db;
  Session session(&db);
  auto first = session.LoadFacts("p(1). p(2). p(3).");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first.value(), 3u);
  auto dup = session.LoadFacts("p(2). p(4).");
  ASSERT_TRUE(dup.ok());
  EXPECT_EQ(dup.value(), 1u);  // p(2) already present
  auto rejected = session.LoadFacts("?- p(X).");
  EXPECT_FALSE(rejected.ok());
}

TEST(SnapshotTest, BindingsSubstituteIntoQueries) {
  Database db;
  Session session(&db);
  ASSERT_TRUE(session.Consult("edge(1, 2).\nedge(1, 3).\nedge(2, 3).\n")
                  .ok());
  session.Bind("src", "1");
  auto result = session.EvalQuery("?- edge($src, X).");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows.size(), 2u);
  auto unbound = session.EvalQuery("?- edge($nope, X).");
  EXPECT_FALSE(unbound.ok());
}

TEST(SnapshotTest, DeadlineAbortsCrossProduct) {
  Database db;
  std::string facts;
  for (int i = 0; i < 64; ++i) {
    facts += "wide(" + std::to_string(i) + ").\n";
  }
  ASSERT_TRUE(db.Consult(facts).ok());
  Session session(&db, /*deadline_ms=*/15);
  // A cyclic chain of inequalities: unsatisfiable, but no static analysis
  // proves it, and every filter needs two bound variables so the
  // reordering optimizer cannot short-circuit the enumeration — the
  // engine must walk ~C(64,4) ascending 4-tuples before concluding
  // emptiness, far beyond a 15 ms budget.
  auto result = session.EvalQuery(
      "?- wide(A), wide(B), wide(C), wide(D), "
      "A < B, B < C, C < D, D < A.");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
      << result.status().ToString();

  // Clearing the deadline makes the same session usable again.
  session.set_deadline_ms(0);
  auto quick = session.EvalQuery("?- wide(0).");
  EXPECT_TRUE(quick.ok());
}

// Satellite regression: a TraceSink registered at teardown time must not
// observe a destroyed registry — ~Database detaches observers before
// tearing down evaluation state.
TEST(SnapshotTest, TeardownWithRegisteredObserversIsClean) {
  class CountingSink : public obs::TraceSink {
   public:
    void Emit(const obs::TraceEvent&) override { events_.fetch_add(1); }
    std::atomic<uint64_t> events_{0};
  };
  CountingSink sink;
  {
    Database db;
    db.set_trace_sink(&sink);
    ASSERT_TRUE(db.Consult(PathModule()).ok());
    ASSERT_TRUE(db.Consult(EdgeBatch(1, 5)).ok());
    auto result = db.EvalQuery("?- path(1, X).");
    ASSERT_TRUE(result.ok());
    // db destroyed here with the sink still registered.
  }
  EXPECT_GT(sink.events_.load(), 0u);

  // And with sessions still holding snapshots: views are shared_ptrs,
  // so a snapshot outliving the database must not be dereferenced, but
  // dropping it after teardown must be safe.
  std::shared_ptr<const ReadView> survivor;
  {
    Database db;
    ASSERT_TRUE(db.Consult(EdgeBatch(1, 3)).ok());
    survivor = db.AcquireReadSnapshot();
  }
  survivor.reset();  // must not touch freed relation memory
}

TEST(SnapshotTest, EpochAdvancesPerPublication) {
  Database db;
  ASSERT_TRUE(db.Consult("p(1).").ok());
  auto v1 = db.AcquireReadSnapshot();
  uint64_t e1 = v1->epoch;
  // No commit since: same view, same epoch.
  auto v1b = db.AcquireReadSnapshot();
  EXPECT_EQ(v1.get(), v1b.get());
  ASSERT_TRUE(db.Consult("p(2).").ok());
  auto v2 = db.AcquireReadSnapshot();
  EXPECT_GT(v2->epoch, e1);
}

// ---- frozen argument indexes on published tables ----

// `edges` random edges over `nodes` nodes: out-degrees vary, cycles occur.
std::string RandomEdges(uint32_t seed, int nodes, int edges) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> node(0, nodes - 1);
  std::string out;
  for (int i = 0; i < edges; ++i) {
    out += "edge(" + std::to_string(node(rng)) + ", " +
           std::to_string(node(rng)) + ").\n";
  }
  return out;
}

std::vector<std::string> SortedRows(const QueryResult& result) {
  std::vector<std::string> rows;
  rows.reserve(result.rows.size());
  for (const AnswerRow& row : result.rows) rows.push_back(row.ToString());
  std::sort(rows.begin(), rows.end());
  return rows;
}

// path(bf) through a Session (bound edge probes served by the view's
// frozen indexes) answers exactly what Database::EvalQuery answers on the
// live, indexed relations, and no probe degrades to a window scan.
TEST(SnapshotTest, SessionProbesMatchLiveEvaluation) {
  constexpr int kNodes = 120;
  Database db;
  ASSERT_TRUE(db.Consult(PathModule()).ok());
  ASSERT_TRUE(db.Consult(RandomEdges(/*seed=*/13, kNodes, 160)).ok());
  std::vector<std::vector<std::string>> live;
  for (int k = 0; k < kNodes; k += 7) {
    auto result = db.EvalQuery("?- path(" + std::to_string(k) + ", X).");
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    live.push_back(SortedRows(*result));
  }

  db.vm_counters()->Reset();
  Session session(&db);
  size_t answers = 0;
  for (int k = 0, i = 0; k < kNodes; k += 7, ++i) {
    auto result = session.EvalQuery("?- path(" + std::to_string(k) + ", X).");
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(SortedRows(*result), live[i]) << "path(" << k << ", X)";
    answers += result->rows.size();
  }
  EXPECT_GT(answers, 0u);
  EXPECT_GT(db.vm_counters()->probe_index.load(), 0u);
  EXPECT_EQ(db.vm_counters()->probe_scan_fallbacks.load(), 0u);
}

// Facts inserted and deleted on the probed key after a view was acquired
// are invisible to it, whether or not its index was already built, and
// visible after Refresh().
TEST(SnapshotTest, IndexedProbesAreEpochIsolated) {
  Database db;
  ASSERT_TRUE(db.Consult(PathModule()).ok());
  ASSERT_TRUE(db.Consult("edge(1, 2).\nedge(1, 3).\nedge(3, 4).\n").ok());
  auto answers = [](Session* s) {
    auto result = s->EvalQuery("?- path(1, X).");
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? SortedRows(*result) : std::vector<std::string>{};
  };
  Session reader(&db);
  Session cold(&db);  // acquires its view now, probes only after commits
  ASSERT_TRUE(cold.EvalQuery("?- edge(9, 9).").ok());
  const std::vector<std::string> before = answers(&reader);
  ASSERT_EQ(before.size(), 3u);  // 2, 3, 4

  Session writer(&db);
  auto update = writer.ApplyUpdate("+edge(1, 5).\n-edge(1, 3).\n");
  ASSERT_TRUE(update.ok()) << update.status().ToString();
  EXPECT_EQ(answers(&reader), before);
  EXPECT_EQ(answers(&cold), before);

  reader.Refresh();
  cold.Refresh();
  const std::vector<std::string> after = answers(&reader);
  EXPECT_EQ(after.size(), 2u);  // 2, 5
  EXPECT_NE(after, before);
  EXPECT_EQ(answers(&cold), after);
  auto live = db.EvalQuery("?- path(1, X).");
  ASSERT_TRUE(live.ok());
  EXPECT_EQ(SortedRows(*live), after);
}

// A stored non-ground fact lands in the frozen index's var bucket and is
// returned by every probe, as the live argument index returns it.
TEST(SnapshotTest, IndexedProbeReturnsNonGroundFacts) {
  Database db;
  ASSERT_TRUE(db.Consult("module fans.\n"
                         "export fan(bf).\n"
                         "fan(P, F) :- likes(P, F).\n"
                         "end_module.\n"
                         "likes(ann, tea).\n"
                         "likes(X, pizza).\n"
                         "likes(bob, soup).\n")
                  .ok());
  Session session(&db);
  for (const std::string who : {"ann", "bob", "cy"}) {
    const std::string query = "?- fan(" + who + ", F).";
    auto live = db.EvalQuery(query);
    ASSERT_TRUE(live.ok()) << live.status().ToString();
    db.vm_counters()->Reset();
    auto snap = session.EvalQuery(query);
    ASSERT_TRUE(snap.ok()) << snap.status().ToString();
    EXPECT_EQ(SortedRows(*snap), SortedRows(*live)) << query;
    EXPECT_EQ(snap->rows.size(), who == "cy" ? 1u : 2u) << query;
    EXPECT_GT(db.vm_counters()->probe_index.load(), 0u) << query;
    EXPECT_EQ(db.vm_counters()->probe_scan_fallbacks.load(), 0u) << query;
  }
}

// Sessions racing the first probe on one fresh view each build or adopt
// the same column set's index; every answer is still correct.
TEST(SnapshotTest, RacingFirstProbesOnOneViewAgree) {
  constexpr int kNodes = 80;
  constexpr int kSessions = 4;
  Database db;
  ASSERT_TRUE(db.Consult(PathModule()).ok());
  ASSERT_TRUE(db.Consult(RandomEdges(/*seed=*/29, kNodes, 110)).ok());
  std::vector<std::vector<std::string>> expected(kNodes);
  for (int k = 0; k < kNodes; ++k) {
    auto result = db.EvalQuery("?- path(" + std::to_string(k) + ", X).");
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    expected[k] = SortedRows(*result);
  }
  // Publish once: every session below shares this view, and no index on
  // it exists yet.
  std::shared_ptr<const ReadView> view = db.AcquireReadSnapshot();

  std::atomic<int> ready{0};
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  threads.reserve(kSessions);
  for (int t = 0; t < kSessions; ++t) {
    threads.emplace_back([&, t] {
      Session session(&db);
      ready.fetch_add(1);
      while (ready.load() < kSessions) std::this_thread::yield();
      for (int i = 0; i < kNodes; ++i) {
        int k = (i + t * 17) % kNodes;
        auto result =
            session.EvalQuery("?- path(" + std::to_string(k) + ", X).");
        if (!result.ok() || SortedRows(*result) != expected[k]) {
          wrong.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(db.AcquireReadSnapshot().get(), view.get());
}

// A published table (and the frozen indexes hanging off it) is freed with
// the last view that holds it once the relation has republished.
TEST(SnapshotTest, OldTablesAreFreedWithTheirLastView) {
  Database db;
  ASSERT_TRUE(db.Consult(PathModule()).ok());
  ASSERT_TRUE(db.Consult(EdgeBatch(1, 20)).ok());
  const Relation* edge = db.FindBaseRelation(
      PredRef{db.factory()->symbols().Intern("edge"), 2});
  ASSERT_NE(edge, nullptr);

  Session holder(&db);
  ASSERT_TRUE(holder.EvalQuery("?- path(1, X).").ok());  // builds an index
  std::weak_ptr<const RelReadTable> old_table =
      db.AcquireReadSnapshot()->tables.at(edge);
  ASSERT_FALSE(old_table.expired());

  ASSERT_TRUE(db.Consult(EdgeBatch(21, 5)).ok());
  std::shared_ptr<const ReadView> fresh = db.AcquireReadSnapshot();
  EXPECT_NE(fresh->tables.at(edge), old_table.lock());
  EXPECT_FALSE(old_table.expired()) << "the holder's view still uses it";
  holder.Refresh();
  EXPECT_TRUE(old_table.expired());
}

}  // namespace
}  // namespace coral
