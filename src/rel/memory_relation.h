// Copyright (c) 1993-style CORAL reproduction authors.
// Shared machinery of in-memory relations: subsidiary relations (one per
// mark interval, paper §3.2), tombstone deletion, and range scans. For
// relations marked as shared base relations, commits additionally publish
// immutable epoch snapshots (src/rel/readview.h) that concurrent reader
// threads scan and probe instead of the live structures.

#ifndef CORAL_REL_MEMORY_RELATION_H_
#define CORAL_REL_MEMORY_RELATION_H_

#include <atomic>
#include <deque>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/rel/readview.h"
#include "src/rel/relation.h"
#include "src/rel/tombstones.h"
#include "src/util/logging.h"

namespace coral {

/// Base for ListRelation and HashRelation. Owns the subsidiary-relation
/// organization that implements marks; storage of tuples is append-only
/// with tombstones (Tuple objects are owned by the TermFactory and never
/// freed, so a tombstoned pointer stays valid for open scans).
///
/// Thread-safety contract: mutation (Insert/Delete/Snapshot) and live
/// reads are single-threaded, exactly as before. A relation marked with
/// MarkSharedBase participates in the server's snapshot protocol: the
/// commit lock holder calls PublishCommitted, and reader threads that
/// installed a ReadView are served frozen tables by the read paths
/// (ScanRange here; Select/Contains/ProbeArgs in HashRelation), never
/// touching the live deque, tombstone set, or indexes. The relation keeps
/// only its latest published table; older ones live as long as a view
/// holds them.
class MemoryRelation : public Relation {
 public:
  MemoryRelation(std::string name, uint32_t arity)
      : Relation(std::move(name), arity), subs_(1) {}

  size_t size() const override {
    return live_.load(std::memory_order_relaxed);
  }

  Mark Snapshot() override {
    if (subs_.back().tuples.empty()) {
      return static_cast<Mark>(subs_.size() - 1);
    }
    // kMaxMark is the open-ended scan bound, never a real subsidiary.
    CORAL_CHECK(subs_.size() < static_cast<size_t>(kMaxMark));
    subs_.emplace_back();
    OnNewSubsidiary(static_cast<uint32_t>(subs_.size() - 1));
    return static_cast<Mark>(subs_.size() - 1);
  }

  Mark CurrentMark() const override {
    return static_cast<Mark>(subs_.size() - 1);
  }

  std::unique_ptr<TupleIterator> ScanRange(Mark from, Mark to) const override;

  // ---- shared-base snapshot protocol (query server) ----
  /// Enrolls this relation in snapshot publication. Must happen-before
  /// any reader thread can reach the relation (the Database marks base
  /// relations under its base-map mutex before exposing them).
  void MarkSharedBase() {
    shared_base_ = true;
    pub_dirty_ = true;
  }
  bool is_shared_base() const { return shared_base_; }

  /// True when live state changed since the last publication. Only
  /// meaningful to the commit lock holder.
  bool publish_dirty() const { return pub_dirty_; }

  /// Freezes the current contents as the published epoch table,
  /// replacing the previous one (views taken at older epochs hold their
  /// own references). Caller must hold the database commit lock
  /// exclusively (no live mutation, no concurrent publication).
  void PublishCommitted(uint64_t epoch);

  /// The most recently published table (nullptr before the first
  /// publication). Only the commit lock holder may call this; the
  /// Database does, when assembling a ReadView.
  const std::shared_ptr<const RelReadTable>& published_table() const {
    return pub_;
  }

 protected:
  struct Subsidiary {
    std::vector<const Tuple*> tuples;
  };

  /// Hook for subclasses that keep per-subsidiary structures (indices).
  virtual void OnNewSubsidiary(uint32_t sub) { (void)sub; }

  /// Appends to the open subsidiary and maintains live bookkeeping.
  /// Returns the subsidiary number the tuple landed in. Re-insertion
  /// after deletion is live by position (the open subsidiary is at or
  /// above any tombstone boundary); the dead occurrences stay dead, so
  /// live_ accounting is exact across delete-then-reinsert sequences.
  uint32_t AppendToCurrent(const Tuple* t) {
    uint32_t sub = static_cast<uint32_t>(subs_.size() - 1);
    subs_[sub].tuples.push_back(t);
    live_.fetch_add(1, std::memory_order_relaxed);
    if (shared_base_) pub_dirty_ = true;
    return sub;
  }

  /// True iff the occurrence of `t` in subsidiary `sub` is dead.
  bool IsDeletedAt(const Tuple* t, uint32_t sub) const {
    return TombstonedAt(deleted_, t, sub);
  }

  /// Kills every existing occurrence of `t` (the caller counted them as
  /// `occurrences`). Closes the open subsidiary first so the boundary
  /// covers all of them.
  void MarkDeleted(const Tuple* t, size_t occurrences) {
    uint32_t boundary = static_cast<uint32_t>(Snapshot());
    deleted_[t] = boundary;  // monotone: Snapshot() never moves backwards
    live_.fetch_sub(occurrences, std::memory_order_relaxed);
    if (shared_base_) pub_dirty_ = true;
  }

  /// The frozen table reader threads must use instead of live state:
  /// nullptr when this thread reads live (no view installed, or the
  /// relation is not a shared base). A shared base absent from the view
  /// was created after the view's epoch and reads as empty.
  const RelReadTable* ViewTable() const {
    if (!shared_base_) return nullptr;
    const ReadView* view = ActiveReadView();
    if (view == nullptr) return nullptr;
    const RelReadTable* table = view->TableFor(this);
    return table != nullptr ? table : EmptyTable();
  }

  static const RelReadTable* EmptyTable();

  // deque: closed subsidiaries never move, so published tables can point
  // straight at their tuple vectors.
  std::deque<Subsidiary> subs_;
  TombstoneMap deleted_;
  // relaxed atomic: the optimizer's cardinality heuristic reads size()
  // from compile threads while the writer loads facts.
  std::atomic<size_t> live_{0};

 private:
  bool shared_base_ = false;
  bool pub_dirty_ = false;
  std::shared_ptr<const RelReadTable> pub_;

  friend class MemoryScanIterator;
};

/// Walks subsidiaries [from, to), index-based so concurrent appends are
/// safe; skips tombstoned tuples at yield time.
class MemoryScanIterator : public TupleIterator {
 public:
  MemoryScanIterator(const MemoryRelation* rel, Mark from, Mark to)
      : rel_(rel), sub_(from), to_(to) {}

  const Tuple* Next() override {
    while (true) {
      uint32_t hi = std::min<uint32_t>(
          to_, static_cast<uint32_t>(rel_->subs_.size()));
      if (sub_ >= hi) return nullptr;
      const auto& tuples = rel_->subs_[sub_].tuples;
      if (pos_ >= tuples.size()) {
        if (sub_ + 1 >= hi) return nullptr;
        ++sub_;
        pos_ = 0;
        continue;
      }
      const Tuple* t = tuples[pos_++];
      if (!rel_->IsDeletedAt(t, sub_)) return t;
    }
  }

 private:
  const MemoryRelation* rel_;
  uint32_t sub_;
  uint32_t to_;
  size_t pos_ = 0;
};

/// Walks a published RelReadTable over subsidiary range [from, to),
/// filtering against the table's frozen tombstone set. Touches no live
/// relation state, so any number of readers can run against any number
/// of epochs while a writer commits.
class TableScanIterator : public TupleIterator {
 public:
  TableScanIterator(const RelReadTable* table, Mark from, Mark to)
      : table_(table), sub_(from), to_(to) {}

  const Tuple* Next() override {
    uint32_t hi = std::min<uint32_t>(to_, table_->sub_count());
    while (sub_ < hi) {
      const std::vector<const Tuple*>& tuples = table_->sub(sub_);
      if (pos_ >= tuples.size()) {
        ++sub_;
        pos_ = 0;
        continue;
      }
      const Tuple* t = tuples[pos_++];
      if (!table_->IsDeleted(t, sub_)) return t;
    }
    return nullptr;
  }

 private:
  const RelReadTable* table_;
  uint32_t sub_;
  uint32_t to_;
  size_t pos_ = 0;
};

inline std::unique_ptr<TupleIterator> MemoryRelation::ScanRange(
    Mark from, Mark to) const {
  if (const RelReadTable* table = ViewTable()) {
    return std::make_unique<TableScanIterator>(table, from, to);
  }
  return std::make_unique<MemoryScanIterator>(this, from, to);
}

}  // namespace coral

#endif  // CORAL_REL_MEMORY_RELATION_H_
