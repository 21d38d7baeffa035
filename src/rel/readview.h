// Copyright (c) 1993-style CORAL reproduction authors.
// Epoch snapshots of shared base relations for the multi-client query
// server: a writer commit (Database::Consult / InsertFact / DeleteFacts)
// publishes, per dirty relation, an immutable RelReadTable — the frozen
// subsidiary organization (paper §3.2 marks) plus a copy-on-write
// tombstone set. Reader threads install a ReadView (the set of published
// tables at one epoch) for the duration of a query; every relation access
// the evaluation makes on a shared base relation is served from the view,
// so concurrent commits are invisible until the session refreshes.
//
// Tables are reference-counted: the relation holds only its latest table
// and each view holds the tables of its epoch, so a table (with its
// frozen indexes) is freed with the last view that holds it and a view
// outlives any number of later commits. Bound-argument probes on a table
// are served by frozen argument indexes (paper §3.3, §5.5.1) that the
// first probe on a column set builds over the immutable table and
// publishes lock-free.

#ifndef CORAL_REL_READVIEW_H_
#define CORAL_REL_READVIEW_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/rel/tombstones.h"

namespace coral {

class Arg;
class FrozenArgIndex;
class Relation;
class Tuple;

/// One relation's frozen state at a publication epoch. `subs` points at
/// the tuple vectors of the relation's CLOSED subsidiaries (append-only,
/// immutable once closed); `tail` is a copy of the open subsidiary taken
/// at publication. Subsidiary k of the snapshot is subs[k] for
/// k < subs.size() and `tail` for k == subs.size(), preserving mark
/// arithmetic. Tombstones are snapshotted wholesale (the boundary map
/// mutates in place on deletion); an occurrence is dead iff its
/// subsidiary is below the tuple's boundary (src/rel/tombstones.h).
///
/// The fields are written once by the publisher before the table is
/// shared; afterwards only the lazily built index list changes.
struct RelReadTable {
  std::vector<const std::vector<const Tuple*>*> subs;
  std::vector<const Tuple*> tail;
  std::shared_ptr<const TombstoneMap> tombstones;
  uint64_t epoch = 0;

  ~RelReadTable();  // frees the frozen indexes

  /// Number of subsidiaries the snapshot covers (closed ones + the tail).
  uint32_t sub_count() const {
    return static_cast<uint32_t>(subs.size()) + 1;
  }
  const std::vector<const Tuple*>& sub(uint32_t k) const {
    return k < subs.size() ? *subs[k] : tail;
  }
  bool IsDeleted(const Tuple* t, uint32_t sub) const {
    return tombstones != nullptr && TombstonedAt(*tombstones, t, sub);
  }

  /// HashRelation::ProbeArgs over the frozen table: appends a candidate
  /// SUPERSET of the live occurrences whose columns `cols` equal the
  /// ground `key` (one Arg per column, in `cols` order) within
  /// subsidiaries [from, to), var-bucket postings included. The first
  /// probe on a column set builds that set's index; safe to call from
  /// any number of threads.
  void Probe(std::span<const uint32_t> cols, std::span<const Arg* const> key,
             uint32_t from, uint32_t to, std::vector<const Tuple*>* out) const;

 private:
  const FrozenArgIndex* IndexFor(std::span<const uint32_t> cols) const;

  // Immutable indexes, newest first, each linked to the one it was
  // pushed onto; a builder that loses the push race discards its copy.
  mutable std::atomic<const FrozenArgIndex*> indexes_{nullptr};
};

/// The set of published tables one query evaluates against. Relations
/// absent from the map either are not shared base relations (module-
/// internal relations always read live state) or did not exist at the
/// view's epoch (they read as empty via the snapshot paths only when
/// marked shared).
struct ReadView {
  uint64_t epoch = 0;
  std::unordered_map<const Relation*, std::shared_ptr<const RelReadTable>>
      tables;

  const RelReadTable* TableFor(const Relation* rel) const {
    auto it = tables.find(rel);
    return it == tables.end() ? nullptr : it->second.get();
  }
};

/// The view installed on the calling thread, or nullptr (live reads —
/// the single-user default). Relations consult this in their read paths.
const ReadView* ActiveReadView();

/// RAII installer for the calling thread's view; restores the previous
/// one (views nest, e.g. a session query that triggers a module call).
class ScopedReadView {
 public:
  explicit ScopedReadView(const ReadView* view);
  ~ScopedReadView();
  ScopedReadView(const ScopedReadView&) = delete;
  ScopedReadView& operator=(const ScopedReadView&) = delete;

 private:
  const ReadView* prev_;
};

}  // namespace coral

#endif  // CORAL_REL_READVIEW_H_
