#include "src/rel/memory_relation.h"

namespace coral {

const RelReadTable* MemoryRelation::EmptyTable() {
  static const RelReadTable* empty = new RelReadTable();
  return empty;
}

void MemoryRelation::PublishCommitted(uint64_t epoch) {
  auto table = std::make_shared<RelReadTable>();
  table->epoch = epoch;
  // Every subsidiary except the open one is closed (appends only ever go
  // to subs_.back()), so its tuple vector is immutable and can be shared
  // by pointer; the open one is copied.
  size_t closed = subs_.size() - 1;
  table->subs.reserve(closed);
  for (size_t i = 0; i < closed; ++i) table->subs.push_back(&subs_[i].tuples);
  table->tail = subs_.back().tuples;
  table->tombstones = std::make_shared<const TombstoneMap>(deleted_);
  pub_ = std::move(table);
  pub_dirty_ = false;
}

}  // namespace coral
