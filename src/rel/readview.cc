#include "src/rel/readview.h"

#include <algorithm>

#include "src/data/tuple.h"
#include "src/util/hash.h"

namespace coral {

namespace {
thread_local const ReadView* g_active_view = nullptr;

// Frozen-index key hashes are only compared with each other.
constexpr uint64_t kKeySeed = 0x1dec5ull;
}  // namespace

/// An argument-form index over one immutable RelReadTable. Built once
/// into a single exact-size array: entries with a ground key, sorted by
/// (key hash, position in the table), followed by the var bucket
/// (entries whose key columns hold a variable) in table order. Positions
/// count live occurrences in subsidiary order, so a subsidiary window is
/// a position range. Dead occurrences are dropped at build time, since
/// the table's tombstones never change.
class FrozenArgIndex {
 public:
  FrozenArgIndex(const RelReadTable& table, std::span<const uint32_t> cols,
                 const FrozenArgIndex* next)
      : cols_(cols.begin(), cols.end()), next_(next) {
    // Pass 1 sizes the array exactly and records where each subsidiary
    // starts; pass 2 fills it in table order, so positions reproduce the
    // live index's per-key insertion order.
    sub_start_.reserve(table.sub_count() + 1);
    uint32_t live = 0;
    size_t ground = 0;
    for (uint32_t s = 0; s < table.sub_count(); ++s) {
      sub_start_.push_back(live);
      for (const Tuple* t : table.sub(s)) {
        if (table.IsDeleted(t, s)) continue;
        ++live;
        uint32_t key;
        if (KeyOf(t, &key)) ++ground;
      }
    }
    sub_start_.push_back(live);
    entries_.resize(live);
    ground_ = ground;
    size_t g = 0;
    size_t v = ground;
    uint32_t pos = 0;
    for (uint32_t s = 0; s < table.sub_count(); ++s) {
      for (const Tuple* t : table.sub(s)) {
        if (table.IsDeleted(t, s)) continue;
        uint32_t key;
        if (KeyOf(t, &key)) {
          entries_[g++] = Entry{key, pos++, t};
        } else {
          entries_[v++] = Entry{0, pos++, t};
        }
      }
    }
    std::sort(entries_.begin(), entries_.begin() + ground_,
              [](const Entry& a, const Entry& b) {
                return a.key != b.key ? a.key < b.key : a.pos < b.pos;
              });
  }

  bool IsOn(std::span<const uint32_t> cols) const {
    return std::equal(cols.begin(), cols.end(), cols_.begin(), cols_.end());
  }
  const FrozenArgIndex* next() const { return next_; }
  void set_next(const FrozenArgIndex* next) { next_ = next; }

  void Lookup(std::span<const Arg* const> key, uint32_t from, uint32_t to,
              std::vector<const Tuple*>* out) const {
    uint32_t lo = StartOf(from);
    uint32_t hi = StartOf(to);
    if (lo >= hi) return;
    uint64_t k = kKeySeed;
    for (const Arg* a : key) k = HashCombine(k, a->Hash());
    const uint32_t k32 = static_cast<uint32_t>(k);
    auto ground_end = entries_.begin() + ground_;
    auto it = std::lower_bound(
        entries_.begin(), ground_end, k32, [lo](const Entry& e, uint32_t x) {
          return e.key != x ? e.key < x : e.pos < lo;
        });
    for (; it != ground_end && it->key == k32 && it->pos < hi; ++it) {
      out->push_back(it->tuple);
    }
    it = std::lower_bound(ground_end, entries_.end(), lo,
                          [](const Entry& e, uint32_t p) { return e.pos < p; });
    for (; it != entries_.end() && it->pos < hi; ++it) {
      out->push_back(it->tuple);
    }
  }

 private:
  // 16 bytes: the key hash is cut to 32 bits. A collision only adds
  // candidates, which ProbeArgs' callers filter anyway.
  struct Entry {
    uint32_t key;
    uint32_t pos;
    const Tuple* tuple;
  };

  /// Position of the first live occurrence in subsidiary `sub` or later.
  uint32_t StartOf(uint32_t sub) const {
    return sub_start_[std::min<size_t>(sub, sub_start_.size() - 1)];
  }

  /// The key hash of `t` on cols_, cut to 32 bits, or false when a key
  /// column holds a variable (var bucket).
  bool KeyOf(const Tuple* t, uint32_t* key) const {
    uint64_t k = kKeySeed;
    for (uint32_t c : cols_) {
      const Arg* v = t->arg(c);
      if (!v->IsGround()) return false;
      k = HashCombine(k, v->Hash());
    }
    *key = static_cast<uint32_t>(k);
    return true;
  }

  std::vector<uint32_t> cols_;
  std::vector<uint32_t> sub_start_;  // sub_count() + 1 entries
  std::vector<Entry> entries_;
  size_t ground_ = 0;
  const FrozenArgIndex* next_;
};

RelReadTable::~RelReadTable() {
  const FrozenArgIndex* idx = indexes_.load(std::memory_order_acquire);
  while (idx != nullptr) {
    const FrozenArgIndex* next = idx->next();
    delete idx;
    idx = next;
  }
}

const FrozenArgIndex* RelReadTable::IndexFor(
    std::span<const uint32_t> cols) const {
  auto find = [cols](const FrozenArgIndex* idx) {
    while (idx != nullptr && !idx->IsOn(cols)) idx = idx->next();
    return idx;
  };
  const FrozenArgIndex* head = indexes_.load(std::memory_order_acquire);
  if (const FrozenArgIndex* hit = find(head)) return hit;
  auto built = std::make_unique<FrozenArgIndex>(*this, cols, head);
  while (!indexes_.compare_exchange_weak(head, built.get(),
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
    // Another builder pushed first: use its index if it is this one.
    if (const FrozenArgIndex* hit = find(head)) return hit;
    built->set_next(head);
  }
  return built.release();
}

void RelReadTable::Probe(std::span<const uint32_t> cols,
                         std::span<const Arg* const> key, uint32_t from,
                         uint32_t to, std::vector<const Tuple*>* out) const {
  IndexFor(cols)->Lookup(key, from, to, out);
}

const ReadView* ActiveReadView() { return g_active_view; }

ScopedReadView::ScopedReadView(const ReadView* view) : prev_(g_active_view) {
  g_active_view = view;
}

ScopedReadView::~ScopedReadView() { g_active_view = prev_; }

}  // namespace coral
