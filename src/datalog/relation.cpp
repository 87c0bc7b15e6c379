#include "datalog/relation.h"

#include <algorithm>
#include <functional>

#include "util/failpoint.h"

namespace sparqlog::datalog {

namespace {

SPARQLOG_FAILPOINT_DEFINE(g_fp_merge_round, "datalog.merge.round");

/// Initial open-addressing table size (power of two).
constexpr size_t kInitialSlots = 16;

/// Grow when count * 2 >= slots (load factor 0.5).
inline bool NeedsGrow(size_t count, size_t slots) {
  return (count + 1) * 2 >= slots;
}

/// Smallest power-of-two slot count that holds `count` keys below the 0.5
/// load factor — the one-shot table size used by BulkLoad.
inline size_t SlotsFor(size_t count) {
  size_t n = kInitialSlots;
  while (NeedsGrow(count, n)) n *= 2;
  return n;
}

}  // namespace

// --- TupleStore -------------------------------------------------------------

void TupleStore::Grow() {
  Rehash(slots_.empty() ? kInitialSlots : slots_.size() * 2);
}

void TupleStore::Rehash(size_t new_size) {
  std::vector<uint32_t> fresh(new_size, 0);
  size_t mask = new_size - 1;
  for (uint32_t id = 0; id < num_rows_; ++id) {
    size_t slot = HashRow(row_data(id)) & mask;
    while (fresh[slot] != 0) slot = (slot + 1) & mask;
    fresh[slot] = id + 1;
  }
  slots_ = std::move(fresh);
}

template <typename Stride>
uint32_t TupleStore::InsertImpl(Stride s, const Value* row, bool* inserted) {
  if (NeedsGrow(num_rows_, slots_.size())) Grow();
  size_t mask = slots_.size() - 1;
  size_t slot = StrideHashRow(s, row) & mask;
  while (slots_[slot] != 0) {
    uint32_t candidate = slots_[slot] - 1;
    if (StrideRowEquals(s, row_data(candidate), row)) {
      *inserted = false;
      return candidate;
    }
    slot = (slot + 1) & mask;
  }
  uint32_t id = num_rows_++;
  // `row` may alias this arena (e.g. Insert(rel.row(i), ...) copying a
  // tuple of the same relation): reserve up front so the element-wise
  // appends below cannot reallocate mid-loop and invalidate it. The
  // per-element push_back (rather than a range insert) keeps the append
  // well-defined even for an aliased source.
  if (arena_.size() + s.arity() > arena_.capacity()) {
    // std::less gives the total pointer order [expr.rel] doesn't
    // guarantee for pointers into different objects.
    std::less<const Value*> lt;
    bool aliases = !lt(row, arena_.data()) &&
                   lt(row, arena_.data() + arena_.size());
    size_t offset = aliases ? static_cast<size_t>(row - arena_.data()) : 0;
    arena_.reserve(std::max(arena_.capacity() * 2,
                            arena_.size() + s.arity()));
    if (aliases) row = arena_.data() + offset;
  }
  for (uint32_t i = 0; i < s.arity(); ++i) arena_.push_back(row[i]);
  slots_[slot] = id + 1;
  *inserted = true;
  return id;
}

uint32_t TupleStore::Insert(const Value* row, bool* inserted) {
  return WithStride(arity_, [&](auto s) {
    return InsertImpl(s, row, inserted);
  });
}

template <typename Stride>
bool TupleStore::ContainsImpl(Stride s, const Value* row) const {
  if (slots_.empty()) return false;
  size_t mask = slots_.size() - 1;
  size_t slot = StrideHashRow(s, row) & mask;
  while (slots_[slot] != 0) {
    if (StrideRowEquals(s, row_data(slots_[slot] - 1), row)) return true;
    slot = (slot + 1) & mask;
  }
  return false;
}

bool TupleStore::Contains(const Value* row) const {
  return WithStride(arity_, [&](auto s) { return ContainsImpl(s, row); });
}

template <typename Stride>
uint32_t TupleStore::BulkLoadImpl(Stride s, const Value* rows,
                                  size_t num_rows) {
  const uint32_t k = s.arity();
  if (k == 0) return 0;  // nullary stores are never bulk-loaded

  // One-shot dedup table sized for the all-distinct worst case: the whole
  // load runs without a single NeedsGrow check, table doubling or
  // rehash, and the arena is reserved up front so appends never
  // reallocate. Rows keep their first-occurrence order, which makes a
  // bulk-built store bit-identical — arena order included — to one built
  // by per-tuple Insert of the same batch.
  slots_.assign(SlotsFor(num_rows), 0u);
  const size_t mask = slots_.size() - 1;
  arena_.reserve(num_rows * static_cast<size_t>(k));
  const Value* row = rows;
  for (size_t i = 0; i < num_rows; ++i, row += k) {
    size_t slot = StrideHashRow(s, row) & mask;
    bool duplicate = false;
    while (slots_[slot] != 0) {
      if (StrideRowEquals(s, row_data(slots_[slot] - 1), row)) {
        duplicate = true;
        break;
      }
      slot = (slot + 1) & mask;
    }
    if (duplicate) continue;
    arena_.insert(arena_.end(), row, row + k);
    slots_[slot] = ++num_rows_;  // row id + 1
  }

  // A duplicate-heavy batch leaves the worst-case table mostly empty and
  // the arena reservation mostly unused; rebuild the table compactly
  // (distinct rows only — cheap) and release the spare arena capacity so
  // the resident footprint tracks the deduplicated relation, not the
  // raw batch.
  size_t compact = SlotsFor(num_rows_);
  if (compact * 4 <= slots_.size()) Rehash(compact);
  if (arena_.size() * 4 <= arena_.capacity()) arena_.shrink_to_fit();
  return num_rows_;
}

uint32_t TupleStore::BulkLoad(const Value* rows, size_t num_rows) {
  assert(num_rows_ == 0 && arena_.empty());
  assert(arity_ > 0);
  return WithStride(arity_, [&](auto s) {
    return BulkLoadImpl(s, rows, num_rows);
  });
}

template <typename Stride>
void TupleStore::AppendDistinctImpl(Stride s, const Value* rows,
                                    size_t num_rows) {
  const uint32_t k = s.arity();
  const size_t final_rows = num_rows_ + num_rows;
  // One table resize to the final size, then every append probes to the
  // first empty slot: known-new rows need no key comparisons, and the
  // pre-sizing means no incremental doubling mid-batch.
  if (SlotsFor(final_rows) > slots_.size()) Rehash(SlotsFor(final_rows));
  const size_t mask = slots_.size() - 1;
  // One contiguous arena append for the whole batch, then a pure
  // hash-and-slot pass over the freshly copied rows.
  const uint32_t first = num_rows_;
  arena_.reserve(final_rows * static_cast<size_t>(k));
  arena_.insert(arena_.end(), rows,
                rows + num_rows * static_cast<size_t>(k));
  // Hashing streams the arena sequentially; the slot writes that follow
  // land on random cache lines of a table that can be tens of megabytes.
  // Splitting the two lets the second pass prefetch its slots a fixed
  // distance ahead, hiding most of the miss latency.
  std::vector<uint64_t> hashes(num_rows);
  for (size_t i = 0; i < num_rows; ++i) {
    const Value* row = row_data(first + static_cast<uint32_t>(i));
    // The caller's distinctness proof, revalidated in debug builds (note
    // intra-batch duplicates surface only once their earlier copy's slot
    // is written, i.e. on a later AppendDistinct or Contains).
    assert(!ContainsImpl(s, row));
    hashes[i] = StrideHashRow(s, row);
  }
  constexpr size_t kPrefetchAhead = 16;
  for (size_t i = 0; i < num_rows; ++i) {
    if (i + kPrefetchAhead < num_rows) {
      __builtin_prefetch(&slots_[hashes[i + kPrefetchAhead] & mask], 1);
    }
    size_t slot = hashes[i] & mask;
    while (slots_[slot] != 0) slot = (slot + 1) & mask;
    slots_[slot] = ++num_rows_;  // row id + 1
  }
}

void TupleStore::AppendDistinct(const Value* rows, size_t num_rows) {
  assert(arity_ > 0);
  WithStride(arity_, [&](auto s) {
    AppendDistinctImpl(s, rows, num_rows);
    return 0;
  });
}

// --- Relation::Index --------------------------------------------------------

uint64_t Relation::Index::HashProjected(const TupleStore& store,
                                        uint32_t row_id) const {
  const Value* row = store.row_data(row_id);
  // size_t seed (not uint64_t): HashCombine takes size_t&, and the result
  // must stay hash-compatible with HashRange as used by Index::Find.
  size_t seed = 0xcbf29ce484222325ULL;
  for (uint32_t c : cols) {
    HashCombine(seed, std::hash<uint64_t>()(row[c]));
  }
  return Fmix64(seed);
}

bool Relation::Index::KeyEqualsRow(const TupleStore& store,
                                   uint32_t bucket_first,
                                   const Value* key) const {
  const Value* row = store.row_data(bucket_first);
  for (size_t j = 0; j < cols.size(); ++j) {
    if (row[cols[j]] != key[j]) return false;
  }
  return true;
}

bool Relation::Index::ProjectedEquals(const TupleStore& store, uint32_t a,
                                      const Value* b_row) const {
  const Value* a_row = store.row_data(a);
  for (uint32_t c : cols) {
    if (a_row[c] != b_row[c]) return false;
  }
  return true;
}

void Relation::Index::Grow() {
  size_t new_size = slots.empty() ? kInitialSlots : slots.size() * 2;
  std::vector<uint32_t> fresh(new_size, 0);
  std::vector<uint64_t> fresh_hashes(new_size, 0);
  size_t mask = new_size - 1;
  for (size_t s = 0; s < slots.size(); ++s) {
    if (slots[s] == 0) continue;
    size_t slot = slot_hashes[s] & mask;
    while (fresh[slot] != 0) slot = (slot + 1) & mask;
    fresh[slot] = slots[s];
    fresh_hashes[slot] = slot_hashes[s];
  }
  slots = std::move(fresh);
  slot_hashes = std::move(fresh_hashes);
}

void Relation::Index::Add(const TupleStore& store, uint32_t row_id) {
  if (NeedsGrow(num_keys, slots.size())) Grow();
  uint64_t hash = HashProjected(store, row_id);
  size_t mask = slots.size() - 1;
  size_t slot = hash & mask;
  const Value* row = store.row_data(row_id);
  while (slots[slot] != 0) {
    if (slot_hashes[slot] == hash) {
      std::vector<uint32_t>& bucket = buckets[slots[slot] - 1];
      if (ProjectedEquals(store, bucket[0], row)) {
        bucket.push_back(row_id);
        return;
      }
    }
    slot = (slot + 1) & mask;
  }
  buckets.emplace_back(1, row_id);
  slots[slot] = static_cast<uint32_t>(buckets.size());
  slot_hashes[slot] = hash;
  ++num_keys;
}

const std::vector<uint32_t>* Relation::Index::Find(const TupleStore& store,
                                                   const Value* key) const {
  if (slots.empty()) return nullptr;
  uint64_t hash = Fmix64(HashRange(key, key + cols.size()));
  size_t mask = slots.size() - 1;
  size_t slot = hash & mask;
  while (slots[slot] != 0) {
    if (slot_hashes[slot] == hash) {
      const std::vector<uint32_t>& bucket = buckets[slots[slot] - 1];
      if (KeyEqualsRow(store, bucket[0], key)) return &bucket;
    }
    slot = (slot + 1) & mask;
  }
  return nullptr;
}

size_t Relation::Index::bytes() const {
  size_t n = slots.capacity() * sizeof(uint32_t) +
             slot_hashes.capacity() * sizeof(uint64_t) +
             cols.capacity() * sizeof(uint32_t);
  for (const auto& bucket : buckets) {
    n += bucket.capacity() * sizeof(uint32_t) + sizeof(bucket);
  }
  return n;
}

// --- Relation ---------------------------------------------------------------

template <typename Stride>
bool Relation::InsertWithStride(Stride s, const Value* row, uint32_t round) {
  // Semi-naive RoundRange bookkeeping requires non-decreasing rounds.
  assert(round_marks_.empty() || round >= round_marks_.back().first);
  bool inserted = false;
  uint32_t id = store_.InsertImpl(s, row, &inserted);
  if (!inserted) return false;
  if (round_marks_.empty() || round_marks_.back().first != round) {
    round_marks_.emplace_back(round, id);
  }
  ForEachIndex([&](Index& index) { index.Add(store_, id); });
  return true;
}

bool Relation::Insert(const Value* row, uint32_t round) {
  return WithStride(arity(), [&](auto s) {
    return InsertWithStride(s, row, round);
  });
}

size_t Relation::InsertStaged(const Value* rows, size_t num_rows,
                              uint32_t round) {
  // One stride dispatch for the whole staged batch: the barrier merge of
  // a parallel round is a straight run of same-arity inserts.
  return WithStride(arity(), [&](auto s) {
    size_t inserted = 0;
    const Value* row = rows;
    for (size_t i = 0; i < num_rows; ++i, row += s.arity()) {
      if (InsertWithStride(s, row, round)) ++inserted;
    }
    return inserted;
  });
}

void Relation::AppendDistinct(const Value* rows, size_t num_rows,
                              uint32_t round) {
  if (num_rows == 0) return;
  assert(round_marks_.empty() || round >= round_marks_.back().first);
  const uint32_t first = store_.size();
  if (round_marks_.empty() || round_marks_.back().first != round) {
    round_marks_.emplace_back(round, first);
  }
  store_.AppendDistinct(rows, num_rows);
  ForEachIndex([&](Index& index) {
    for (uint32_t id = first; id < store_.size(); ++id) {
      index.Add(store_, id);
    }
  });
}

uint32_t Relation::BulkLoad(const Value* rows, size_t num_rows,
                            uint32_t round) {
  // Bulk loads must be the relation's first mutation: the arena must be
  // empty and no index may exist yet (it would not see the loaded rows).
  assert(size() == 0);
  assert(num_indexes_.load(std::memory_order_relaxed) == 0);
  uint32_t loaded = store_.BulkLoad(rows, num_rows);
  if (loaded > 0) round_marks_.emplace_back(round, 0);
  return loaded;
}

size_t Relation::RemoveRows(const Value* rows, size_t num_rows,
                            RemovalUndo* undo) {
  const uint32_t k = arity();
  assert(k > 0);
  if (undo != nullptr) *undo = RemovalUndo{};
  if (num_rows == 0 || store_.size() == 0) return 0;
  // Locate each doomed row through the dedup table and unlink it with
  // backward-shift deletion (linear probe chains stay dense, no
  // tombstones). The table keeps serving lookups between unlinks, so a
  // duplicate in `rows` simply probes to an empty slot. Rebuilding the
  // table instead would hash every survivor — O(relation) for a
  // 100-tuple delete.
  std::vector<char> doomed(store_.size(), 0);
  size_t removed = 0;
  WithStride(k, [&](auto s) {
    const size_t mask = store_.slots_.size() - 1;
    const Value* row = rows;
    for (size_t i = 0; i < num_rows; ++i, row += s.arity()) {
      size_t slot = StrideHashRow(s, row) & mask;
      uint32_t found = 0;  // row id + 1
      while (store_.slots_[slot] != 0) {
        uint32_t id = store_.slots_[slot] - 1;
        if (StrideRowEquals(s, store_.row_data(id), row)) {
          found = id + 1;
          break;
        }
        slot = (slot + 1) & mask;
      }
      if (found == 0) continue;
      doomed[found - 1] = 1;
      ++removed;
      // Backward shift: pull forward every chained entry whose home slot
      // does not lie strictly inside (hole, j] — those may legally move
      // into the hole; the rest would land before their home and become
      // unreachable.
      size_t hole = slot;
      size_t j = slot;
      bool open = true;
      while (open) {
        store_.slots_[hole] = 0;
        for (;;) {
          j = (j + 1) & mask;
          const uint32_t v = store_.slots_[j];
          if (v == 0) {
            open = false;
            break;
          }
          const size_t home =
              StrideHashRow(s, store_.row_data(v - 1)) & mask;
          const bool stays = hole < j ? (home > hole && home <= j)
                                      : (home > hole || home <= j);
          if (!stays) {
            store_.slots_[hole] = v;
            hole = j;
            break;
          }
        }
      }
    }
    return 0;
  });
  if (removed == 0) return 0;
  if (undo != nullptr) {
    // The arena is still pre-removal here (only dedup slots were
    // unlinked above), so the doomed scan reads original ids and values.
    undo->prior_rows = store_.size();
    undo->round_marks = round_marks_;
    undo->ids.reserve(removed);
    undo->rows.reserve(removed * k);
    for (uint32_t id = 0; id < store_.size(); ++id) {
      if (!doomed[id]) continue;
      undo->ids.push_back(id);
      const Value* r = store_.row_data(id);
      undo->rows.insert(undo->rows.end(), r, r + k);
    }
  }
  // When every doomed row sits at the arena tail — the common shape for
  // retracting recently inserted tuples — survivors keep their ids:
  // truncate and stop, touching nothing proportional to the relation.
  const uint32_t suffix_keep = store_.size() - static_cast<uint32_t>(removed);
  bool suffix = true;
  for (uint32_t id = suffix_keep; id < store_.size(); ++id) {
    if (!doomed[id]) {
      suffix = false;
      break;
    }
  }
  uint32_t keep = suffix_keep;
  if (suffix) {
    store_.num_rows_ = keep;
    store_.arena_.resize(static_cast<size_t>(keep) * k);
  } else {
    // Compact the arena in place, preserving survivor order, then
    // renumber the surviving ids in the table directly — renaming a row
    // does not move its slot, so no rehash is needed.
    std::vector<uint32_t> new_id(store_.size(), 0);
    keep = 0;
    for (uint32_t id = 0; id < store_.size(); ++id) {
      if (doomed[id]) continue;
      new_id[id] = keep;
      if (keep != id) {
        std::copy(store_.arena_.begin() + static_cast<size_t>(id) * k,
                  store_.arena_.begin() + static_cast<size_t>(id + 1) * k,
                  store_.arena_.begin() + static_cast<size_t>(keep) * k);
      }
      ++keep;
    }
    store_.num_rows_ = keep;
    store_.arena_.resize(static_cast<size_t>(keep) * k);
    for (uint32_t& v : store_.slots_) {
      if (v != 0) v = new_id[v - 1] + 1;
    }
  }
  // A mass delete (e.g. a fixpoint over-delete cascade) can leave the
  // table arbitrarily under-loaded; shrink through the rebuild then.
  if (SlotsFor(keep) * 4 <= store_.slots_.size()) {
    store_.Rehash(SlotsFor(keep));
  }
  // Row ids shifted: round provenance and index buckets are both stale.
  // Survivors collapse into round 0 (the caller re-derives from there)
  // and indexes rebuild lazily on the next probe.
  round_marks_.clear();
  if (keep > 0) round_marks_.emplace_back(0u, 0u);
  retired_.clear();
  for (auto& index : indexes_) {
    if (index) retired_.push_back(std::move(index));
  }
  num_indexes_.store(0, std::memory_order_release);
  return removed;
}

void Relation::RestoreRemoved(const RemovalUndo& undo) {
  if (undo.empty()) return;
  const uint32_t k = arity();
  assert(store_.size() + undo.ids.size() == undo.prior_rows);
  // Rebuild the pre-removal arena: removed tuples reclaim their original
  // ids, survivors (currently packed in original relative order) fill
  // the gaps in sequence.
  std::vector<Value> arena(static_cast<size_t>(undo.prior_rows) * k);
  std::vector<char> removed_at(undo.prior_rows, 0);
  for (size_t i = 0; i < undo.ids.size(); ++i) {
    const uint32_t id = undo.ids[i];
    removed_at[id] = 1;
    std::copy(undo.rows.begin() + i * k, undo.rows.begin() + (i + 1) * k,
              arena.begin() + static_cast<size_t>(id) * k);
  }
  uint32_t src = 0;
  for (uint32_t id = 0; id < undo.prior_rows; ++id) {
    if (removed_at[id]) continue;
    std::copy(store_.arena_.begin() + static_cast<size_t>(src) * k,
              store_.arena_.begin() + static_cast<size_t>(src + 1) * k,
              arena.begin() + static_cast<size_t>(id) * k);
    ++src;
  }
  assert(src == store_.size());
  store_.arena_ = std::move(arena);
  store_.num_rows_ = undo.prior_rows;
  store_.Rehash(SlotsFor(undo.prior_rows));
  round_marks_ = undo.round_marks;
  for (auto& index : indexes_) index.reset();
  num_indexes_.store(0, std::memory_order_release);
}

void Relation::TruncateTo(uint32_t keep_rows) {
  assert(keep_rows <= store_.size());
  if (keep_rows == store_.size()) return;
  store_.num_rows_ = keep_rows;
  store_.arena_.resize(static_cast<size_t>(keep_rows) * arity());
  store_.Rehash(SlotsFor(keep_rows));
  while (!round_marks_.empty() && round_marks_.back().second >= keep_rows) {
    round_marks_.pop_back();
  }
  for (auto& index : indexes_) index.reset();
  num_indexes_.store(0, std::memory_order_release);
}

uint32_t Relation::row_round(uint32_t id) const {
  assert(id < store_.size());
  // Find the last mark whose first row id is <= id.
  auto it = std::upper_bound(
      round_marks_.begin(), round_marks_.end(), id,
      [](uint32_t v, const auto& mark) { return v < mark.second; });
  return (--it)->first;
}

std::pair<uint32_t, uint32_t> Relation::RoundRange(uint32_t round) const {
  auto it = std::lower_bound(
      round_marks_.begin(), round_marks_.end(), round,
      [](const auto& mark, uint32_t v) { return mark.first < v; });
  if (it == round_marks_.end() || it->first != round) return {0, 0};
  uint32_t lo = it->second;
  ++it;
  uint32_t hi = it == round_marks_.end() ? store_.size() : it->second;
  return {lo, hi};
}

Relation::Index* Relation::FindPublishedIndex(
    const std::vector<uint32_t>& cols) const {
  uint32_t n = num_indexes_.load(std::memory_order_acquire);
  for (uint32_t i = 0; i < n; ++i) {
    if (indexes_[i]->cols == cols) return indexes_[i].get();
  }
  return nullptr;
}

bool Relation::Probe(const std::vector<uint32_t>& cols,
                     const std::vector<Value>& key, MatchSpan* out) {
  Index* index = FindPublishedIndex(cols);
  if (index == nullptr) {
    std::lock_guard<std::mutex> lock(index_build_mu_);
    index = FindPublishedIndex(cols);  // another worker may have raced us
    if (index == nullptr) {
      uint32_t n = num_indexes_.load(std::memory_order_relaxed);
      if (n == kMaxPublishedIndexes) return false;
      retired_.clear();
      auto fresh = std::make_unique<Index>();
      fresh->cols = cols;
      for (uint32_t id = 0; id < store_.size(); ++id) fresh->Add(store_, id);
      index = fresh.get();
      indexes_[n] = std::move(fresh);
      num_indexes_.store(n + 1, std::memory_order_release);
    }
  }
  const std::vector<uint32_t>* bucket = index->Find(store_, key.data());
  *out = bucket == nullptr
             ? MatchSpan()
             : MatchSpan(bucket, static_cast<uint32_t>(bucket->size()));
  return true;
}

size_t Relation::bytes() const {
  size_t n = store_.bytes() +
             round_marks_.capacity() * sizeof(round_marks_[0]);
  uint32_t published = num_indexes_.load(std::memory_order_acquire);
  for (uint32_t i = 0; i < published; ++i) n += indexes_[i]->bytes();
  return n;
}

// --- Parallel barrier merge -------------------------------------------------

Result<uint64_t> MergeStagedParallel(std::vector<StagedMergeTask>* tasks,
                                     uint32_t round, ThreadPool* pool,
                                     ExecContext* ctx,
                                     uint32_t* fanout_width) {
  SPARQLOG_FAILPOINT(g_fp_merge_round);
  // Only predicates with staged rows occupy a merge slot; an all-empty
  // barrier costs no worker wake-up at all.
  std::vector<StagedMergeTask*> live;
  live.reserve(tasks->size());
  for (StagedMergeTask& task : *tasks) {
    task.merged = 0;
    size_t staged = 0;
    for (const TupleStore* s : task.sources) {
      if (s != nullptr) staged += s->size();
    }
    if (staged > 0) live.push_back(&task);
  }
  const size_t num_workers = pool->num_workers();
  *fanout_width = static_cast<uint32_t>(std::min(live.size(), num_workers));
  if (live.empty()) return uint64_t{0};

  // One worker owns each live predicate end to end: it merges the
  // predicate's staging stores in worker order, so first-occurrence order
  // (and thus arena row ids) is fixed by the thread count alone —
  // parallelism across predicates, determinism within each.
  std::vector<Status> statuses(num_workers);
  auto merge_worker = [&](size_t w) {
    Status& st = statuses[w];
    for (size_t i = w; i < live.size(); i += num_workers) {
      StagedMergeTask& task = *live[i];
      for (const TupleStore* s : task.sources) {
        if (s == nullptr || s->size() == 0) continue;
        uint64_t inserted = task.target->InsertStaged(*s, round);
        task.merged += inserted;
        ctx->AddTuples(inserted);
        st = ctx->CheckBudget(static_cast<uint32_t>(s->size()));
        if (!st.ok()) return;
      }
    }
  };
  if (*fanout_width <= 1) {
    merge_worker(0);
  } else {
    pool->RunOnWorkers(merge_worker);
  }

  uint64_t merged = 0;
  for (const StagedMergeTask* task : live) merged += task->merged;
  for (const Status& st : statuses) {
    SPARQLOG_RETURN_NOT_OK(st);
  }
  return merged;
}

// --- Database ---------------------------------------------------------------

Relation& Database::relation(uint32_t pred, uint32_t arity) {
  auto it = relations_.find(pred);
  if (it == relations_.end()) {
    it = relations_.emplace(pred, std::make_unique<Relation>(arity)).first;
  }
  return *it->second;
}

const Relation* Database::Find(uint32_t pred) const {
  auto it = relations_.find(pred);
  return it == relations_.end() ? nullptr : it->second.get();
}

Relation* Database::FindMutable(uint32_t pred) {
  auto it = relations_.find(pred);
  return it == relations_.end() ? nullptr : it->second.get();
}

void Database::Reset(uint32_t pred, uint32_t arity) {
  relations_[pred] = std::make_unique<Relation>(arity);
}

size_t Database::TotalTuples() const {
  size_t n = 0;
  for (const auto& [_, rel] : relations_) n += rel->size();
  return n;
}

size_t Database::TotalBytes() const {
  size_t n = 0;
  for (const auto& [_, rel] : relations_) n += rel->bytes();
  return n;
}

std::vector<uint32_t> Database::Predicates() const {
  std::vector<uint32_t> preds;
  preds.reserve(relations_.size());
  for (const auto& [pred, _] : relations_) preds.push_back(pred);
  std::sort(preds.begin(), preds.end());
  return preds;
}

}  // namespace sparqlog::datalog
