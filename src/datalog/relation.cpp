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

/// Empties `slot` of a linear-probing table by backward-shift deletion,
/// so probe runs stay dense without tombstones: each later entry of the
/// run whose home slot does not lie cyclically in (hole, j] moves into
/// the hole; the others would land before their home and become
/// unreachable. `home(j)` is the home slot of the entry at j, and
/// `move(from, to)` moves an entry (with any side data) between slots.
template <typename Home, typename Move>
void EraseSlot(std::vector<uint32_t>* slots, size_t slot, Home home,
               Move move) {
  const size_t mask = slots->size() - 1;
  size_t hole = slot;
  size_t j = slot;
  for (;;) {
    (*slots)[hole] = 0;
    for (;;) {
      j = (j + 1) & mask;
      if ((*slots)[j] == 0) return;
      const size_t h = home(j);
      const bool stays =
          hole < j ? (h > hole && h <= j) : (h > hole || h <= j);
      if (!stays) {
        move(j, hole);
        hole = j;
        break;
      }
    }
  }
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
uint32_t TupleStore::FindImpl(Stride s, const Value* row) const {
  if (slots_.empty()) return 0;
  size_t mask = slots_.size() - 1;
  size_t slot = StrideHashRow(s, row) & mask;
  while (slots_[slot] != 0) {
    if (StrideRowEquals(s, row_data(slots_[slot] - 1), row)) {
      return slots_[slot];
    }
    slot = (slot + 1) & mask;
  }
  return 0;
}

bool TupleStore::Contains(const Value* row) const {
  return WithStride(arity_, [&](auto s) { return FindImpl(s, row) != 0; });
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
    assert(FindImpl(s, row) == 0);
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

template <typename RepFn>
uint32_t Relation::Index::KeyOf(const TupleStore& store, uint32_t row_id,
                                RepFn rep) {
  if (NeedsGrow(num_keys, slots.size())) Grow();
  const uint64_t hash = HashProjected(store, row_id);
  const size_t mask = slots.size() - 1;
  size_t slot = hash & mask;
  const Value* row = store.row_data(row_id);
  while (slots[slot] != 0) {
    const uint32_t k = slots[slot] - 1;
    if (slot_hashes[slot] == hash) {
      const Value* other = store.row_data(rep(k));
      size_t j = 0;
      while (j < cols.size() && other[cols[j]] == row[cols[j]]) ++j;
      if (j == cols.size()) return k;
    }
    slot = (slot + 1) & mask;
  }
  uint32_t k;
  if (free_keys.empty()) {
    // A new key's range is empty, at the end of the flat array.
    k = static_cast<uint32_t>(keys.size());
    keys.emplace_back();
    offsets.push_back(offsets.back());
  } else {
    // A freed key's range is empty already.
    k = free_keys.back();
    free_keys.pop_back();
  }
  slots[slot] = k + 1;
  slot_hashes[slot] = hash;
  ++num_keys;
  return k;
}

void Relation::Index::Build(const TupleStore& store) {
  // Counting sort by key: one pass finds each row's key, the ranges are
  // laid out in key-id order by the counts, and a second pass scatters
  // the ids. Rows are visited ascending, so every range is.
  const uint32_t n = store.size();
  std::vector<uint32_t> row_key(n);
  std::vector<uint32_t> first_row;  // per key, while no range exists
  for (uint32_t id = 0; id < n; ++id) {
    row_key[id] = KeyOf(store, id, [&](uint32_t k) { return first_row[k]; });
    if (row_key[id] == first_row.size()) first_row.push_back(id);
  }
  offsets.assign(keys.size() + 1, 0);
  for (uint32_t id = 0; id < n; ++id) ++offsets[row_key[id] + 1];
  for (size_t k = 0; k < keys.size(); ++k) offsets[k + 1] += offsets[k];
  std::vector<uint32_t>& next = first_row;  // reused as write cursors
  next.assign(offsets.begin(), offsets.end() - 1);
  ids.resize(n);
  for (uint32_t id = 0; id < n; ++id) ids[next[row_key[id]]++] = id;
}

void Relation::Index::Add(const TupleStore& store, uint32_t row_id) {
  const uint32_t k =
      KeyOf(store, row_id, [this](uint32_t key) { return Rep(key); });
  Key& key = keys[k];
  const uint32_t entry = static_cast<uint32_t>(appended.size());
  appended.push_back({row_id, kNone});
  if (key.appended == 0) {
    key.head = entry;
    chained.push_back(k);
  } else {
    appended[key.tail].next = entry;
  }
  key.tail = entry;
  ++key.appended;
}

uint32_t Relation::Index::Find(const TupleStore& store,
                               const Value* key) const {
  if (slots.empty()) return kNone;
  uint64_t hash = Fmix64(HashRange(key, key + cols.size()));
  size_t mask = slots.size() - 1;
  size_t slot = hash & mask;
  while (slots[slot] != 0) {
    if (slot_hashes[slot] == hash) {
      const uint32_t k = slots[slot] - 1;
      const Value* row = store.row_data(Rep(k));
      size_t j = 0;
      while (j < cols.size() && row[cols[j]] == key[j]) ++j;
      if (j == cols.size()) return k;
    }
    slot = (slot + 1) & mask;
  }
  return kNone;
}

void Relation::Index::Remap(const TupleStore& store,
                            const std::vector<uint32_t>& renum) {
  // Rename the built-in ids in place, noting where the removed ones sit.
  // Removed rows are few, so the branch predicts well; their ids stay
  // old, which is what an emptied key's unlink below hashes.
  std::vector<uint32_t> gone;
  for (uint32_t i = 0; i < ids.size(); ++i) {
    const uint32_t r = renum[ids[i] + 1];
    if (r == 0) {
      gone.push_back(i);
    } else {
      ids[i] = r - 1;
    }
  }
  // The keys whose range changes: those losing a built-in row and those
  // with a chain to fold in. `gone` ascends, so each removed row's key
  // is found by galloping forward from the previous one's.
  std::vector<uint32_t> touched = std::move(chained);
  chained.clear();
  size_t at = 0;  // offsets[at] <= pos
  for (uint32_t pos : gone) {
    size_t step = 1;
    for (; at + step < offsets.size() && offsets[at + step] <= pos;
         step *= 2) {
      at += step;
    }
    const auto end = offsets.begin() + std::min(at + step, offsets.size());
    at = std::upper_bound(offsets.begin() + at, end, pos) - offsets.begin() - 1;
    touched.push_back(static_cast<uint32_t>(at));
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());

  // Copy the runs between removed ids into a fresh array, append each
  // touched key's surviving chain after its range, and shift the offsets
  // of the keys that follow by the running size change. The renumbering
  // is monotone and chained rows come after every built-in row, so each
  // range stays ascending.
  std::vector<uint32_t> fresh;
  fresh.reserve(store.size());
  uint32_t src = 0;
  size_t g = 0;
  size_t next_key = 0;
  int64_t delta = 0;
  auto copy_to = [&](uint32_t end) {
    fresh.insert(fresh.end(), ids.begin() + src, ids.begin() + end);
  };
  auto shift = [&](size_t k) {
    offsets[k] = static_cast<uint32_t>(offsets[k] + delta);
  };
  for (uint32_t k : touched) {
    for (; next_key <= k; ++next_key) shift(next_key);
    const uint32_t old_begin = offsets[k] - static_cast<uint32_t>(delta);
    const uint32_t old_end = offsets[k + 1];
    for (; g < gone.size() && gone[g] < old_end; ++g) {
      copy_to(gone[g]);
      src = gone[g] + 1;
    }
    copy_to(old_end);
    src = old_end;
    Key& key = keys[k];
    uint32_t old_rep = old_begin < old_end ? ids[old_begin] : kNone;
    for (uint32_t e = key.head, left = key.appended; left > 0; --left) {
      if (old_rep == kNone) old_rep = appended[e].row;
      const uint32_t r = renum[appended[e].row + 1];
      if (r != 0) fresh.push_back(r - 1);
      e = appended[e].next;
    }
    key = Key{};
    delta = static_cast<int64_t>(fresh.size()) - old_end;
    if (fresh.size() > offsets[k]) continue;
    // Every row of the key is gone: unlink its slot, found by hashing
    // its old row, which the arena still holds.
    const size_t mask = slots.size() - 1;
    size_t slot = HashProjected(store, old_rep) & mask;
    while (slots[slot] != k + 1) slot = (slot + 1) & mask;
    EraseSlot(
        &slots, slot, [&](size_t j) { return slot_hashes[j] & mask; },
        [&](size_t from, size_t to) {
          slots[to] = slots[from];
          slot_hashes[to] = slot_hashes[from];
        });
    free_keys.push_back(k);
    --num_keys;
  }
  for (; next_key < offsets.size(); ++next_key) shift(next_key);
  copy_to(static_cast<uint32_t>(ids.size()));
  assert(fresh.size() == offsets.back());
  ids = std::move(fresh);
  appended.clear();
}

size_t Relation::Index::bytes() const {
  return slots.capacity() * sizeof(uint32_t) +
         slot_hashes.capacity() * sizeof(uint64_t) +
         keys.capacity() * sizeof(Key) +
         (free_keys.capacity() + offsets.capacity() + ids.capacity() +
          chained.capacity() + cols.capacity()) *
             sizeof(uint32_t) +
         appended.capacity() * sizeof(MatchSpan::Appended);
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
  // `renum` maps row id + 1 to the survivor's new id + 1 and a removed
  // row to 0, in the dedup table's encoding (renum[0] = 0 keeps an empty
  // slot empty), so renumbering a table is one branch-free lookup per
  // slot. It first marks the doomed rows with kDoomed.
  constexpr uint32_t kDoomed = Index::kNone;
  const uint32_t old_rows = store_.size();
  std::vector<uint32_t> renum(old_rows + 1, 0);
  // Locate each doomed row through the dedup table and unlink it. The
  // table keeps serving lookups between unlinks, so a duplicate in
  // `rows` simply probes to an empty slot. Rebuilding the table instead
  // would hash every survivor — O(relation) for a 100-tuple delete.
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
      renum[found] = kDoomed;
      ++removed;
      EraseSlot(
          &store_.slots_, slot,
          [&](size_t j) {
            return StrideHashRow(s, store_.row_data(store_.slots_[j] - 1)) &
                   mask;
          },
          [&](size_t from, size_t to) {
            store_.slots_[to] = store_.slots_[from];
          });
    }
    return 0;
  });
  if (removed == 0) return 0;
  if (undo != nullptr) {
    // The arena is still pre-removal here (only dedup slots were
    // unlinked above), so the doomed scan reads original ids and values.
    undo->prior_rows = old_rows;
    undo->round_marks = round_marks_;
    undo->ids.reserve(removed);
    undo->rows.reserve(removed * k);
    for (uint32_t id = 0; id < old_rows; ++id) {
      if (renum[id + 1] != kDoomed) continue;
      undo->ids.push_back(id);
      const Value* r = store_.row_data(id);
      undo->rows.insert(undo->rows.end(), r, r + k);
    }
  }
  // Survivors keep their relative order. When every doomed row sits at
  // the arena tail — the common shape for retracting recently inserted
  // tuples — no survivor changes id.
  const uint32_t keep = old_rows - static_cast<uint32_t>(removed);
  bool suffix = true;
  uint32_t next = 0;
  for (uint32_t id = 0; id < old_rows; ++id) {
    if (renum[id + 1] == kDoomed) {
      renum[id + 1] = 0;
      suffix = suffix && id >= keep;
    } else {
      renum[id + 1] = ++next;
    }
  }
  // Remap the indexes while the arena still holds the removed rows (an
  // emptied key is unlinked by hashing its old row).
  ForEachIndex([&](Index& index) { index.Remap(store_, renum); });
  if (!suffix) {
    // Compact the arena in place, then renumber the surviving ids in the
    // table directly — renaming a row does not move its slot, so no
    // rehash is needed.
    for (uint32_t id = 0; id < old_rows; ++id) {
      const uint32_t to = renum[id + 1];
      if (to == 0 || to == id + 1) continue;
      std::copy(store_.arena_.begin() + static_cast<size_t>(id) * k,
                store_.arena_.begin() + static_cast<size_t>(id + 1) * k,
                store_.arena_.begin() + static_cast<size_t>(to - 1) * k);
    }
    for (uint32_t& v : store_.slots_) v = renum[v];
  }
  store_.num_rows_ = keep;
  store_.arena_.resize(static_cast<size_t>(keep) * k);
  // A mass delete (e.g. a fixpoint over-delete cascade) can leave a
  // table arbitrarily under-loaded; shrink through a rebuild then.
  if (SlotsFor(keep) * 4 <= store_.slots_.size()) {
    store_.Rehash(SlotsFor(keep));
  }
  ForEachIndex([&](Index& index) {
    if (SlotsFor(index.num_keys) * 4 > index.slots.size()) return;
    Index fresh;
    fresh.cols = std::move(index.cols);
    fresh.Build(store_);
    index = std::move(fresh);
  });
  // Row ids shifted, so round provenance is stale: survivors collapse
  // into round 0 (the caller re-derives from there).
  round_marks_.clear();
  if (keep > 0) round_marks_.emplace_back(0u, 0u);
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
  DropIndexes();
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
  DropIndexes();
}

void Relation::DropIndexes() {
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
  if (!cols.empty() && cols.size() == arity()) {
    // Every column bound: the dedup table holds at most the one row.
    const uint32_t found = WithStride(
        arity(), [&](auto s) { return store_.FindImpl(s, key.data()); });
    *out = found == 0 ? MatchSpan() : MatchSpan::Single(found - 1);
    return true;
  }
  Index* index = FindPublishedIndex(cols);
  if (index == nullptr) {
    std::lock_guard<std::mutex> lock(index_build_mu_);
    index = FindPublishedIndex(cols);  // another worker may have raced us
    if (index == nullptr) {
      uint32_t n = num_indexes_.load(std::memory_order_relaxed);
      if (n == kMaxPublishedIndexes) return false;
      auto fresh = std::make_unique<Index>();
      fresh->cols = cols;
      fresh->Build(store_);
      index = fresh.get();
      indexes_[n] = std::move(fresh);
      num_indexes_.store(n + 1, std::memory_order_release);
    }
  }
  const uint32_t k = index->Find(store_, key.data());
  if (k == Index::kNone) {
    *out = MatchSpan();
  } else {
    const uint32_t begin = index->offsets[k];
    const uint32_t built = index->offsets[k + 1] - begin;
    const Index::Key& chain = index->keys[k];
    *out = MatchSpan(index->ids.data() + begin, built, built + chain.appended,
                     &index->appended, chain.head);
  }
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
