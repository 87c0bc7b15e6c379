#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "datalog/stride.h"
#include "datalog/value.h"
#include "util/exec_context.h"
#include "util/hash.h"
#include "util/status.h"
#include "util/thread_pool.h"

/// \file relation.h
/// Columnar tuple storage for the Datalog engine.
///
/// A `TupleStore` keeps all tuples of one relation in a single flat
/// `std::vector<Value>` arena strided by arity: tuple *i* occupies
/// `[i*arity, (i+1)*arity)`. Deduplication is an open-addressing hash
/// table over row ids (no per-tuple heap allocation, no node-based map).
/// The hot arity <= 4 strides are specialized at compile time (see
/// stride.h); cold-start EDB construction goes through `BulkLoad`, which
/// dedups a whole batch in one pass against a table allocated once at
/// final size instead of growing it tuple by tuple.
/// `Relation` layers semi-naive round bookkeeping and lazily-built hash
/// indexes on top; index buckets are append-only and epoch-stable, so the
/// evaluator can keep probing a bucket while recursive rules insert into
/// the same relation (see `MatchSpan`).
///
/// Iteration is exposed through a span-like view (`RowRef`) and a cursor
/// (`TupleCursor`) instead of row pointers, which keeps the fixpoint inner
/// loop free of pointer chasing and makes the arena trivially partitionable
/// for future sharded / parallel-stratum evaluation.

namespace sparqlog::datalog {

/// Non-owning view of one tuple inside a TupleStore arena. Invalidated by
/// any subsequent insert into the owning relation (the arena may grow);
/// callers must re-fetch via `Relation::row` after inserting.
class RowRef {
 public:
  RowRef() = default;
  RowRef(const Value* data, uint32_t arity) : data_(data), arity_(arity) {}

  Value operator[](size_t i) const { return data_[i]; }
  uint32_t size() const { return arity_; }
  const Value* data() const { return data_; }
  const Value* begin() const { return data_; }
  const Value* end() const { return data_ + arity_; }

  std::vector<Value> ToVector() const {
    return std::vector<Value>(data_, data_ + arity_);
  }

  friend bool operator==(const RowRef& a, const RowRef& b) {
    if (a.arity_ != b.arity_) return false;
    for (uint32_t i = 0; i < a.arity_; ++i) {
      if (a.data_[i] != b.data_[i]) return false;
    }
    return true;
  }
  friend bool operator==(const RowRef& a, const std::vector<Value>& b) {
    if (a.arity_ != b.size()) return false;
    for (uint32_t i = 0; i < a.arity_; ++i) {
      if (a.data_[i] != b[i]) return false;
    }
    return true;
  }
  friend bool operator==(const std::vector<Value>& a, const RowRef& b) {
    return b == a;
  }

 private:
  const Value* data_ = nullptr;
  uint32_t arity_ = 0;
};

/// Forward cursor over a contiguous row-id range of a TupleStore.
/// Index-based (not pointer-stepped) so zero-arity relations iterate
/// correctly. Invalidated by inserts, like RowRef.
class TupleCursor {
 public:
  TupleCursor(const Value* base, uint32_t arity, uint32_t num_rows)
      : base_(base), arity_(arity), num_rows_(num_rows) {}

  class iterator {
   public:
    iterator(const Value* base, uint32_t arity, uint32_t i)
        : base_(base), arity_(arity), i_(i) {}
    RowRef operator*() const {
      return RowRef(base_ + static_cast<size_t>(i_) * arity_, arity_);
    }
    iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator!=(const iterator& o) const { return i_ != o.i_; }
    bool operator==(const iterator& o) const { return i_ == o.i_; }

   private:
    const Value* base_;
    uint32_t arity_;
    uint32_t i_;
  };

  iterator begin() const { return iterator(base_, arity_, 0); }
  iterator end() const { return iterator(base_, arity_, num_rows_); }
  uint32_t size() const { return num_rows_; }
  bool empty() const { return num_rows_ == 0; }
  RowRef operator[](uint32_t i) const {
    return RowRef(base_ + static_cast<size_t>(i) * arity_, arity_);
  }

 private:
  const Value* base_;
  uint32_t arity_;
  uint32_t num_rows_;
};

/// Flat columnar tuple arena with open-addressing deduplication.
class TupleStore {
 public:
  explicit TupleStore(uint32_t arity) : arity_(arity) {}

  uint32_t arity() const { return arity_; }
  uint32_t size() const { return num_rows_; }

  RowRef row(uint32_t id) const {
    return RowRef(arena_.data() + static_cast<size_t>(id) * arity_, arity_);
  }
  const Value* row_data(uint32_t id) const {
    return arena_.data() + static_cast<size_t>(id) * arity_;
  }

  /// Appends `row` (exactly `arity()` values) unless an equal tuple
  /// exists. Returns the row id; sets `*inserted` accordingly. The
  /// duplicate path performs no allocation, and the insert path only
  /// amortized arena growth — there is no per-tuple heap node.
  uint32_t Insert(const Value* row, bool* inserted);

  /// Bulk-builds an *empty* store (arity > 0) from `num_rows` tuples laid
  /// out flat with arity() stride: the dedup table is allocated once at
  /// its worst-case (all-distinct) final size and the arena is reserved
  /// for the whole batch, so the load runs as one pass with no growth
  /// checks, no table doubling / rehashing and no arena reallocation —
  /// the costs that dominate tuple-at-a-time Insert on a cold store.
  /// Rows keep first-occurrence order: a bulk-built store is
  /// bit-identical, arena order included, to one built by inserting the
  /// batch per tuple. (A sort-based build was measured 2.5x *slower*
  /// than hashing at EDB scales — n log n comparisons lose to one probe
  /// per row while the table is cache-resident.) Duplicate-heavy batches
  /// get a compacting rehash at the end so the table footprint tracks
  /// the deduplicated size. Returns the number of distinct rows kept.
  uint32_t BulkLoad(const Value* rows, size_t num_rows);
  uint32_t BulkLoad(const std::vector<Value>& rows) {
    assert(arity_ > 0 && rows.size() % arity_ == 0);
    return BulkLoad(rows.data(), rows.size() / arity_);
  }

  /// Appends a flat batch of tuples the caller guarantees are distinct —
  /// pairwise within the batch AND from every existing row (asserted per
  /// row in debug builds). The dedup table is grown to its final size
  /// once up front, and each row's slot is found by probing to the first
  /// empty slot with no key comparisons, so the batch costs one hash and
  /// one table write per row — none of the compare-probe and incremental
  /// doubling/rehash work that dominates tuple-at-a-time Insert on a
  /// large store. `rows` must not alias the arena. This is the emission
  /// path of the transitive-closure kernel, whose frontier bitsets prove
  /// distinctness structurally (datalog/tc_kernel.cpp).
  void AppendDistinct(const Value* rows, size_t num_rows);

  bool Contains(const Value* row) const;

  /// Drops all tuples but keeps the arena and dedup capacity, so a store
  /// reused as a per-round staging buffer stays allocation-free at steady
  /// state.
  void Clear() {
    num_rows_ = 0;
    arena_.clear();
    std::fill(slots_.begin(), slots_.end(), 0u);
  }

  /// Arena footprint in bytes (tuples + dedup table), for stats.
  size_t bytes() const {
    return arena_.capacity() * sizeof(Value) +
           slots_.capacity() * sizeof(uint32_t);
  }

 private:
  // Relation drives the stride-specialized Impl entry points directly so
  // batch operations (InsertStaged) dispatch once, not once per row.
  friend class Relation;

  uint64_t HashRow(const Value* row) const {
    return Fmix64(HashRange(row, row + arity_));
  }
  void Grow();
  void Rehash(size_t new_size);

  /// Stride-specialized implementations (see stride.h); the public
  /// Insert/Contains/BulkLoad dispatch to these via WithStride. Defined
  /// in relation.cpp — every instantiation site lives there.
  template <typename Stride>
  uint32_t InsertImpl(Stride s, const Value* row, bool* inserted);
  template <typename Stride>
  bool ContainsImpl(Stride s, const Value* row) const;
  template <typename Stride>
  uint32_t BulkLoadImpl(Stride s, const Value* rows, size_t num_rows);
  template <typename Stride>
  void AppendDistinctImpl(Stride s, const Value* rows, size_t num_rows);

  uint32_t arity_;
  uint32_t num_rows_ = 0;
  std::vector<Value> arena_;
  // Open-addressing dedup table: slot holds row_id + 1, 0 = empty.
  // Power-of-two size, linear probing, rebuilt from the arena on growth.
  std::vector<uint32_t> slots_;
};

/// Stable view of an index bucket prefix, valid across concurrent inserts
/// into the owning relation: buckets live in a deque (object addresses are
/// stable under bucket creation) and are append-only, and the prefix
/// length is snapshotted at probe time, so rows derived while iterating are
/// not visited by this probe (exactly the semi-naive contract the old
/// defensive bucket copy provided, without the copy).
class MatchSpan {
 public:
  MatchSpan() = default;
  MatchSpan(const std::vector<uint32_t>* bucket, uint32_t size)
      : bucket_(bucket), size_(size) {}

  uint32_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  uint32_t operator[](uint32_t i) const { return (*bucket_)[i]; }

 private:
  const std::vector<uint32_t>* bucket_ = nullptr;
  uint32_t size_ = 0;
};

/// A set of same-arity tuples: columnar store + rounds + indexes.
class Relation {
 public:
  explicit Relation(uint32_t arity) : store_(arity) {}

  uint32_t arity() const { return store_.arity(); }
  size_t size() const { return store_.size(); }

  RowRef row(uint32_t id) const { return store_.row(id); }
  uint32_t row_round(uint32_t id) const;

  /// Inserts `row` tagged with `round`; returns true if it was new.
  /// Maintains any already-built indexes incrementally. Rounds must be
  /// non-decreasing across inserts (asserted in debug builds); RoundRange
  /// depends on it.
  bool Insert(const Value* row, uint32_t round);
  bool Insert(const std::vector<Value>& row, uint32_t round) {
    assert(row.size() == arity());
    return Insert(row.data(), round);
  }
  bool Insert(RowRef row, uint32_t round) {
    assert(row.size() == arity());
    return Insert(row.data(), round);
  }

  /// Bulk-builds an *empty* relation (no rows, no indexes yet) from a
  /// flat batch of tuples, all tagged with `round` (see
  /// TupleStore::BulkLoad for the one-pass dedup + one-shot table
  /// build). This is the cold-start EDB ingest path: indexes are still
  /// built lazily on first Probe — which is itself one bulk pass over
  /// the arena — so no index is maintained per tuple anywhere between
  /// parsing a dataset and the first join. Returns the number of
  /// distinct rows.
  uint32_t BulkLoad(const Value* rows, size_t num_rows, uint32_t round = 0);
  uint32_t BulkLoad(const std::vector<Value>& rows, uint32_t round = 0) {
    assert(arity() > 0 && rows.size() % arity() == 0);
    return BulkLoad(rows.data(), rows.size() / arity(), round);
  }

  bool Contains(const Value* row) const { return store_.Contains(row); }
  bool Contains(const std::vector<Value>& row) const {
    assert(row.size() == arity());
    return store_.Contains(row.data());
  }

  /// Row ids whose values at `cols` equal `key`, through the hash index
  /// on `cols`, which is built on first use. `cols` must be sorted
  /// ascending. Sets `*out` (an empty span when no row matches) and
  /// returns true; returns false without touching `*out` when the index
  /// is missing and the fixed published-index capacity is used up, in
  /// which case the caller scans. The span stays valid while rows are
  /// inserted (see MatchSpan). Safe to call concurrently with other
  /// Probe / Contains / row reads — indexes are built under a mutex and
  /// published with a release-store of the index count — but NOT
  /// concurrently with Insert.
  bool Probe(const std::vector<uint32_t>& cols, const std::vector<Value>& key,
             MatchSpan* out);

  /// Bulk-merges `num_rows` staged tuples (flat TupleStore layout, arity()
  /// stride) tagged with `round`, deduplicating against existing contents.
  /// Returns the number actually inserted. This is the round-barrier merge
  /// path for parallel workers' staging buffers; it is single-writer, like
  /// Insert, and dispatches the stride once for the whole batch so the
  /// arity <= 4 merge loop runs fully specialized.
  size_t InsertStaged(const Value* rows, size_t num_rows, uint32_t round);
  size_t InsertStaged(const TupleStore& staged, uint32_t round) {
    assert(staged.arity() == arity());
    return InsertStaged(staged.row_data(0), staged.size(), round);
  }

  /// Bulk-appends `num_rows` tuples the caller guarantees are new —
  /// distinct within the batch and absent from the relation — tagged
  /// with `round`, maintaining any built indexes (see
  /// TupleStore::AppendDistinct for the no-compare fast path this
  /// enables). Single-writer, like Insert.
  void AppendDistinct(const Value* rows, size_t num_rows, uint32_t round);

  /// What a RemoveRows call destroyed, captured before the arena is
  /// touched so RestoreRemoved can rebuild the exact pre-removal state
  /// (arena order, round marks). O(delta) to capture; only the rare
  /// rollback pays O(relation).
  struct RemovalUndo {
    std::vector<uint32_t> ids;  ///< removed row ids, ascending, pre-removal
    std::vector<Value> rows;    ///< their tuples, ids order, arity stride
    std::vector<std::pair<uint32_t, uint32_t>> round_marks;  ///< pre-removal
    uint32_t prior_rows = 0;    ///< pre-removal row count

    bool empty() const { return ids.empty(); }
  };

  /// Removes every listed tuple that is present (flat TupleStore layout,
  /// arity() stride); returns the number actually removed. The arena is
  /// compacted preserving the survivors' relative order and the dedup
  /// table rebuilt; row ids shift, so all round bookkeeping collapses to
  /// round 0 and every built index is dropped (rebuilt lazily on the
  /// next probe, which also frees the dropped ones). Single-writer, like
  /// Insert — the incremental-update path calls this under the engine's
  /// exclusive state lock.
  ///
  /// When `undo` is non-null it is overwritten with what was removed
  /// (empty if nothing matched), priced O(removed) on this hot path.
  size_t RemoveRows(const Value* rows, size_t num_rows,
                    RemovalUndo* undo = nullptr);
  size_t RemoveRows(const std::vector<Value>& rows,
                    RemovalUndo* undo = nullptr) {
    assert(arity() > 0 && rows.size() % arity() == 0);
    return RemoveRows(rows.data(), rows.size() / arity(), undo);
  }

  /// Exactly undoes a RemoveRows given its undo record: every removed
  /// tuple reclaims its original row id, survivors shift back, and the
  /// pre-removal round marks are reinstated — the arena ends up
  /// value-identical to the pre-removal arena. O(relation); indexes drop
  /// and rebuild lazily. Must run on the state RemoveRows left behind
  /// (after TruncateTo has peeled any later inserts).
  void RestoreRemoved(const RemovalUndo& undo);

  /// Discards every row with id >= `keep_rows` — the exact inverse of an
  /// append (Insert / InsertStaged / AppendDistinct) when nothing else
  /// intervened, which is how the update rollback peels staged inserts.
  /// Round marks opened at or past the cut are dropped; indexes drop and
  /// rebuild lazily.
  void TruncateTo(uint32_t keep_rows);

  /// Cursor over all rows in insertion order. Invalidated by inserts.
  TupleCursor rows() const {
    return TupleCursor(store_.row_data(0), store_.arity(), store_.size());
  }

  /// Cursor over the row-id shard `[lo, hi)` — the unit of work for the
  /// sharded delta scan (the arena is contiguous, so a shard is one flat
  /// segment). Invalidated by inserts.
  TupleCursor rows(uint32_t lo, uint32_t hi) const {
    assert(lo <= hi && hi <= store_.size());
    return TupleCursor(store_.row_data(lo), store_.arity(), hi - lo);
  }

  /// Half-open row-id range of rows inserted in `round`. Valid because
  /// round tags are non-decreasing in insertion order (asserted in
  /// Insert).
  std::pair<uint32_t, uint32_t> RoundRange(uint32_t round) const;

  /// Approximate memory footprint (arena + dedup + indexes), for stats.
  size_t bytes() const;

  /// Distinct column subsets a relation indexes; Probe fails past it.
  static constexpr size_t kMaxPublishedIndexes = 64;

 private:
  /// Hash index over a column subset. Open-addressing table mapping the
  /// projected key (values of `cols`) to an append-only bucket of row ids.
  /// Keys are never stored: a bucket's key is read back from the arena row
  /// of its first entry.
  struct Index {
    std::vector<uint32_t> cols;
    // slot -> bucket_id + 1; 0 = empty. Power-of-two, linear probing.
    std::vector<uint32_t> slots;
    std::vector<uint64_t> slot_hashes;  // cached key hash per used slot
    // Deque: bucket object addresses stay stable as buckets are added, so
    // MatchSpan can hold a bucket pointer across inserts.
    std::deque<std::vector<uint32_t>> buckets;
    size_t num_keys = 0;

    uint64_t HashProjected(const TupleStore& store, uint32_t row_id) const;
    bool KeyEqualsRow(const TupleStore& store, uint32_t bucket_first,
                      const Value* key) const;
    /// True when row `a` and the tuple at `b_row` agree on `cols`.
    bool ProjectedEquals(const TupleStore& store, uint32_t a,
                         const Value* b_row) const;
    void Add(const TupleStore& store, uint32_t row_id);
    const std::vector<uint32_t>* Find(const TupleStore& store,
                                      const Value* key) const;
    void Grow();
    size_t bytes() const;
  };

  /// Stride-specialized insert shared by Insert and InsertStaged: store
  /// insert + round mark + incremental index maintenance for one row.
  template <typename Stride>
  bool InsertWithStride(Stride s, const Value* row, uint32_t round);

  /// Looks up a published index by column subset; lock-free (acquire-load
  /// of the published count, entries below it are fully built).
  Index* FindPublishedIndex(const std::vector<uint32_t>& cols) const;
  /// All published indexes, for Insert maintenance.
  template <typename Fn>
  void ForEachIndex(Fn&& fn) {
    uint32_t n = num_indexes_.load(std::memory_order_acquire);
    for (uint32_t i = 0; i < n; ++i) fn(*indexes_[i]);
  }

  TupleStore store_;
  // (round, first row id of that round); appended when a round first
  // inserts. Rounds are strictly increasing across entries.
  std::vector<std::pair<uint32_t, uint32_t>> round_marks_;

  // Indexes are published into a fixed slot array guarded by
  // `index_build_mu_` for writers: a builder constructs the Index fully,
  // stores its pointer, then release-increments `num_indexes_`, so
  // lock-free readers that acquire-load the count only ever see complete
  // indexes. Few distinct column subsets are ever probed per predicate
  // (one per rule-atom binding pattern), so the capacity is generous;
  // past it Probe reports failure and callers scan.
  std::array<std::unique_ptr<Index>, kMaxPublishedIndexes> indexes_;
  std::atomic<uint32_t> num_indexes_{0};
  std::mutex index_build_mu_;
  // Indexes RemoveRows dropped, freed by the next index build (under
  // `index_build_mu_`) or the next RemoveRows. Freeing an index frees one
  // bucket per key, so doing it in RemoveRows would lengthen an update's
  // exclusive section by the size of every high-cardinality index.
  std::vector<std::unique_ptr<Index>> retired_;
};

/// One per-predicate unit of the round-barrier merge: a target relation
/// plus every worker's staging store for that predicate, in worker order.
struct StagedMergeTask {
  Relation* target = nullptr;
  std::vector<const TupleStore*> sources;  // worker order; empties allowed
  uint64_t merged = 0;                     // out: tuples inserted
};

/// The round-barrier merge, fanned out **per target predicate**: each
/// task (one predicate) is handled by exactly one merge worker, which
/// merges that predicate's staging stores in worker order — so every
/// relation's arena is deterministic for a fixed thread count, while
/// distinct predicates merge concurrently (disjoint relations, no shared
/// mutable state). Tasks with no staged rows are skipped; the rest are
/// dealt round-robin across the pool, and a single live task merges
/// inline on the calling thread.
///
/// Each merge worker charges the merged tuples to `ctx` per batch and
/// budget-checks with the batch size as stride advance, so deadline
/// sampling stays proportional to tuples merged regardless of fan-out
/// width (see ExecContext::CheckBudget). `*fanout_width` is set to the
/// number of workers that received a task. Returns the total tuples
/// inserted, or the first failing worker's budget status.
Result<uint64_t> MergeStagedParallel(std::vector<StagedMergeTask>* tasks,
                                     uint32_t round, ThreadPool* pool,
                                     ExecContext* ctx,
                                     uint32_t* fanout_width);

/// Named relation store shared by EDB facts and derived IDB tuples.
/// Relations are heap-allocated (they carry a mutex and atomics for the
/// thread-safe probe path), so Relation pointers stay stable across map
/// growth — parallel workers hold them for a whole evaluation round.
class Database {
 public:
  /// Relation for `pred`, created with `arity` if absent.
  Relation& relation(uint32_t pred, uint32_t arity);

  const Relation* Find(uint32_t pred) const;
  Relation* FindMutable(uint32_t pred);

  /// Replaces `pred`'s relation with a fresh empty one of `arity`
  /// (creating it if absent). Outstanding Relation pointers to the old
  /// object dangle, so this is only safe where none are held — the
  /// evaluator's incremental fallback uses it to discard a restored
  /// stratum before re-evaluating it from scratch.
  void Reset(uint32_t pred, uint32_t arity);

  size_t TotalTuples() const;
  /// Approximate memory footprint of all relations, for stats.
  size_t TotalBytes() const;

  /// Predicate ids present, for iteration (diagnostics / dumps).
  std::vector<uint32_t> Predicates() const;

 private:
  std::unordered_map<uint32_t, std::unique_ptr<Relation>> relations_;
};

}  // namespace sparqlog::datalog
