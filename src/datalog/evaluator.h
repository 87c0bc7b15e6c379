#pragma once

#include <memory>

#include "datalog/ast.h"
#include "datalog/incremental.h"
#include "datalog/relation.h"
#include "datalog/stratify.h"
#include "datalog/stratum_memo.h"
#include "datalog/value.h"
#include "eval/expr_eval.h"
#include "util/exec_context.h"
#include "util/status.h"
#include "util/thread_pool.h"

/// \file evaluator.h
/// Bottom-up evaluation of Datalog± programs: stratum-by-stratum
/// semi-naive fixpoint with on-demand hash-index joins, builtin literals
/// (assignment, disequality, Skolem-term construction, embedded SPARQL
/// filters) and stratified negation.
///
/// The engine plays the role of the Vadalog system in the paper: the
/// translation's existential tuple-ID variables are realized as Skolem
/// terms over the positive body (Appendix C), so bag semantics is
/// preserved under the engine's set semantics while fixpoints terminate.

namespace sparqlog::datalog {

/// Evaluation statistics (exposed for benchmarks and ablations). The
/// engine folds every field named in its counter list
/// (core/engine_stats.h) into the engine-lifetime total of that name.
struct EvalStats {
  uint64_t tuples_derived = 0;    ///< distinct tuples added
  uint32_t rounds = 0;            ///< total semi-naive rounds
  uint32_t parallel_rounds = 0;   ///< rounds that ran a sharded fan-out
  uint32_t stratum_hits = 0;      ///< strata restored from the memo
  uint32_t stratum_misses = 0;    ///< fingerprinted strata evaluated
  uint64_t tuples_restored = 0;   ///< tuples re-inserted from snapshots
  // Parallel-fixpoint observability (see Engine::stats()).
  uint32_t naive_rounds_sharded = 0;  ///< initial naive passes run sharded
  uint64_t staged_tuples_merged = 0;  ///< tuples inserted by barrier merges
  uint32_t merge_fanout_width = 0;    ///< max merge workers in any round
  // Transitive-closure kernel observability (see tc_kernel.h).
  uint32_t tc_kernels_hit = 0;        ///< TC-shaped strata run by the kernel
  uint32_t tc_dense_frontiers = 0;    ///< kernel runs with bitset frontiers
  uint32_t tc_sparse_frontiers = 0;   ///< kernel runs with sorted-vector ones
  // Incremental maintenance (incremental.h + the engine's ApplyUpdate).
  uint32_t strata_incremental = 0;    ///< strata re-derived from an old snapshot
  uint32_t strata_dred = 0;           ///< incremental strata that ran DRed
  uint32_t incremental_fallbacks = 0; ///< DRed-bound aborts → full recompute
  uint64_t tuples_overdeleted = 0;    ///< DRed over-deletions before re-derive
  uint64_t tuples_rederived = 0;      ///< over-deleted tuples derived back
};

/// Evaluation strategy knob for the micro-ablation benchmark: naive mode
/// re-evaluates every rule against full relations each round (this is the
/// behaviour the Stardog-sim baseline inherits).
enum class FixpointMode : uint8_t { kSemiNaive, kNaive };

class Evaluator {
 public:
  Evaluator(rdf::TermDictionary* dict, SkolemStore* skolems)
      : expr_eval_(dict), skolems_(skolems) {}

  void set_mode(FixpointMode mode) { mode_ = mode; }

  /// Worker count for recursive strata. 1 (the default) runs the exact
  /// single-threaded semi-naive path; 0 resolves to
  /// std::thread::hardware_concurrency() at Evaluate time; values > 1
  /// shard the initial naive pass and every delta round by row-id range
  /// across a fixed-size pool, staging derivations per worker and merging
  /// at the round barrier. Every rule shards — interning
  /// (TermDictionary / SkolemStore) is thread-safe, so Skolem and
  /// FILTER/BIND builtins no longer force a serial path. Thread count
  /// never affects result sets (only arena row ids); naive mode and
  /// non-recursive strata always run serially.
  void set_num_threads(uint32_t n) { num_threads_ = n; }

  /// Runs TC-shaped recursive strata (one linear closure rule — the
  /// shape every recursive property path translates to) through the
  /// dedicated transitive-closure kernel instead of the generic delta
  /// rounds (default on; see tc_kernel.h). Off = the generic fixpoint,
  /// kept as differential ground truth. Semi-naive mode only; the kernel
  /// never changes result sets, only arena row ids.
  void set_tc_kernel(bool on) { tc_kernel_ = on; }

  /// Attaches a cross-query stratum memo (see stratum_memo.h).
  /// `dataset_fp` is the generation fingerprint of the dataset the EDB
  /// was materialized from; it anchors every EDB input in the composed
  /// stratum fingerprints. Completed strata are snapshotted into the
  /// memo, and strata whose fingerprint already has a snapshot are
  /// restored instead of evaluated. Only the semi-naive mode consults
  /// the memo (naive mode is the reference semantics for differentials).
  void set_stratum_memo(StratumMemo* memo, uint64_t dataset_fp) {
    memo_ = memo;
    dataset_fp_ = dataset_fp;
  }

  /// Incremental-maintenance input, provided by the engine alongside the
  /// stratum memo. `versions` refines every EDB anchor in the stratum
  /// fingerprints (it must be passed consistently across queries once
  /// updates have happened); `delta` + `prev_versions` describe the
  /// latest `ApplyUpdate`, enabling the incremental stratum path: on a
  /// memo miss whose previous-versions fingerprint still has a snapshot,
  /// the stratum is re-derived from that snapshot plus the input deltas
  /// (insertions as one extra semi-naive round, deletions via DRed)
  /// instead of from scratch. Lifetimes: the maps must outlive the
  /// Evaluate call; `delta` is shared-owned.
  struct IncrementalInput {
    EdbDeltaPtr delta;                             ///< latest update's delta
    const EdbVersionMap* versions = nullptr;       ///< current EDB versions
    const EdbVersionMap* prev_versions = nullptr;  ///< versions before delta
    uint64_t max_overdelete = 1ull << 20;          ///< DRed bound → fallback
  };
  void set_incremental(IncrementalInput input) { inc_ = std::move(input); }

  /// Evaluates `program` with EDB relations from `edb` (indexes may be
  /// built on it, tuples are never added), materializing derived tuples
  /// into `idb`. IDB and EDB predicate sets must be disjoint.
  Status Evaluate(const Program& program, Database* edb, Database* idb,
                  ExecContext* ctx);

  const EvalStats& stats() const { return stats_; }

 private:
  struct RuleRun;  // per-invocation state, defined in the .cc

  eval::ExprEvaluator expr_eval_;
  SkolemStore* skolems_;
  FixpointMode mode_ = FixpointMode::kSemiNaive;
  uint32_t num_threads_ = 1;
  bool tc_kernel_ = true;
  StratumMemo* memo_ = nullptr;
  uint64_t dataset_fp_ = 0;
  IncrementalInput inc_;
  std::unique_ptr<ThreadPool> pool_;  // lazily sized on first parallel round
  EvalStats stats_;
};

}  // namespace sparqlog::datalog
