#pragma once

/// \file engine_stats.h
/// The one list of engine-lifetime counters. `Engine::EngineStats`, the
/// relaxed atomics behind it, the per-query fold in Execute,
/// `Engine::stats()` and the keys of the server's `GET /stats` are all
/// expanded from it, in its order. Adding a counter is one row here plus
/// its increment site (an `EvalStats` field of the same name, or a
/// `Bump` at the engine-side event).
///
/// Each row names one counter and says where its value comes from and
/// how it aggregates across Execute calls:
///   EVENT(name)              engine-side event, bumped at its site;
///   SUM(name)                `datalog::EvalStats::name`, summed per query;
///   MAX(name)                `datalog::EvalStats::name`, running maximum;
///   GAUGE(name, Type, expr)  read at snapshot time from engine state.
/// Every counter is a uint64_t except where a GAUGE says otherwise.

// clang-format off
#define SPARQLOG_ENGINE_STATS(EVENT, SUM, MAX, GAUGE)                         \
  EVENT(queries)          /* admitted Execute calls, completed */            \
  EVENT(failures)         /* admitted calls that returned !ok */             \
  EVENT(rejected)         /* admission-control rejections (shed) */          \
  GAUGE(in_flight, uint64_t, in_flight_.load(std::memory_order_relaxed))    \
  EVENT(queued)           /* calls that waited in the admission queue */     \
  GAUGE(degraded, bool, degraded_.load(std::memory_order_relaxed))          \
  EVENT(degrade_entries)  /* times degraded mode was entered */              \
  EVENT(degrade_exits)    /* times it recovered automatically */             \
  EVENT(program_hits)                                                        \
  EVENT(program_rebinds)                                                     \
  EVENT(program_misses)                                                      \
  GAUGE(program_evictions, uint64_t, program_cache_.evictions())            \
  SUM(stratum_hits)       /* strata restored from the memo */                \
  SUM(stratum_misses)     /* fingerprinted strata evaluated */               \
  GAUGE(stratum_evictions, uint64_t, stratum_memo_.evictions())             \
  SUM(tuples_restored)                                                       \
  EVENT(invalidations)    /* EDB rebuilds after a dataset mutation */        \
  EVENT(plans_computed)                                                      \
  EVENT(plan_cache_hits)                                                     \
  SUM(rounds)                                                                \
  SUM(parallel_rounds)                                                       \
  SUM(naive_rounds_sharded)                                                  \
  SUM(staged_tuples_merged)                                                  \
  MAX(merge_fanout_width) /* widest merge fan-out of any round */            \
  GAUGE(interning_contention, uint64_t,                                      \
        dict_->intern_contention() + skolems_.intern_contention())           \
  SUM(tc_kernels_hit)     /* TC-shaped strata run by the kernel */           \
  SUM(tc_dense_frontiers)                                                    \
  SUM(tc_sparse_frontiers)                                                   \
  EVENT(updates)          /* ApplyUpdate calls, completed OK */              \
  EVENT(update_noops)     /* updates whose net delta was empty */            \
  SUM(strata_incremental) /* strata re-derived from snapshots */             \
  SUM(strata_dred)        /* incremental strata that ran DRed */             \
  SUM(incremental_fallbacks) /* DRed-bound full recomputes */                \
  SUM(tuples_overdeleted)                                                    \
  SUM(tuples_rederived)
// clang-format on

/// Expands to nothing: the argument for the row kinds an expansion skips.
#define SPARQLOG_STAT_SKIP(...)
