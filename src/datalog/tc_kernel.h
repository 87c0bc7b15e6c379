#pragma once

#include <cstdint>
#include <optional>
#include <unordered_set>
#include <utility>
#include <vector>

#include "datalog/ast.h"
#include "datalog/relation.h"
#include "util/exec_context.h"
#include "util/status.h"
#include "util/thread_pool.h"

/// \file tc_kernel.h
/// Dedicated transitive-closure kernel for TC-shaped recursive strata —
/// the pattern every recursive property path (`p+`, `p*`, `p{n,}`,
/// alternations under closure) translates to: one linear recursive rule
///
///   ans(..., A, ..., B, ...) :- ans(..., A, ..., J, ...), step(..., J, ..., B, ...)
///
/// whose head re-enters the recursive atom with only the J-column
/// advanced. The generic semi-naive fixpoint re-joins the whole delta
/// against the step relation every round and re-derives each (A, B)
/// pair once per distinct path; the kernel instead freezes the step
/// relation into a CSR adjacency once, groups the existing rows by
/// their carry value A, and completes each group with a BFS that
/// touches every (group, node) pair at most once — linear in edges
/// instead of quadratic in paths.
///
/// Frontier bookkeeping adapts to the node universe: bitsets with
/// touched-word clearing when the graph is dense relative to its
/// universe, sorted id vectors with set_difference rounds when sparse.
/// The kernel honors the ExecContext budget/deadline (paced per edge
/// traversed, same stride discipline as the join inner loop) and the
/// evaluator's sharding knob: with a thread pool, carry groups are
/// dealt across workers that stage rows locally and merge at a single
/// barrier in worker order, so results stay deterministic for a fixed
/// thread count.
///
/// Detection is purely structural and conservative: anything with a
/// second shared variable (e.g. GRAPH ?g closures), nonlinear
/// recursion, negation, or non-constant extra head columns falls back
/// to the generic fixpoint, which remains the differential ground
/// truth (tests/path_kernel_test.cpp).

namespace sparqlog::datalog {

/// The detected closure-rule layout. Column indices address the
/// recursive atom and the head interchangeably (same predicate, and
/// detection proves the positional correspondence).
struct TcShape {
  uint32_t rule_index = 0;  ///< closure rule, index into program.rules
  uint32_t rec_atom = 0;    ///< body index of the recursive atom
  uint32_t edge_atom = 0;   ///< body index of the step atom
  uint32_t join_col = 0;    ///< J in the rec atom == B column of the head
  uint32_t carry_col = 0;   ///< A in the rec atom == A column of the head
  uint32_t edge_join_col = 0;  ///< J in the step atom
  uint32_t edge_out_col = 0;   ///< B in the step atom
  /// Constant columns of the recursive atom: seed rows must match these
  /// (and the head repeats them, which detection verified).
  std::vector<std::pair<uint32_t, Value>> rec_consts;
  /// Constant columns of the step atom: edge rows must match these.
  std::vector<std::pair<uint32_t, Value>> edge_consts;
  /// Head row template: every column fixed per derivation (constants and
  /// builtin-assigned values such as the bag-mode empty tuple id), with
  /// carry_col / join_col overwritten per emission.
  std::vector<Value> head_template;
};

/// Detects the TC shape in one recursive stratum: the stratum's rules
/// must contain exactly one (rule, atom) recursive dependency, and that
/// rule must be a linear closure rule as described above. Returns
/// nullopt when the stratum needs the generic fixpoint.
std::optional<TcShape> DetectTcShape(
    const Program& program, const std::vector<uint32_t>& stratum_rules,
    const std::unordered_set<PredicateId>& stratum_heads);

/// One kernel run's outcome, folded into EvalStats by the evaluator.
struct TcKernelStats {
  uint64_t inserted = 0;  ///< fresh head tuples materialized
  bool dense = false;     ///< bitset frontiers (vs. sorted-vector)
};

/// Completes the closure of the rule's head relation under the step
/// relation. Must run after the stratum's non-closure rules have seeded
/// the head relation (the kernel's seeds are exactly the rows present).
/// New rows are tagged `insert_round`. `pool` may be null (serial);
/// with a pool of > 1 workers, carry groups shard across it.
Result<TcKernelStats> RunTcKernel(const TcShape& shape,
                                  const Program& program, Database* edb,
                                  Database* idb, uint32_t insert_round,
                                  ExecContext* ctx, ThreadPool* pool);

}  // namespace sparqlog::datalog
