#include "datalog/evaluator.h"

#include <algorithm>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "datalog/stride.h"
#include "datalog/tc_kernel.h"
#include "util/failpoint.h"
#include "util/thread_pool.h"

namespace sparqlog::datalog {

namespace {

SPARQLOG_FAILPOINT_DEFINE(g_fp_stratum_begin, "datalog.stratum.begin");
SPARQLOG_FAILPOINT_DEFINE(g_fp_skolem_intern, "datalog.skolem.intern");

constexpr uint32_t kNoDelta = 0xffffffffu;

/// Per-worker round state: one staging TupleStore per parallel head
/// predicate (deduped locally, merged into the Relation at the barrier)
/// plus a worker-local staged-tuple count for budget checks.
struct WorkerState {
  std::unordered_map<PredicateId, TupleStore> staging;
  uint64_t staged = 0;
  Status status;
};

}  // namespace

/// Per-rule-invocation execution state: one backtracking join over the
/// rule's positive body with interleaved builtin execution, negation
/// checks at the leaves, and head emission.
struct Evaluator::RuleRun {
  Evaluator* eval = nullptr;
  const Rule* rule = nullptr;
  Database* edb = nullptr;
  Database* idb = nullptr;
  ExecContext* ctx = nullptr;
  uint32_t insert_round = 0;
  uint32_t delta_round = 0;
  uint32_t delta_atom = kNoDelta;
  // Sharded parallel execution (staging != nullptr): the scan of
  // `delta_atom` is pinned to rows [shard_lo, shard_hi) of `scan_rel` —
  // the IDB delta for fixpoint rounds, either source of the pivot atom
  // for the sharded initial naive pass — heads are staged into the
  // worker's TupleStore instead of inserted, and `staging_target` (the
  // read-only target relation) pre-filters re-derivations. `staged`
  // counts fresh staged tuples across all of the worker's shards for
  // budget checks.
  uint32_t shard_lo = 0;
  uint32_t shard_hi = 0xffffffffu;
  const Relation* scan_rel = nullptr;
  TupleStore* staging = nullptr;
  const Relation* staging_target = nullptr;
  uint64_t* staged = nullptr;
  // Incremental maintenance (serial paths only; see the incremental
  // stratum block in Evaluate): `delta_source` redirects the pinned
  // delta scan away from the IDB (to a scratch database of input
  // deltas), `aux` joins as a third non-delta source on top of EDB+IDB
  // (the over-delete pass over-approximates the pre-update state with
  // current ∪ deleted), `emit_db` redirects head emission (over-deleted
  // heads accumulate in the scratch database, not the IDB), and
  // `head_binding` pre-binds the head tuple (DRed re-derivation asks
  // "is exactly this tuple still derivable?").
  Database* delta_source = nullptr;
  Database* aux = nullptr;
  Database* emit_db = nullptr;
  const Value* head_binding = nullptr;

  std::vector<Value> vals;
  std::vector<bool> bound;
  std::vector<bool> builtin_done;
  std::vector<uint32_t> order;
  std::vector<VarId> trail;
  std::vector<uint32_t> done_trail;  // builtins completed, stacked by depth
  std::vector<std::vector<uint32_t>> scratch_cols;
  std::vector<std::vector<Value>> scratch_keys;
  std::vector<Value> skolem_scratch;
  std::vector<Value> head_scratch;
  std::vector<Value> neg_scratch;
  Status status;
  uint64_t inserted = 0;

  size_t RelSizeOf(PredicateId pred) const {
    size_t n = 0;
    if (const Relation* r = edb->Find(pred)) n += r->size();
    if (const Relation* r = idb->Find(pred)) n += r->size();
    return n;
  }

  void ComputeOrder() {
    const auto& atoms = rule->positive;
    order.clear();
    // Planner-ordered body (datalog/planner.h): execute as written — the
    // cost-based order beats the runtime heuristic because it knows
    // per-predicate-term cardinalities, not just relation sizes. The
    // delta atom is hoisted to the front (its scan range is pinned); the
    // rest keep their planned relative order.
    if (rule->planned) {
      if (delta_atom != kNoDelta) order.push_back(delta_atom);
      for (uint32_t i = 0; i < atoms.size(); ++i) {
        if (i != delta_atom) order.push_back(i);
      }
      return;
    }
    std::vector<bool> used(atoms.size(), false);
    std::vector<bool> var_known(rule->var_names.size(), false);
    if (delta_atom != kNoDelta) {
      order.push_back(delta_atom);
      used[delta_atom] = true;
      for (const RuleTerm& t : atoms[delta_atom].args) {
        if (t.is_var) var_known[t.var] = true;
      }
    }
    while (order.size() < atoms.size()) {
      int best = -1;
      size_t best_bound = 0;
      size_t best_size = 0;
      for (size_t i = 0; i < atoms.size(); ++i) {
        if (used[i]) continue;
        size_t nbound = 0;
        for (const RuleTerm& t : atoms[i].args) {
          if (!t.is_var || var_known[t.var]) ++nbound;
        }
        size_t sz = RelSizeOf(atoms[i].predicate);
        if (best < 0 || nbound > best_bound ||
            (nbound == best_bound && sz < best_size)) {
          best = static_cast<int>(i);
          best_bound = nbound;
          best_size = sz;
        }
      }
      used[best] = true;
      order.push_back(static_cast<uint32_t>(best));
      for (const RuleTerm& t : atoms[best].args) {
        if (t.is_var) var_known[t.var] = true;
      }
    }
  }

  bool ResolveTerm(const RuleTerm& t, Value* out) const {
    if (!t.is_var) {
      *out = t.constant;
      return true;
    }
    if (!bound[t.var]) return false;
    *out = vals[t.var];
    return true;
  }

  void Bind(VarId v, Value value, std::vector<VarId>* local_trail) {
    vals[v] = value;
    bound[v] = true;
    local_trail->push_back(v);
  }

  void Unbind(std::vector<VarId>* local_trail, size_t from) {
    while (local_trail->size() > from) {
      bound[local_trail->back()] = false;
      local_trail->pop_back();
    }
  }

  /// Runs every builtin whose inputs are available; returns false when a
  /// check fails (binding rejected) or on fatal error (status set).
  /// Bound variables and completed flags are recorded so the caller can
  /// restore them.
  bool RunBuiltins(std::vector<VarId>* bound_trail,
                   std::vector<uint32_t>* done_trail) {
    bool changed = true;
    while (changed) {
      changed = false;
      for (uint32_t bi = 0; bi < rule->builtins.size(); ++bi) {
        if (builtin_done[bi]) continue;
        const BuiltinLit& b = rule->builtins[bi];
        switch (b.kind) {
          case BuiltinKind::kEq: {
            Value lhs = 0, rhs = 0;
            bool l = ResolveTerm(b.lhs, &lhs);
            bool r = ResolveTerm(b.rhs, &rhs);
            if (l && r) {
              if (lhs != rhs) return false;
            } else if (l && b.rhs.is_var) {
              Bind(b.rhs.var, lhs, bound_trail);
            } else if (r && b.lhs.is_var) {
              Bind(b.lhs.var, rhs, bound_trail);
            } else {
              continue;  // not ready
            }
            builtin_done[bi] = true;
            done_trail->push_back(bi);
            changed = true;
            break;
          }
          case BuiltinKind::kNe: {
            Value lhs = 0, rhs = 0;
            if (!ResolveTerm(b.lhs, &lhs) || !ResolveTerm(b.rhs, &rhs)) {
              continue;
            }
            if (lhs == rhs) return false;
            builtin_done[bi] = true;
            done_trail->push_back(bi);
            changed = true;
            break;
          }
          case BuiltinKind::kSkolem: {
            skolem_scratch.clear();
            bool ready = true;
            for (const RuleTerm& t : b.skolem_args) {
              Value v = 0;
              if (!ResolveTerm(t, &v)) {
                ready = false;
                break;
              }
              skolem_scratch.push_back(v);
            }
            if (!ready) continue;
            status = g_fp_skolem_intern.Check();
            if (!status.ok()) return false;
            Value sk = eval->skolems_->Intern(
                b.skolem_fn, skolem_scratch.data(), skolem_scratch.size());
            if (sk == SkolemStore::kExhausted) {
              status = Status::ResourceExhausted(
                  "Skolem tuple-id space exhausted");
              return false;
            }
            Value target;
            if (ResolveTerm(b.target, &target)) {
              if (target != sk) return false;
            } else {
              Bind(b.target.var, sk, bound_trail);
            }
            builtin_done[bi] = true;
            done_trail->push_back(bi);
            changed = true;
            break;
          }
          case BuiltinKind::kFilterExpr:
          case BuiltinKind::kAssignExpr: {
            bool ready = true;
            for (const auto& [name, var] : b.expr_vars) {
              if (!bound[var]) {
                ready = false;
                break;
              }
            }
            if (!ready) continue;
            auto lookup = [&](const std::string& name) -> rdf::TermId {
              for (const auto& [n, var] : b.expr_vars) {
                if (n == name) {
                  Value v = vals[var];
                  // Skolem values never carry SPARQL-visible data; they
                  // surface as unbound (comparison against them errors).
                  return IsSkolemValue(v) ? rdf::TermDictionary::kUndef
                                          : TermFromValue(v);
                }
              }
              return rdf::TermDictionary::kUndef;
            };
            if (b.kind == BuiltinKind::kFilterExpr) {
              if (eval->expr_eval_.EvalEBV(*b.expr, lookup) !=
                  eval::EBV::kTrue) {
                return false;
              }
            } else {
              // BIND: evaluation errors bind the null constant (SPARQL's
              // "remains unbound").
              auto value = eval->expr_eval_.EvalTerm(*b.expr, lookup);
              Value v = ValueFromTerm(
                  value.value_or(rdf::TermDictionary::kUndef));
              Value target;
              if (ResolveTerm(b.target, &target)) {
                if (target != v) return false;
              } else {
                Bind(b.target.var, v, bound_trail);
              }
            }
            builtin_done[bi] = true;
            done_trail->push_back(bi);
            changed = true;
            break;
          }
        }
      }
    }
    return true;
  }

  bool CheckNegatives() {
    for (const Atom& atom : rule->negative) {
      neg_scratch.clear();
      for (const RuleTerm& t : atom.args) {
        Value v = 0;
        ResolveTerm(t, &v);  // validation guarantees boundness
        neg_scratch.push_back(v);
      }
      if (const Relation* r = edb->Find(atom.predicate)) {
        if (r->Contains(neg_scratch)) return false;
      }
      if (const Relation* r = idb->Find(atom.predicate)) {
        if (r->Contains(neg_scratch)) return false;
      }
    }
    return true;
  }

  /// Returns false on fatal error (status set).
  bool EmitHead() {
    head_scratch.clear();
    for (const RuleTerm& t : rule->head.args) {
      Value v = 0;
      ResolveTerm(t, &v);
      head_scratch.push_back(v);
    }
    if (staging != nullptr) {
      // Parallel worker: stage instead of inserting. The target relation
      // is read-only until the round barrier, so Contains needs no
      // synchronization; local dedup keeps the merge small. The budget
      // check counts only this worker's fresh tuples on top of the shared
      // total (cross-worker duplicates may overcount slightly — mem-out
      // stays approximate, never under-enforced at the barrier).
      if (!staging_target->Contains(head_scratch)) {
        bool fresh = false;
        staging->Insert(head_scratch.data(), &fresh);
        if (fresh) {
          ++*staged;
          if (ctx->tuples_used() + *staged > ctx->tuple_budget()) {
            status =
                Status::ResourceExhausted("tuple budget exceeded (mem-out)");
            return false;
          }
        }
      }
    } else {
      Relation& rel =
          (emit_db != nullptr ? emit_db : idb)
              ->relation(rule->head.predicate,
                         static_cast<uint32_t>(rule->head.args.size()));
      if (rel.Insert(head_scratch, insert_round)) {
        ++inserted;
        ctx->AddTuples(1);
      }
      if (head_binding != nullptr) {
        // DRed re-derivation asks for one witness of the pre-bound head
        // tuple; it exists now, so abort the join early. The false
        // return unwinds the search with an OK status.
        status = ctx->CheckBudget();
        return false;
      }
    }
    status = ctx->CheckBudget();
    return status.ok();
  }

  bool TryRow(const Relation* rel, uint32_t row_id, size_t depth) {
    // RowRef is a view into the relation's arena; it is consumed fully
    // before JoinStep below can insert (and potentially reallocate).
    return TryRowAt(rel->row(row_id), depth);
  }

  bool TryRowAt(RowRef row, size_t depth) {
    const Atom& atom = rule->positive[order[depth]];
    size_t trail_start = trail.size();
    bool ok = true;
    for (size_t i = 0; i < atom.args.size(); ++i) {
      const RuleTerm& t = atom.args[i];
      if (!t.is_var) {
        if (row[i] != t.constant) {
          ok = false;
          break;
        }
      } else if (bound[t.var]) {
        if (row[i] != vals[t.var]) {
          ok = false;
          break;
        }
      } else {
        Bind(t.var, row[i], &trail);
      }
    }
    if (ok && !JoinStep(depth + 1)) {
      Unbind(&trail, trail_start);
      return false;
    }
    Unbind(&trail, trail_start);
    return true;
  }

  /// Returns false on fatal error.
  bool JoinStep(size_t depth) {
    status = ctx->CheckBudget();
    if (!status.ok()) return false;

    size_t btrail_start = trail.size();
    size_t done_start = done_trail.size();
    bool accepted = RunBuiltins(&trail, &done_trail);
    bool result = status.ok();  // false: a builtin failed fatally
    if (accepted) {
      if (depth == order.size()) {
        if (CheckNegatives()) result = EmitHead();
      } else {
        result = MatchAtom(depth);
      }
    }
    while (done_trail.size() > done_start) {
      builtin_done[done_trail.back()] = false;
      done_trail.pop_back();
    }
    Unbind(&trail, btrail_start);
    return result;
  }

  bool MatchAtom(size_t depth) {
    const Atom& atom = rule->positive[order[depth]];
    bool is_delta = (order[depth] == delta_atom);

    // Bound columns for index probing (per-depth scratch buffers, sized in
    // Run(), keep the inner loop allocation-free).
    std::vector<uint32_t>& cols = scratch_cols[depth];
    std::vector<Value>& key = scratch_keys[depth];
    cols.clear();
    key.clear();
    for (size_t i = 0; i < atom.args.size(); ++i) {
      Value v = 0;
      if (ResolveTerm(atom.args[i], &v)) {
        cols.push_back(static_cast<uint32_t>(i));
        key.push_back(v);
      }
    }

    if (is_delta) {
      if (staging != nullptr) {
        // Parallel shard: the task pinned the relation and row range
        // (the IDB delta for fixpoint rounds, one EDB/IDB source of the
        // pivot atom for the sharded naive pass). Every relation is
        // frozen until the round barrier, so the arena cannot
        // reallocate mid-scan — walk the shard pointer-stepped with a
        // compile-time stride for the hot arity <= 4 case instead of
        // recomputing base + id * arity per row.
        if (shard_lo >= shard_hi) return true;
        const uint32_t k = scan_rel->arity();
        const Value* base = scan_rel->row(shard_lo).data();
        return WithStride(k, [&](auto stride) {
          const Value* p = base;
          for (uint32_t id = shard_lo; id < shard_hi;
               ++id, p += stride.arity()) {
            if (!TryRowAt(RowRef(p, k), depth)) return false;
          }
          return true;
        });
      }
      // Serial path: id-based fetch, not pointer-stepped — a recursive
      // rule may insert into the very relation it is scanning, growing
      // the arena.
      Relation* rel =
          (delta_source != nullptr ? delta_source : idb)
              ->FindMutable(atom.predicate);
      if (rel == nullptr) return true;
      auto [lo, hi] = rel->RoundRange(delta_round);
      for (uint32_t id = lo; id < hi; ++id) {
        if (!TryRow(rel, id, depth)) return false;
      }
      return true;
    }

    Relation* sources[3] = {edb->FindMutable(atom.predicate),
                            idb->FindMutable(atom.predicate),
                            aux != nullptr ? aux->FindMutable(atom.predicate)
                                           : nullptr};
    for (Relation* rel : sources) {
      if (rel == nullptr || rel->size() == 0) continue;
      bool indexed = false;
      if (!cols.empty()) {
        // MatchSpan is epoch-stable: recursive rules may insert into this
        // relation (and its index) while we iterate, and the span keeps
        // addressing the probe-time rows without a defensive copy. The
        // probe is thread-safe (parallel workers may race to build a
        // missing index); it only fails past the published-index
        // capacity, where the filtered scan below is the fallback.
        MatchSpan span;
        indexed = rel->Probe(cols, key, &span);
        if (indexed) {
          for (uint32_t id : span) {
            if (!TryRow(rel, id, depth)) return false;
          }
        }
      }
      if (!indexed) {
        size_t n = rel->size();  // snapshot; new rows belong to next round
        for (uint32_t id = 0; id < n; ++id) {
          if (!TryRow(rel, id, depth)) return false;
        }
      }
    }
    return true;
  }

  Status Run() {
    vals.assign(rule->var_names.size(), 0);
    bound.assign(rule->var_names.size(), false);
    builtin_done.assign(rule->builtins.size(), false);
    trail.clear();
    done_trail.clear();
    status = Status::OK();
    if (head_binding != nullptr) {
      // DRed re-derivation: constrain the whole join to one head tuple by
      // pre-binding the head args. A constant mismatch or a conflicting
      // repeated variable means this rule cannot derive the tuple at all.
      const auto& hargs = rule->head.args;
      for (size_t i = 0; i < hargs.size(); ++i) {
        const RuleTerm& t = hargs[i];
        if (!t.is_var) {
          if (t.constant != head_binding[i]) return status;
        } else if (bound[t.var]) {
          if (vals[t.var] != head_binding[i]) return status;
        } else {
          vals[t.var] = head_binding[i];
          bound[t.var] = true;
        }
      }
    }
    ComputeOrder();
    scratch_cols.assign(order.size(), {});
    scratch_keys.assign(order.size(), {});
    JoinStep(0);
    return status;
  }
};

Status Evaluator::Evaluate(const Program& program, Database* edb,
                           Database* idb, ExecContext* ctx) {
  stats_ = EvalStats();
  SPARQLOG_RETURN_NOT_OK(program.Validate());
  SPARQLOG_ASSIGN_OR_RETURN(Stratification strat, Stratify(program));

  // Cross-query stratum memoization (semi-naive only: naive mode is the
  // reference semantics the differential tests compare against, and its
  // arena insertion order differs).
  const bool memo_ok = memo_ != nullptr && mode_ == FixpointMode::kSemiNaive;
  std::vector<uint64_t> stratum_fp;
  std::vector<uint64_t> stratum_fp_old;
  // Incremental stratum maintenance: when the engine supplies the latest
  // update's EDB delta plus the version map from *before* it, a stratum
  // whose previous fingerprint still has a snapshot is re-derived from
  // that snapshot + the input deltas (insertions as one extra semi-naive
  // round, deletions via DRed) instead of from scratch. IDB input
  // changes propagate through the composed fingerprints, so
  // fp_new == fp_old means "all transitive inputs unchanged".
  const bool inc_ok =
      memo_ok && inc_.delta != nullptr && inc_.prev_versions != nullptr;
  if (memo_ok) {
    stratum_fp = StratumFingerprints(program, strat, *skolems_, dataset_fp_,
                                     inc_.versions);
    if (inc_ok) {
      stratum_fp_old = StratumFingerprints(program, strat, *skolems_,
                                           dataset_fp_, inc_.prev_versions);
    }
  }
  // Downstream change propagation: after each stratum whose fingerprint
  // changed, its head relations are diffed against the pre-update
  // snapshot; the diffs become the IDB input deltas of later strata. A
  // head whose diff can't be computed (old snapshot evicted, arity 0)
  // lands in `idb_unknown`, which poisons downstream *eligibility*, never
  // correctness.
  std::unordered_map<PredicateId, EdbDelta::PredicateDelta> idb_delta;
  std::unordered_set<PredicateId> idb_unknown;

  uint32_t threads = num_threads_;
  if (threads == 0) threads = std::thread::hardware_concurrency();
  if (threads == 0) threads = 1;
  // Naive mode exists as the single-threaded reference semantics for the
  // differential tests and ablations; it never shards.
  const bool parallel_ok = threads > 1 && mode_ == FixpointMode::kSemiNaive;

  // Seed program facts (round 0).
  for (const Fact& f : program.facts) {
    Relation& rel = idb->relation(
        f.predicate, static_cast<uint32_t>(f.tuple.size()));
    if (rel.Insert(f.tuple, 0)) ctx->AddTuples(1);
  }
  SPARQLOG_RETURN_NOT_OK(ctx->CheckBudget());

  uint32_t round = 1;
  for (uint32_t s = 0; s < strat.num_strata; ++s) {
    const std::vector<uint32_t>& rule_ids = strat.strata_rules[s];
    if (rule_ids.empty()) continue;
    SPARQLOG_FAILPOINT(g_fp_stratum_begin);

    // Head predicates defined in this stratum (delta candidates; also the
    // unit of incremental change tracking).
    std::unordered_set<PredicateId> stratum_heads;
    for (uint32_t ri : rule_ids) {
      stratum_heads.insert(program.rules[ri].head.predicate);
    }

    // Records this stratum's head-relation diff (current vs the
    // pre-update snapshot) into `idb_delta` once the heads are final —
    // called on every exit path of the stratum body. No-op when the
    // fingerprint didn't change (inputs, and hence heads, are
    // identical).
    auto record_change = [&]() {
      if (!inc_ok || stratum_fp[s] == stratum_fp_old[s]) return;
      std::shared_ptr<const StratumSnapshot> old_snap =
          memo_->Lookup(stratum_fp_old[s]);
      bool usable = old_snap != nullptr;
      if (usable) {
        for (const auto& rel : old_snap->relations) {
          auto pid = program.predicates.Lookup(rel.predicate);
          if (!pid || program.predicates.Arity(*pid) != rel.arity ||
              rel.arity == 0) {
            usable = false;
            break;
          }
        }
      }
      if (!usable) {
        idb_unknown.insert(stratum_heads.begin(), stratum_heads.end());
        return;
      }
      for (PredicateId p : stratum_heads) {
        const uint32_t arity = program.predicates.Arity(p);
        if (arity == 0) {
          idb_unknown.insert(p);
          continue;
        }
        const std::string& name = program.predicates.Name(p);
        const StratumSnapshot::RelationSnapshot* old_rel = nullptr;
        for (const auto& rel : old_snap->relations) {
          if (rel.predicate == name) {
            old_rel = &rel;
            break;
          }
        }
        const Relation* cur = idb->Find(p);
        EdbDelta::PredicateDelta d;
        d.arity = arity;
        TupleStore old_store(arity);
        if (old_rel != nullptr && old_rel->num_rows > 0) {
          old_store.BulkLoad(old_rel->rows.data(), old_rel->num_rows);
        }
        if (cur != nullptr) {
          for (RowRef row : cur->rows()) {
            if (!old_store.Contains(row.data())) {
              d.ins.insert(d.ins.end(), row.begin(), row.end());
            }
          }
        }
        if (old_rel != nullptr) {
          for (uint32_t i = 0; i < old_rel->num_rows; ++i) {
            const Value* row =
                old_rel->rows.data() + static_cast<size_t>(i) * arity;
            if (cur == nullptr || !cur->Contains(row)) {
              d.del.insert(d.del.end(), row, row + arity);
            }
          }
        }
        if (!d.ins.empty() || !d.del.empty()) idb_delta[p] = std::move(d);
      }
    };

    // Memo hit: replay the snapshot (arena order preserved; program
    // facts already seeded above dedup away) instead of evaluating.
    if (memo_ok) {
      if (std::shared_ptr<const StratumSnapshot> snap =
              memo_->Lookup(stratum_fp[s])) {
        // Resolve every snapshot predicate before touching the IDB, so a
        // (vanishingly unlikely) fingerprint collision with a foreign
        // rule set degrades to a miss instead of corrupting results.
        bool resolvable = true;
        for (const auto& rel : snap->relations) {
          auto pid = program.predicates.Lookup(rel.predicate);
          if (!pid || program.predicates.Arity(*pid) != rel.arity) {
            resolvable = false;
            break;
          }
        }
        if (resolvable) {
          uint64_t restored =
              snap->Restore(program.predicates, round, idb);
          ctx->AddTuples(restored);
          stats_.tuples_restored += restored;
          ++stats_.stratum_hits;
          SPARQLOG_RETURN_NOT_OK(ctx->CheckBudget());
          record_change();
          ++round;
          continue;
        }
      }
      ++stats_.stratum_misses;
    }

    // TC fast path: a stratum whose only recursive dependency is one
    // linear closure rule (the shape every recursive property path
    // translates to) runs the dedicated kernel instead of the generic
    // delta rounds. The closure rule is excluded from the initial pass —
    // the kernel's seeds are exactly the rows the remaining rules (and
    // program facts) put into the head relation — and the fixpoint loop
    // below is replaced wholesale. Detection is structural, so it can
    // run before any tuple is derived.
    std::optional<TcShape> tc;
    if (tc_kernel_ && mode_ == FixpointMode::kSemiNaive &&
        strat.stratum_recursive[s]) {
      tc = DetectTcShape(program, rule_ids, stratum_heads);
    }

    // ---- Incremental stratum path ------------------------------------
    // Memo miss whose previous fingerprint still has a snapshot: restore
    // the pre-update result, then bring it to the new fixpoint from the
    // input deltas alone. Insert-only deltas seed one extra semi-naive
    // round (the fixpoint loop below finishes the closure); deletions run
    // DRed first — over-delete to a fixpoint against current ∪ deleted
    // (a sound over-approximation of the pre-update state), physically
    // remove, then re-derive survivors head-by-head. Serial by design:
    // delta volumes are bounded by contract (`max_overdelete` trips the
    // full-recompute fallback), so sharding would only add barriers. This
    // runs before the shard scaffolding is built because the fallback
    // Resets head relations, which would dangle the merge plan's
    // Relation pointers.
    bool inc_handled = false;
    uint64_t inc_new = 0;
    auto attempt_incremental = [&]() -> Status {
      std::shared_ptr<const StratumSnapshot> old_snap =
          memo_->Lookup(stratum_fp_old[s]);
      if (old_snap == nullptr) return Status::OK();
      for (const auto& rel : old_snap->relations) {
        auto pid = program.predicates.Lookup(rel.predicate);
        if (!pid || program.predicates.Arity(*pid) != rel.arity ||
            rel.arity == 0) {
          return Status::OK();
        }
      }
      for (PredicateId p : stratum_heads) {
        if (program.predicates.Arity(p) == 0) return Status::OK();
      }

      // Collect the input deltas this stratum is affected by. Unknown
      // (undiffable) inputs, arity mismatches, and negation over a
      // changed predicate all disqualify — DRed handles stratified
      // negation only when the negated side is stable.
      struct InputDelta {
        PredicateId pred;
        const EdbDelta::PredicateDelta* delta;
      };
      std::vector<InputDelta> inputs;
      std::unordered_set<PredicateId> seen_inputs;
      bool eligible = true;
      bool has_del = false;
      uint64_t del_rows = 0;
      auto find_delta =
          [&](PredicateId p) -> const EdbDelta::PredicateDelta* {
        if (idb_unknown.count(p) != 0) {
          eligible = false;
          return nullptr;
        }
        auto it = idb_delta.find(p);
        if (it != idb_delta.end()) return &it->second;
        auto eit = inc_.delta->preds.find(program.predicates.Name(p));
        if (eit != inc_.delta->preds.end()) {
          if (eit->second.arity != program.predicates.Arity(p)) {
            eligible = false;
            return nullptr;
          }
          return &eit->second;
        }
        return nullptr;
      };
      for (uint32_t ri : rule_ids) {
        const Rule& rule = program.rules[ri];
        for (const Atom& a : rule.positive) {
          PredicateId p = a.predicate;
          if (stratum_heads.count(p) != 0 || seen_inputs.count(p) != 0) {
            continue;
          }
          seen_inputs.insert(p);
          const EdbDelta::PredicateDelta* d = find_delta(p);
          if (!eligible) return Status::OK();
          if (d != nullptr) {
            inputs.push_back({p, d});
            has_del = has_del || !d->del.empty();
            del_rows += d->del.size() / d->arity;
          }
        }
        for (const Atom& a : rule.negative) {
          const EdbDelta::PredicateDelta* d = find_delta(a.predicate);
          if (!eligible || d != nullptr) return Status::OK();
        }
      }
      if (has_del && (del_rows > inc_.max_overdelete || tc)) {
        // TC-shaped strata lean on the kernel; unwinding a closure via
        // DRed over-deletes nearly everything, so recompute instead.
        // (Insert-only TC deltas do run incrementally — through the
        // generic delta rounds, skipping the kernel.) An input delta
        // already past the over-delete bound is the same fallback the
        // in-cascade check takes, just caught before any work.
        if (del_rows > inc_.max_overdelete) ++stats_.incremental_fallbacks;
        return Status::OK();
      }

      // Restore the pre-update snapshot at this round; all incremental
      // derivations go to the next round, which the fixpoint loop then
      // scans as its first delta.
      uint64_t restored = old_snap->Restore(program.predicates, round, idb);
      ctx->AddTuples(restored);
      stats_.tuples_restored += restored;
      SPARQLOG_RETURN_NOT_OK(ctx->CheckBudget());
      ++round;
      const uint32_t derive_round = round;

      // Scratch databases holding the input deltas at round 0. `aux_del`
      // additionally accumulates over-deleted head tuples (rounds >= 1).
      Database aux_ins;
      Database aux_del;
      for (const InputDelta& in : inputs) {
        if (!in.delta->ins.empty()) {
          aux_ins.relation(in.pred, in.delta->arity)
              .InsertStaged(in.delta->ins.data(),
                            in.delta->ins.size() / in.delta->arity, 0);
        }
        if (!in.delta->del.empty()) {
          aux_del.relation(in.pred, in.delta->arity)
              .InsertStaged(in.delta->del.data(),
                            in.delta->del.size() / in.delta->arity, 0);
        }
      }

      if (has_del) {
        ++stats_.strata_dred;
        // Program facts are axioms, not derivations — they survive any
        // over-delete.
        std::unordered_map<PredicateId, TupleStore> fact_rows;
        for (const Fact& f : program.facts) {
          if (stratum_heads.count(f.predicate) == 0) continue;
          auto [it, unused] = fact_rows.try_emplace(
              f.predicate, static_cast<uint32_t>(f.tuple.size()));
          bool fresh = false;
          it->second.Insert(f.tuple.data(), &fresh);
        }

        // Over-delete fixpoint: every (rule, atom) whose predicate has
        // deleted rows at round `dr` re-fires with the delta scan pinned
        // to those rows, the remaining atoms matched against
        // current ∪ deleted, and heads emitted into `aux_del` at dr+1.
        uint64_t overdeleted = 0;
        uint32_t dr = 0;
        bool progress = true;
        while (progress) {
          progress = false;
          for (uint32_t ri : rule_ids) {
            const Rule& rule = program.rules[ri];
            for (uint32_t ai = 0;
                 ai < static_cast<uint32_t>(rule.positive.size()); ++ai) {
              const Relation* drel =
                  aux_del.Find(rule.positive[ai].predicate);
              if (drel == nullptr) continue;
              auto [lo, hi] = drel->RoundRange(dr);
              if (lo >= hi) continue;
              RuleRun run;
              run.eval = this;
              run.rule = &rule;
              run.edb = edb;
              run.idb = idb;
              run.ctx = ctx;
              run.insert_round = dr + 1;
              run.delta_round = dr;
              run.delta_atom = ai;
              run.delta_source = &aux_del;
              run.aux = &aux_del;
              run.emit_db = &aux_del;
              SPARQLOG_RETURN_NOT_OK(run.Run());
              if (run.inserted > 0) progress = true;
              overdeleted += run.inserted;
            }
          }
          ++dr;
          if (overdeleted > inc_.max_overdelete) {
            // The cascade outgrew the bound: discard the restored
            // stratum and fall back to the full recompute below.
            ++stats_.incremental_fallbacks;
            for (PredicateId p : stratum_heads) {
              idb->Reset(p, program.predicates.Arity(p));
            }
            for (const Fact& f : program.facts) {
              if (stratum_heads.count(f.predicate) == 0) continue;
              Relation& rel = idb->relation(
                  f.predicate, static_cast<uint32_t>(f.tuple.size()));
              if (rel.Insert(f.tuple, 0)) ctx->AddTuples(1);
            }
            return Status::OK();
          }
        }
        stats_.tuples_overdeleted += overdeleted;

        // Physically remove the over-deleted head tuples (absent ones —
        // the over-approximation surplus — are skipped by RemoveRows
        // anyway; program facts are pre-filtered out), remembering each
        // removed tuple for the re-derivation pass.
        struct Doomed {
          PredicateId pred;
          std::vector<Value> row;
        };
        std::vector<Doomed> removed_tuples;
        for (PredicateId p : stratum_heads) {
          const Relation* od = aux_del.Find(p);
          Relation* target = idb->FindMutable(p);
          if (od == nullptr || od->size() == 0 || target == nullptr) {
            continue;
          }
          const TupleStore* facts = nullptr;
          if (auto fit = fact_rows.find(p); fit != fact_rows.end()) {
            facts = &fit->second;
          }
          const uint32_t arity = od->arity();
          std::vector<Value> doomed;
          for (RowRef row : od->rows()) {
            if (!target->Contains(row.data())) continue;
            if (facts != nullptr && facts->Contains(row.data())) continue;
            doomed.insert(doomed.end(), row.begin(), row.end());
            removed_tuples.push_back({p, row.ToVector()});
          }
          if (!doomed.empty()) {
            target->RemoveRows(doomed.data(), doomed.size() / arity);
          }
        }

        // Re-derivation: a removed tuple may have an alternate support
        // among the survivors (plus unchanged inputs). Each success puts
        // the tuple back, which can in turn support others — iterate to
        // fixpoint over the shrinking list.
        bool rederived = true;
        while (rederived) {
          rederived = false;
          for (size_t i = 0; i < removed_tuples.size();) {
            Doomed& dt = removed_tuples[i];
            bool found = false;
            for (uint32_t ri : rule_ids) {
              const Rule& rule = program.rules[ri];
              if (rule.head.predicate != dt.pred) continue;
              RuleRun run;
              run.eval = this;
              run.rule = &rule;
              run.edb = edb;
              run.idb = idb;
              run.ctx = ctx;
              run.insert_round = derive_round;
              run.head_binding = dt.row.data();
              SPARQLOG_RETURN_NOT_OK(run.Run());
              if (run.inserted > 0) {
                found = true;
                inc_new += run.inserted;
                ++stats_.tuples_rederived;
                break;
              }
            }
            if (found) {
              rederived = true;
              removed_tuples[i] = std::move(removed_tuples.back());
              removed_tuples.pop_back();
            } else {
              ++i;
            }
          }
        }
      }

      // Insertion phase: one semi-naive round with the delta scan pinned
      // to the inserted input rows (per rule and per atom, the standard
      // rotation — the remaining atoms see the full new state, EDB
      // deltas included, so multi-atom all-new derivations are covered).
      for (uint32_t ri : rule_ids) {
        const Rule& rule = program.rules[ri];
        for (uint32_t ai = 0;
             ai < static_cast<uint32_t>(rule.positive.size()); ++ai) {
          const Relation* irel = aux_ins.Find(rule.positive[ai].predicate);
          if (irel == nullptr || irel->size() == 0) continue;
          RuleRun run;
          run.eval = this;
          run.rule = &rule;
          run.edb = edb;
          run.idb = idb;
          run.ctx = ctx;
          run.insert_round = derive_round;
          run.delta_round = 0;
          run.delta_atom = ai;
          run.delta_source = &aux_ins;
          SPARQLOG_RETURN_NOT_OK(run.Run());
          inc_new += run.inserted;
        }
      }

      stats_.tuples_derived += inc_new;
      ++stats_.strata_incremental;
      inc_handled = true;
      return Status::OK();
    };
    if (inc_ok && stratum_fp[s] != stratum_fp_old[s]) {
      SPARQLOG_RETURN_NOT_OK(attempt_incremental());
    }

    auto run_rule = [&](uint32_t ri, uint32_t delta_atom,
                        uint32_t delta_round) -> Result<uint64_t> {
      RuleRun run;
      run.eval = this;
      run.rule = &program.rules[ri];
      run.edb = edb;
      run.idb = idb;
      run.ctx = ctx;
      run.insert_round = round;
      run.delta_round = delta_round;
      run.delta_atom = delta_atom;
      Status st = run.Run();
      stats_.tuples_derived += run.inserted;
      SPARQLOG_RETURN_NOT_OK(st);
      return run.inserted;
    };

    const bool recursive = strat.stratum_recursive[s];
    // Sharded evaluation of this stratum. Interning (TermDictionary,
    // SkolemStore) is thread-safe, so *every* rule shards — there is no
    // serial-eligibility split any more: a recursive stratum fans out
    // its initial naive pass and every delta round.
    const bool shard_stratum = parallel_ok && recursive;

    std::vector<WorkerState> workers;
    std::vector<StagedMergeTask> merge_tasks;  // one per head predicate
    if (shard_stratum) {
      if (pool_ == nullptr || pool_->num_workers() != threads) {
        pool_ = std::make_unique<ThreadPool>(threads);
      }
      // Pre-create every head relation this stratum derives into (so
      // workers never mutate the Database map; empty relations are
      // invisible to dumps and solutions) and per-worker staging stores.
      workers.resize(threads);
      std::vector<PredicateId> par_heads;  // sorted, deterministic merge
      for (uint32_t ri : rule_ids) {
        const Atom& head = program.rules[ri].head;
        uint32_t arity = static_cast<uint32_t>(head.args.size());
        idb->relation(head.predicate, arity);
        for (WorkerState& ws : workers) {
          ws.staging.try_emplace(head.predicate, arity);
        }
        par_heads.push_back(head.predicate);
      }
      std::sort(par_heads.begin(), par_heads.end());
      par_heads.erase(std::unique(par_heads.begin(), par_heads.end()),
                      par_heads.end());
      // Merge fan-out plan: one task per head predicate, sources in
      // worker order. Relation and staging-store addresses are stable
      // for the stratum, so the plan is built once.
      for (PredicateId pred : par_heads) {
        StagedMergeTask task;
        task.target = idb->FindMutable(pred);
        for (WorkerState& ws : workers) {
          task.sources.push_back(&ws.staging.at(pred));
        }
        merge_tasks.push_back(std::move(task));
      }
    }

    // One sharded scan over `tasks` (each task pins a rule, its scan
    // atom, and a frozen relation row range), then the round-barrier
    // merge, fanned out per predicate. Merge order within each predicate
    // is worker order, so a relation's arena is deterministic for a
    // fixed thread count; across thread counts only arena row ids
    // change, never set semantics.
    struct ScanTask {
      uint32_t rule;
      uint32_t atom;
      const Relation* rel;
      uint32_t lo;
      uint32_t hi;
    };
    auto run_parallel_round =
        [&](const std::vector<ScanTask>& tasks) -> Result<uint64_t> {
      if (tasks.empty()) return uint64_t{0};
      const uint32_t num_workers =
          static_cast<uint32_t>(pool_->num_workers());
      for (WorkerState& ws : workers) {
        ws.staged = 0;
        ws.status = Status::OK();
        for (auto& [pred, store] : ws.staging) store.Clear();
      }
      pool_->RunOnWorkers([&](size_t w) {
        WorkerState& ws = workers[w];
        for (const ScanTask& tr : tasks) {
          const Rule& rule = program.rules[tr.rule];
          // Block-cyclic sharding of the scan range: contiguous blocks
          // dealt round-robin across workers, so skewed per-row join
          // costs still balance without a work queue.
          uint32_t range = tr.hi - tr.lo;
          uint32_t block = std::max(1u, range / (num_workers * 4));
          uint32_t num_blocks = (range + block - 1) / block;
          // One RuleRun per (worker, task): Run() resets the join state
          // in place, so the per-block loop only moves the shard window
          // and reuses the scratch vectors' capacity.
          RuleRun run;
          run.eval = this;
          run.rule = &rule;
          run.edb = edb;
          run.idb = idb;
          run.ctx = ctx;
          run.insert_round = round;
          run.delta_atom = tr.atom;
          run.scan_rel = tr.rel;
          run.staging = &ws.staging.at(rule.head.predicate);
          run.staging_target = idb->Find(rule.head.predicate);
          run.staged = &ws.staged;
          for (uint32_t b = static_cast<uint32_t>(w); b < num_blocks;
               b += num_workers) {
            run.shard_lo = tr.lo + b * block;
            run.shard_hi = std::min(tr.hi, run.shard_lo + block);
            Status st = run.Run();
            if (!st.ok()) {
              ws.status = st;
              return;
            }
          }
        }
      });
      for (WorkerState& ws : workers) SPARQLOG_RETURN_NOT_OK(ws.status);

      // Round barrier: merge the staging buffers into the target
      // relations.
      uint32_t fanout = 0;
      SPARQLOG_ASSIGN_OR_RETURN(
          uint64_t merged, MergeStagedParallel(&merge_tasks, round,
                                               pool_.get(), ctx, &fanout));
      stats_.merge_fanout_width = std::max(stats_.merge_fanout_width, fanout);
      stats_.tuples_derived += merged;
      stats_.staged_tuples_merged += merged;
      SPARQLOG_RETURN_NOT_OK(ctx->CheckBudget());
      ++stats_.parallel_rounds;
      return merged;
    };

    // Initial (naive) pass over the current database state. Serial for
    // non-recursive strata and at one thread: rules of the same stratum
    // see each other's same-pass insertions here, which the single-pass
    // completeness of non-recursive strata relies on. Recursive strata
    // don't need that visibility — the fixpoint rounds below deliver any
    // derivation the no-visibility pass misses — so the sharded path fans
    // the initial pass out too, pivoting each rule on one positive atom:
    // sharding any single atom over its full row range partitions the
    // rule's output, and the EDB/IDB source split of the pivot predicate
    // partitions its rows.
    uint64_t new_tuples = 0;
    if (inc_handled) {
      // Incremental path already restored + re-derived this stratum; its
      // fresh tuples sit at the previous round, which the fixpoint loop
      // below picks up as its first delta.
      new_tuples = inc_new;
    } else if (shard_stratum) {
      std::vector<ScanTask> tasks;
      for (uint32_t ri : rule_ids) {
        if (tc && ri == tc->rule_index) continue;  // kernel handles it
        const Rule& rule = program.rules[ri];
        if (rule.positive.empty()) {
          // Nothing to shard on (builtins-only body); run serially
          // before the region, so the frozen scans below see it.
          SPARQLOG_ASSIGN_OR_RETURN(uint64_t n, run_rule(ri, kNoDelta, 0));
          new_tuples += n;
          continue;
        }
        // Pivot choice: planned rules scan their planned first atom (the
        // most selective one — the sharded scan then mirrors the serial
        // planned join exactly); unplanned rules pivot on the largest
        // relation, the most rows to deal out.
        uint32_t pivot = 0;
        if (!rule.planned) {
          size_t best = 0;
          for (uint32_t ai = 0;
               ai < static_cast<uint32_t>(rule.positive.size()); ++ai) {
            size_t sz = 0;
            PredicateId p = rule.positive[ai].predicate;
            if (const Relation* r = edb->Find(p)) sz += r->size();
            if (const Relation* r = idb->Find(p)) sz += r->size();
            if (ai == 0 || sz > best) {
              pivot = ai;
              best = sz;
            }
          }
        }
        PredicateId p = rule.positive[pivot].predicate;
        for (const Database* db :
             {static_cast<const Database*>(edb),
              static_cast<const Database*>(idb)}) {
          const Relation* r = db->Find(p);
          if (r != nullptr && r->size() > 0) {
            tasks.push_back(
                {ri, pivot, r, 0, static_cast<uint32_t>(r->size())});
          }
        }
      }
      if (!tasks.empty()) ++stats_.naive_rounds_sharded;
      SPARQLOG_ASSIGN_OR_RETURN(uint64_t n, run_parallel_round(tasks));
      new_tuples += n;
    } else {
      for (uint32_t ri : rule_ids) {
        if (tc && ri == tc->rule_index) continue;  // kernel handles it
        SPARQLOG_ASSIGN_OR_RETURN(uint64_t n, run_rule(ri, kNoDelta, 0));
        new_tuples += n;
      }
    }
    ++stats_.rounds;
    ++round;

    // Snapshot the completed stratum for reuse by later queries. A head
    // relation at this point holds exactly the stratum's derivations plus
    // any program facts seeded into it (head predicates are defined in
    // one stratum only), which is precisely what the fingerprint covers.
    auto snapshot_stratum = [&]() {
      if (!memo_ok) return;
      StratumSnapshot snap;
      std::vector<PredicateId> heads(stratum_heads.begin(),
                                     stratum_heads.end());
      std::sort(heads.begin(), heads.end());
      for (PredicateId p : heads) {
        const Relation* r = idb->Find(p);
        if (r == nullptr) continue;
        snap.Capture(program.predicates.Name(p), *r);
      }
      memo_->Insert(stratum_fp[s], std::move(snap));
    };

    // Non-recursive strata are complete after the single pass.
    if (!recursive) {
      snapshot_stratum();
      record_change();
      continue;
    }

    if (tc && !inc_handled) {
      // The kernel completes the closure in one shot: grouped BFS over
      // the frozen step relation, pivoting on newly reached endpoints
      // only (the delta side), with no per-round rescans or merges.
      SPARQLOG_ASSIGN_OR_RETURN(
          TcKernelStats kstats,
          RunTcKernel(*tc, program, edb, idb, round, ctx,
                      shard_stratum ? pool_.get() : nullptr));
      ++stats_.tc_kernels_hit;
      if (kstats.dense) {
        ++stats_.tc_dense_frontiers;
      } else {
        ++stats_.tc_sparse_frontiers;
      }
      stats_.tuples_derived += kstats.inserted;
      if (kstats.inserted > 0) {
        ++stats_.rounds;
        ++round;
      }
      snapshot_stratum();
      record_change();
      continue;
    }

    // Delta tasks for the fixpoint rounds: every (rule, stratum-head
    // atom) pair. Staging delays same-round visibility (a worker's
    // derivations surface at the barrier, not mid-round), which is sound
    // here: within a stratum the rules are monotone — negation is
    // stratified strictly below — so any fair round order reaches the
    // same fixpoint, and the `new_tuples` loop keeps iterating until no
    // round adds anything.
    struct DeltaTask {
      uint32_t rule;
      uint32_t atom;
    };
    std::vector<DeltaTask> delta_tasks;
    for (uint32_t ri : rule_ids) {
      const Rule& rule = program.rules[ri];
      for (uint32_t ai = 0; ai < rule.positive.size(); ++ai) {
        if (stratum_heads.count(rule.positive[ai].predicate) == 0) continue;
        delta_tasks.push_back({ri, ai});
      }
    }

    // Fixpoint iterations.
    while (new_tuples > 0) {
      new_tuples = 0;
      if (mode_ == FixpointMode::kNaive) {
        for (uint32_t ri : rule_ids) {
          SPARQLOG_ASSIGN_OR_RETURN(uint64_t n, run_rule(ri, kNoDelta, 0));
          new_tuples += n;
        }
      } else if (shard_stratum) {
        // Snapshot each task's delta row range before workers start; the
        // ranges (and all relation contents) are frozen for the round.
        uint32_t delta_round = round - 1;
        std::vector<ScanTask> tasks;
        for (const DeltaTask& t : delta_tasks) {
          const Atom& datom = program.rules[t.rule].positive[t.atom];
          const Relation* rel = idb->Find(datom.predicate);
          if (rel == nullptr) continue;
          auto [lo, hi] = rel->RoundRange(delta_round);
          if (lo < hi) tasks.push_back({t.rule, t.atom, rel, lo, hi});
        }
        SPARQLOG_ASSIGN_OR_RETURN(uint64_t n, run_parallel_round(tasks));
        new_tuples += n;
      } else {
        uint32_t delta_round = round - 1;
        for (const DeltaTask& t : delta_tasks) {
          SPARQLOG_ASSIGN_OR_RETURN(uint64_t n,
                                    run_rule(t.rule, t.atom, delta_round));
          new_tuples += n;
        }
      }
      ++stats_.rounds;
      ++round;
    }
    snapshot_stratum();
    record_change();
  }
  return Status::OK();
}

}  // namespace sparqlog::datalog
