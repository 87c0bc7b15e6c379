#include "datalog/tc_kernel.h"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <unordered_map>
#include <utility>
#include <vector>

namespace sparqlog::datalog {

namespace {

bool HasVar(const Atom& atom, VarId v) {
  for (const RuleTerm& t : atom.args) {
    if (t.is_var && t.var == v) return true;
  }
  return false;
}

/// Frozen step relation as CSR over dense node ids. Edges are sorted by
/// (src, dst) before the build, so each adjacency list is ascending and
/// the whole structure is deterministic for a given relation state.
struct Csr {
  std::vector<uint32_t> offsets;  // N + 1
  std::vector<uint32_t> adj;
};

/// Bitset node set with touched-word clearing: Reset() costs O(words
/// actually used), so per-group reuse stays cheap even when one group
/// reaches a tiny corner of a large universe.
class DenseSet {
 public:
  explicit DenseSet(uint32_t n) : words_((static_cast<size_t>(n) + 63) / 64) {}

  /// Sets bit `v`; returns true when it was not set before.
  bool TestSet(uint32_t v) {
    uint64_t& w = words_[v >> 6];
    const uint64_t bit = 1ull << (v & 63);
    if (w & bit) return false;
    if (w == 0) touched_.push_back(v >> 6);
    w |= bit;
    return true;
  }

  bool Test(uint32_t v) const {
    return (words_[v >> 6] & (1ull << (v & 63))) != 0;
  }

  void Reset() {
    for (uint32_t i : touched_) words_[i] = 0;
    touched_.clear();
  }

 private:
  std::vector<uint64_t> words_;
  std::vector<uint32_t> touched_;
};

/// Reusable per-worker BFS state; the vectors keep their capacity across
/// groups, so steady-state closure runs allocation-free.
struct GroupScratch {
  DenseSet expanded, emitted;             // dense mode
  std::vector<uint32_t> frontier, next;   // dense frontiers
  std::vector<uint32_t> s_expanded, s_emitted, cand, fresh, tmp;  // sparse
  // Seed membership of the current group, for duplicate filtering at
  // emission time: bitset in dense mode, sorted ids in sparse mode.
  DenseSet seed_set;
  std::vector<uint32_t> sorted_seeds;
  GroupScratch(uint32_t n, bool dense)
      : expanded(dense ? n : 0),
        emitted(dense ? n : 0),
        seed_set(dense ? n : 0) {}
};

/// Seed-membership filter of the group-closing emit path.
/// An endpoint emitted for carry group `c` is already present in the
/// target relation **iff** it is one of `c`'s seeds: detection fixes
/// every non-carry / non-join head column to a shape constant, so a
/// target row can only equal an emitted row by being a seed row of the
/// same group. This is what lets emission skip per-tuple hash dedup
/// entirely and batch-append through Relation::AppendDistinct.
class SeedFilter {
 public:
  SeedFilter(GroupScratch* scratch, bool dense)
      : scratch_(scratch), dense_(dense) {}

  void Load(const std::vector<uint32_t>& seeds) {
    if (dense_) {
      for (uint32_t u : seeds) scratch_->seed_set.TestSet(u);
    } else {
      scratch_->sorted_seeds.assign(seeds.begin(), seeds.end());
      std::sort(scratch_->sorted_seeds.begin(),
                scratch_->sorted_seeds.end());
    }
  }

  bool Contains(uint32_t v) const {
    if (dense_) return scratch_->seed_set.Test(v);
    return std::binary_search(scratch_->sorted_seeds.begin(),
                              scratch_->sorted_seeds.end(), v);
  }

  void Unload() {
    if (dense_) scratch_->seed_set.Reset();
  }

 private:
  GroupScratch* scratch_;
  bool dense_;
};

/// One carry group, dense mode: classic frontier BFS with the visited
/// ("expanded") and already-emitted endpoint sets held as bitsets.
/// `emit(v)` is called exactly once per endpoint reached in >= 1 step;
/// `pace(advance)` charges `advance` edge traversals against the
/// ExecContext deadline stride.
template <typename EmitFn, typename PaceFn>
Status CloseGroupDense(const Csr& csr, const std::vector<uint32_t>& seeds,
                       GroupScratch* s, EmitFn&& emit, PaceFn&& pace) {
  s->frontier.clear();
  for (uint32_t u : seeds) {
    if (s->expanded.TestSet(u)) s->frontier.push_back(u);
  }
  while (!s->frontier.empty()) {
    s->next.clear();
    for (uint32_t u : s->frontier) {
      const uint32_t lo = csr.offsets[u];
      const uint32_t hi = csr.offsets[u + 1];
      SPARQLOG_RETURN_NOT_OK(pace(hi - lo));
      for (uint32_t e = lo; e < hi; ++e) {
        const uint32_t v = csr.adj[e];
        if (s->emitted.TestSet(v)) SPARQLOG_RETURN_NOT_OK(emit(v));
        if (s->expanded.TestSet(v)) s->next.push_back(v);
      }
    }
    std::swap(s->frontier, s->next);
  }
  s->expanded.Reset();
  s->emitted.Reset();
  return Status::OK();
}

/// One carry group, sparse mode: frontiers and node sets are sorted id
/// vectors advanced with set_difference/set_union rounds — no
/// universe-sized state, so a huge node universe with shallow closures
/// costs only the ids actually touched.
template <typename EmitFn, typename PaceFn>
Status CloseGroupSparse(const Csr& csr, const std::vector<uint32_t>& seeds,
                        GroupScratch* s, EmitFn&& emit, PaceFn&& pace) {
  std::vector<uint32_t>& expanded = s->s_expanded;
  std::vector<uint32_t>& emitted = s->s_emitted;
  std::vector<uint32_t>& frontier = s->frontier;
  std::vector<uint32_t>& cand = s->cand;
  std::vector<uint32_t>& fresh = s->fresh;
  std::vector<uint32_t>& tmp = s->tmp;

  expanded.assign(seeds.begin(), seeds.end());
  std::sort(expanded.begin(), expanded.end());
  expanded.erase(std::unique(expanded.begin(), expanded.end()),
                 expanded.end());
  emitted.clear();
  frontier = expanded;
  while (!frontier.empty()) {
    cand.clear();
    for (uint32_t u : frontier) {
      const uint32_t lo = csr.offsets[u];
      const uint32_t hi = csr.offsets[u + 1];
      SPARQLOG_RETURN_NOT_OK(pace(hi - lo));
      cand.insert(cand.end(), csr.adj.begin() + lo, csr.adj.begin() + hi);
    }
    std::sort(cand.begin(), cand.end());
    cand.erase(std::unique(cand.begin(), cand.end()), cand.end());
    // Endpoints reached for the first time become emissions.
    fresh.clear();
    std::set_difference(cand.begin(), cand.end(), emitted.begin(),
                        emitted.end(), std::back_inserter(fresh));
    for (uint32_t v : fresh) SPARQLOG_RETURN_NOT_OK(emit(v));
    tmp.clear();
    std::set_union(emitted.begin(), emitted.end(), fresh.begin(), fresh.end(),
                   std::back_inserter(tmp));
    emitted.swap(tmp);
    // Endpoints never expanded before form the next frontier.
    fresh.clear();
    std::set_difference(cand.begin(), cand.end(), expanded.begin(),
                        expanded.end(), std::back_inserter(fresh));
    tmp.clear();
    std::set_union(expanded.begin(), expanded.end(), fresh.begin(),
                   fresh.end(), std::back_inserter(tmp));
    expanded.swap(tmp);
    frontier = fresh;
  }
  return Status::OK();
}

}  // namespace

std::optional<TcShape> DetectTcShape(
    const Program& program, const std::vector<uint32_t>& stratum_rules,
    const std::unordered_set<PredicateId>& stratum_heads) {
  // Exactly one recursive (rule, atom) dependency across the stratum —
  // nonlinear doubling rules and mutual recursion both show up as a
  // second dependency and fall back to the generic fixpoint.
  int rule_index = -1;
  int rec_index = -1;
  for (uint32_t ri : stratum_rules) {
    const Rule& r = program.rules[ri];
    for (size_t ai = 0; ai < r.positive.size(); ++ai) {
      if (stratum_heads.count(r.positive[ai].predicate) == 0) continue;
      if (rule_index >= 0) return std::nullopt;
      rule_index = static_cast<int>(ri);
      rec_index = static_cast<int>(ai);
    }
    for (const Atom& n : r.negative) {
      if (stratum_heads.count(n.predicate)) return std::nullopt;
    }
  }
  if (rule_index < 0) return std::nullopt;

  const Rule& rule = program.rules[rule_index];
  if (!rule.negative.empty()) return std::nullopt;
  if (rule.positive.size() != 2) return std::nullopt;
  const uint32_t edge_index = 1u - static_cast<uint32_t>(rec_index);
  const Atom& rec = rule.positive[rec_index];
  const Atom& edge = rule.positive[edge_index];
  const Atom& head = rule.head;
  if (rec.predicate != head.predicate) return std::nullopt;
  if (rec.args.size() != head.args.size()) return std::nullopt;
  if (edge.args.empty()) return std::nullopt;

  // Builtins must all be `V = const` assignments of head-only variables
  // (the bag-mode closure rule assigns the empty tuple id this way).
  // Anything else — filters, Skolems, assignments consumed by the body —
  // is outside the kernel's model.
  std::unordered_map<VarId, Value> fixed;
  for (const BuiltinLit& b : rule.builtins) {
    if (b.kind != BuiltinKind::kEq) return std::nullopt;
    const RuleTerm* vt = nullptr;
    const RuleTerm* ct = nullptr;
    if (b.lhs.is_var && !b.rhs.is_var) {
      vt = &b.lhs;
      ct = &b.rhs;
    } else if (!b.lhs.is_var && b.rhs.is_var) {
      vt = &b.rhs;
      ct = &b.lhs;
    } else {
      return std::nullopt;
    }
    if (!fixed.emplace(vt->var, ct->constant).second) return std::nullopt;
  }
  for (const Atom* a : {&rec, &edge}) {
    for (const RuleTerm& t : a->args) {
      if (t.is_var && fixed.count(t.var)) return std::nullopt;
    }
  }
  // No implicit self-joins: a variable may not repeat within one atom.
  for (const Atom* a : {&rec, &edge}) {
    for (size_t i = 0; i < a->args.size(); ++i) {
      if (!a->args[i].is_var) continue;
      for (size_t j = i + 1; j < a->args.size(); ++j) {
        if (a->args[j].is_var && a->args[j].var == a->args[i].var) {
          return std::nullopt;
        }
      }
    }
  }

  TcShape shape;
  shape.rule_index = static_cast<uint32_t>(rule_index);
  shape.rec_atom = static_cast<uint32_t>(rec_index);
  shape.edge_atom = edge_index;

  // Column-by-column correspondence between the recursive atom and the
  // head (same predicate, same arity): exactly one join column J (shared
  // with the step atom, replaced by the step output in the head), exactly
  // one carry column A (repeated verbatim), everything else constant.
  // A second shared variable — e.g. the graph variable of a closure
  // under GRAPH ?g — fails the single-J requirement and bails.
  int join_col = -1;
  int carry_col = -1;
  for (uint32_t k = 0; k < rec.args.size(); ++k) {
    const RuleTerm& r = rec.args[k];
    const RuleTerm& h = head.args[k];
    if (!r.is_var) {
      Value hv;
      if (!h.is_var) {
        hv = h.constant;
      } else {
        auto it = fixed.find(h.var);
        if (it == fixed.end()) return std::nullopt;
        hv = it->second;
      }
      if (hv != r.constant) return std::nullopt;
      shape.rec_consts.emplace_back(k, r.constant);
      continue;
    }
    const bool in_edge = HasVar(edge, r.var);
    const bool in_head = HasVar(head, r.var);
    if (in_edge) {
      if (in_head || join_col >= 0) return std::nullopt;
      join_col = static_cast<int>(k);
    } else if (in_head) {
      if (!h.is_var || h.var != r.var || carry_col >= 0) return std::nullopt;
      carry_col = static_cast<int>(k);
    } else {
      // Rec-side don't-care: the head column must be a constant
      // (possibly builtin-assigned) so the emission template is fixed.
      if (h.is_var && !fixed.count(h.var)) return std::nullopt;
    }
  }
  if (join_col < 0 || carry_col < 0) return std::nullopt;

  const RuleTerm& hb = head.args[join_col];
  if (!hb.is_var || fixed.count(hb.var)) return std::nullopt;
  const VarId out_var = hb.var;
  const VarId join_var = rec.args[join_col].var;
  const VarId carry_var = rec.args[carry_col].var;
  if (out_var == carry_var || out_var == join_var) return std::nullopt;
  if (HasVar(rec, out_var)) return std::nullopt;

  int edge_join = -1;
  int edge_out = -1;
  for (uint32_t k = 0; k < edge.args.size(); ++k) {
    const RuleTerm& t = edge.args[k];
    if (!t.is_var) {
      shape.edge_consts.emplace_back(k, t.constant);
      continue;
    }
    if (t.var == join_var) {
      edge_join = static_cast<int>(k);
    } else if (t.var == out_var) {
      edge_out = static_cast<int>(k);
    } else if (HasVar(head, t.var) || HasVar(rec, t.var)) {
      // Step-side don't-cares must stay local to the step atom.
      return std::nullopt;
    }
  }
  if (edge_join < 0 || edge_out < 0) return std::nullopt;

  shape.join_col = static_cast<uint32_t>(join_col);
  shape.carry_col = static_cast<uint32_t>(carry_col);
  shape.edge_join_col = static_cast<uint32_t>(edge_join);
  shape.edge_out_col = static_cast<uint32_t>(edge_out);
  shape.head_template.resize(head.args.size());
  for (uint32_t k = 0; k < head.args.size(); ++k) {
    if (k == shape.carry_col || k == shape.join_col) {
      shape.head_template[k] = 0;  // overwritten per emission
      continue;
    }
    const RuleTerm& h = head.args[k];
    shape.head_template[k] = h.is_var ? fixed.at(h.var) : h.constant;
  }
  return shape;
}

Result<TcKernelStats> RunTcKernel(const TcShape& shape,
                                  const Program& program, Database* edb,
                                  Database* idb, uint32_t insert_round,
                                  ExecContext* ctx, ThreadPool* pool) {
  TcKernelStats out;
  const Rule& rule = program.rules[shape.rule_index];
  const Atom& edge_atom = rule.positive[shape.edge_atom];
  const uint32_t head_arity =
      static_cast<uint32_t>(shape.head_template.size());
  Relation* target = idb->FindMutable(rule.head.predicate);
  if (target == nullptr) return out;  // no seed rows: closure is empty

  // Freeze the step relation. The step predicate is outside the stratum
  // (detection guarantees it), so its relation — EDB or a lower-stratum
  // IDB — cannot change underneath the kernel.
  std::unordered_map<Value, uint32_t> node_ids;
  std::vector<Value> node_values;
  auto intern = [&](Value v) {
    auto [it, fresh] =
        node_ids.emplace(v, static_cast<uint32_t>(node_values.size()));
    if (fresh) node_values.push_back(v);
    return it->second;
  };
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  for (Database* db : {edb, idb}) {
    const Relation* rel = db->Find(edge_atom.predicate);
    if (rel == nullptr) continue;
    const uint32_t n = static_cast<uint32_t>(rel->size());
    edges.reserve(edges.size() + n);
    for (uint32_t id = 0; id < n; ++id) {
      SPARQLOG_RETURN_NOT_OK(ctx->CheckBudget());
      RowRef row = rel->row(id);
      bool match = true;
      for (const auto& [col, v] : shape.edge_consts) {
        if (row[col] != v) {
          match = false;
          break;
        }
      }
      if (!match) continue;
      const uint32_t src = intern(row[shape.edge_join_col]);
      const uint32_t dst = intern(row[shape.edge_out_col]);
      edges.emplace_back(src, dst);
    }
  }
  if (edges.empty()) return out;

  // Distinct extra step columns (bag-mode tuple ids) can project many
  // rows onto one (src, dst) pair; dedup so BFS work is per edge, not
  // per row. Sorting also fixes ascending adjacency order.
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

  // Seeds: every existing head row, bucketed by carry value. Endpoints
  // with no outgoing step edge are skipped — they cannot derive anything.
  std::unordered_map<Value, std::vector<uint32_t>> group_map;
  const uint32_t base_rows = static_cast<uint32_t>(target->size());
  for (uint32_t id = 0; id < base_rows; ++id) {
    SPARQLOG_RETURN_NOT_OK(ctx->CheckBudget());
    RowRef row = target->row(id);
    bool match = true;
    for (const auto& [col, v] : shape.rec_consts) {
      if (row[col] != v) {
        match = false;
        break;
      }
    }
    if (!match) continue;
    auto it = node_ids.find(row[shape.join_col]);
    if (it == node_ids.end()) continue;
    group_map[row[shape.carry_col]].push_back(it->second);
  }
  if (group_map.empty()) return out;

  const uint32_t num_nodes = static_cast<uint32_t>(node_values.size());
  Csr csr;
  csr.offsets.assign(num_nodes + 1, 0);
  for (const auto& e : edges) ++csr.offsets[e.first + 1];
  for (uint32_t i = 0; i < num_nodes; ++i) csr.offsets[i + 1] += csr.offsets[i];
  csr.adj.reserve(edges.size());
  for (const auto& e : edges) csr.adj.push_back(e.second);  // sorted by src

  // Deterministic group order — also the parallel merge order.
  std::vector<std::pair<Value, std::vector<uint32_t>>> groups;
  groups.reserve(group_map.size());
  for (auto& [carry, seeds] : group_map) {
    groups.emplace_back(carry, std::move(seeds));
  }
  std::sort(groups.begin(), groups.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  // Bitset frontiers pay the universe-sized allocation per worker plus a
  // touched-word clear per group; sorted-vector frontiers pay
  // O(touched log touched) per round instead. Edge count cannot tell the
  // modes apart — the universe is built from edge endpoints, so
  // num_nodes <= 2 * edges always. Seed density can: a constant-seeded
  // path closure (one seed over a large graph) touches a sliver of the
  // universe per group, while whole-relation closures carry one seed per
  // base edge. Small universes always take the dense path — the bitsets
  // are a few cache lines.
  uint64_t total_seeds = 0;
  for (const auto& [carry, seeds] : groups) total_seeds += seeds.size();
  out.dense = num_nodes < 4096 || total_seeds * 64 >= num_nodes;

  // Carry groups are disjoint by construction (every emitted row embeds
  // its group's carry value), so dealing them across workers cannot stage
  // the same row twice, and the per-group seed filter makes each worker's
  // staging buffer globally distinct with no reads of `target` at all.
  // New rows are staged flat and batch-appended after the region barrier,
  // in worker order: the dedup proves every staged row distinct, so the
  // append needs no per-tuple hash probes (see Relation::AppendDistinct),
  // and the arena is deterministic for a fixed thread count — the same
  // contract as the generic staged merge. One worker (no pool, or a
  // single group) runs inline and appends every group in sorted order.
  const size_t workers =
      (pool != nullptr && groups.size() > 1) ? pool->num_workers() : 1;
  struct TcWorker {
    std::vector<Value> staging;  // flat, head-arity stride
    uint64_t staged = 0;
    Status status;
  };
  std::vector<TcWorker> ws(workers);
  const bool dense = out.dense;
  auto close_groups = [&](size_t w) {
    TcWorker& me = ws[w];
    GroupScratch scratch(num_nodes, dense);
    SeedFilter seed_filter(&scratch, dense);
    std::vector<Value> head_row = shape.head_template;
    std::vector<uint32_t> group_new;
    for (size_t g = w; g < groups.size(); g += workers) {
      head_row[shape.carry_col] = groups[g].first;
      seed_filter.Load(groups[g].second);
      // Deadline pacing rides on pace() (one stride charge per node
      // expansion); the tuple budget is checked arithmetically per
      // staged row and charged to the context once the rows are
      // appended. Emission collects bare node ids; the full head rows
      // are materialized in one batch per group.
      group_new.clear();
      auto emit = [&](uint32_t node) -> Status {
        if (!seed_filter.Contains(node)) {
          group_new.push_back(node);
          if (ctx->tuples_used() + me.staged + group_new.size() >
              ctx->tuple_budget()) {
            return Status::ResourceExhausted(
                "tuple budget exceeded (mem-out)");
          }
        }
        return Status::OK();
      };
      auto pace = [&](uint32_t advance) -> Status {
        return ctx->CheckBudget(advance);
      };
      me.status =
          dense ? CloseGroupDense(csr, groups[g].second, &scratch, emit, pace)
                : CloseGroupSparse(csr, groups[g].second, &scratch, emit,
                                   pace);
      if (!me.status.ok()) return;
      seed_filter.Unload();
      me.staging.resize((me.staged + group_new.size()) * head_arity);
      Value* dst = me.staging.data() + me.staged * head_arity;
      for (uint32_t node : group_new) {
        std::copy(head_row.begin(), head_row.end(), dst);
        dst[shape.join_col] = node_values[node];
        dst += head_arity;
      }
      me.staged += group_new.size();
    }
  };
  if (workers <= 1) {
    close_groups(0);
  } else {
    pool->RunOnWorkers(close_groups);
  }
  for (TcWorker& w : ws) SPARQLOG_RETURN_NOT_OK(w.status);
  for (TcWorker& w : ws) {
    if (w.staged == 0) continue;
    target->AppendDistinct(w.staging.data(), w.staged, insert_round);
    out.inserted += w.staged;
    ctx->AddTuples(w.staged);
    SPARQLOG_RETURN_NOT_OK(
        ctx->CheckBudget(static_cast<uint32_t>(w.staged)));
  }
  return out;
}

}  // namespace sparqlog::datalog
