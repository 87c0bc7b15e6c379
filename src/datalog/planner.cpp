#include "datalog/planner.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "datalog/stratify.h"

namespace sparqlog::datalog {

namespace {

/// Cardinality floor: an atom estimated to match nothing still needs a
/// positive cost so products and comparisons stay well-behaved — and a
/// near-zero estimate correctly pulls the atom to the front.
constexpr double kMinRows = 1e-3;
/// Fallback for predicates with no statistics, no facts and no defining
/// rules seen yet (recursive references within a stratum).
constexpr double kDefaultRows = 1000.0;
/// Selectivity charged per FILTER / disequality builtin in a body.
constexpr double kFilterSelectivity = 0.7;
/// Fixpoint-growth factor applied to head estimates of recursive strata:
/// the single-pass estimate sees one derivation round, the fixpoint runs
/// until closure.
constexpr double kRecursiveGrowth = 4.0;

/// Triple relation layout (stats.h / data_translator.h).
constexpr size_t kSubjectCol = 0;
constexpr size_t kPredicateCol = 1;
constexpr size_t kObjectCol = 2;

/// Estimated shape of one predicate's relation.
struct RelEstimate {
  double rows = -1.0;  ///< < 0: unknown
  std::vector<double> distinct;
};

/// One body atom after constant selection: surviving cardinality plus the
/// per-variable distinct counts of the survivors, and the subject-star
/// bookkeeping for the characteristic-set refinement.
struct AtomEstimate {
  double rows = kDefaultRows;
  /// Distinct count per variable of this atom (min over the columns the
  /// variable occupies), indexed alongside `vars`.
  std::vector<VarId> vars;
  std::vector<double> var_dist;
  bool star_candidate = false;
  VarId subject_var = 0;
  Value pred_value = 0;
  double objects_per_subject = 1.0;

  double DistOf(VarId v) const {
    for (size_t i = 0; i < vars.size(); ++i) {
      if (vars[i] == v) return var_dist[i];
    }
    return -1.0;
  }
};

AtomEstimate EstimateAtom(const Atom& atom,
                          const std::vector<RelEstimate>& est,
                          const EdbStats& stats) {
  AtomEstimate out;
  const size_t arity = atom.args.size();
  double rows = kDefaultRows;
  std::vector<double> dist(arity, kDefaultRows);
  if (atom.predicate < est.size() && est[atom.predicate].rows >= 0) {
    const RelEstimate& base = est[atom.predicate];
    rows = base.rows;
    for (size_t j = 0; j < arity; ++j) {
      dist[j] = j < base.distinct.size() ? base.distinct[j] : rows;
    }
  }

  // Constant-predicate triple atoms read the per-predicate histogram:
  // the one statistic that separates SP2Bench's dense and sparse
  // patterns sharing the single `triple` relation.
  bool histo = false;
  if (atom.predicate == stats.triple_predicate() &&
      stats.has_triple_histogram() && arity > kObjectCol &&
      !atom.args[kPredicateCol].is_var) {
    histo = true;
    const PredicateTermStats* h =
        stats.FindPredicateTerm(atom.args[kPredicateCol].constant);
    if (h == nullptr) {
      rows = 0;  // the predicate term never occurs: matches nothing
    } else {
      rows = static_cast<double>(h->triples);
      dist[kSubjectCol] = static_cast<double>(h->distinct_subjects);
      dist[kObjectCol] = static_cast<double>(h->distinct_objects);
      dist[kPredicateCol] = 1.0;
      if (atom.args[kSubjectCol].is_var && atom.args[kObjectCol].is_var &&
          atom.args[kSubjectCol].var != atom.args[kObjectCol].var) {
        out.star_candidate = true;
        out.subject_var = atom.args[kSubjectCol].var;
        out.pred_value = atom.args[kPredicateCol].constant;
        out.objects_per_subject =
            rows / std::max(1.0, dist[kSubjectCol]);
      }
    }
  }

  // Remaining constants select 1/distinct each; a variable repeated
  // within the atom acts like a constant for its later occurrences.
  std::unordered_map<VarId, size_t> first_col;
  for (size_t j = 0; j < arity; ++j) {
    if (histo && j == kPredicateCol) continue;
    const RuleTerm& t = atom.args[j];
    if (!t.is_var) {
      rows /= std::max(1.0, dist[j]);
      continue;
    }
    auto [it, fresh] = first_col.emplace(t.var, j);
    if (!fresh) rows /= std::max(1.0, dist[j]);
  }
  out.rows = std::max(rows, kMinRows);
  // Deterministic var order: first occurrence in the atom.
  for (size_t j = 0; j < arity; ++j) {
    const RuleTerm& t = atom.args[j];
    if (!t.is_var) continue;
    double d = std::min(dist[j], std::max(out.rows, 1.0));
    bool seen = false;
    for (size_t i = 0; i < out.vars.size(); ++i) {
      if (out.vars[i] == t.var) {
        out.var_dist[i] = std::min(out.var_dist[i], d);
        seen = true;
      }
    }
    if (!seen) {
      out.vars.push_back(t.var);
      out.var_dist.push_back(std::max(d, 1.0));
    }
  }
  return out;
}

/// Order-independent cardinality of a set of atoms. Joining k atoms on a
/// shared variable divides the cardinality product by all per-atom
/// distinct counts but the smallest — the pairwise
/// |R ⋈ S| = |R|·|S| / max(dR, dS) rule applied associatively. Subject
/// stars over constant predicates are refined with characteristic sets
/// when available. Order independence is what lets the subset-DP below
/// memoize on masks.
class BodyCost {
 public:
  BodyCost(const std::vector<AtomEstimate>* atoms, size_t num_vars,
           const EdbStats* stats)
      : atoms_(atoms), num_vars_(num_vars), stats_(stats) {}

  /// Cardinality of the atoms `a` with `in[a]` set (bodies of any size).
  double CardOf(const std::vector<char>& in) const {
    const auto& atoms = *atoms_;
    double star = -1.0;
    if (StarCard(in, &star)) return std::max(star, kMinRows);

    double card = 1.0;
    // Per-variable distinct lists, deterministic by VarId.
    std::vector<double> min_d(num_vars_, -1.0);
    std::vector<double> prod_d(num_vars_, 1.0);
    for (uint32_t a = 0; a < atoms.size(); ++a) {
      if (!in[a]) continue;
      card *= atoms[a].rows;
      for (size_t i = 0; i < atoms[a].vars.size(); ++i) {
        VarId v = atoms[a].vars[i];
        double d = atoms[a].var_dist[i];
        prod_d[v] *= d;
        min_d[v] = min_d[v] < 0 ? d : std::min(min_d[v], d);
      }
    }
    for (size_t v = 0; v < num_vars_; ++v) {
      if (min_d[v] > 0) card *= min_d[v] / prod_d[v];
    }
    return std::max(card, kMinRows);
  }

  /// CardOf over a bitmask of at most 32 atoms (the subset-DP's masks).
  double CardOf(uint32_t mask) const {
    std::vector<char> in(atoms_->size(), 0);
    for (uint32_t a = 0; a < in.size() && a < 32; ++a) {
      in[a] = (mask >> a) & 1u;
    }
    return CardOf(in);
  }

 private:
  /// Exact subject-star estimate: every atom in the mask is a
  /// constant-predicate triple atom on the same subject variable, and no
  /// non-subject variable links two of them (that would re-introduce a
  /// join the signature count knows nothing about).
  bool StarCard(const std::vector<char>& in, double* out) const {
    const auto& atoms = *atoms_;
    if (stats_ == nullptr || !stats_->has_characteristic_sets()) return false;
    std::vector<Value> preds;
    std::unordered_set<VarId> other_vars;
    VarId subject = 0;
    int n = 0;
    double fanout = 1.0;
    for (uint32_t a = 0; a < atoms.size(); ++a) {
      if (!in[a]) continue;
      const AtomEstimate& ae = atoms[a];
      if (!ae.star_candidate) return false;
      if (n == 0) {
        subject = ae.subject_var;
      } else if (ae.subject_var != subject) {
        return false;
      }
      for (VarId v : ae.vars) {
        if (v == ae.subject_var) continue;
        if (!other_vars.insert(v).second) return false;
      }
      preds.push_back(ae.pred_value);
      fanout *= ae.objects_per_subject;
      ++n;
    }
    if (n < 2) return false;
    std::sort(preds.begin(), preds.end());
    preds.erase(std::unique(preds.begin(), preds.end()), preds.end());
    uint64_t subjects = 0;
    if (!stats_->CountSubjectsWithAll(preds, &subjects)) return false;
    *out = static_cast<double>(subjects) * fanout;
    return true;
  }

  const std::vector<AtomEstimate>* atoms_;
  size_t num_vars_;
  const EdbStats* stats_;
};

/// Greedy order: repeatedly append the atom minimizing the next
/// intermediate cardinality (ties to the lowest original index, so plans
/// are deterministic and replanning is idempotent).
std::vector<uint32_t> GreedyOrder(const BodyCost& cost, uint32_t n) {
  std::vector<uint32_t> order;
  std::vector<char> in(n, 0);
  for (uint32_t step = 0; step < n; ++step) {
    int best = -1;
    double best_card = std::numeric_limits<double>::infinity();
    for (uint32_t a = 0; a < n; ++a) {
      if (in[a]) continue;
      in[a] = 1;
      double c = cost.CardOf(in);
      in[a] = 0;
      if (c < best_card) {
        best_card = c;
        best = static_cast<int>(a);
      }
    }
    order.push_back(static_cast<uint32_t>(best));
    in[static_cast<uint32_t>(best)] = 1;
  }
  return order;
}

/// Exact subset-DP minimizing the sum of intermediate cardinalities
/// (C_out): cost[mask] = card(mask) + min over last-added atoms of
/// cost[mask \ atom]. 2^n masks, n <= kDpMaxAtoms.
std::vector<uint32_t> DpOrder(const BodyCost& cost, uint32_t n) {
  const uint32_t full = (1u << n) - 1;
  std::vector<double> best(full + 1,
                           std::numeric_limits<double>::infinity());
  std::vector<double> card(full + 1, 0.0);
  std::vector<int> last(full + 1, -1);
  best[0] = 0.0;
  for (uint32_t mask = 1; mask <= full; ++mask) {
    card[mask] = cost.CardOf(mask);
    for (uint32_t a = 0; a < n; ++a) {
      if ((mask & (1u << a)) == 0) continue;
      double c = best[mask ^ (1u << a)] + card[mask];
      if (c < best[mask]) {
        best[mask] = c;
        last[mask] = static_cast<int>(a);
      }
    }
  }
  std::vector<uint32_t> order;
  uint32_t mask = full;
  while (mask != 0) {
    uint32_t a = static_cast<uint32_t>(last[mask]);
    order.push_back(a);
    mask ^= 1u << a;
  }
  std::reverse(order.begin(), order.end());
  return order;
}

/// Plans one rule: permutes `rule->positive` into the chosen order, marks
/// it planned, and returns the estimated result cardinality plus the
/// post-join distinct count per variable (for head estimation).
double PlanRule(Rule* rule, const std::vector<RelEstimate>& est,
                const EdbStats& stats, std::vector<double>* var_dist,
                PlannerReport* report) {
  const uint32_t n = static_cast<uint32_t>(rule->positive.size());
  std::vector<AtomEstimate> atoms;
  atoms.reserve(n);
  for (const Atom& a : rule->positive) {
    atoms.push_back(EstimateAtom(a, est, stats));
  }
  BodyCost cost(&atoms, rule->var_names.size(), &stats);

  if (n >= 2) {
    std::vector<uint32_t> order;
    if (n <= kDpMaxAtoms) {
      order = DpOrder(cost, n);
      ++report->dp_bodies;
    } else {
      order = GreedyOrder(cost, n);
      ++report->greedy_bodies;
    }
    bool identity = true;
    for (uint32_t i = 0; i < n; ++i) identity = identity && order[i] == i;
    if (!identity) {
      std::vector<Atom> permuted;
      permuted.reserve(n);
      for (uint32_t i : order) {
        permuted.push_back(std::move(rule->positive[i]));
      }
      rule->positive = std::move(permuted);
      ++report->bodies_reordered;
    }
  }
  rule->planned = true;
  ++report->rules_planned;
  if (n == 2 && rule->negative.empty() &&
      (rule->positive[0].predicate == rule->head.predicate) !=
          (rule->positive[1].predicate == rule->head.predicate)) {
    ++report->tc_shaped_rules;
  }

  double rows = n == 0 ? 1.0 : cost.CardOf(std::vector<char>(n, 1));
  for (const BuiltinLit& b : rule->builtins) {
    if (b.kind == BuiltinKind::kFilterExpr || b.kind == BuiltinKind::kNe) {
      rows *= kFilterSelectivity;
    }
  }
  rows = std::max(rows, kMinRows);

  var_dist->assign(rule->var_names.size(), -1.0);
  for (const AtomEstimate& ae : atoms) {
    for (size_t i = 0; i < ae.vars.size(); ++i) {
      double& d = (*var_dist)[ae.vars[i]];
      double cap = std::min(ae.var_dist[i], std::max(rows, 1.0));
      d = d < 0 ? cap : std::min(d, cap);
    }
  }
  return rows;
}

/// Accumulates one rule's head contribution into the predicate estimate.
void AddHeadEstimate(const Rule& rule, double rows,
                     const std::vector<double>& var_dist,
                     RelEstimate* into) {
  const size_t arity = rule.head.args.size();
  if (into->rows < 0) {
    into->rows = 0;
    into->distinct.assign(arity, 0.0);
  }
  if (into->distinct.size() < arity) into->distinct.resize(arity, 0.0);
  into->rows += rows;
  for (size_t j = 0; j < arity; ++j) {
    const RuleTerm& t = rule.head.args[j];
    double d;
    if (!t.is_var) {
      d = 1.0;
    } else if (t.var < var_dist.size() && var_dist[t.var] > 0) {
      d = var_dist[t.var];
    } else {
      // Skolem / BIND target: one value per derivation.
      d = rows;
    }
    into->distinct[j] = std::min(into->distinct[j] + d, into->rows);
  }
}

}  // namespace

PlannerReport PlanProgram(Program* program, const EdbStats& stats) {
  PlannerReport report;
  auto strat_result = Stratify(*program);
  if (!strat_result.ok()) return report;  // Validate() surfaces the error
  const Stratification& strat = *strat_result;

  std::vector<RelEstimate> est(program->predicates.size());
  for (PredicateId p = 0; p < est.size(); ++p) {
    if (const RelationStats* rs = stats.Find(p)) {
      est[p].rows = static_cast<double>(rs->rows);
      est[p].distinct.assign(rs->distinct.begin(), rs->distinct.end());
    }
  }
  // Program facts seed IDB predicates (VALUES rows, constant-endpoint
  // closure seeds): count them exactly.
  for (const Fact& f : program->facts) {
    RelEstimate& e = est[f.predicate];
    if (e.rows < 0) {
      e.rows = 0;
      e.distinct.assign(f.tuple.size(), 0.0);
    }
    e.rows += 1.0;
    for (size_t j = 0; j < e.distinct.size(); ++j) {
      e.distinct[j] = std::min(e.distinct[j] + 1.0, e.rows);
    }
  }

  // Bottom-up over strata: rules see estimates for everything below, and
  // recursive same-stratum references fall back to defaults.
  std::vector<double> var_dist;
  for (uint32_t s = 0; s < strat.num_strata; ++s) {
    std::vector<PredicateId> heads;
    for (uint32_t ri : strat.strata_rules[s]) {
      Rule& rule = program->rules[ri];
      double rows = PlanRule(&rule, est, stats, &var_dist, &report);
      AddHeadEstimate(rule, rows, var_dist, &est[rule.head.predicate]);
      heads.push_back(rule.head.predicate);
    }
    if (strat.stratum_recursive[s]) {
      std::sort(heads.begin(), heads.end());
      heads.erase(std::unique(heads.begin(), heads.end()), heads.end());
      for (PredicateId p : heads) {
        if (est[p].rows > 0) est[p].rows *= kRecursiveGrowth;
      }
    }
  }

  if (program->output.predicate < est.size() &&
      est[program->output.predicate].rows >= 0) {
    report.output_estimate = est[program->output.predicate].rows;
  }
  program->planned_estimate = report.output_estimate;
  return report;
}

}  // namespace sparqlog::datalog
