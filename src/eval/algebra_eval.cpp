#include "eval/algebra_eval.h"

#include <algorithm>
#include <map>
#include <set>

#include "sparql/features.h"

namespace sparqlog::eval {

using rdf::TermDictionary;
using rdf::TermId;
using sparql::Pattern;
using sparql::PatternKind;
using sparql::Query;
using sparql::QueryForm;
using sparql::TermOrVar;

void AlgebraEvaluator::RegisterPatternVars(const Pattern& p) {
  switch (p.kind) {
    case PatternKind::kEmpty:
      return;
    case PatternKind::kTriple:
      if (p.s.is_var) vars_.SlotOf(p.s.var);
      if (p.p.is_var) vars_.SlotOf(p.p.var);
      if (p.o.is_var) vars_.SlotOf(p.o.var);
      return;
    case PatternKind::kPath:
      if (p.s.is_var) vars_.SlotOf(p.s.var);
      if (p.o.is_var) vars_.SlotOf(p.o.var);
      return;
    case PatternKind::kGraph:
      if (p.graph.is_var) vars_.SlotOf(p.graph.var);
      RegisterPatternVars(*p.left);
      return;
    case PatternKind::kFilter: {
      std::vector<std::string> names;
      p.condition->CollectVars(&names);
      for (const auto& n : names) vars_.SlotOf(n);
      RegisterPatternVars(*p.left);
      return;
    }
    case PatternKind::kBind: {
      vars_.SlotOf(p.bind_var);
      std::vector<std::string> names;
      p.condition->CollectVars(&names);
      for (const auto& n : names) vars_.SlotOf(n);
      RegisterPatternVars(*p.left);
      return;
    }
    case PatternKind::kValues:
      for (const auto& v : p.values_vars) vars_.SlotOf(v);
      return;
    default:
      if (p.left) RegisterPatternVars(*p.left);
      if (p.right) RegisterPatternVars(*p.right);
      return;
  }
}

void AlgebraEvaluator::RegisterVars(const Query& q) {
  if (q.where) RegisterPatternVars(*q.where);
  for (const auto& item : q.select) {
    if (item.is_aggregate) {
      vars_.SlotOf(item.alias);
      if (!item.count_star) vars_.SlotOf(item.var);
    } else {
      vars_.SlotOf(item.var);
    }
  }
  for (const auto& g : q.group_by) vars_.SlotOf(g);
  for (const auto& key : q.order_by) {
    std::vector<std::string> names;
    key.expr->CollectVars(&names);
    for (const auto& n : names) vars_.SlotOf(n);
  }
}

std::optional<TermId> AlgebraEvaluator::ResolveEndpoint(
    const TermOrVar& tv, const Solution& input) {
  if (!tv.is_var) return tv.term;
  uint32_t slot = vars_.Find(tv.var);
  if (slot != UINT32_MAX && input[slot] != TermDictionary::kUndef) {
    return input[slot];
  }
  return std::nullopt;
}

Result<Multiset> AlgebraEvaluator::EvalPattern(const Pattern& p,
                                               const rdf::Graph& active,
                                               const Solution& input) {
  SPARQLOG_RETURN_NOT_OK(ctx_->CheckBudget());
  switch (p.kind) {
    case PatternKind::kEmpty:
      return Multiset{input};

    case PatternKind::kTriple: {
      auto s = ResolveEndpoint(p.s, input);
      auto pred = ResolveEndpoint(p.p, input);
      auto o = ResolveEndpoint(p.o, input);
      Multiset out;
      Status st = Status::OK();
      active.Match(s, pred, o, [&](const rdf::Triple& t) {
        if (!st.ok()) return;
        Solution sol = input;
        auto bind = [&](const TermOrVar& tv, TermId value) -> bool {
          if (!tv.is_var) return tv.term == value;
          uint32_t slot = vars_.Find(tv.var);
          if (sol[slot] != TermDictionary::kUndef) {
            return sol[slot] == value;
          }
          sol[slot] = value;
          return true;
        };
        if (bind(p.s, t.s) && bind(p.p, t.p) && bind(p.o, t.o)) {
          out.push_back(std::move(sol));
          ctx_->AddTuples(1);
          cost_.Charge(1);
        }
        st = ctx_->CheckBudget();
      });
      SPARQLOG_RETURN_NOT_OK(st);
      return out;
    }

    case PatternKind::kPath: {
      auto s = ResolveEndpoint(p.s, input);
      auto o = ResolveEndpoint(p.o, input);
      PathEvaluator path_eval(active, ctx_, quirks_);
      SPARQLOG_ASSIGN_OR_RETURN(PairList pairs,
                                path_eval.Eval(*p.path, s, o));
      Multiset out;
      for (const auto& [x, y] : pairs) {
        Solution sol = input;
        bool ok = true;
        if (p.s.is_var) {
          uint32_t slot = vars_.Find(p.s.var);
          if (sol[slot] == TermDictionary::kUndef) {
            sol[slot] = x;
          } else if (sol[slot] != x) {
            ok = false;
          }
        } else if (p.s.term != x) {
          ok = false;
        }
        if (ok) {
          if (p.o.is_var) {
            uint32_t slot = vars_.Find(p.o.var);
            if (sol[slot] == TermDictionary::kUndef) {
              sol[slot] = y;
            } else if (sol[slot] != y) {
              ok = false;
            }
          } else if (p.o.term != y) {
            ok = false;
          }
        }
        if (ok) out.push_back(std::move(sol));
      }
      return out;
    }

    case PatternKind::kJoin: {
      SPARQLOG_ASSIGN_OR_RETURN(Multiset left,
                                EvalPattern(*p.left, active, input));
      Multiset out;
      for (const Solution& mu : left) {
        SPARQLOG_ASSIGN_OR_RETURN(Multiset right,
                                  EvalPattern(*p.right, active, mu));
        for (Solution& sol : right) out.push_back(std::move(sol));
      }
      return out;
    }

    case PatternKind::kUnion: {
      SPARQLOG_ASSIGN_OR_RETURN(Multiset left,
                                EvalPattern(*p.left, active, input));
      SPARQLOG_ASSIGN_OR_RETURN(Multiset right,
                                EvalPattern(*p.right, active, input));
      for (Solution& sol : right) left.push_back(std::move(sol));
      if (quirks_.union_dedup) {
        // Quirk: duplicates across UNION branches are merged.
        std::sort(left.begin(), left.end());
        left.erase(std::unique(left.begin(), left.end()), left.end());
      }
      return left;
    }

    case PatternKind::kOptional: {
      SPARQLOG_ASSIGN_OR_RETURN(Multiset left,
                                EvalPattern(*p.left, active, input));
      Multiset out;
      for (const Solution& mu : left) {
        // Correlated evaluation of the right side equals the spec's
        // ⟦P1⟧ ⟗ ⟦P2⟧: pushed-down bindings restrict P2 to mappings
        // compatible with mu (including the OPTIONAL-FILTER case, where
        // the filter sees mu's bindings).
        SPARQLOG_ASSIGN_OR_RETURN(Multiset right,
                                  EvalPattern(*p.right, active, mu));
        if (right.empty()) {
          out.push_back(mu);
        } else {
          for (Solution& sol : right) out.push_back(std::move(sol));
        }
      }
      return out;
    }

    case PatternKind::kMinus: {
      SPARQLOG_ASSIGN_OR_RETURN(Multiset left,
                                EvalPattern(*p.left, active, input));
      // MINUS's right side is evaluated independently (no correlation):
      // the disjoint-domain rule needs the full set of mappings.
      Solution empty(vars_.size(), TermDictionary::kUndef);
      SPARQLOG_ASSIGN_OR_RETURN(Multiset right,
                                EvalPattern(*p.right, active, empty));
      Multiset out;
      for (const Solution& mu1 : left) {
        bool keep = true;
        for (const Solution& mu2 : right) {
          if (Compatible(mu1, mu2) && !DisjointDomains(mu1, mu2)) {
            keep = false;
            break;
          }
        }
        if (keep) out.push_back(mu1);
      }
      return out;
    }

    case PatternKind::kFilter: {
      SPARQLOG_ASSIGN_OR_RETURN(Multiset left,
                                EvalPattern(*p.left, active, input));
      Multiset out;
      for (const Solution& mu : left) {
        auto lookup = [&](const std::string& name) -> TermId {
          uint32_t slot = vars_.Find(name);
          return slot == UINT32_MAX ? TermDictionary::kUndef : mu[slot];
        };
        if (expr_eval_.EvalEBV(*p.condition, lookup) == EBV::kTrue) {
          out.push_back(mu);
        }
      }
      return out;
    }

    case PatternKind::kBind: {
      SPARQLOG_ASSIGN_OR_RETURN(Multiset left,
                                EvalPattern(*p.left, active, input));
      uint32_t slot = vars_.Find(p.bind_var);
      Multiset out;
      for (Solution& mu : left) {
        auto lookup = [&](const std::string& name) -> TermId {
          uint32_t s2 = vars_.Find(name);
          return s2 == UINT32_MAX ? TermDictionary::kUndef : mu[s2];
        };
        auto value = expr_eval_.EvalTerm(*p.condition, lookup);
        TermId v = value.value_or(TermDictionary::kUndef);  // error -> unbound
        if (mu[slot] == TermDictionary::kUndef) {
          mu[slot] = v;
        } else if (mu[slot] != v) {
          continue;  // BIND target already bound incompatibly
        }
        out.push_back(std::move(mu));
      }
      return out;
    }

    case PatternKind::kValues: {
      Multiset out;
      for (const auto& row : p.values_rows) {
        Solution sol = input;
        bool ok = true;
        for (size_t i = 0; i < p.values_vars.size(); ++i) {
          if (row[i] == TermDictionary::kUndef) continue;
          uint32_t slot = vars_.Find(p.values_vars[i]);
          if (sol[slot] == TermDictionary::kUndef) {
            sol[slot] = row[i];
          } else if (sol[slot] != row[i]) {
            ok = false;
            break;
          }
        }
        if (ok) out.push_back(std::move(sol));
      }
      return out;
    }

    case PatternKind::kExistsFilter: {
      SPARQLOG_ASSIGN_OR_RETURN(Multiset left,
                                EvalPattern(*p.left, active, input));
      Multiset out;
      for (const Solution& mu : left) {
        SPARQLOG_ASSIGN_OR_RETURN(Multiset inner,
                                  EvalPattern(*p.right, active, mu));
        if (inner.empty() == p.exists_negated) out.push_back(mu);
      }
      return out;
    }

    case PatternKind::kGraph: {
      if (!p.graph.is_var) {
        const rdf::Graph* g = active_dataset_->FindNamedGraph(p.graph.term);
        if (g == nullptr) return Multiset{};
        return EvalPattern(*p.left, *g, input);
      }
      uint32_t slot = vars_.Find(p.graph.var);
      Multiset out;
      for (const auto& [name, g] : active_dataset_->named_graphs()) {
        if (input[slot] != TermDictionary::kUndef && input[slot] != name) {
          continue;
        }
        Solution extended = input;
        extended[slot] = name;
        SPARQLOG_ASSIGN_OR_RETURN(Multiset inner,
                                  EvalPattern(*p.left, g, extended));
        for (Solution& sol : inner) out.push_back(std::move(sol));
      }
      return out;
    }
  }
  return Status::Internal("unhandled pattern kind");
}

Result<Multiset> AlgebraEvaluator::Aggregate(const Query& q,
                                             const Multiset& sols) {
  std::vector<uint32_t> group_slots;
  for (const auto& g : q.group_by) group_slots.push_back(vars_.SlotOf(g));

  // Group solutions by the GROUP BY key (single group when absent).
  std::map<std::vector<TermId>, std::vector<const Solution*>> groups;
  for (const Solution& mu : sols) {
    std::vector<TermId> key;
    key.reserve(group_slots.size());
    for (uint32_t s : group_slots) key.push_back(mu[s]);
    groups[key].push_back(&mu);
  }
  if (groups.empty() && group_slots.empty() && !sols.empty()) {
    groups[{}] = {};
  }
  // COUNT over an empty solution set still yields one row (empty group).
  if (groups.empty() && group_slots.empty()) groups[{}] = {};

  Multiset out;
  for (const auto& [key, members] : groups) {
    Solution row(vars_.size(), TermDictionary::kUndef);
    for (size_t i = 0; i < group_slots.size(); ++i) {
      row[group_slots[i]] = key[i];
    }
    for (const auto& item : q.select) {
      if (!item.is_aggregate) continue;
      uint32_t out_slot = vars_.SlotOf(item.alias);
      if (item.fn == sparql::AggregateFn::kCount && item.count_star) {
        if (item.agg_distinct) {
          std::vector<Solution> dedup;
          for (const Solution* m : members) dedup.push_back(*m);
          std::sort(dedup.begin(), dedup.end());
          dedup.erase(std::unique(dedup.begin(), dedup.end()), dedup.end());
          row[out_slot] =
              dict_->InternInteger(static_cast<int64_t>(dedup.size()));
        } else {
          row[out_slot] =
              dict_->InternInteger(static_cast<int64_t>(members.size()));
        }
        continue;
      }
      uint32_t arg_slot = vars_.SlotOf(item.var);
      std::vector<TermId> values;
      for (const Solution* m : members) {
        if ((*m)[arg_slot] != TermDictionary::kUndef) {
          values.push_back((*m)[arg_slot]);
        }
      }
      if (item.agg_distinct) {
        std::sort(values.begin(), values.end());
        values.erase(std::unique(values.begin(), values.end()), values.end());
      }
      switch (item.fn) {
        case sparql::AggregateFn::kCount:
          row[out_slot] =
              dict_->InternInteger(static_cast<int64_t>(values.size()));
          break;
        case sparql::AggregateFn::kSum: {
          double sum = 0;
          bool all_int = true;
          int64_t isum = 0;
          for (TermId v : values) {
            const rdf::Term& t = dict_->get(v);
            if (!t.is_numeric()) continue;
            sum += t.AsDouble();
            if (t.numeric_kind == rdf::NumericKind::kInteger) {
              isum += t.int_value;
            } else {
              all_int = false;
            }
          }
          row[out_slot] = all_int ? dict_->InternInteger(isum)
                                  : dict_->InternDouble(sum);
          break;
        }
        case sparql::AggregateFn::kAvg: {
          double sum = 0;
          size_t n = 0;
          for (TermId v : values) {
            const rdf::Term& t = dict_->get(v);
            if (!t.is_numeric()) continue;
            sum += t.AsDouble();
            ++n;
          }
          row[out_slot] = n == 0 ? dict_->InternInteger(0)
                                 : dict_->InternDouble(sum / double(n));
          break;
        }
        case sparql::AggregateFn::kMin:
        case sparql::AggregateFn::kMax: {
          if (values.empty()) break;
          TermId best = values[0];
          for (TermId v : values) {
            int c = CompareForOrder(*dict_, v, best);
            if ((item.fn == sparql::AggregateFn::kMin && c < 0) ||
                (item.fn == sparql::AggregateFn::kMax && c > 0)) {
              best = v;
            }
          }
          row[out_slot] = best;
          break;
        }
      }
    }
    out.push_back(std::move(row));
  }
  return out;
}

Status AlgebraEvaluator::Sort(const Query& q, Multiset* sols) {
  if (q.order_by.empty()) return Status::OK();
  // Precompute key vectors per solution.
  struct Keyed {
    std::vector<TermId> keys;
    uint32_t index;
  };
  std::vector<Keyed> keyed;
  keyed.reserve(sols->size());
  for (uint32_t i = 0; i < sols->size(); ++i) {
    const Solution& mu = (*sols)[i];
    auto lookup = [&](const std::string& name) -> TermId {
      uint32_t slot = vars_.Find(name);
      return slot == UINT32_MAX ? TermDictionary::kUndef : mu[slot];
    };
    Keyed k;
    k.index = i;
    for (const auto& key : q.order_by) {
      auto v = expr_eval_.EvalTerm(*key.expr, lookup);
      k.keys.push_back(v.value_or(TermDictionary::kUndef));
    }
    keyed.push_back(std::move(k));
  }
  // Deterministic tie-break on the projected output row (ascending),
  // mirroring SolutionTranslator's rule: tie order among equal ORDER BY
  // keys is undefined in SPARQL, so both evaluators resolve it by row
  // content, which keeps LIMIT/OFFSET results comparable between the
  // pipeline and this reference regardless of iteration order.
  std::vector<uint32_t> proj_slots;
  for (const auto& c : q.ProjectedVars()) proj_slots.push_back(vars_.SlotOf(c));
  std::stable_sort(keyed.begin(), keyed.end(),
                   [&](const Keyed& a, const Keyed& b) {
                     for (size_t i = 0; i < q.order_by.size(); ++i) {
                       int c = CompareForOrder(*dict_, a.keys[i], b.keys[i]);
                       if (q.order_by[i].descending) c = -c;
                       if (c != 0) return c < 0;
                     }
                     const Solution& sa = (*sols)[a.index];
                     const Solution& sb = (*sols)[b.index];
                     for (uint32_t slot : proj_slots) {
                       int c = CompareForOrder(*dict_, sa[slot], sb[slot]);
                       if (c != 0) return c < 0;
                     }
                     return false;
                   });
  Multiset sorted;
  sorted.reserve(sols->size());
  for (const Keyed& k : keyed) sorted.push_back(std::move((*sols)[k.index]));
  *sols = std::move(sorted);
  return Status::OK();
}

Result<QueryResult> AlgebraEvaluator::EvalQuery(const Query& q) {
  if (quirks_.error_on_graph_and_complex_order) {
    sparql::FeatureSet features = sparql::AnalyzeFeatures(q);
    if (features.graph) {
      return Status::NotSupported("GRAPH pattern rejected (quirk)");
    }
    for (const auto& key : q.order_by) {
      if (key.expr->kind != sparql::ExprKind::kVar) {
        return Status::NotSupported("complex ORDER BY rejected (quirk)");
      }
    }
  }
  RegisterVars(q);
  if (!q.from.empty() || !q.from_named.empty()) {
    scoped_dataset_ = base_dataset_.WithClauses(q.from, q.from_named);
    active_dataset_ = &*scoped_dataset_;
  } else {
    active_dataset_ = &base_dataset_;
  }
  if (!q.where) return Status::InvalidArgument("query has no WHERE pattern");

  Solution empty(vars_.size(), TermDictionary::kUndef);
  SPARQLOG_ASSIGN_OR_RETURN(
      Multiset sols,
      EvalPattern(*q.where, active_dataset_->default_graph(), empty));

  QueryResult result;
  if (q.form == QueryForm::kAsk) {
    result.is_ask = true;
    result.ask_value = !sols.empty();
    return result;
  }

  if (q.HasAggregates() || !q.group_by.empty()) {
    SPARQLOG_ASSIGN_OR_RETURN(sols, Aggregate(q, sols));
  }

  SPARQLOG_RETURN_NOT_OK(Sort(q, &sols));

  result.columns = q.ProjectedVars();
  std::vector<uint32_t> slots;
  for (const auto& c : result.columns) slots.push_back(vars_.SlotOf(c));
  for (const Solution& mu : sols) {
    std::vector<TermId> row;
    row.reserve(slots.size());
    for (uint32_t s : slots) row.push_back(mu[s]);
    result.rows.push_back(std::move(row));
  }

  bool apply_distinct = q.distinct;
  if (apply_distinct && quirks_.ignore_distinct_with_union &&
      sparql::AnalyzeFeatures(q).union_) {
    apply_distinct = false;  // quirk: DISTINCT dropped on UNION queries
  }
  if (apply_distinct) {
    std::set<std::vector<TermId>> seen;
    std::vector<std::vector<TermId>> dedup;
    for (auto& row : result.rows) {
      if (seen.insert(row).second) dedup.push_back(std::move(row));
    }
    result.rows = std::move(dedup);
  }

  uint64_t offset = q.offset.value_or(0);
  if (offset > 0) {
    if (offset >= result.rows.size()) {
      result.rows.clear();
    } else {
      result.rows.erase(result.rows.begin(),
                        result.rows.begin() + static_cast<long>(offset));
    }
  }
  if (q.limit && result.rows.size() > *q.limit) {
    result.rows.resize(*q.limit);
  }
  return result;
}

}  // namespace sparqlog::eval
