#include "datalog/ast.h"

#include <algorithm>

namespace sparqlog::datalog {

PredicateId PredicateTable::Intern(const std::string& name, uint32_t arity) {
  auto it = index_.find(name);
  if (it != index_.end()) {
    if (arities_[it->second] != arity) {
      errors_.push_back("predicate '" + name + "' used with arity " +
                        std::to_string(arity) + " and " +
                        std::to_string(arities_[it->second]));
    }
    return it->second;
  }
  PredicateId id = static_cast<PredicateId>(names_.size());
  names_.push_back(name);
  arities_.push_back(arity);
  index_.emplace(name, id);
  return id;
}

std::optional<PredicateId> PredicateTable::Lookup(
    const std::string& name) const {
  auto it = index_.find(name);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

namespace {

void CollectAtomVars(const Atom& atom, std::vector<bool>* seen) {
  for (const RuleTerm& t : atom.args) {
    if (t.is_var) {
      if (t.var >= seen->size()) seen->resize(t.var + 1, false);
      (*seen)[t.var] = true;
    }
  }
}

}  // namespace

Status Program::Validate() const {
  if (!predicates.errors().empty()) {
    return Status::InvalidArgument("arity conflicts: " +
                                   predicates.errors().front());
  }
  for (size_t ri = 0; ri < rules.size(); ++ri) {
    const Rule& rule = rules[ri];
    // Range restriction: every variable used in the head, in negated atoms
    // or as a non-assigned builtin operand must be bound by the positive
    // body or by an assignment builtin (Eq with a constant, Skolem target).
    std::vector<bool> bound(rule.var_names.size(), false);
    for (const Atom& a : rule.positive) {
      std::vector<bool> seen;
      CollectAtomVars(a, &seen);
      for (size_t v = 0; v < seen.size(); ++v) {
        if (seen[v]) bound[v] = true;
      }
    }
    // Assignment builtins can bind; run to fixpoint since Eq chains may
    // cascade (X = t, Y = X).
    bool changed = true;
    while (changed) {
      changed = false;
      for (const BuiltinLit& b : rule.builtins) {
        if (b.kind == BuiltinKind::kSkolem ||
            b.kind == BuiltinKind::kAssignExpr) {
          if (b.target.is_var && !bound[b.target.var]) {
            bound[b.target.var] = true;
            changed = true;
          }
        } else if (b.kind == BuiltinKind::kEq) {
          bool lhs_ok = !b.lhs.is_var || bound[b.lhs.var];
          bool rhs_ok = !b.rhs.is_var || bound[b.rhs.var];
          if (lhs_ok && b.rhs.is_var && !bound[b.rhs.var]) {
            bound[b.rhs.var] = true;
            changed = true;
          } else if (rhs_ok && b.lhs.is_var && !bound[b.lhs.var]) {
            bound[b.lhs.var] = true;
            changed = true;
          }
        }
      }
    }
    auto check_bound = [&](const RuleTerm& t, const char* where) -> Status {
      if (t.is_var && (t.var >= bound.size() || !bound[t.var])) {
        return Status::InvalidArgument(
            "rule " + std::to_string(ri) + ": unsafe variable '" +
            (t.var < rule.var_names.size() ? rule.var_names[t.var] : "?") +
            "' in " + where);
      }
      return Status::OK();
    };
    for (const RuleTerm& t : rule.head.args) {
      SPARQLOG_RETURN_NOT_OK(check_bound(t, "head"));
    }
    for (const Atom& a : rule.negative) {
      for (const RuleTerm& t : a.args) {
        SPARQLOG_RETURN_NOT_OK(check_bound(t, "negated atom"));
      }
    }
    for (const BuiltinLit& b : rule.builtins) {
      if (b.kind == BuiltinKind::kNe) {
        SPARQLOG_RETURN_NOT_OK(check_bound(b.lhs, "builtin !="));
        SPARQLOG_RETURN_NOT_OK(check_bound(b.rhs, "builtin !="));
      } else if (b.kind == BuiltinKind::kSkolem) {
        for (const RuleTerm& t : b.skolem_args) {
          SPARQLOG_RETURN_NOT_OK(check_bound(t, "skolem argument"));
        }
      } else if (b.kind == BuiltinKind::kFilterExpr ||
                 b.kind == BuiltinKind::kAssignExpr) {
        for (const auto& [name, v] : b.expr_vars) {
          SPARQLOG_RETURN_NOT_OK(
              check_bound(RuleTerm::Var(v), "filter expression"));
        }
      }
    }
    // Arity check of each atom against the table.
    auto check_atom = [&](const Atom& a) -> Status {
      if (a.args.size() != predicates.Arity(a.predicate)) {
        return Status::InvalidArgument(
            "rule " + std::to_string(ri) + ": atom " +
            predicates.Name(a.predicate) + " has wrong arity");
      }
      return Status::OK();
    };
    SPARQLOG_RETURN_NOT_OK(check_atom(rule.head));
    for (const Atom& a : rule.positive) SPARQLOG_RETURN_NOT_OK(check_atom(a));
    for (const Atom& a : rule.negative) SPARQLOG_RETURN_NOT_OK(check_atom(a));
  }
  for (const Fact& f : facts) {
    if (f.tuple.size() != predicates.Arity(f.predicate)) {
      return Status::InvalidArgument("fact with wrong arity for " +
                                     predicates.Name(f.predicate));
    }
  }
  return Status::OK();
}

RuleTerm RuleBuilder::Var(const std::string& name) {
  return RuleTerm::Var(VarIdOf(name));
}

VarId RuleBuilder::VarIdOf(const std::string& name) {
  auto it = vars_.find(name);
  if (it != vars_.end()) return it->second;
  VarId id = static_cast<VarId>(rule_.var_names.size());
  rule_.var_names.push_back(name);
  vars_.emplace(name, id);
  return id;
}

RuleBuilder& RuleBuilder::Head(const std::string& pred,
                               std::vector<RuleTerm> args) {
  rule_.head.predicate =
      predicates_->Intern(pred, static_cast<uint32_t>(args.size()));
  rule_.head.args = std::move(args);
  return *this;
}

RuleBuilder& RuleBuilder::Body(const std::string& pred,
                               std::vector<RuleTerm> args) {
  Atom a;
  a.predicate = predicates_->Intern(pred, static_cast<uint32_t>(args.size()));
  a.args = std::move(args);
  rule_.positive.push_back(std::move(a));
  return *this;
}

RuleBuilder& RuleBuilder::NegBody(const std::string& pred,
                                  std::vector<RuleTerm> args) {
  Atom a;
  a.predicate = predicates_->Intern(pred, static_cast<uint32_t>(args.size()));
  a.args = std::move(args);
  rule_.negative.push_back(std::move(a));
  return *this;
}

RuleBuilder& RuleBuilder::Eq(RuleTerm lhs, RuleTerm rhs) {
  BuiltinLit b;
  b.kind = BuiltinKind::kEq;
  b.lhs = lhs;
  b.rhs = rhs;
  rule_.builtins.push_back(std::move(b));
  return *this;
}

RuleBuilder& RuleBuilder::Ne(RuleTerm lhs, RuleTerm rhs) {
  BuiltinLit b;
  b.kind = BuiltinKind::kNe;
  b.lhs = lhs;
  b.rhs = rhs;
  rule_.builtins.push_back(std::move(b));
  return *this;
}

RuleBuilder& RuleBuilder::Skolem(RuleTerm target, uint32_t fn,
                                 std::vector<RuleTerm> args) {
  BuiltinLit b;
  b.kind = BuiltinKind::kSkolem;
  b.target = target;
  b.skolem_fn = fn;
  b.skolem_args = std::move(args);
  rule_.builtins.push_back(std::move(b));
  return *this;
}

RuleBuilder& RuleBuilder::Filter(
    sparql::ExprPtr expr, std::vector<std::pair<std::string, VarId>> vars) {
  BuiltinLit b;
  b.kind = BuiltinKind::kFilterExpr;
  b.expr = std::move(expr);
  b.expr_vars = std::move(vars);
  rule_.builtins.push_back(std::move(b));
  return *this;
}

RuleBuilder& RuleBuilder::AssignExpr(
    RuleTerm target, sparql::ExprPtr expr,
    std::vector<std::pair<std::string, VarId>> vars) {
  BuiltinLit b;
  b.kind = BuiltinKind::kAssignExpr;
  b.target = target;
  b.expr = std::move(expr);
  b.expr_vars = std::move(vars);
  rule_.builtins.push_back(std::move(b));
  return *this;
}

Rule RuleBuilder::Build() {
  Rule out = std::move(rule_);
  rule_ = Rule();
  vars_.clear();
  return out;
}

std::vector<RuleTerm> RuleBuilder::PositiveBodyVars() const {
  std::vector<std::string> names;
  for (const Atom& a : rule_.positive) {
    for (const RuleTerm& t : a.args) {
      if (t.is_var) names.push_back(rule_.var_names[t.var]);
    }
  }
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  std::vector<RuleTerm> out;
  out.reserve(names.size());
  for (const auto& n : names) {
    out.push_back(RuleTerm::Var(vars_.at(n)));
  }
  return out;
}

}  // namespace sparqlog::datalog
