#include "core/query_translator.h"

#include <algorithm>

#include "sparql/optimizer.h"

namespace sparqlog::core {

using datalog::Program;
using datalog::RuleBuilder;
using datalog::RuleTerm;
using datalog::SkolemStore;
using datalog::Value;
using datalog::ValueFromTerm;
using sparql::Path;
using sparql::PathKind;
using sparql::Pattern;
using sparql::PatternKind;
using sparql::Query;
using sparql::TermOrVar;

namespace {

std::string AnsName(uint64_t i) { return "ans" + std::to_string(i); }
std::string VName(const std::string& v) { return "V_" + v; }

Status SkolemExhausted() {
  return Status::ResourceExhausted("Skolem tuple-id space exhausted");
}

std::vector<std::string> SharedVars(const std::vector<std::string>& a,
                                    const std::vector<std::string>& b) {
  std::vector<std::string> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

std::vector<std::string> UnionVars(const std::vector<std::string>& a,
                                   const std::vector<std::string>& b) {
  std::vector<std::string> out;
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

std::vector<std::string> DiffVars(const std::vector<std::string>& a,
                                  const std::vector<std::string>& b) {
  std::vector<std::string> out;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(out));
  return out;
}

bool ContainsVar(const std::vector<std::string>& vars, const std::string& v) {
  return std::binary_search(vars.begin(), vars.end(), v);
}

}  // namespace

// ---------------------------------------------------------------------------
// Shared rule-construction helpers
// ---------------------------------------------------------------------------

namespace {

/// The paper's D argument: graph constant or rule variable.
RuleTerm GraphArg(RuleBuilder& rb, bool is_var, const std::string& var,
                  Value constant) {
  return is_var ? rb.Var(var) : RuleBuilder::Const(constant);
}

/// Subject/predicate/object position: SPARQL var -> rule var V_<name>.
RuleTerm TV(RuleBuilder& rb, const TermOrVar& tv) {
  if (tv.is_var) return rb.Var(VName(tv.var));
  return RuleBuilder::Const(ValueFromTerm(tv.term));
}

}  // namespace

#define GARG(rb) GraphArg(rb, g.is_var, g.var, g.constant)

/// Argument list of an `ans<i>` atom: [ID] + variables + D.
static std::vector<RuleTerm> AnsArgs(RuleBuilder& rb, bool with_id,
                                     const std::string& id_name,
                                     const std::vector<std::string>& names,
                                     RuleTerm graph) {
  std::vector<RuleTerm> out;
  if (with_id) out.push_back(rb.Var(id_name));
  for (const auto& n : names) out.push_back(rb.Var(n));
  out.push_back(graph);
  return out;
}

Status QueryTranslator::TransPattern(const Pattern& p, bool dst, const Ctx& g,
                                     uint64_t i) {
  switch (p.kind) {
    case PatternKind::kEmpty: {
      // Unit pattern {}: one (empty) mapping.
      RuleBuilder rb(&program_.predicates);
      rb.Head(AnsName(i), AnsArgs(rb, !dst, "ID", {}, GARG(rb)));
      if (g.is_var) rb.Body("named", {rb.Var(g.var)});
      if (!dst) {
        rb.Skolem(rb.Var("ID"),
                  skolems_->InternFunction("f" + std::to_string(i)),
                  rb.PositiveBodyVars());
      }
      program_.rules.push_back(rb.Build());
      return Status::OK();
    }
    case PatternKind::kTriple:
      return TransTriple(p, dst, g, i);
    case PatternKind::kPath:
      return TransPathPattern(p, dst, g, i);
    case PatternKind::kJoin:
      return TransJoin(p, dst, g, i);
    case PatternKind::kUnion:
      return TransUnion(p, dst, g, i);
    case PatternKind::kOptional:
      return TransOptional(p, dst, g, i);
    case PatternKind::kMinus:
      return TransMinus(p, dst, g, i);
    case PatternKind::kFilter:
      return TransFilter(p, dst, g, i);
    case PatternKind::kGraph:
      return TransGraph(p, dst, g, i);
    case PatternKind::kBind:
      return TransBind(p, dst, g, i);
    case PatternKind::kValues:
      return TransValues(p, dst, g, i);
    case PatternKind::kExistsFilter:
      return TransExistsFilter(p, dst, g, i);
  }
  return Status::Internal("unhandled pattern kind in translation");
}

// Extension (§7 roadmap): BIND(expr AS ?v) — an assignment builtin over
// the child bindings. Evaluation errors bind the null constant, i.e. the
// variable stays unbound, per the SPARQL Extend semantics.
Status QueryTranslator::TransBind(const Pattern& p, bool dst, const Ctx& g,
                                  uint64_t i) {
  auto v1 = p.left->Vars();
  std::vector<std::string> p1_vars, head_vars;
  for (const auto& v : v1) p1_vars.push_back(VName(v));
  for (const auto& v : p.Vars()) head_vars.push_back(VName(v));

  RuleBuilder rb(&program_.predicates);
  rb.Head(AnsName(i), AnsArgs(rb, !dst, "ID", head_vars, GARG(rb)));
  rb.Body(AnsName(2 * i), AnsArgs(rb, !dst, "ID1", p1_vars, GARG(rb)));
  std::vector<std::string> expr_var_names;
  p.condition->CollectVars(&expr_var_names);
  std::sort(expr_var_names.begin(), expr_var_names.end());
  expr_var_names.erase(
      std::unique(expr_var_names.begin(), expr_var_names.end()),
      expr_var_names.end());
  std::vector<std::pair<std::string, datalog::VarId>> mapping;
  for (const auto& v : expr_var_names) {
    if (ContainsVar(v1, v)) mapping.emplace_back(v, rb.VarIdOf(VName(v)));
  }
  rb.AssignExpr(rb.Var(VName(p.bind_var)), p.condition, std::move(mapping));
  if (!dst) {
    rb.Skolem(rb.Var("ID"), skolems_->InternFunction("f" + std::to_string(i)),
              rb.PositiveBodyVars());
  }
  program_.rules.push_back(rb.Build());
  return TransPattern(*p.left, dst, g, 2 * i);
}

// Extension: VALUES — inline data as facts (or rules ranging over named
// graphs when the graph context is a variable). UNDEF cells become the
// null constant.
Status QueryTranslator::TransValues(const Pattern& p, bool dst, const Ctx& g,
                                    uint64_t i) {
  std::vector<std::string> head_vars;
  for (const auto& v : p.Vars()) head_vars.push_back(VName(v));
  // Column order of values_rows follows values_vars; align to sorted vars.
  std::vector<size_t> col_of;
  for (const auto& v : p.Vars()) {
    for (size_t c = 0; c < p.values_vars.size(); ++c) {
      if (p.values_vars[c] == v) col_of.push_back(c);
    }
  }
  uint32_t fn = skolems_->InternFunction("f" + std::to_string(i));
  for (size_t ri = 0; ri < p.values_rows.size(); ++ri) {
    const auto& row = p.values_rows[ri];
    // Row TID: a Skolem constant over the row index (rows are duplicates-
    // preserving per the VALUES semantics).
    const Value row_index = ValueFromTerm(static_cast<rdf::TermId>(ri));
    Value tid = skolems_->Intern(fn, &row_index, 1);
    if (tid == SkolemStore::kExhausted) return SkolemExhausted();
    if (!g.is_var) {
      datalog::Fact fact;
      std::vector<Value> tuple;
      if (!dst) tuple.push_back(tid);
      for (size_t c : col_of) tuple.push_back(ValueFromTerm(row[c]));
      tuple.push_back(g.constant);
      fact.predicate = program_.predicates.Intern(
          AnsName(i), static_cast<uint32_t>(tuple.size()));
      fact.tuple = std::move(tuple);
      program_.facts.push_back(std::move(fact));
    } else {
      RuleBuilder rb(&program_.predicates);
      std::vector<RuleTerm> head;
      if (!dst) head.push_back(RuleBuilder::Const(tid));
      for (size_t c : col_of) {
        head.push_back(RuleBuilder::Const(ValueFromTerm(row[c])));
      }
      head.push_back(rb.Var(g.var));
      rb.Head(AnsName(i), std::move(head));
      rb.Body("named", {rb.Var(g.var)});
      program_.rules.push_back(rb.Build());
    }
  }
  // Ensure the predicate exists even for empty data blocks.
  program_.predicates.Intern(
      AnsName(i),
      static_cast<uint32_t>(head_vars.size()) + (dst ? 1 : 2));
  return Status::OK();
}

// Extension: FILTER [NOT] EXISTS — an ans_exists probe predicate (like
// Def A.7's ans_opt) consumed positively or under negation.
Status QueryTranslator::TransExistsFilter(const Pattern& p, bool dst,
                                          const Ctx& g, uint64_t i) {
  auto v1 = p.left->Vars();
  auto v2 = p.right->Vars();
  auto shared = SharedVars(v1, v2);
  needs_comp_ |= !shared.empty();

  std::vector<std::string> p1_vars;
  for (const auto& v : v1) p1_vars.push_back(VName(v));
  const std::string exists_pred = "ans_exists" + std::to_string(i);

  {
    RuleBuilder rb(&program_.predicates);
    std::vector<std::string> right_vars;
    for (const auto& v : v2) {
      right_vars.push_back(ContainsVar(shared, v) ? "V2_" + v : VName(v));
    }
    rb.Head(exists_pred, AnsArgs(rb, false, "", p1_vars, GARG(rb)));
    rb.Body(AnsName(2 * i), AnsArgs(rb, !dst, "ID1", p1_vars, GARG(rb)));
    rb.Body(AnsName(2 * i + 1),
            AnsArgs(rb, !dst, "ID2", right_vars, GARG(rb)));
    for (const auto& x : shared) {
      rb.Body("comp", {rb.Var(VName(x)), rb.Var("V2_" + x), rb.Var("Z_" + x)});
    }
    program_.rules.push_back(rb.Build());
  }
  {
    RuleBuilder rb(&program_.predicates);
    rb.Head(AnsName(i), AnsArgs(rb, !dst, "ID", p1_vars, GARG(rb)));
    rb.Body(AnsName(2 * i), AnsArgs(rb, !dst, "ID1", p1_vars, GARG(rb)));
    if (p.exists_negated) {
      rb.NegBody(exists_pred, AnsArgs(rb, false, "", p1_vars, GARG(rb)));
    } else {
      rb.Body(exists_pred, AnsArgs(rb, false, "", p1_vars, GARG(rb)));
    }
    if (!dst) {
      rb.Skolem(rb.Var("ID"),
                skolems_->InternFunction("f" + std::to_string(i)),
                rb.PositiveBodyVars());
    }
    program_.rules.push_back(rb.Build());
  }
  SPARQLOG_RETURN_NOT_OK(TransPattern(*p.left, dst, g, 2 * i));
  return TransPattern(*p.right, dst, g, 2 * i + 1);
}

// Definition A.3 (Triple).
Status QueryTranslator::TransTriple(const Pattern& p, bool dst, const Ctx& g,
                                    uint64_t i) {
  std::vector<std::string> vars;
  for (const auto& v : p.Vars()) vars.push_back(VName(v));
  RuleBuilder rb(&program_.predicates);
  rb.Head(AnsName(i), AnsArgs(rb, !dst, "ID", vars, GARG(rb)));
  rb.Body(triple_pred_, {TV(rb, p.s), TV(rb, p.p), TV(rb, p.o), GARG(rb)});
  if (!dst) {
    rb.Skolem(rb.Var("ID"), skolems_->InternFunction("f" + std::to_string(i)),
              rb.PositiveBodyVars());
  }
  program_.rules.push_back(rb.Build());
  return Status::OK();
}

// Definition A.5 (Join).
Status QueryTranslator::TransJoin(const Pattern& p, bool dst, const Ctx& g,
                                  uint64_t i) {
  auto v1 = p.left->Vars();
  auto v2 = p.right->Vars();
  auto shared = SharedVars(v1, v2);
  auto all = UnionVars(v1, v2);
  needs_comp_ |= !shared.empty();

  RuleBuilder rb(&program_.predicates);
  std::vector<std::string> head_vars, left_vars, right_vars;
  for (const auto& v : all) head_vars.push_back(VName(v));
  for (const auto& v : v1) {
    left_vars.push_back(ContainsVar(shared, v) ? "V1_" + v : VName(v));
  }
  for (const auto& v : v2) {
    right_vars.push_back(ContainsVar(shared, v) ? "V2_" + v : VName(v));
  }
  rb.Head(AnsName(i), AnsArgs(rb, !dst, "ID", head_vars, GARG(rb)));
  rb.Body(AnsName(2 * i), AnsArgs(rb, !dst, "ID1", left_vars, GARG(rb)));
  rb.Body(AnsName(2 * i + 1), AnsArgs(rb, !dst, "ID2", right_vars, GARG(rb)));
  for (const auto& x : shared) {
    rb.Body("comp", {rb.Var("V1_" + x), rb.Var("V2_" + x), rb.Var(VName(x))});
  }
  if (!dst) {
    rb.Skolem(rb.Var("ID"), skolems_->InternFunction("f" + std::to_string(i)),
              rb.PositiveBodyVars());
  }
  program_.rules.push_back(rb.Build());

  SPARQLOG_RETURN_NOT_OK(TransPattern(*p.left, dst, g, 2 * i));
  return TransPattern(*p.right, dst, g, 2 * i + 1);
}

// Definition A.6 (Union).
Status QueryTranslator::TransUnion(const Pattern& p, bool dst, const Ctx& g,
                                   uint64_t i) {
  auto v1 = p.left->Vars();
  auto v2 = p.right->Vars();
  auto all = UnionVars(v1, v2);
  std::vector<std::string> head_vars;
  for (const auto& v : all) head_vars.push_back(VName(v));

  auto emit = [&](const std::vector<std::string>& child_vars, uint64_t child,
                  const char* suffix) {
    RuleBuilder rb(&program_.predicates);
    std::vector<std::string> body_vars;
    for (const auto& v : child_vars) body_vars.push_back(VName(v));
    rb.Head(AnsName(i), AnsArgs(rb, !dst, "ID", head_vars, GARG(rb)));
    rb.Body(AnsName(child), AnsArgs(rb, !dst, "ID1", body_vars, GARG(rb)));
    for (const auto& missing : DiffVars(all, child_vars)) {
      rb.Body("null", {rb.Var(VName(missing))});
    }
    if (!dst) {
      rb.Skolem(rb.Var("ID"),
                skolems_->InternFunction("f" + std::to_string(i) + suffix),
                rb.PositiveBodyVars());
    }
    program_.rules.push_back(rb.Build());
  };
  emit(v1, 2 * i, "a");
  emit(v2, 2 * i + 1, "b");

  SPARQLOG_RETURN_NOT_OK(TransPattern(*p.left, dst, g, 2 * i));
  return TransPattern(*p.right, dst, g, 2 * i + 1);
}

// Definitions A.7 (Optional) and A.9 (Optional Filter).
Status QueryTranslator::TransOptional(const Pattern& p, bool dst,
                                      const Ctx& g, uint64_t i) {
  // Detect the OPTIONAL-FILTER combination: (P1 OPT (P2 FILTER C)) needs
  // the filter evaluated over the *joined* mapping (the classic edge case
  // the paper highlights in §4.3).
  const Pattern* p2 = p.right.get();
  sparql::ExprPtr condition;
  if (p2->kind == PatternKind::kFilter) {
    condition = p2->condition;
    p2 = p2->left.get();
  }

  auto v1 = p.left->Vars();
  auto v2 = p2->Vars();
  auto shared = SharedVars(v1, v2);
  auto all = UnionVars(v1, v2);
  auto only2 = DiffVars(v2, v1);
  needs_comp_ |= !shared.empty();

  std::vector<std::string> head_vars, p1_vars;
  for (const auto& v : all) head_vars.push_back(VName(v));
  for (const auto& v : v1) p1_vars.push_back(VName(v));
  const std::string opt_pred = "ans_opt" + std::to_string(i);

  // Builds the filter-expression literal over a rule, mapping shared
  // variables to `shared_name(x)` and everything else to V_<x>.
  auto add_condition =
      [&](RuleBuilder& rb,
          const std::function<std::string(const std::string&)>& shared_name) {
        if (!condition) return;
        std::vector<std::string> cond_vars;
        condition->CollectVars(&cond_vars);
        std::sort(cond_vars.begin(), cond_vars.end());
        cond_vars.erase(std::unique(cond_vars.begin(), cond_vars.end()),
                        cond_vars.end());
        std::vector<std::pair<std::string, datalog::VarId>> mapping;
        for (const auto& v : cond_vars) {
          if (ContainsVar(shared, v)) {
            mapping.emplace_back(v, rb.VarIdOf(shared_name(v)));
          } else if (ContainsVar(v1, v) || ContainsVar(v2, v)) {
            mapping.emplace_back(v, rb.VarIdOf(VName(v)));
          }
          // Variables outside P1/P2 stay unmapped -> unbound in the filter.
        }
        rb.Filter(condition, std::move(mapping));
      };

  // Rule 1: ans_opt<i> — mappings of P1 compatible with some mapping of P2
  // (and, in the Optional-Filter case, satisfying C on the join).
  {
    RuleBuilder rb(&program_.predicates);
    std::vector<std::string> right_vars;
    for (const auto& v : v2) {
      right_vars.push_back(ContainsVar(shared, v) ? "V2_" + v : VName(v));
    }
    rb.Head(opt_pred, AnsArgs(rb, false, "", p1_vars, GARG(rb)));
    rb.Body(AnsName(2 * i), AnsArgs(rb, !dst, "ID1", p1_vars, GARG(rb)));
    rb.Body(AnsName(2 * i + 1),
            AnsArgs(rb, !dst, "ID2", right_vars, GARG(rb)));
    for (const auto& x : shared) {
      rb.Body("comp", {rb.Var(VName(x)), rb.Var("V2_" + x), rb.Var("Z_" + x)});
    }
    add_condition(rb, [](const std::string& x) { return "Z_" + x; });
    program_.rules.push_back(rb.Build());
  }

  // Rule 2: the join part (as in Definition A.5), plus C if present.
  {
    RuleBuilder rb(&program_.predicates);
    std::vector<std::string> left_vars, right_vars;
    for (const auto& v : v1) {
      left_vars.push_back(ContainsVar(shared, v) ? "V1_" + v : VName(v));
    }
    for (const auto& v : v2) {
      right_vars.push_back(ContainsVar(shared, v) ? "V2_" + v : VName(v));
    }
    rb.Head(AnsName(i), AnsArgs(rb, !dst, "ID", head_vars, GARG(rb)));
    rb.Body(AnsName(2 * i), AnsArgs(rb, !dst, "ID1", left_vars, GARG(rb)));
    rb.Body(AnsName(2 * i + 1),
            AnsArgs(rb, !dst, "ID2", right_vars, GARG(rb)));
    for (const auto& x : shared) {
      rb.Body("comp",
              {rb.Var("V1_" + x), rb.Var("V2_" + x), rb.Var(VName(x))});
    }
    add_condition(rb, [](const std::string& x) { return VName(x); });
    if (!dst) {
      rb.Skolem(rb.Var("ID"),
                skolems_->InternFunction("f" + std::to_string(i) + "a"),
                rb.PositiveBodyVars());
    }
    program_.rules.push_back(rb.Build());
  }

  // Rule 3: mappings of P1 with no compatible extension; P2-only variables
  // are set to null.
  {
    RuleBuilder rb(&program_.predicates);
    rb.Head(AnsName(i), AnsArgs(rb, !dst, "ID", head_vars, GARG(rb)));
    rb.Body(AnsName(2 * i), AnsArgs(rb, !dst, "ID1", p1_vars, GARG(rb)));
    rb.NegBody(opt_pred, AnsArgs(rb, false, "", p1_vars, GARG(rb)));
    for (const auto& y : only2) rb.Body("null", {rb.Var(VName(y))});
    if (!dst) {
      rb.Skolem(rb.Var("ID"),
                skolems_->InternFunction("f" + std::to_string(i) + "b"),
                rb.PositiveBodyVars());
    }
    program_.rules.push_back(rb.Build());
  }

  SPARQLOG_RETURN_NOT_OK(TransPattern(*p.left, dst, g, 2 * i));
  return TransPattern(*p2, dst, g, 2 * i + 1);
}

// Definition A.10 (Minus).
Status QueryTranslator::TransMinus(const Pattern& p, bool dst, const Ctx& g,
                                   uint64_t i) {
  auto v1 = p.left->Vars();
  auto v2 = p.right->Vars();
  auto shared = SharedVars(v1, v2);
  needs_comp_ |= !shared.empty();

  std::vector<std::string> p1_vars;
  for (const auto& v : v1) p1_vars.push_back(VName(v));
  const std::string join_pred = "ans_join" + std::to_string(i);
  const std::string equal_pred = "ans_equal" + std::to_string(i);

  // Layout of ans_join<i>: var(P1) + v2(shared) — enough to check the
  // "same value on some common variable" condition.
  std::vector<std::string> join_layout = p1_vars;
  for (const auto& x : shared) join_layout.push_back("V2_" + x);

  if (!shared.empty()) {
    RuleBuilder rb(&program_.predicates);
    std::vector<std::string> right_vars;
    for (const auto& v : v2) {
      right_vars.push_back(ContainsVar(shared, v) ? "V2_" + v : VName(v));
    }
    rb.Head(join_pred, AnsArgs(rb, false, "", join_layout, GARG(rb)));
    rb.Body(AnsName(2 * i), AnsArgs(rb, !dst, "ID1", p1_vars, GARG(rb)));
    rb.Body(AnsName(2 * i + 1),
            AnsArgs(rb, !dst, "ID2", right_vars, GARG(rb)));
    for (const auto& x : shared) {
      rb.Body("comp", {rb.Var(VName(x)), rb.Var("V2_" + x), rb.Var("Z_" + x)});
    }
    program_.rules.push_back(rb.Build());

    // One ans_equal rule per shared variable: both sides bound and equal.
    for (const auto& x : shared) {
      RuleBuilder req(&program_.predicates);
      req.Head(equal_pred, AnsArgs(req, false, "", p1_vars, GARG(req)));
      req.Body(join_pred, AnsArgs(req, false, "", join_layout, GARG(req)));
      req.Eq(req.Var(VName(x)), req.Var("V2_" + x));
      req.NegBody("null", {req.Var(VName(x))});
      program_.rules.push_back(req.Build());
    }
  } else {
    // No shared variables: domains are disjoint, so MINUS keeps everything
    // (ans_equal is never derivable); still intern the predicate so the
    // negated atom below is well-formed.
    program_.predicates.Intern(equal_pred,
                               static_cast<uint32_t>(p1_vars.size()) + 1);
  }

  RuleBuilder rb(&program_.predicates);
  rb.Head(AnsName(i), AnsArgs(rb, !dst, "ID", p1_vars, GARG(rb)));
  rb.Body(AnsName(2 * i), AnsArgs(rb, !dst, "ID1", p1_vars, GARG(rb)));
  rb.NegBody(equal_pred, AnsArgs(rb, false, "", p1_vars, GARG(rb)));
  if (!dst) {
    rb.Skolem(rb.Var("ID"), skolems_->InternFunction("f" + std::to_string(i)),
              rb.PositiveBodyVars());
  }
  program_.rules.push_back(rb.Build());

  SPARQLOG_RETURN_NOT_OK(TransPattern(*p.left, dst, g, 2 * i));
  return TransPattern(*p.right, dst, g, 2 * i + 1);
}

// Definition A.8 (Filter): the condition is copied into the rule body and
// evaluated by the engine's expression builtin (§5.1).
Status QueryTranslator::TransFilter(const Pattern& p, bool dst, const Ctx& g,
                                    uint64_t i) {
  auto v1 = p.left->Vars();
  std::vector<std::string> p1_vars;
  for (const auto& v : v1) p1_vars.push_back(VName(v));

  RuleBuilder rb(&program_.predicates);
  rb.Head(AnsName(i), AnsArgs(rb, !dst, "ID", p1_vars, GARG(rb)));
  rb.Body(AnsName(2 * i), AnsArgs(rb, !dst, "ID1", p1_vars, GARG(rb)));
  std::vector<std::string> cond_vars;
  p.condition->CollectVars(&cond_vars);
  std::sort(cond_vars.begin(), cond_vars.end());
  cond_vars.erase(std::unique(cond_vars.begin(), cond_vars.end()),
                  cond_vars.end());
  std::vector<std::pair<std::string, datalog::VarId>> mapping;
  for (const auto& v : cond_vars) {
    if (ContainsVar(v1, v)) mapping.emplace_back(v, rb.VarIdOf(VName(v)));
  }
  rb.Filter(p.condition, std::move(mapping));
  if (!dst) {
    rb.Skolem(rb.Var("ID"), skolems_->InternFunction("f" + std::to_string(i)),
              rb.PositiveBodyVars());
  }
  program_.rules.push_back(rb.Build());
  return TransPattern(*p.left, dst, g, 2 * i);
}

// Definition A.4 (Graph).
Status QueryTranslator::TransGraph(const Pattern& p, bool dst, const Ctx& g,
                                   uint64_t i) {
  Ctx inner;
  if (p.graph.is_var) {
    inner.is_var = true;
    inner.var = VName(p.graph.var);
  } else {
    inner.constant = ValueFromTerm(p.graph.term);
  }

  std::vector<std::string> head_vars;
  for (const auto& v : p.Vars()) head_vars.push_back(VName(v));
  std::vector<std::string> inner_vars;
  for (const auto& v : p.left->Vars()) inner_vars.push_back(VName(v));

  RuleBuilder rb(&program_.predicates);
  RuleTerm inner_term = inner.is_var ? rb.Var(inner.var)
                                     : RuleBuilder::Const(inner.constant);
  rb.Head(AnsName(i), AnsArgs(rb, !dst, "ID", head_vars, GARG(rb)));
  rb.Body(AnsName(2 * i), AnsArgs(rb, !dst, "ID1", inner_vars, inner_term));
  rb.Body("named", {inner_term});
  // If the *outer* context is itself a variable (nested GRAPH), range over
  // named graphs to keep the rule safe; the enclosing rule joins on it.
  if (g.is_var) rb.Body("named", {rb.Var(g.var)});
  if (!dst) {
    rb.Skolem(rb.Var("ID"), skolems_->InternFunction("f" + std::to_string(i)),
              rb.PositiveBodyVars());
  }
  program_.rules.push_back(rb.Build());
  return TransPattern(*p.left, dst, inner, 2 * i);
}

// Definition A.11 (Property Path Pattern).
Status QueryTranslator::TransPathPattern(const Pattern& p, bool dst,
                                         const Ctx& g, uint64_t i) {
  std::vector<std::string> head_vars;
  for (const auto& v : p.Vars()) head_vars.push_back(VName(v));

  RuleBuilder rb(&program_.predicates);
  rb.Head(AnsName(i), AnsArgs(rb, !dst, "ID", head_vars, GARG(rb)));
  std::vector<RuleTerm> body{};
  if (!dst) body.push_back(rb.Var("ID1"));
  body.push_back(TV(rb, p.s));
  body.push_back(TV(rb, p.o));
  body.push_back(GARG(rb));
  rb.Body(AnsName(2 * i), std::move(body));
  if (!dst) {
    rb.Skolem(rb.Var("ID"), skolems_->InternFunction("f" + std::to_string(i)),
              rb.PositiveBodyVars());
  }
  program_.rules.push_back(rb.Build());
  return TransPath(*p.path, dst, p.s, p.o, g, 2 * i, /*top=*/true);
}

// Definitions A.12-A.20 (property path expressions) plus the counted-path
// forms used by gMark (§4.3).
Status QueryTranslator::TransPath(const Path& pp, bool dst, const TermOrVar& S,
                                  const TermOrVar& O, const Ctx& g,
                                  uint64_t i, bool top) {
  // Constant-endpoint seeding for recursive closures (top level only).
  const bool seed_s = top && seed_constants_ && !S.is_var;
  const bool seed_o = top && seed_constants_ && S.is_var && !O.is_var;
  const Value seed_s_val = seed_s ? ValueFromTerm(S.term) : 0;
  const Value seed_o_val = seed_o ? ValueFromTerm(O.term) : 0;
  // All pp predicates have layout [ID] X Y D (bag) or X Y D (set).
  auto pp_args = [&](RuleBuilder& rb, const std::string& id,
                     const std::string& x, const std::string& y) {
    std::vector<RuleTerm> out;
    if (!dst) out.push_back(rb.Var(id));
    out.push_back(rb.Var(x));
    out.push_back(rb.Var(y));
    out.push_back(GARG(rb));
    return out;
  };
  auto add_fresh_id = [&](RuleBuilder& rb, const char* suffix) {
    if (dst) return;
    rb.Skolem(rb.Var("ID"),
              skolems_->InternFunction("f" + std::to_string(i) + suffix),
              rb.PositiveBodyVars());
  };
  auto add_empty_id = [&](RuleBuilder& rb) {
    if (dst) return;
    rb.Eq(rb.Var("ID"), RuleBuilder::Const(empty_skolem_));
  };
  // Zero-length rules shared by ?, *, {0}, {0,n} (Defs A.17-A.19). When a
  // top-level endpoint is a constant, the node-wide zero rule can only
  // contribute the constant's pair, so it is subsumed by the constant rule.
  auto add_zero_rules = [&]() {
    if (!(top && (!S.is_var || !O.is_var))) {
      RuleBuilder rb(&program_.predicates);
      rb.Head(AnsName(i), pp_args(rb, "ID", "X", "X"));
      rb.Body(so_pred_, {rb.Var("X"), GARG(rb)});
      add_empty_id(rb);
      program_.rules.push_back(rb.Build());
    }
    // Zero-length path for a constant endpoint, whether or not it occurs
    // in the active graph (see header note on the Def A.18 correction).
    Value t = 0;
    bool have_const = false;
    if (!S.is_var && O.is_var) {
      t = ValueFromTerm(S.term);
      have_const = true;
    } else if (S.is_var && !O.is_var) {
      t = ValueFromTerm(O.term);
      have_const = true;
    } else if (!S.is_var && !O.is_var && S.term == O.term) {
      t = ValueFromTerm(S.term);
      have_const = true;
    }
    if (have_const) {
      RuleBuilder rb(&program_.predicates);
      std::vector<RuleTerm> head;
      if (!dst) head.push_back(rb.Var("ID"));
      head.push_back(RuleBuilder::Const(t));
      head.push_back(RuleBuilder::Const(t));
      head.push_back(GARG(rb));
      rb.Head(AnsName(i), std::move(head));
      if (g.is_var) rb.Body("named", {rb.Var(g.var)});
      add_empty_id(rb);
      program_.rules.push_back(rb.Build());
    }
  };
  // One rule with a chain of `n` child atoms: ans_i(X0, Xn).
  auto add_chain_rule = [&](uint32_t n, bool set_id, const char* suffix) {
    RuleBuilder rb(&program_.predicates);
    rb.Head(AnsName(i), pp_args(rb, "ID", "X0", "X" + std::to_string(n)));
    for (uint32_t k = 0; k < n; ++k) {
      rb.Body(AnsName(2 * i),
              pp_args(rb, "ID" + std::to_string(k + 1),
                      "X" + std::to_string(k), "X" + std::to_string(k + 1)));
    }
    if (set_id && seed_s) {
      rb.Eq(rb.Var("X0"), RuleBuilder::Const(seed_s_val));
    }
    if (set_id && seed_o) {
      rb.Eq(rb.Var("X" + std::to_string(n)), RuleBuilder::Const(seed_o_val));
    }
    if (set_id) {
      add_empty_id(rb);
    } else {
      add_fresh_id(rb, suffix);
    }
    program_.rules.push_back(rb.Build());
  };
  // Transitive step: ans_i(X,Z) :- ans_i(X,Y), ans_2i(Y,Z), ID = [].
  auto add_closure_rule = [&]() {
    RuleBuilder rb(&program_.predicates);
    rb.Head(AnsName(i), pp_args(rb, "ID", "X", "Z"));
    if (seed_o) {
      // Backward seeding: grow paths toward the constant object.
      rb.Body(AnsName(2 * i), pp_args(rb, "ID2", "X", "Y"));
      rb.Body(AnsName(i), pp_args(rb, "ID1", "Y", "Z"));
    } else {
      rb.Body(AnsName(i), pp_args(rb, "ID1", "X", "Y"));
      rb.Body(AnsName(2 * i), pp_args(rb, "ID2", "Y", "Z"));
    }
    add_empty_id(rb);
    program_.rules.push_back(rb.Build());
  };

  switch (pp.kind) {
    case PathKind::kLink: {
      RuleBuilder rb(&program_.predicates);
      rb.Head(AnsName(i), pp_args(rb, "ID", "X", "Y"));
      rb.Body(triple_pred_, {rb.Var("X"), RuleBuilder::Const(
                                              ValueFromTerm(pp.iri)),
                             rb.Var("Y"), GARG(rb)});
      add_fresh_id(rb, "");
      program_.rules.push_back(rb.Build());
      return Status::OK();
    }
    case PathKind::kInverse: {
      RuleBuilder rb(&program_.predicates);
      rb.Head(AnsName(i), pp_args(rb, "ID", "X", "Y"));
      rb.Body(AnsName(2 * i), pp_args(rb, "ID1", "Y", "X"));
      add_fresh_id(rb, "");
      program_.rules.push_back(rb.Build());
      return TransPath(*pp.left, dst, S, O, g, 2 * i, false);
    }
    case PathKind::kAlternative: {
      for (uint64_t child : {2 * i, 2 * i + 1}) {
        RuleBuilder rb(&program_.predicates);
        rb.Head(AnsName(i), pp_args(rb, "ID", "X", "Y"));
        rb.Body(AnsName(child), pp_args(rb, "ID1", "X", "Y"));
        add_fresh_id(rb, child == 2 * i ? "a" : "b");
        program_.rules.push_back(rb.Build());
      }
      SPARQLOG_RETURN_NOT_OK(TransPath(*pp.left, dst, S, O, g, 2 * i, false));
      return TransPath(*pp.right, dst, S, O, g, 2 * i + 1, false);
    }
    case PathKind::kSequence: {
      RuleBuilder rb(&program_.predicates);
      rb.Head(AnsName(i), pp_args(rb, "ID", "X", "Z"));
      rb.Body(AnsName(2 * i), pp_args(rb, "ID1", "X", "Y"));
      {
        std::vector<RuleTerm> right;
        if (!dst) right.push_back(rb.Var("ID2"));
        right.push_back(rb.Var("Y"));
        right.push_back(rb.Var("Z"));
        right.push_back(GARG(rb));
        rb.Body(AnsName(2 * i + 1), std::move(right));
      }
      add_fresh_id(rb, "");
      program_.rules.push_back(rb.Build());
      SPARQLOG_RETURN_NOT_OK(TransPath(*pp.left, dst, S, O, g, 2 * i, false));
      return TransPath(*pp.right, dst, S, O, g, 2 * i + 1, false);
    }
    case PathKind::kOneOrMore: {
      add_chain_rule(1, /*set_id=*/true, "");
      add_closure_rule();
      return TransPath(*pp.left, dst, S, O, g, 2 * i, false);
    }
    case PathKind::kZeroOrOne: {
      add_zero_rules();
      add_chain_rule(1, /*set_id=*/true, "");
      return TransPath(*pp.left, dst, S, O, g, 2 * i, false);
    }
    case PathKind::kZeroOrMore: {
      add_zero_rules();
      add_chain_rule(1, /*set_id=*/true, "");
      add_closure_rule();
      return TransPath(*pp.left, dst, S, O, g, 2 * i, false);
    }
    case PathKind::kNegated: {
      // Definition A.20, restricted to the components that exist (W3C
      // decomposition; see header note).
      if (!pp.neg_fwd.empty()) {
        RuleBuilder rb(&program_.predicates);
        rb.Head(AnsName(i), pp_args(rb, "ID", "X", "Y"));
        rb.Body(triple_pred_, {rb.Var("X"), rb.Var("P"), rb.Var("Y"),
                               GARG(rb)});
        for (rdf::TermId p : pp.neg_fwd) {
          rb.Ne(rb.Var("P"), RuleBuilder::Const(ValueFromTerm(p)));
        }
        add_fresh_id(rb, "a");
        program_.rules.push_back(rb.Build());
      }
      if (!pp.neg_bwd.empty()) {
        RuleBuilder rb(&program_.predicates);
        rb.Head(AnsName(i), pp_args(rb, "ID", "X", "Y"));
        rb.Body(triple_pred_, {rb.Var("Y"), rb.Var("P"), rb.Var("X"),
                               GARG(rb)});
        for (rdf::TermId p : pp.neg_bwd) {
          rb.Ne(rb.Var("P"), RuleBuilder::Const(ValueFromTerm(p)));
        }
        add_fresh_id(rb, "b");
        program_.rules.push_back(rb.Build());
      }
      return Status::OK();
    }
    case PathKind::kExactly: {
      if (pp.count == 0) {
        add_zero_rules();
        return Status::OK();
      }
      add_chain_rule(pp.count, /*set_id=*/false, "");
      return TransPath(*pp.left, dst, S, O, g, 2 * i, false);
    }
    case PathKind::kNOrMore: {
      if (pp.count == 0) {
        add_zero_rules();
        add_chain_rule(1, /*set_id=*/true, "");
        add_closure_rule();
      } else {
        add_chain_rule(pp.count, /*set_id=*/true, "");
        add_closure_rule();
      }
      return TransPath(*pp.left, dst, S, O, g, 2 * i, false);
    }
    case PathKind::kUpTo: {
      add_zero_rules();
      for (uint32_t k = 1; k <= pp.count; ++k) {
        add_chain_rule(k, /*set_id=*/true, "");
      }
      return TransPath(*pp.left, dst, S, O, g, 2 * i, false);
    }
  }
  return Status::Internal("unhandled path kind in translation");
}

void RefreshOutputDirectives(const Query& q, datalog::OutputSpec* out) {
  if (q.HasAggregates() || !q.group_by.empty()) {
    // Aggregation is applied by the solution translation on the pattern
    // root (the paper delegates GROUP BY / COUNT to Vadalog's aggregation
    // support; our engine applies it in T_S over the TID-tagged tuples).
    out->columns = q.where->Vars();
    out->hidden_columns.clear();
  } else {
    std::vector<std::string> visible = q.ProjectedVars();
    // ORDER BY may reference non-projected variables; carry them along as
    // hidden columns.
    std::vector<std::string> hidden;
    for (const auto& key : q.order_by) {
      std::vector<std::string> names;
      key.expr->CollectVars(&names);
      for (const auto& n : names) {
        if (std::find(visible.begin(), visible.end(), n) == visible.end() &&
            std::find(hidden.begin(), hidden.end(), n) == hidden.end()) {
          hidden.push_back(n);
        }
      }
    }
    out->columns = std::move(visible);
    out->hidden_columns = std::move(hidden);
  }
  RefreshOutputData(q, out);
}

void RefreshOutputData(const Query& q, datalog::OutputSpec* out) {
  out->order_by.clear();
  for (const auto& key : q.order_by) {
    datalog::OrderSpec spec;
    spec.expr = key.expr;
    spec.descending = key.descending;
    if (key.expr->kind == sparql::ExprKind::kVar) {
      auto it = std::find(out->columns.begin(), out->columns.end(),
                          key.expr->var);
      if (it != out->columns.end()) {
        spec.column = static_cast<uint32_t>(it - out->columns.begin()) +
                      (out->has_tid_column ? 1 : 0);
      }
    }
    out->order_by.push_back(std::move(spec));
  }
  out->limit = q.limit;
  out->offset = q.offset;
  out->distinct = q.distinct;
}

// Definition A.21 (Select) plus the @post directives.
Status QueryTranslator::EmitSelect(const Query& q, bool dst, const Ctx& g) {
  auto pvars = q.where->Vars();
  std::vector<std::string> pattern_vars;
  for (const auto& v : pvars) pattern_vars.push_back(VName(v));

  datalog::OutputSpec& out = program_.output;
  out.has_tid_column = !dst;
  out.is_ask = false;
  RefreshOutputDirectives(q, &out);

  if (q.HasAggregates() || !q.group_by.empty()) {
    out.predicate = program_.predicates.Intern(
        AnsName(1),
        static_cast<uint32_t>(pattern_vars.size()) + (dst ? 1 : 2));
  } else {
    std::vector<std::string> layout = out.columns;
    layout.insert(layout.end(), out.hidden_columns.begin(),
                  out.hidden_columns.end());

    RuleBuilder rb(&program_.predicates);
    std::vector<std::string> head_vars;
    for (const auto& v : layout) head_vars.push_back(VName(v));
    rb.Head("ans", AnsArgs(rb, !dst, "ID", head_vars, GARG(rb)));
    rb.Body(AnsName(1), AnsArgs(rb, !dst, "ID1", pattern_vars, GARG(rb)));
    for (const auto& v : layout) {
      if (!ContainsVar(pvars, v)) rb.Body("null", {rb.Var(VName(v))});
    }
    if (!dst) {
      rb.Skolem(rb.Var("ID"), skolems_->InternFunction("f"),
                rb.PositiveBodyVars());
    }
    program_.rules.push_back(rb.Build());
    out.predicate = *program_.predicates.Lookup("ans");
  }
  return Status::OK();
}

// Definition A.22 (Ask).
Status QueryTranslator::EmitAsk(const Query& q, bool dst, const Ctx& g) {
  auto pvars = q.where->Vars();
  std::vector<std::string> pattern_vars;
  for (const auto& v : pvars) pattern_vars.push_back(VName(v));

  Value true_val = ValueFromTerm(dict_->InternBoolean(true));
  Value false_val = ValueFromTerm(dict_->InternBoolean(false));

  {
    RuleBuilder rb(&program_.predicates);
    rb.Head("ans", {rb.Var("HasResult")});
    rb.Body("ans_ask", {rb.Var("HasResult")});
    program_.rules.push_back(rb.Build());
  }
  {
    RuleBuilder rb(&program_.predicates);
    rb.Head("ans", {rb.Var("HasResult")});
    rb.NegBody("ans_ask", {RuleBuilder::Const(true_val)});
    rb.Eq(rb.Var("HasResult"), RuleBuilder::Const(false_val));
    program_.rules.push_back(rb.Build());
  }
  {
    RuleBuilder rb(&program_.predicates);
    rb.Head("ans_ask", {rb.Var("HasResult")});
    rb.Body(AnsName(1), AnsArgs(rb, !dst, "ID1", pattern_vars, GARG(rb)));
    rb.Eq(rb.Var("HasResult"), RuleBuilder::Const(true_val));
    program_.rules.push_back(rb.Build());
  }

  datalog::OutputSpec& out = program_.output;
  out.predicate = *program_.predicates.Lookup("ans");
  out.is_ask = true;
  out.has_tid_column = false;
  out.has_graph_column = false;
  out.columns = {"HasResult"};
  return Status::OK();
}

// The comp predicate (Definition A.2), emitted once per program when some
// rule joins on shared variables.
void QueryTranslator::EmitCompRules() {
  {
    RuleBuilder rb(&program_.predicates);
    rb.Head("comp", {rb.Var("X"), rb.Var("X"), rb.Var("X")});
    rb.Body("term", {rb.Var("X")});
    program_.rules.push_back(rb.Build());
  }
  {
    RuleBuilder rb(&program_.predicates);
    rb.Head("comp", {rb.Var("X"), rb.Var("Z"), rb.Var("X")});
    rb.Body("term", {rb.Var("X")});
    rb.Body("null", {rb.Var("Z")});
    program_.rules.push_back(rb.Build());
  }
  {
    RuleBuilder rb(&program_.predicates);
    rb.Head("comp", {rb.Var("Z"), rb.Var("X"), rb.Var("X")});
    rb.Body("term", {rb.Var("X")});
    rb.Body("null", {rb.Var("Z")});
    program_.rules.push_back(rb.Build());
  }
  {
    RuleBuilder rb(&program_.predicates);
    rb.Head("comp", {rb.Var("Z"), rb.Var("Z"), rb.Var("Z")});
    rb.Body("null", {rb.Var("Z")});
    program_.rules.push_back(rb.Build());
  }
}

// RDFS-style inference rules over an inferred-triple predicate: this is
// how SparqLog gets "ontological reasoning for free" from the Datalog±
// engine (§1); the ontology (subClassOf / subPropertyOf / domain / range
// statements) lives in the data itself, as in the paper's SP2Bench-based
// ontology benchmark (§6.3).
void QueryTranslator::EmitOntologyRules() {
  Value type = ValueFromTerm(dict_->InternIri(rdf::rdfns::kType));
  Value sub_class = ValueFromTerm(dict_->InternIri(rdf::rdfns::kSubClassOf));
  Value sub_prop = ValueFromTerm(dict_->InternIri(rdf::rdfns::kSubPropertyOf));
  Value domain = ValueFromTerm(dict_->InternIri(rdf::rdfns::kDomain));
  Value range = ValueFromTerm(dict_->InternIri(rdf::rdfns::kRange));

  auto rule = [&](auto&& build) {
    RuleBuilder rb(&program_.predicates);
    build(rb);
    program_.rules.push_back(rb.Build());
  };

  // itriple: asserted plus inferred triples (set semantics).
  rule([&](RuleBuilder& rb) {
    rb.Head("itriple", {rb.Var("S"), rb.Var("P"), rb.Var("O"), rb.Var("D")});
    rb.Body("triple", {rb.Var("S"), rb.Var("P"), rb.Var("O"), rb.Var("D")});
  });
  // Transitive subclass / subproperty closures.
  rule([&](RuleBuilder& rb) {
    rb.Head("subC", {rb.Var("A"), rb.Var("B"), rb.Var("D")});
    rb.Body("triple",
            {rb.Var("A"), RuleBuilder::Const(sub_class), rb.Var("B"),
             rb.Var("D")});
  });
  rule([&](RuleBuilder& rb) {
    rb.Head("subC", {rb.Var("A"), rb.Var("C"), rb.Var("D")});
    rb.Body("subC", {rb.Var("A"), rb.Var("B"), rb.Var("D")});
    rb.Body("subC", {rb.Var("B"), rb.Var("C"), rb.Var("D")});
  });
  rule([&](RuleBuilder& rb) {
    rb.Head("subP", {rb.Var("A"), rb.Var("B"), rb.Var("D")});
    rb.Body("triple",
            {rb.Var("A"), RuleBuilder::Const(sub_prop), rb.Var("B"),
             rb.Var("D")});
  });
  rule([&](RuleBuilder& rb) {
    rb.Head("subP", {rb.Var("A"), rb.Var("C"), rb.Var("D")});
    rb.Body("subP", {rb.Var("A"), rb.Var("B"), rb.Var("D")});
    rb.Body("subP", {rb.Var("B"), rb.Var("C"), rb.Var("D")});
  });
  // rdf:type propagation along subClassOf.
  rule([&](RuleBuilder& rb) {
    rb.Head("itriple", {rb.Var("X"), RuleBuilder::Const(type), rb.Var("C2"),
                        rb.Var("D")});
    rb.Body("itriple", {rb.Var("X"), RuleBuilder::Const(type), rb.Var("C1"),
                        rb.Var("D")});
    rb.Body("subC", {rb.Var("C1"), rb.Var("C2"), rb.Var("D")});
  });
  // Property propagation along subPropertyOf.
  rule([&](RuleBuilder& rb) {
    rb.Head("itriple",
            {rb.Var("S"), rb.Var("P2"), rb.Var("O"), rb.Var("D")});
    rb.Body("itriple",
            {rb.Var("S"), rb.Var("P1"), rb.Var("O"), rb.Var("D")});
    rb.Body("subP", {rb.Var("P1"), rb.Var("P2"), rb.Var("D")});
  });
  // Domain / range typing.
  rule([&](RuleBuilder& rb) {
    rb.Head("itriple", {rb.Var("X"), RuleBuilder::Const(type), rb.Var("C"),
                        rb.Var("D")});
    rb.Body("itriple", {rb.Var("X"), rb.Var("P"), rb.Var("Y"), rb.Var("D")});
    rb.Body("triple", {rb.Var("P"), RuleBuilder::Const(domain), rb.Var("C"),
                       rb.Var("D")});
  });
  rule([&](RuleBuilder& rb) {
    rb.Head("itriple", {rb.Var("Y"), RuleBuilder::Const(type), rb.Var("C"),
                        rb.Var("D")});
    rb.Body("itriple", {rb.Var("X"), rb.Var("P"), rb.Var("Y"), rb.Var("D")});
    rb.Body("triple", {rb.Var("P"), RuleBuilder::Const(range), rb.Var("C"),
                       rb.Var("D")});
  });
  // Inferred-graph node set for zero-length paths under entailment.
  rule([&](RuleBuilder& rb) {
    rb.Head("isubjectOrObject", {rb.Var("X"), rb.Var("D")});
    rb.Body("itriple", {rb.Var("X"), rb.Var("P"), rb.Var("Y"), rb.Var("D")});
  });
  rule([&](RuleBuilder& rb) {
    rb.Head("isubjectOrObject", {rb.Var("Y"), rb.Var("D")});
    rb.Body("itriple", {rb.Var("X"), rb.Var("P"), rb.Var("Y"), rb.Var("D")});
  });
}

Result<Program> QueryTranslator::Translate(const Query& query) {
  program_ = Program();
  needs_comp_ = false;
  edb_ = InternEdbPredicates(&program_.predicates);
  empty_skolem_ =
      skolems_->Intern(skolems_->InternFunction("[]"), nullptr, 0);
  if (empty_skolem_ == SkolemStore::kExhausted) return SkolemExhausted();
  triple_pred_ = ontology_ ? "itriple" : "triple";
  so_pred_ = ontology_ ? "isubjectOrObject" : "subjectOrObject";

  if (!query.where) {
    return Status::InvalidArgument("query has no WHERE pattern");
  }
  bool dst = query.distinct;
  Ctx g;
  g.constant = ValueFromTerm(DefaultGraphTerm(dict_));

  // Join-order optimization before translation (the engine-side query
  // planning the paper attributes to the Vadalog substrate, §7).
  sparql::PatternPtr where = sparql::ReorderJoins(query.where);
  sparql::Query planned = query;
  planned.where = where;

  SPARQLOG_RETURN_NOT_OK(TransPattern(*where, dst, g, 1));
  if (query.form == sparql::QueryForm::kAsk) {
    SPARQLOG_RETURN_NOT_OK(EmitAsk(planned, dst, g));
  } else {
    SPARQLOG_RETURN_NOT_OK(EmitSelect(planned, dst, g));
  }
  if (needs_comp_) EmitCompRules();
  if (ontology_) EmitOntologyRules();

  SPARQLOG_RETURN_NOT_OK(program_.Validate());
  return std::move(program_);
}

#undef GARG

}  // namespace sparqlog::core
