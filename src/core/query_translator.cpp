#include "core/query_translator.h"

#include <algorithm>
#include <array>
#include <functional>

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
std::string FnName(uint64_t i, const char* suffix = "") {
  return "f" + std::to_string(i) + suffix;
}

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

bool IsSubset(const std::vector<std::string>& a,
              const std::vector<std::string>& b) {
  return std::includes(b.begin(), b.end(), a.begin(), a.end());
}

/// Variables of an expression, sorted and deduplicated.
std::vector<std::string> ExprVars(const sparql::Expr& e) {
  std::vector<std::string> out;
  e.CollectVars(&out);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// Paths whose relation is a set: a link (the triple relation is one),
/// the closures `?`, `+`, `*`, `{n,}` and `{,n}` (SPARQL 1.1 evaluates
/// them with set semantics), and inverses of sets. Sequences,
/// alternatives, negated property sets (one row per matching predicate)
/// and `{n}` keep duplicates.
bool PathIsSet(const Path& pp) {
  switch (pp.kind) {
    case PathKind::kLink:
    case PathKind::kZeroOrOne:
    case PathKind::kOneOrMore:
    case PathKind::kZeroOrMore:
    case PathKind::kNOrMore:
    case PathKind::kUpTo:
      return true;
    case PathKind::kInverse:
      return PathIsSet(*pp.left);
    default:
      return false;
  }
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

static std::vector<std::string> VNames(const std::vector<std::string>& vars) {
  std::vector<std::string> out;
  out.reserve(vars.size());
  for (const auto& v : vars) out.push_back(VName(v));
  return out;
}

std::vector<std::string> QueryTranslator::CompShared(const Analysis& a,
                                                     const Analysis& b) {
  std::vector<std::string> out;
  for (const auto& x : SharedVars(a.vars, b.vars)) {
    if (!ContainsVar(a.certain, x) || !ContainsVar(b.certain, x)) {
      out.push_back(x);
    }
  }
  return out;
}

// Certainly-bound variables and duplicate-freeness, bottom-up. A join
// (or OPTIONAL) of duplicate-free inputs is duplicate-free when every
// shared variable is certainly bound on both sides: then each result
// mapping splits into its two input mappings in exactly one way.
const QueryTranslator::Analysis& QueryTranslator::Analyze(const Pattern& p) {
  if (auto it = analyses_.find(&p); it != analyses_.end()) return it->second;
  Analysis a;
  a.vars = p.Vars();
  switch (p.kind) {
    case PatternKind::kEmpty:
      a.dup_free = true;
      break;
    case PatternKind::kTriple:
      a.certain = a.vars;
      a.dup_free = true;
      break;
    case PatternKind::kPath:
      a.certain = a.vars;
      a.dup_free = PathIsSet(*p.path);
      break;
    case PatternKind::kJoin:
    case PatternKind::kOptional: {
      const Analysis& l = Analyze(*p.left);
      const Analysis& r = Analyze(*p.right);
      a.certain = p.kind == PatternKind::kJoin
                      ? UnionVars(l.certain, r.certain)
                      : l.certain;
      a.dup_free = l.dup_free && r.dup_free && CompShared(l, r).empty();
      break;
    }
    case PatternKind::kUnion:
      a.certain = SharedVars(Analyze(*p.left).certain,
                             Analyze(*p.right).certain);
      break;
    case PatternKind::kGraph:
      a.certain = Analyze(*p.left).certain;
      if (p.graph.is_var) a.certain = UnionVars(a.certain, {p.graph.var});
      a.dup_free = Analyze(*p.left).dup_free;
      break;
    case PatternKind::kMinus:
    case PatternKind::kFilter:
    case PatternKind::kExistsFilter:
    case PatternKind::kBind:  // an evaluation error leaves the target unbound
      a.certain = Analyze(*p.left).certain;
      a.dup_free = Analyze(*p.left).dup_free;
      break;
    case PatternKind::kValues:
      for (size_t c = 0; c < p.values_vars.size(); ++c) {
        bool undef = false;
        for (const auto& row : p.values_rows) {
          undef |= row[c] == rdf::TermDictionary::kUndef;
        }
        if (!undef) a.certain.push_back(p.values_vars[c]);
      }
      std::sort(a.certain.begin(), a.certain.end());
      a.certain.erase(std::unique(a.certain.begin(), a.certain.end()),
                      a.certain.end());
      break;
  }
  return analyses_.emplace(&p, std::move(a)).first->second;
}

Result<Value> QueryTranslator::BranchTag(uint64_t i, const char* suffix) {
  Value tag = skolems_->Intern(skolems_->InternFunction(FnName(i, suffix)),
                               nullptr, 0);
  if (tag == SkolemStore::kExhausted) return SkolemExhausted();
  return tag;
}

Status QueryTranslator::TransPattern(const Pattern& p, bool dst, const Ctx& g,
                                     uint64_t i) {
  switch (p.kind) {
    case PatternKind::kEmpty: {
      // Unit pattern {}: one (empty) mapping.
      RuleBuilder rb(&program_.predicates);
      rb.Head(AnsName(i), AnsArgs(rb, false, "", {}, GARG(rb)));
      if (g.is_var) rb.Body("named", {rb.Var(g.var)});
      program_.rules.push_back(rb.Build());
      return Status::OK();
    }
    case PatternKind::kTriple:
    case PatternKind::kPath:
    case PatternKind::kJoin:
    case PatternKind::kFilter:
      return TransGroup(p, dst, g, i);
    case PatternKind::kUnion:
      return TransUnion(p, dst, g, i);
    case PatternKind::kOptional:
      return TransOptional(p, dst, g, i);
    case PatternKind::kMinus:
      return TransMinus(p, dst, g, i);
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

// Definitions A.3 (Triple), A.5 (Join), A.8 (Filter) and A.11 (Property
// Path Pattern), fused: a maximal join of triple patterns, path patterns
// and other subpatterns becomes one rule whose body holds a `triple` atom
// per triple pattern, the path relation per path pattern and the child's
// `ans` predicate per other subpattern. A FILTER is absorbed when its
// variables have the same value in the rule as in the filtered
// subpattern: at the group's root, or when they are certainly bound in
// that subpattern. A variable shared by two conjuncts is one rule
// variable when both certainly bind it, and is merged through `comp`
// otherwise.
Status QueryTranslator::TransGroup(const Pattern& p, bool dst, const Ctx& g,
                                   uint64_t i) {
  std::vector<const Pattern*> conjuncts, filters;
  std::function<void(const Pattern&, bool)> collect = [&](const Pattern& n,
                                                          bool root) {
    if (n.kind == PatternKind::kJoin) {
      collect(*n.left, false);
      collect(*n.right, false);
      return;
    }
    if (n.kind == PatternKind::kFilter) {
      const Analysis& child = Analyze(*n.left);
      if (root || IsSubset(SharedVars(ExprVars(*n.condition), child.vars),
                           child.certain)) {
        filters.push_back(&n);
        collect(*n.left, root);
        return;
      }
    }
    conjuncts.push_back(&n);
  };
  collect(p, true);

  RuleBuilder rb(&program_.predicates);
  // SPARQL variable -> rule variable holding its joined value, and the
  // variables some conjunct so far binds certainly.
  std::unordered_map<std::string, std::string> joined;
  std::vector<std::string> bound;
  std::vector<std::array<std::string, 3>> comps;
  std::vector<std::pair<const Pattern*, uint64_t>> children;
  std::vector<std::string> child_ids;  // ID variables of bag conjuncts
  for (size_t k = 1; k <= conjuncts.size(); ++k) {
    const Pattern& c = *conjuncts[k - 1];
    // Rule variable of each variable of this conjunct (first occurrence
    // decides; a variable repeated inside one triple stays one variable).
    std::unordered_map<std::string, RuleTerm> local;
    auto var = [&](const std::string& x, bool certain) -> RuleTerm {
      if (auto it = local.find(x); it != local.end()) return it->second;
      RuleTerm t;
      auto it = joined.find(x);
      if (it == joined.end()) {
        joined.emplace(x, VName(x));
        t = rb.Var(VName(x));
      } else if (certain && std::find(bound.begin(), bound.end(), x) !=
                                bound.end()) {
        t = rb.Var(it->second);
      } else {
        const std::string mine = "V" + std::to_string(k) + "_" + x;
        const std::string merged = "C" + std::to_string(k) + "_" + x;
        comps.push_back({it->second, mine, merged});
        it->second = merged;
        t = rb.Var(mine);
      }
      if (certain) bound.push_back(x);
      local.emplace(x, t);
      return t;
    };
    auto term = [&](const TermOrVar& tv) {
      return tv.is_var ? var(tv.var, true)
                       : RuleBuilder::Const(ValueFromTerm(tv.term));
    };
    const std::string id = "ID" + std::to_string(k);
    if (c.kind == PatternKind::kTriple) {
      rb.Body(triple_pred_, {term(c.s), term(c.p), term(c.o), GARG(rb)});
      continue;
    }
    const uint64_t child = Fresh();
    children.emplace_back(&c, child);
    std::vector<RuleTerm> args;
    if (HasId(c, dst)) {
      args.push_back(rb.Var(id));
      child_ids.push_back(id);
    }
    if (c.kind == PatternKind::kPath) {
      args.push_back(term(c.s));
      args.push_back(term(c.o));
    } else {
      const Analysis& a = Analyze(c);
      for (const auto& x : a.vars) {
        args.push_back(var(x, ContainsVar(a.certain, x)));
      }
    }
    args.push_back(GARG(rb));
    rb.Body(AnsName(child), std::move(args));
  }
  for (const auto& [a, b, z] : comps) {
    rb.Body("comp", {rb.Var(a), rb.Var(b), rb.Var(z)});
  }
  needs_comp_ |= !comps.empty();
  for (const Pattern* f : filters) {
    std::vector<std::pair<std::string, datalog::VarId>> mapping;
    for (const auto& x :
         SharedVars(ExprVars(*f->condition), Analyze(*f->left).vars)) {
      mapping.emplace_back(x, rb.VarIdOf(joined.at(x)));
    }
    rb.Filter(f->condition, std::move(mapping));
  }
  std::vector<std::string> head_vars;
  for (const auto& x : Analyze(p).vars) head_vars.push_back(joined.at(x));
  // Without comp, the head variables fix every conjunct's variables, so
  // they fix every duplicate-free conjunct's tuple: the one bag
  // conjunct's ID, with them, identifies the body binding.
  const bool pass_id = comps.empty() && child_ids.size() == 1;
  const std::string head_id = pass_id ? child_ids[0] : "ID";
  rb.Head(AnsName(i), AnsArgs(rb, HasId(p, dst), head_id, head_vars, GARG(rb)));
  if (HasId(p, dst) && !pass_id) {
    rb.Skolem(rb.Var("ID"), skolems_->InternFunction(FnName(i)),
              rb.PositiveBodyVars());
  }
  program_.rules.push_back(rb.Build());

  for (const auto& [c, child] : children) {
    if (c->kind == PatternKind::kPath) {
      SPARQLOG_RETURN_NOT_OK(
          TransPath(*c->path, dst, c->s, c->o, g, child, /*top=*/true));
    } else {
      SPARQLOG_RETURN_NOT_OK(TransPattern(*c, dst, g, child));
    }
  }
  return Status::OK();
}

// Extension (§7 roadmap): BIND(expr AS ?v) — an assignment builtin over
// the child bindings. Evaluation errors bind the null constant, i.e. the
// variable stays unbound, per the SPARQL Extend semantics.
Status QueryTranslator::TransBind(const Pattern& p, bool dst, const Ctx& g,
                                  uint64_t i) {
  const uint64_t child = Fresh();
  const auto& v1 = Analyze(*p.left).vars;
  RuleBuilder rb(&program_.predicates);
  // The child's ID identifies the extended mapping too.
  rb.Head(AnsName(i),
          AnsArgs(rb, HasId(p, dst), "ID1", VNames(Analyze(p).vars), GARG(rb)));
  rb.Body(AnsName(child),
          AnsArgs(rb, HasId(*p.left, dst), "ID1", VNames(v1), GARG(rb)));
  std::vector<std::pair<std::string, datalog::VarId>> mapping;
  for (const auto& v : SharedVars(ExprVars(*p.condition), v1)) {
    mapping.emplace_back(v, rb.VarIdOf(VName(v)));
  }
  rb.AssignExpr(rb.Var(VName(p.bind_var)), p.condition, std::move(mapping));
  program_.rules.push_back(rb.Build());
  return TransPattern(*p.left, dst, g, child);
}

// Extension: VALUES — inline data as facts (or rules ranging over named
// graphs when the graph context is a variable). UNDEF cells become the
// null constant.
Status QueryTranslator::TransValues(const Pattern& p, bool dst, const Ctx& g,
                                    uint64_t i) {
  const bool id = HasId(p, dst);
  const auto& vars = Analyze(p).vars;
  // Column order of values_rows follows values_vars; align to sorted vars.
  std::vector<size_t> col_of;
  for (const auto& v : vars) {
    for (size_t c = 0; c < p.values_vars.size(); ++c) {
      if (p.values_vars[c] == v) col_of.push_back(c);
    }
  }
  uint32_t fn = skolems_->InternFunction(FnName(i));
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
      if (id) tuple.push_back(tid);
      for (size_t c : col_of) tuple.push_back(ValueFromTerm(row[c]));
      tuple.push_back(g.constant);
      fact.predicate = program_.predicates.Intern(
          AnsName(i), static_cast<uint32_t>(tuple.size()));
      fact.tuple = std::move(tuple);
      program_.facts.push_back(std::move(fact));
    } else {
      RuleBuilder rb(&program_.predicates);
      std::vector<RuleTerm> head;
      if (id) head.push_back(RuleBuilder::Const(tid));
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
      AnsName(i), static_cast<uint32_t>(vars.size()) + (id ? 2 : 1));
  return Status::OK();
}

// Extension: FILTER [NOT] EXISTS — an ans_exists probe predicate (like
// Def A.7's ans_opt) consumed positively or under negation.
Status QueryTranslator::TransExistsFilter(const Pattern& p, bool dst,
                                          const Ctx& g, uint64_t i) {
  const uint64_t left = Fresh(), right = Fresh();
  const Analysis& a1 = Analyze(*p.left);
  const Analysis& a2 = Analyze(*p.right);
  const std::vector<std::string> p1_vars = VNames(a1.vars);
  const std::string exists_pred = "ans_exists" + std::to_string(i);

  {
    const auto comp_shared = CompShared(a1, a2);
    needs_comp_ |= !comp_shared.empty();
    RuleBuilder rb(&program_.predicates);
    std::vector<std::string> right_vars;
    for (const auto& v : a2.vars) {
      right_vars.push_back(ContainsVar(comp_shared, v) ? "V2_" + v : VName(v));
    }
    rb.Head(exists_pred, AnsArgs(rb, false, "", p1_vars, GARG(rb)));
    rb.Body(AnsName(left),
            AnsArgs(rb, HasId(*p.left, dst), "ID1", p1_vars, GARG(rb)));
    rb.Body(AnsName(right),
            AnsArgs(rb, HasId(*p.right, dst), "ID2", right_vars, GARG(rb)));
    for (const auto& x : comp_shared) {
      rb.Body("comp", {rb.Var(VName(x)), rb.Var("V2_" + x), rb.Var("Z_" + x)});
    }
    program_.rules.push_back(rb.Build());
  }
  {
    // A subset of the left side: its IDs carry over.
    RuleBuilder rb(&program_.predicates);
    rb.Head(AnsName(i), AnsArgs(rb, HasId(p, dst), "ID1", p1_vars, GARG(rb)));
    rb.Body(AnsName(left),
            AnsArgs(rb, HasId(*p.left, dst), "ID1", p1_vars, GARG(rb)));
    if (p.exists_negated) {
      rb.NegBody(exists_pred, AnsArgs(rb, false, "", p1_vars, GARG(rb)));
    } else {
      rb.Body(exists_pred, AnsArgs(rb, false, "", p1_vars, GARG(rb)));
    }
    program_.rules.push_back(rb.Build());
  }
  SPARQLOG_RETURN_NOT_OK(TransPattern(*p.left, dst, g, left));
  return TransPattern(*p.right, dst, g, right);
}

// Definition A.6 (Union).
Status QueryTranslator::TransUnion(const Pattern& p, bool dst, const Ctx& g,
                                   uint64_t i) {
  const uint64_t left = Fresh(), right = Fresh();
  const auto& all = Analyze(p).vars;
  const std::vector<std::string> head_vars = VNames(all);

  auto emit = [&](const Pattern& child_p, uint64_t child,
                  const char* suffix) -> Status {
    const auto& child_vars = Analyze(child_p).vars;
    const bool child_id = HasId(child_p, dst);
    RuleBuilder rb(&program_.predicates);
    rb.Head(AnsName(i), AnsArgs(rb, HasId(p, dst), "ID", head_vars, GARG(rb)));
    if (HasId(p, dst) && !child_id) {
      SPARQLOG_ASSIGN_OR_RETURN(Value tag, BranchTag(i, suffix));
      rb.Eq(rb.Var("ID"), RuleBuilder::Const(tag));
    }
    rb.Body(AnsName(child),
            AnsArgs(rb, child_id, "ID1", VNames(child_vars), GARG(rb)));
    for (const auto& missing : DiffVars(all, child_vars)) {
      rb.Body("null", {rb.Var(VName(missing))});
    }
    if (HasId(p, dst) && child_id) {
      rb.Skolem(rb.Var("ID"), skolems_->InternFunction(FnName(i, suffix)),
                rb.PositiveBodyVars());
    }
    program_.rules.push_back(rb.Build());
    return Status::OK();
  };
  SPARQLOG_RETURN_NOT_OK(emit(*p.left, left, "a"));
  SPARQLOG_RETURN_NOT_OK(emit(*p.right, right, "b"));

  SPARQLOG_RETURN_NOT_OK(TransPattern(*p.left, dst, g, left));
  return TransPattern(*p.right, dst, g, right);
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
  const uint64_t left = Fresh(), right = Fresh();

  const Analysis& a1 = Analyze(*p.left);
  const Analysis& a2 = Analyze(*p2);
  const auto& v1 = a1.vars;
  const auto& v2 = a2.vars;
  const bool id = HasId(p, dst);
  const bool id1 = HasId(*p.left, dst);
  const bool id2 = HasId(*p2, dst);
  const auto comp_shared = CompShared(a1, a2);
  auto only2 = DiffVars(v2, v1);
  needs_comp_ |= !comp_shared.empty();
  // Without comp and with a duplicate-free right side, a P1 tuple's ID
  // and the head variables identify both the join and the unmatched row.
  const bool pass_id = comp_shared.empty() && !id2;
  const std::string head_id = pass_id ? "ID1" : "ID";

  const std::vector<std::string> head_vars = VNames(Analyze(p).vars);
  const std::vector<std::string> p1_vars = VNames(v1);
  std::vector<std::string> right_vars;
  for (const auto& v : v2) {
    right_vars.push_back(ContainsVar(comp_shared, v) ? "V2_" + v : VName(v));
  }
  const std::string opt_pred = "ans_opt" + std::to_string(i);

  // Builds the filter-expression literal over a rule, mapping comp-joined
  // variables to `comp_name(x)` and everything else to V_<x>.
  auto add_condition =
      [&](RuleBuilder& rb,
          const std::function<std::string(const std::string&)>& comp_name) {
        if (!condition) return;
        std::vector<std::pair<std::string, datalog::VarId>> mapping;
        for (const auto& v : ExprVars(*condition)) {
          if (ContainsVar(comp_shared, v)) {
            mapping.emplace_back(v, rb.VarIdOf(comp_name(v)));
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
    rb.Head(opt_pred, AnsArgs(rb, false, "", p1_vars, GARG(rb)));
    rb.Body(AnsName(left), AnsArgs(rb, id1, "ID1", p1_vars, GARG(rb)));
    rb.Body(AnsName(right), AnsArgs(rb, id2, "ID2", right_vars, GARG(rb)));
    for (const auto& x : comp_shared) {
      rb.Body("comp", {rb.Var(VName(x)), rb.Var("V2_" + x), rb.Var("Z_" + x)});
    }
    add_condition(rb, [](const std::string& x) { return "Z_" + x; });
    program_.rules.push_back(rb.Build());
  }

  // Rule 2: the join part (as in Definition A.5), plus C if present.
  {
    RuleBuilder rb(&program_.predicates);
    std::vector<std::string> left_vars;
    for (const auto& v : v1) {
      left_vars.push_back(ContainsVar(comp_shared, v) ? "V1_" + v : VName(v));
    }
    rb.Head(AnsName(i), AnsArgs(rb, id, head_id, head_vars, GARG(rb)));
    rb.Body(AnsName(left), AnsArgs(rb, id1, "ID1", left_vars, GARG(rb)));
    rb.Body(AnsName(right), AnsArgs(rb, id2, "ID2", right_vars, GARG(rb)));
    for (const auto& x : comp_shared) {
      rb.Body("comp",
              {rb.Var("V1_" + x), rb.Var("V2_" + x), rb.Var(VName(x))});
    }
    add_condition(rb, [](const std::string& x) { return VName(x); });
    if (id && !pass_id) {
      rb.Skolem(rb.Var("ID"), skolems_->InternFunction(FnName(i, "a")),
                rb.PositiveBodyVars());
    }
    program_.rules.push_back(rb.Build());
  }

  // Rule 3: mappings of P1 with no compatible extension; P2-only variables
  // are set to null.
  {
    RuleBuilder rb(&program_.predicates);
    rb.Head(AnsName(i), AnsArgs(rb, id, head_id, head_vars, GARG(rb)));
    rb.Body(AnsName(left), AnsArgs(rb, id1, "ID1", p1_vars, GARG(rb)));
    rb.NegBody(opt_pred, AnsArgs(rb, false, "", p1_vars, GARG(rb)));
    for (const auto& y : only2) rb.Body("null", {rb.Var(VName(y))});
    if (id && !pass_id) {
      rb.Skolem(rb.Var("ID"), skolems_->InternFunction(FnName(i, "b")),
                rb.PositiveBodyVars());
    }
    program_.rules.push_back(rb.Build());
  }

  SPARQLOG_RETURN_NOT_OK(TransPattern(*p.left, dst, g, left));
  return TransPattern(*p2, dst, g, right);
}

// Definition A.10 (Minus).
Status QueryTranslator::TransMinus(const Pattern& p, bool dst, const Ctx& g,
                                   uint64_t i) {
  const uint64_t left = Fresh(), right = Fresh();
  const Analysis& a1 = Analyze(*p.left);
  const Analysis& a2 = Analyze(*p.right);
  auto shared = SharedVars(a1.vars, a2.vars);

  const std::vector<std::string> p1_vars = VNames(a1.vars);
  const std::string join_pred = "ans_join" + std::to_string(i);
  const std::string equal_pred = "ans_equal" + std::to_string(i);

  // Layout of ans_join<i>: var(P1) + the right side's value of each shared
  // variable — enough to check the "same value on some common variable"
  // condition. A variable certainly bound on both sides is joined
  // directly, so its right-side value is its left-side one.
  const auto comp_shared = CompShared(a1, a2);
  needs_comp_ |= !comp_shared.empty();
  std::vector<std::string> join_layout = p1_vars;
  for (const auto& x : shared) {
    join_layout.push_back(ContainsVar(comp_shared, x) ? "V2_" + x : VName(x));
  }

  if (!shared.empty()) {
    RuleBuilder rb(&program_.predicates);
    std::vector<std::string> right_vars;
    for (const auto& v : a2.vars) {
      right_vars.push_back(ContainsVar(comp_shared, v) ? "V2_" + v : VName(v));
    }
    rb.Head(join_pred, AnsArgs(rb, false, "", join_layout, GARG(rb)));
    rb.Body(AnsName(left),
            AnsArgs(rb, HasId(*p.left, dst), "ID1", p1_vars, GARG(rb)));
    rb.Body(AnsName(right),
            AnsArgs(rb, HasId(*p.right, dst), "ID2", right_vars, GARG(rb)));
    for (const auto& x : comp_shared) {
      rb.Body("comp", {rb.Var(VName(x)), rb.Var("V2_" + x), rb.Var("Z_" + x)});
    }
    program_.rules.push_back(rb.Build());

    // One ans_equal rule per shared variable: both sides bound and equal.
    std::vector<std::string> equal_layout = p1_vars;
    for (const auto& x : shared) equal_layout.push_back("V2_" + x);
    for (const auto& x : shared) {
      RuleBuilder req(&program_.predicates);
      req.Head(equal_pred, AnsArgs(req, false, "", p1_vars, GARG(req)));
      req.Body(join_pred, AnsArgs(req, false, "", equal_layout, GARG(req)));
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

  // A subset of the left side: its IDs carry over.
  RuleBuilder rb(&program_.predicates);
  rb.Head(AnsName(i), AnsArgs(rb, HasId(p, dst), "ID1", p1_vars, GARG(rb)));
  rb.Body(AnsName(left),
          AnsArgs(rb, HasId(*p.left, dst), "ID1", p1_vars, GARG(rb)));
  rb.NegBody(equal_pred, AnsArgs(rb, false, "", p1_vars, GARG(rb)));
  program_.rules.push_back(rb.Build());

  SPARQLOG_RETURN_NOT_OK(TransPattern(*p.left, dst, g, left));
  return TransPattern(*p.right, dst, g, right);
}

// Definition A.4 (Graph).
Status QueryTranslator::TransGraph(const Pattern& p, bool dst, const Ctx& g,
                                   uint64_t i) {
  const uint64_t child = Fresh();
  Ctx inner;
  if (p.graph.is_var) {
    inner.is_var = true;
    inner.var = VName(p.graph.var);
  } else {
    inner.constant = ValueFromTerm(p.graph.term);
  }

  RuleBuilder rb(&program_.predicates);
  RuleTerm inner_term = inner.is_var ? rb.Var(inner.var)
                                     : RuleBuilder::Const(inner.constant);
  // The child's ID carries over: a graph variable is a head column.
  rb.Head(AnsName(i),
          AnsArgs(rb, HasId(p, dst), "ID1", VNames(Analyze(p).vars), GARG(rb)));
  rb.Body(AnsName(child), AnsArgs(rb, HasId(*p.left, dst), "ID1",
                                  VNames(Analyze(*p.left).vars), inner_term));
  rb.Body("named", {inner_term});
  // If the *outer* context is itself a variable (nested GRAPH), range over
  // named graphs to keep the rule safe; the enclosing rule joins on it.
  if (g.is_var) rb.Body("named", {rb.Var(g.var)});
  program_.rules.push_back(rb.Build());
  return TransPattern(*p.left, dst, inner, child);
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
  // A set-typed path carries no ID, and neither does its subtree: the
  // node consumes its children as sets.
  const bool id = !dst && !PathIsSet(pp);
  const bool sub_dst = dst || PathIsSet(pp);
  auto child_id = [&](const Path& child) {
    return !sub_dst && !PathIsSet(child);
  };
  // All pp predicates have layout [ID] X Y D (bag) or X Y D (set).
  auto pp_args = [&](RuleBuilder& rb, bool with_id, const std::string& id_var,
                     const std::string& x, const std::string& y) {
    std::vector<RuleTerm> out;
    if (with_id) out.push_back(rb.Var(id_var));
    out.push_back(rb.Var(x));
    out.push_back(rb.Var(y));
    out.push_back(GARG(rb));
    return out;
  };
  auto add_fresh_id = [&](RuleBuilder& rb, const char* suffix) {
    if (!id) return;
    rb.Skolem(rb.Var("ID"), skolems_->InternFunction(FnName(i, suffix)),
              rb.PositiveBodyVars());
  };
  auto add_empty_id = [&](RuleBuilder& rb) {
    if (!id) return;
    rb.Eq(rb.Var("ID"), RuleBuilder::Const(empty_skolem_));
  };
  // Zero-length rules shared by ?, *, {0}, {0,n} (Defs A.17-A.19). When a
  // top-level endpoint is a constant, the node-wide zero rule can only
  // contribute the constant's pair, so it is subsumed by the constant rule.
  auto add_zero_rules = [&]() {
    if (!(top && (!S.is_var || !O.is_var))) {
      RuleBuilder rb(&program_.predicates);
      rb.Head(AnsName(i), pp_args(rb, id, "ID", "X", "X"));
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
      if (id) head.push_back(rb.Var("ID"));
      head.push_back(RuleBuilder::Const(t));
      head.push_back(RuleBuilder::Const(t));
      head.push_back(GARG(rb));
      rb.Head(AnsName(i), std::move(head));
      if (g.is_var) rb.Body("named", {rb.Var(g.var)});
      add_empty_id(rb);
      program_.rules.push_back(rb.Build());
    }
  };
  // Children of this node, numbered on first use.
  uint64_t first_child = 0, second_child = 0;
  auto child = [&](int which) {
    uint64_t& c = which == 0 ? first_child : second_child;
    if (c == 0) c = Fresh();
    return c;
  };
  // One rule with a chain of `n` child atoms: ans_i(X0, Xn). The set
  // paths seed it with a constant endpoint; `{n}` mints a fresh ID.
  auto add_chain_rule = [&](uint32_t n) {
    RuleBuilder rb(&program_.predicates);
    rb.Head(AnsName(i), pp_args(rb, id, "ID", "X0", "X" + std::to_string(n)));
    for (uint32_t k = 0; k < n; ++k) {
      rb.Body(AnsName(child(0)),
              pp_args(rb, child_id(*pp.left), "ID" + std::to_string(k + 1),
                      "X" + std::to_string(k), "X" + std::to_string(k + 1)));
    }
    if (seed_s) rb.Eq(rb.Var("X0"), RuleBuilder::Const(seed_s_val));
    if (seed_o) {
      rb.Eq(rb.Var("X" + std::to_string(n)), RuleBuilder::Const(seed_o_val));
    }
    add_fresh_id(rb, "");
    program_.rules.push_back(rb.Build());
  };
  // Transitive step: ans_i(X,Z) :- ans_i(X,Y), ans_c(Y,Z).
  auto add_closure_rule = [&]() {
    RuleBuilder rb(&program_.predicates);
    rb.Head(AnsName(i), pp_args(rb, false, "", "X", "Z"));
    if (seed_o) {
      // Backward seeding: grow paths toward the constant object.
      rb.Body(AnsName(child(0)), pp_args(rb, false, "", "X", "Y"));
      rb.Body(AnsName(i), pp_args(rb, false, "", "Y", "Z"));
    } else {
      rb.Body(AnsName(i), pp_args(rb, false, "", "X", "Y"));
      rb.Body(AnsName(child(0)), pp_args(rb, false, "", "Y", "Z"));
    }
    program_.rules.push_back(rb.Build());
  };

  // The single child of a unary path node, translated as this node's
  // first child.
  auto recurse = [&](const Path& c, int which) {
    return TransPath(c, sub_dst, S, O, g, child(which), false);
  };

  switch (pp.kind) {
    case PathKind::kLink: {
      RuleBuilder rb(&program_.predicates);
      rb.Head(AnsName(i), pp_args(rb, id, "ID", "X", "Y"));
      rb.Body(triple_pred_, {rb.Var("X"), RuleBuilder::Const(
                                              ValueFromTerm(pp.iri)),
                             rb.Var("Y"), GARG(rb)});
      program_.rules.push_back(rb.Build());
      return Status::OK();
    }
    case PathKind::kInverse: {
      // Bag exactly when the child is: its ID carries over.
      RuleBuilder rb(&program_.predicates);
      rb.Head(AnsName(i), pp_args(rb, id, "ID1", "X", "Y"));
      rb.Body(AnsName(child(0)),
              pp_args(rb, child_id(*pp.left), "ID1", "Y", "X"));
      program_.rules.push_back(rb.Build());
      return recurse(*pp.left, 0);
    }
    case PathKind::kAlternative: {
      for (int which : {0, 1}) {
        const Path& c = which == 0 ? *pp.left : *pp.right;
        const char* suffix = which == 0 ? "a" : "b";
        RuleBuilder rb(&program_.predicates);
        rb.Head(AnsName(i), pp_args(rb, id, "ID", "X", "Y"));
        if (id && !child_id(c)) {
          SPARQLOG_ASSIGN_OR_RETURN(Value tag, BranchTag(i, suffix));
          rb.Eq(rb.Var("ID"), RuleBuilder::Const(tag));
        }
        rb.Body(AnsName(child(which)), pp_args(rb, child_id(c), "ID1", "X", "Y"));
        if (child_id(c)) add_fresh_id(rb, suffix);
        program_.rules.push_back(rb.Build());
      }
      SPARQLOG_RETURN_NOT_OK(recurse(*pp.left, 0));
      return recurse(*pp.right, 1);
    }
    case PathKind::kSequence: {
      RuleBuilder rb(&program_.predicates);
      rb.Head(AnsName(i), pp_args(rb, id, "ID", "X", "Z"));
      rb.Body(AnsName(child(0)),
              pp_args(rb, child_id(*pp.left), "ID1", "X", "Y"));
      rb.Body(AnsName(child(1)),
              pp_args(rb, child_id(*pp.right), "ID2", "Y", "Z"));
      add_fresh_id(rb, "");
      program_.rules.push_back(rb.Build());
      SPARQLOG_RETURN_NOT_OK(recurse(*pp.left, 0));
      return recurse(*pp.right, 1);
    }
    case PathKind::kOneOrMore: {
      add_chain_rule(1);
      add_closure_rule();
      return recurse(*pp.left, 0);
    }
    case PathKind::kZeroOrOne: {
      add_zero_rules();
      add_chain_rule(1);
      return recurse(*pp.left, 0);
    }
    case PathKind::kZeroOrMore: {
      add_zero_rules();
      add_chain_rule(1);
      add_closure_rule();
      return recurse(*pp.left, 0);
    }
    case PathKind::kNegated: {
      // Definition A.20, restricted to the components that exist (W3C
      // decomposition; see header note).
      if (!pp.neg_fwd.empty()) {
        RuleBuilder rb(&program_.predicates);
        rb.Head(AnsName(i), pp_args(rb, id, "ID", "X", "Y"));
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
        rb.Head(AnsName(i), pp_args(rb, id, "ID", "X", "Y"));
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
      add_chain_rule(pp.count);
      return recurse(*pp.left, 0);
    }
    case PathKind::kNOrMore: {
      if (pp.count == 0) add_zero_rules();
      add_chain_rule(std::max<uint32_t>(pp.count, 1));
      add_closure_rule();
      return recurse(*pp.left, 0);
    }
    case PathKind::kUpTo: {
      add_zero_rules();
      for (uint32_t k = 1; k <= pp.count; ++k) add_chain_rule(k);
      return recurse(*pp.left, 0);
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

// Definition A.21 (Select) plus the @post directives. Under bag semantics
// the output keeps the root's tuple ID, if it has one, and the
// projected-away variables as trailing columns that T_S does not read:
// together they identify each solution, so each stays one output row.
Status QueryTranslator::EmitSelect(const Query& q, bool dst, const Ctx& g) {
  const auto& pvars = Analyze(*q.where).vars;
  const bool id = HasId(*q.where, dst);

  datalog::OutputSpec& out = program_.output;
  out.has_tid_column = id;
  out.is_ask = false;
  RefreshOutputDirectives(q, &out);

  if (q.HasAggregates() || !q.group_by.empty()) {
    out.predicate = program_.predicates.Intern(
        AnsName(1), static_cast<uint32_t>(pvars.size()) + (id ? 2 : 1));
    return Status::OK();
  }
  std::vector<std::string> layout = out.columns;
  layout.insert(layout.end(), out.hidden_columns.begin(),
                out.hidden_columns.end());
  if (!dst) {
    for (const auto& v : pvars) {
      if (std::find(layout.begin(), layout.end(), v) == layout.end()) {
        layout.push_back(v);
      }
    }
  }

  RuleBuilder rb(&program_.predicates);
  rb.Head("ans", AnsArgs(rb, id, "ID1", VNames(layout), GARG(rb)));
  rb.Body(AnsName(1), AnsArgs(rb, id, "ID1", VNames(pvars), GARG(rb)));
  for (const auto& v : layout) {
    if (!ContainsVar(pvars, v)) rb.Body("null", {rb.Var(VName(v))});
  }
  program_.rules.push_back(rb.Build());
  out.predicate = *program_.predicates.Lookup("ans");
  return Status::OK();
}

// Definition A.22 (Ask).
Status QueryTranslator::EmitAsk(const Query& q, bool dst, const Ctx& g) {
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
    rb.Body(AnsName(1), AnsArgs(rb, HasId(*q.where, dst), "ID1",
                                VNames(Analyze(*q.where).vars), GARG(rb)));
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
  next_index_ = 2;
  analyses_.clear();
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

  Status st = TransPattern(*query.where, dst, g, 1);
  if (st.ok()) {
    st = query.form == sparql::QueryForm::kAsk ? EmitAsk(query, dst, g)
                                               : EmitSelect(query, dst, g);
  }
  analyses_.clear();  // keyed by addresses inside `query`
  SPARQLOG_RETURN_NOT_OK(st);
  if (needs_comp_) EmitCompRules();
  if (ontology_) EmitOntologyRules();

  SPARQLOG_RETURN_NOT_OK(program_.Validate());
  return std::move(program_);
}

#undef GARG

}  // namespace sparqlog::core
