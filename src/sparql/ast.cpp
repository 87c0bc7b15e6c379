#include "sparql/ast.h"

#include <algorithm>

namespace sparqlog::sparql {

const char* BuiltinName(Builtin b) {
  switch (b) {
    case Builtin::kBound: return "BOUND";
    case Builtin::kIsIri: return "isIRI";
    case Builtin::kIsBlank: return "isBLANK";
    case Builtin::kIsLiteral: return "isLITERAL";
    case Builtin::kIsNumeric: return "isNUMERIC";
    case Builtin::kStr: return "STR";
    case Builtin::kLang: return "LANG";
    case Builtin::kDatatype: return "DATATYPE";
    case Builtin::kRegex: return "REGEX";
    case Builtin::kUCase: return "UCASE";
    case Builtin::kLCase: return "LCASE";
    case Builtin::kStrLen: return "STRLEN";
    case Builtin::kContains: return "CONTAINS";
    case Builtin::kStrStarts: return "STRSTARTS";
    case Builtin::kStrEnds: return "STRENDS";
    case Builtin::kLangMatches: return "LANGMATCHES";
    case Builtin::kSameTerm: return "sameTerm";
    case Builtin::kAbs: return "ABS";
  }
  return "?";
}

const char* AggregateFnName(AggregateFn fn) {
  switch (fn) {
    case AggregateFn::kCount: return "COUNT";
    case AggregateFn::kSum: return "SUM";
    case AggregateFn::kMin: return "MIN";
    case AggregateFn::kMax: return "MAX";
    case AggregateFn::kAvg: return "AVG";
  }
  return "?";
}

namespace {
ExprPtr MakeNode(ExprKind kind, std::vector<ExprPtr> args) {
  auto e = std::make_shared<Expr>();
  e->kind = kind;
  e->args = std::move(args);
  return e;
}
}  // namespace

ExprPtr Expr::MakeVar(std::string name) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kVar;
  e->var = std::move(name);
  return e;
}

ExprPtr Expr::MakeTerm(rdf::TermId id) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kTerm;
  e->term = id;
  return e;
}

ExprPtr Expr::MakeOr(ExprPtr a, ExprPtr b) {
  return MakeNode(ExprKind::kOr, {std::move(a), std::move(b)});
}
ExprPtr Expr::MakeAnd(ExprPtr a, ExprPtr b) {
  return MakeNode(ExprKind::kAnd, {std::move(a), std::move(b)});
}
ExprPtr Expr::MakeNot(ExprPtr a) {
  return MakeNode(ExprKind::kNot, {std::move(a)});
}
ExprPtr Expr::MakeCompare(CompareOp op, ExprPtr a, ExprPtr b) {
  auto e = MakeNode(ExprKind::kCompare, {std::move(a), std::move(b)});
  const_cast<Expr*>(e.get())->compare_op = op;
  return e;
}
ExprPtr Expr::MakeArith(ArithOp op, ExprPtr a, ExprPtr b) {
  auto e = MakeNode(ExprKind::kArith, {std::move(a), std::move(b)});
  const_cast<Expr*>(e.get())->arith_op = op;
  return e;
}
ExprPtr Expr::MakeNegate(ExprPtr a) {
  return MakeNode(ExprKind::kNegate, {std::move(a)});
}
ExprPtr Expr::MakeBuiltin(Builtin b, std::vector<ExprPtr> args) {
  auto e = MakeNode(ExprKind::kBuiltin, std::move(args));
  const_cast<Expr*>(e.get())->builtin = b;
  return e;
}

void Expr::CollectVars(std::vector<std::string>* out) const {
  if (kind == ExprKind::kVar) out->push_back(var);
  for (const auto& a : args) a->CollectVars(out);
}

PathPtr Path::Link(rdf::TermId iri) {
  auto p = std::make_shared<Path>();
  p->kind = PathKind::kLink;
  p->iri = iri;
  return p;
}
PathPtr Path::Inverse(PathPtr child) {
  auto p = std::make_shared<Path>();
  p->kind = PathKind::kInverse;
  p->left = std::move(child);
  return p;
}
PathPtr Path::Sequence(PathPtr a, PathPtr b) {
  auto p = std::make_shared<Path>();
  p->kind = PathKind::kSequence;
  p->left = std::move(a);
  p->right = std::move(b);
  return p;
}
PathPtr Path::Alternative(PathPtr a, PathPtr b) {
  auto p = std::make_shared<Path>();
  p->kind = PathKind::kAlternative;
  p->left = std::move(a);
  p->right = std::move(b);
  return p;
}
PathPtr Path::ZeroOrOne(PathPtr child) {
  auto p = std::make_shared<Path>();
  p->kind = PathKind::kZeroOrOne;
  p->left = std::move(child);
  return p;
}
PathPtr Path::OneOrMore(PathPtr child) {
  auto p = std::make_shared<Path>();
  p->kind = PathKind::kOneOrMore;
  p->left = std::move(child);
  return p;
}
PathPtr Path::ZeroOrMore(PathPtr child) {
  auto p = std::make_shared<Path>();
  p->kind = PathKind::kZeroOrMore;
  p->left = std::move(child);
  return p;
}
PathPtr Path::Negated(std::vector<rdf::TermId> fwd,
                      std::vector<rdf::TermId> bwd) {
  auto p = std::make_shared<Path>();
  p->kind = PathKind::kNegated;
  p->neg_fwd = std::move(fwd);
  p->neg_bwd = std::move(bwd);
  return p;
}
PathPtr Path::Counted(PathKind kind, PathPtr child, uint32_t n) {
  auto p = std::make_shared<Path>();
  p->kind = kind;
  p->left = std::move(child);
  p->count = n;
  return p;
}

namespace {
PatternPtr MakePattern(PatternKind kind) {
  auto p = std::make_shared<Pattern>();
  p->kind = kind;
  return p;
}
}  // namespace

PatternPtr Pattern::Empty() { return MakePattern(PatternKind::kEmpty); }

PatternPtr Pattern::Triple(TermOrVar s, TermOrVar p, TermOrVar o) {
  auto pat = MakePattern(PatternKind::kTriple);
  auto* m = const_cast<Pattern*>(pat.get());
  m->s = std::move(s);
  m->p = std::move(p);
  m->o = std::move(o);
  return pat;
}

PatternPtr Pattern::PathPattern(TermOrVar s, PathPtr path, TermOrVar o) {
  auto pat = MakePattern(PatternKind::kPath);
  auto* m = const_cast<Pattern*>(pat.get());
  m->s = std::move(s);
  m->path = std::move(path);
  m->o = std::move(o);
  return pat;
}

PatternPtr Pattern::Join(PatternPtr l, PatternPtr r) {
  auto pat = MakePattern(PatternKind::kJoin);
  auto* m = const_cast<Pattern*>(pat.get());
  m->left = std::move(l);
  m->right = std::move(r);
  return pat;
}
PatternPtr Pattern::Union(PatternPtr l, PatternPtr r) {
  auto pat = MakePattern(PatternKind::kUnion);
  auto* m = const_cast<Pattern*>(pat.get());
  m->left = std::move(l);
  m->right = std::move(r);
  return pat;
}
PatternPtr Pattern::Optional(PatternPtr l, PatternPtr r) {
  auto pat = MakePattern(PatternKind::kOptional);
  auto* m = const_cast<Pattern*>(pat.get());
  m->left = std::move(l);
  m->right = std::move(r);
  return pat;
}
PatternPtr Pattern::Minus(PatternPtr l, PatternPtr r) {
  auto pat = MakePattern(PatternKind::kMinus);
  auto* m = const_cast<Pattern*>(pat.get());
  m->left = std::move(l);
  m->right = std::move(r);
  return pat;
}
PatternPtr Pattern::Filter(PatternPtr l, ExprPtr condition) {
  auto pat = MakePattern(PatternKind::kFilter);
  auto* m = const_cast<Pattern*>(pat.get());
  m->left = std::move(l);
  m->condition = std::move(condition);
  return pat;
}
PatternPtr Pattern::GraphPattern(TermOrVar g, PatternPtr inner) {
  auto pat = MakePattern(PatternKind::kGraph);
  auto* m = const_cast<Pattern*>(pat.get());
  m->graph = std::move(g);
  m->left = std::move(inner);
  return pat;
}

PatternPtr Pattern::Bind(PatternPtr l, ExprPtr expr, std::string var) {
  auto pat = MakePattern(PatternKind::kBind);
  auto* m = const_cast<Pattern*>(pat.get());
  m->left = std::move(l);
  m->condition = std::move(expr);
  m->bind_var = std::move(var);
  return pat;
}

PatternPtr Pattern::Values(std::vector<std::string> vars,
                           std::vector<std::vector<rdf::TermId>> rows) {
  auto pat = MakePattern(PatternKind::kValues);
  auto* m = const_cast<Pattern*>(pat.get());
  m->values_vars = std::move(vars);
  m->values_rows = std::move(rows);
  return pat;
}

PatternPtr Pattern::ExistsFilter(PatternPtr l, PatternPtr inner,
                                 bool negated) {
  auto pat = MakePattern(PatternKind::kExistsFilter);
  auto* m = const_cast<Pattern*>(pat.get());
  m->left = std::move(l);
  m->right = std::move(inner);
  m->exists_negated = negated;
  return pat;
}

void Pattern::CollectVars(std::vector<std::string>* out) const {
  switch (kind) {
    case PatternKind::kEmpty:
      return;
    case PatternKind::kTriple:
      if (s.is_var) out->push_back(s.var);
      if (p.is_var) out->push_back(p.var);
      if (o.is_var) out->push_back(o.var);
      return;
    case PatternKind::kPath:
      if (s.is_var) out->push_back(s.var);
      if (o.is_var) out->push_back(o.var);
      return;
    case PatternKind::kJoin:
    case PatternKind::kUnion:
    case PatternKind::kOptional:
      left->CollectVars(out);
      right->CollectVars(out);
      return;
    case PatternKind::kMinus:
      // MINUS does not bind right-side variables.
      left->CollectVars(out);
      return;
    case PatternKind::kFilter:
      // FILTER conditions do not bind variables.
      left->CollectVars(out);
      return;
    case PatternKind::kGraph:
      if (graph.is_var) out->push_back(graph.var);
      left->CollectVars(out);
      return;
    case PatternKind::kBind:
      left->CollectVars(out);
      out->push_back(bind_var);
      return;
    case PatternKind::kValues:
      for (const auto& v : values_vars) out->push_back(v);
      return;
    case PatternKind::kExistsFilter:
      // The EXISTS pattern does not bind variables outward.
      left->CollectVars(out);
      return;
  }
}

std::vector<std::string> Pattern::Vars() const {
  std::vector<std::string> out;
  CollectVars(&out);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<std::string> Query::ProjectedVars() const {
  std::vector<std::string> out;
  if (select_all) {
    if (where) {
      for (auto& v : where->Vars()) {
        if (!IsBlankVar(v)) out.push_back(std::move(v));
      }
    }
    return out;
  }
  for (const auto& item : select) {
    out.push_back(item.is_aggregate ? item.alias : item.var);
  }
  return out;
}

}  // namespace sparqlog::sparql
