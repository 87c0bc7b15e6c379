#include "sparql/printer.h"

#include "util/string_util.h"

namespace sparqlog::sparql {

namespace {

std::string RenderTermOrVar(const TermOrVar& tv,
                            const rdf::TermDictionary& dict) {
  if (tv.is_var) return IsBlankVar(tv.var) ? tv.var : "?" + tv.var;
  return dict.Render(tv.term);
}

const char* CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kEq: return "=";
    case CompareOp::kNe: return "!=";
    case CompareOp::kLt: return "<";
    case CompareOp::kLe: return "<=";
    case CompareOp::kGt: return ">";
    case CompareOp::kGe: return ">=";
  }
  return "?";
}

const char* ArithOpName(ArithOp op) {
  switch (op) {
    case ArithOp::kAdd: return "+";
    case ArithOp::kSub: return "-";
    case ArithOp::kMul: return "*";
    case ArithOp::kDiv: return "/";
  }
  return "?";
}

}  // namespace

std::string ToString(const Expr& expr, const rdf::TermDictionary& dict) {
  switch (expr.kind) {
    case ExprKind::kVar:
      return "?" + expr.var;
    case ExprKind::kTerm:
      return dict.Render(expr.term);
    case ExprKind::kOr:
      return "(" + ToString(*expr.args[0], dict) + " || " +
             ToString(*expr.args[1], dict) + ")";
    case ExprKind::kAnd:
      return "(" + ToString(*expr.args[0], dict) + " && " +
             ToString(*expr.args[1], dict) + ")";
    case ExprKind::kNot:
      return "!(" + ToString(*expr.args[0], dict) + ")";
    case ExprKind::kCompare:
      return "(" + ToString(*expr.args[0], dict) + " " +
             CompareOpName(expr.compare_op) + " " +
             ToString(*expr.args[1], dict) + ")";
    case ExprKind::kArith:
      return "(" + ToString(*expr.args[0], dict) + " " +
             ArithOpName(expr.arith_op) + " " + ToString(*expr.args[1], dict) +
             ")";
    case ExprKind::kNegate:
      return "-(" + ToString(*expr.args[0], dict) + ")";
    case ExprKind::kBuiltin: {
      std::string out = BuiltinName(expr.builtin);
      out += "(";
      for (size_t i = 0; i < expr.args.size(); ++i) {
        if (i > 0) out += ", ";
        out += ToString(*expr.args[i], dict);
      }
      out += ")";
      return out;
    }
  }
  return "?";
}

std::string ToString(const Path& path, const rdf::TermDictionary& dict) {
  switch (path.kind) {
    case PathKind::kLink:
      return dict.Render(path.iri);
    case PathKind::kInverse:
      return "^(" + ToString(*path.left, dict) + ")";
    case PathKind::kSequence:
      return "(" + ToString(*path.left, dict) + "/" +
             ToString(*path.right, dict) + ")";
    case PathKind::kAlternative:
      return "(" + ToString(*path.left, dict) + "|" +
             ToString(*path.right, dict) + ")";
    case PathKind::kZeroOrOne:
      return "(" + ToString(*path.left, dict) + ")?";
    case PathKind::kOneOrMore:
      return "(" + ToString(*path.left, dict) + ")+";
    case PathKind::kZeroOrMore:
      return "(" + ToString(*path.left, dict) + ")*";
    case PathKind::kNegated: {
      std::string out = "!(";
      bool first = true;
      for (auto id : path.neg_fwd) {
        if (!first) out += "|";
        out += dict.Render(id);
        first = false;
      }
      for (auto id : path.neg_bwd) {
        if (!first) out += "|";
        out += "^" + dict.Render(id);
        first = false;
      }
      return out + ")";
    }
    case PathKind::kExactly:
      return "(" + ToString(*path.left, dict) + "){" +
             std::to_string(path.count) + "}";
    case PathKind::kNOrMore:
      return "(" + ToString(*path.left, dict) + "){" +
             std::to_string(path.count) + ",}";
    case PathKind::kUpTo:
      return "(" + ToString(*path.left, dict) + "){0," +
             std::to_string(path.count) + "}";
  }
  return "?";
}

std::string ToString(const Pattern& pattern, const rdf::TermDictionary& dict,
                     int indent) {
  std::string pad(static_cast<size_t>(indent) * 2, ' ');
  switch (pattern.kind) {
    case PatternKind::kEmpty:
      return pad + "Empty";
    case PatternKind::kTriple:
      return pad + "Triple(" + RenderTermOrVar(pattern.s, dict) + " " +
             RenderTermOrVar(pattern.p, dict) + " " +
             RenderTermOrVar(pattern.o, dict) + ")";
    case PatternKind::kPath:
      return pad + "Path(" + RenderTermOrVar(pattern.s, dict) + " " +
             ToString(*pattern.path, dict) + " " +
             RenderTermOrVar(pattern.o, dict) + ")";
    case PatternKind::kJoin:
      return pad + "Join\n" + ToString(*pattern.left, dict, indent + 1) +
             "\n" + ToString(*pattern.right, dict, indent + 1);
    case PatternKind::kUnion:
      return pad + "Union\n" + ToString(*pattern.left, dict, indent + 1) +
             "\n" + ToString(*pattern.right, dict, indent + 1);
    case PatternKind::kOptional:
      return pad + "Optional\n" + ToString(*pattern.left, dict, indent + 1) +
             "\n" + ToString(*pattern.right, dict, indent + 1);
    case PatternKind::kMinus:
      return pad + "Minus\n" + ToString(*pattern.left, dict, indent + 1) +
             "\n" + ToString(*pattern.right, dict, indent + 1);
    case PatternKind::kFilter:
      return pad + "Filter " + ToString(*pattern.condition, dict) + "\n" +
             ToString(*pattern.left, dict, indent + 1);
    case PatternKind::kGraph:
      return pad + "Graph " + RenderTermOrVar(pattern.graph, dict) + "\n" +
             ToString(*pattern.left, dict, indent + 1);
    case PatternKind::kBind:
      return pad + "Bind ?" + pattern.bind_var + " := " +
             ToString(*pattern.condition, dict) + "\n" +
             ToString(*pattern.left, dict, indent + 1);
    case PatternKind::kValues: {
      std::string out = pad + "Values";
      for (const auto& v : pattern.values_vars) out += " ?" + v;
      out += " [" + std::to_string(pattern.values_rows.size()) + " rows]";
      return out;
    }
    case PatternKind::kExistsFilter:
      return pad + (pattern.exists_negated ? "NotExists\n" : "Exists\n") +
             ToString(*pattern.left, dict, indent + 1) + "\n" +
             ToString(*pattern.right, dict, indent + 1);
  }
  return pad + "?";
}

std::string ToString(const Query& query, const rdf::TermDictionary& dict) {
  std::string out = query.form == QueryForm::kSelect ? "SELECT" : "ASK";
  if (query.distinct) out += " DISTINCT";
  if (query.select_all) {
    out += " *";
  } else {
    for (const auto& item : query.select) {
      if (item.is_aggregate) {
        out += StringPrintf(" (%s(%s%s) AS ?%s)", AggregateFnName(item.fn),
                            item.agg_distinct ? "DISTINCT " : "",
                            item.count_star ? "*" : ("?" + item.var).c_str(),
                            item.alias.c_str());
      } else {
        out += " ?" + item.var;
      }
    }
  }
  out += "\n";
  for (auto g : query.from) out += "FROM " + dict.Render(g) + "\n";
  for (auto g : query.from_named) {
    out += "FROM NAMED " + dict.Render(g) + "\n";
  }
  if (query.where) out += ToString(*query.where, dict) + "\n";
  if (!query.group_by.empty()) {
    out += "GROUP BY";
    for (const auto& v : query.group_by) out += " ?" + v;
    out += "\n";
  }
  if (!query.order_by.empty()) {
    out += "ORDER BY";
    for (const auto& key : query.order_by) {
      out += key.descending ? " DESC(" : " ASC(";
      out += ToString(*key.expr, dict) + ")";
    }
    out += "\n";
  }
  if (query.limit) out += "LIMIT " + std::to_string(*query.limit) + "\n";
  if (query.offset) out += "OFFSET " + std::to_string(*query.offset) + "\n";
  return out;
}

}  // namespace sparqlog::sparql
