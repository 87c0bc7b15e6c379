#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "rdf/term.h"

/// \file ast.h
/// Abstract syntax for the SPARQL 1.1 fragment covered by SparqLog
/// (Table 1 of the paper): SELECT / ASK query forms; triple patterns,
/// JOIN, UNION, OPTIONAL, FILTER, MINUS, GRAPH; all property path forms
/// including the gMark counted paths; filter expressions; DISTINCT /
/// ORDER BY / LIMIT / OFFSET; GROUP BY with aggregates.
///
/// Constant RDF terms are interned at parse time, so the AST carries
/// TermIds rather than strings.

namespace sparqlog::sparql {

/// Variable-name prefix of a query blank node (`_:b`, `[]`). A blank node
/// in a pattern acts as a variable that is never projected (SELECT *
/// skips it); no `?name` can start with this prefix.
inline constexpr std::string_view kBlankVarPrefix = "_:";

inline bool IsBlankVar(std::string_view name) {
  return name.substr(0, kBlankVarPrefix.size()) == kBlankVarPrefix;
}

/// A position in a triple/path pattern: either a variable or a constant.
struct TermOrVar {
  bool is_var = false;
  std::string var;        ///< variable name without '?' (valid if is_var)
  rdf::TermId term = 0;   ///< interned constant (valid if !is_var)

  static TermOrVar Var(std::string name) {
    TermOrVar t;
    t.is_var = true;
    t.var = std::move(name);
    return t;
  }
  static TermOrVar Const(rdf::TermId id) {
    TermOrVar t;
    t.term = id;
    return t;
  }

  bool operator==(const TermOrVar& o) const {
    return is_var == o.is_var && var == o.var && term == o.term;
  }
};

// ---------------------------------------------------------------------------
// Expressions (FILTER constraints, ORDER BY keys)
// ---------------------------------------------------------------------------

/// Builtin function tags for BuiltinCall expressions.
enum class Builtin : uint8_t {
  kBound,
  kIsIri,       ///< also isURI
  kIsBlank,
  kIsLiteral,
  kIsNumeric,
  kStr,
  kLang,
  kDatatype,
  kRegex,       ///< regex(text, pattern [, flags])
  kUCase,
  kLCase,
  kStrLen,
  kContains,
  kStrStarts,
  kStrEnds,
  kLangMatches,
  kSameTerm,
  kAbs,
};

const char* BuiltinName(Builtin b);

enum class ExprKind : uint8_t {
  kVar,       ///< variable reference
  kTerm,      ///< constant RDF term
  kOr,        ///< args[0] || args[1]
  kAnd,       ///< args[0] && args[1]
  kNot,       ///< !args[0]
  kCompare,   ///< args[0] <op> args[1]
  kArith,     ///< args[0] <op> args[1]
  kNegate,    ///< -args[0]
  kBuiltin,   ///< builtin(args...)
};

enum class CompareOp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };
enum class ArithOp : uint8_t { kAdd, kSub, kMul, kDiv };

struct Expr;
using ExprPtr = std::shared_ptr<const Expr>;

/// Immutable expression tree node.
struct Expr {
  ExprKind kind;
  std::string var;                 // kVar
  rdf::TermId term = 0;            // kTerm
  CompareOp compare_op = CompareOp::kEq;
  ArithOp arith_op = ArithOp::kAdd;
  Builtin builtin = Builtin::kBound;
  std::vector<ExprPtr> args;

  static ExprPtr MakeVar(std::string name);
  static ExprPtr MakeTerm(rdf::TermId id);
  static ExprPtr MakeOr(ExprPtr a, ExprPtr b);
  static ExprPtr MakeAnd(ExprPtr a, ExprPtr b);
  static ExprPtr MakeNot(ExprPtr a);
  static ExprPtr MakeCompare(CompareOp op, ExprPtr a, ExprPtr b);
  static ExprPtr MakeArith(ArithOp op, ExprPtr a, ExprPtr b);
  static ExprPtr MakeNegate(ExprPtr a);
  static ExprPtr MakeBuiltin(Builtin b, std::vector<ExprPtr> args);

  /// Collects variable names referenced by this expression into `out`.
  void CollectVars(std::vector<std::string>* out) const;
};

// ---------------------------------------------------------------------------
// Property paths
// ---------------------------------------------------------------------------

enum class PathKind : uint8_t {
  kLink,         ///< IRI
  kInverse,      ///< ^p
  kSequence,     ///< p1 / p2
  kAlternative,  ///< p1 | p2
  kZeroOrOne,    ///< p?
  kOneOrMore,    ///< p+
  kZeroOrMore,   ///< p*
  kNegated,      ///< !(p1 | ... | ^q1 | ...)
  kExactly,      ///< p{n}      (gMark extension)
  kNOrMore,      ///< p{n,}     (gMark extension)
  kUpTo,         ///< p{0,n}    (gMark extension; also p{,n})
};

struct Path;
using PathPtr = std::shared_ptr<const Path>;

/// Property path expression node (Appendix A.3).
struct Path {
  PathKind kind;
  rdf::TermId iri = 0;                 // kLink
  PathPtr left, right;                 // children
  std::vector<rdf::TermId> neg_fwd;    // kNegated: forward link set
  std::vector<rdf::TermId> neg_bwd;    // kNegated: inverted link set
  uint32_t count = 0;                  // kExactly / kNOrMore / kUpTo

  static PathPtr Link(rdf::TermId iri);
  static PathPtr Inverse(PathPtr p);
  static PathPtr Sequence(PathPtr a, PathPtr b);
  static PathPtr Alternative(PathPtr a, PathPtr b);
  static PathPtr ZeroOrOne(PathPtr p);
  static PathPtr OneOrMore(PathPtr p);
  static PathPtr ZeroOrMore(PathPtr p);
  static PathPtr Negated(std::vector<rdf::TermId> fwd,
                         std::vector<rdf::TermId> bwd);
  static PathPtr Counted(PathKind kind, PathPtr p, uint32_t n);

  /// True if the path is a single forward link (plain triple predicate).
  bool IsSimpleLink() const { return kind == PathKind::kLink; }
};

// ---------------------------------------------------------------------------
// Graph patterns
// ---------------------------------------------------------------------------

enum class PatternKind : uint8_t {
  kEmpty,     ///< unit pattern {} — one empty mapping
  kTriple,    ///< triple pattern with plain predicate
  kPath,      ///< property path pattern
  kJoin,      ///< left . right
  kUnion,     ///< left UNION right
  kOptional,  ///< left OPT right
  kMinus,     ///< left MINUS right
  kFilter,    ///< left FILTER condition
  kGraph,     ///< GRAPH g { left }
  // --- extension mode (the paper's §7 "towards 100% coverage" roadmap) ---
  kBind,          ///< left BIND(condition AS bind_var)
  kValues,        ///< inline data block (a join leaf)
  kExistsFilter,  ///< left FILTER [NOT] EXISTS { right }
};

struct Pattern;
using PatternPtr = std::shared_ptr<const Pattern>;

/// Graph pattern parse-tree node. Binary combinators keep the parse-tree
/// shape the paper's translation walks (§5.1).
struct Pattern {
  PatternKind kind;
  // kTriple
  TermOrVar s, p, o;
  // kPath (s/o reused for endpoints)
  PathPtr path;
  // binary nodes / kFilter / kGraph
  PatternPtr left, right;
  ExprPtr condition;   // kFilter / kBind (the bound expression)
  TermOrVar graph;     // kGraph
  std::string bind_var;                       // kBind
  std::vector<std::string> values_vars;       // kValues
  /// kValues rows, aligned with values_vars; kUndef marks UNDEF cells.
  std::vector<std::vector<rdf::TermId>> values_rows;
  bool exists_negated = false;                // kExistsFilter

  static PatternPtr Empty();
  static PatternPtr Triple(TermOrVar s, TermOrVar p, TermOrVar o);
  static PatternPtr PathPattern(TermOrVar s, PathPtr path, TermOrVar o);
  static PatternPtr Join(PatternPtr l, PatternPtr r);
  static PatternPtr Union(PatternPtr l, PatternPtr r);
  static PatternPtr Optional(PatternPtr l, PatternPtr r);
  static PatternPtr Minus(PatternPtr l, PatternPtr r);
  static PatternPtr Filter(PatternPtr l, ExprPtr condition);
  static PatternPtr GraphPattern(TermOrVar g, PatternPtr inner);
  static PatternPtr Bind(PatternPtr l, ExprPtr expr, std::string var);
  static PatternPtr Values(std::vector<std::string> vars,
                           std::vector<std::vector<rdf::TermId>> rows);
  static PatternPtr ExistsFilter(PatternPtr l, PatternPtr inner,
                                 bool negated);

  /// In-scope variable names, lexicographically sorted and deduplicated
  /// (the paper's var(P) with the x̄ ordering convention).
  std::vector<std::string> Vars() const;

 private:
  void CollectVars(std::vector<std::string>* out) const;
};

// ---------------------------------------------------------------------------
// Query forms
// ---------------------------------------------------------------------------

enum class QueryForm : uint8_t { kSelect, kAsk };

enum class AggregateFn : uint8_t { kCount, kSum, kMin, kMax, kAvg };

const char* AggregateFnName(AggregateFn fn);

/// One item of a SELECT clause: a plain variable or `(AGG(?v) AS ?alias)`.
struct SelectItem {
  bool is_aggregate = false;
  std::string var;           ///< plain variable, or aggregate argument
  AggregateFn fn = AggregateFn::kCount;
  bool count_star = false;   ///< COUNT(*)
  bool agg_distinct = false; ///< COUNT(DISTINCT ?v)
  std::string alias;         ///< output name for aggregates
};

/// One ORDER BY key.
struct OrderKey {
  ExprPtr expr;
  bool descending = false;
};

/// A parsed SPARQL query.
struct Query {
  QueryForm form = QueryForm::kSelect;
  bool distinct = false;
  bool select_all = false;               ///< SELECT *
  std::vector<SelectItem> select;
  std::vector<std::string> group_by;
  std::vector<rdf::TermId> from;         ///< FROM graph IRIs
  std::vector<rdf::TermId> from_named;   ///< FROM NAMED graph IRIs
  PatternPtr where;
  std::vector<OrderKey> order_by;
  std::optional<uint64_t> limit;
  std::optional<uint64_t> offset;

  bool HasAggregates() const {
    for (const auto& item : select) {
      if (item.is_aggregate) return true;
    }
    return false;
  }

  /// Projection variable names in SELECT order. For SELECT *, this is
  /// the sorted in-scope variable set of the WHERE pattern, blank nodes
  /// excluded.
  std::vector<std::string> ProjectedVars() const;
};

}  // namespace sparqlog::sparql
