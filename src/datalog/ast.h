#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "datalog/value.h"
#include "sparql/ast.h"
#include "util/status.h"

/// \file ast.h
/// Rule language of the Datalog± engine: predicates, atoms, rules with
/// positive/negated atoms and builtin literals, plus the program-level
/// directives (@output / @post) the translation emits.
///
/// Builtin literals cover exactly what the SparqLog translation needs:
///  * equality / disequality between rule terms (`X = t`, `P != p1`),
///    where `=` with one unbound side acts as assignment (Vadalog style);
///  * Skolem-term construction (`ID = ["f3", X, Y, ID2]`);
///  * embedded SPARQL filter expressions, evaluated by the shared
///    expression evaluator ("letting Vadalog take care of complex filter
///    constraints", §5.1).

namespace sparqlog::datalog {

using PredicateId = uint32_t;
using VarId = uint32_t;

/// Interning table for predicate names with arity checking.
class PredicateTable {
 public:
  /// Interns `name` with `arity`; re-interning with a different arity is an
  /// InvalidArgument error surfaced at program-validation time.
  PredicateId Intern(const std::string& name, uint32_t arity);

  std::optional<PredicateId> Lookup(const std::string& name) const;
  const std::string& Name(PredicateId id) const { return names_[id]; }
  uint32_t Arity(PredicateId id) const { return arities_[id]; }
  size_t size() const { return names_.size(); }

  /// Arity mismatches recorded during interning (checked by Validate).
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  std::vector<std::string> names_;
  std::vector<uint32_t> arities_;
  std::unordered_map<std::string, PredicateId> index_;
  std::vector<std::string> errors_;
};

/// A term position in a rule: variable (rule-local id) or constant Value.
struct RuleTerm {
  bool is_var = false;
  VarId var = 0;
  Value constant = 0;

  static RuleTerm Var(VarId v) {
    RuleTerm t;
    t.is_var = true;
    t.var = v;
    return t;
  }
  static RuleTerm Const(Value v) {
    RuleTerm t;
    t.constant = v;
    return t;
  }
};

/// A predicate atom.
struct Atom {
  PredicateId predicate = 0;
  std::vector<RuleTerm> args;
};

enum class BuiltinKind : uint8_t {
  kEq,          ///< lhs = rhs (check, or assignment if one side unbound)
  kNe,          ///< lhs != rhs (both sides must be bound)
  kSkolem,      ///< target = [fn, args...] (target assignment)
  kFilterExpr,  ///< SPARQL expression must evaluate to EBV true
  kAssignExpr,  ///< target := SPARQL expression value (BIND support;
                ///< evaluation errors bind the null constant)
};

/// A builtin literal in a rule body.
struct BuiltinLit {
  BuiltinKind kind = BuiltinKind::kEq;
  RuleTerm lhs, rhs;                  // kEq / kNe
  RuleTerm target;                    // kSkolem
  uint32_t skolem_fn = 0;             // kSkolem (id in the SkolemStore)
  std::vector<RuleTerm> skolem_args;  // kSkolem
  sparql::ExprPtr expr;               // kFilterExpr
  /// Maps expression variable names to rule variables for kFilterExpr.
  std::vector<std::pair<std::string, VarId>> expr_vars;
};

/// One Datalog± rule.
struct Rule {
  Atom head;
  std::vector<Atom> positive;
  std::vector<Atom> negative;
  std::vector<BuiltinLit> builtins;
  /// Rule-local variable names (index = VarId), for printing/diagnostics.
  std::vector<std::string> var_names;
  /// Set by the cost-based planner (datalog/planner.h) after it permuted
  /// `positive` into its chosen join order: the evaluator then executes
  /// the body in written order (delta atom hoisted) instead of running
  /// its runtime greedy ordering. Reordering never changes derived tuple
  /// sets — Skolem tuple IDs are functions of the *sorted* positive body
  /// variables, not of atom positions.
  bool planned = false;
};

/// A ground fact (EDB row).
struct Fact {
  PredicateId predicate = 0;
  std::vector<Value> tuple;
};

/// Ordering key of an @post("orderby") directive. Keys are SPARQL
/// expressions over the output columns (complex ORDER BY arguments like
/// `DESC(!BOUND(?n))` are supported); variable names are resolved against
/// the output column names at solution-translation time.
struct OrderSpec {
  sparql::ExprPtr expr;
  bool descending = false;
  /// Informational column index for the printer (position of a plain
  /// variable key in the output layout, 0 when the key is complex).
  uint32_t column = 0;
};

/// Output / post-processing directives attached to a program
/// (rendered as @output / @post annotations by the printer).
struct OutputSpec {
  PredicateId predicate = 0;
  bool has_tid_column = false;  ///< bag semantics: column 0 is the TID
  bool has_graph_column = true; ///< last column is the active graph D
  bool is_ask = false;          ///< ASK form: single boolean column
  std::vector<std::string> columns;  ///< visible output variable names
  /// Extra trailing columns kept only so ORDER BY can reference
  /// non-projected variables; stripped from the final result.
  std::vector<std::string> hidden_columns;
  std::vector<OrderSpec> order_by;
  std::optional<uint64_t> limit;
  std::optional<uint64_t> offset;
  bool distinct = false;
};

/// A full Datalog± program: rules + facts + directives.
struct Program {
  PredicateTable predicates;
  std::vector<Rule> rules;
  std::vector<Fact> facts;
  OutputSpec output;
  /// Planner annotation: estimated cardinality of the output predicate
  /// (rows), negative when the program was never planned. Carried with
  /// cached programs so the engine can report estimated-vs-actual error
  /// without replanning on warm hits.
  double planned_estimate = -1.0;

  /// Structural sanity checks: arity consistency, range restriction
  /// (every head/negated/builtin variable bound by the positive body or an
  /// assignment builtin).
  Status Validate() const;
};

/// Convenience builder for assembling rules with named variables.
class RuleBuilder {
 public:
  explicit RuleBuilder(PredicateTable* predicates)
      : predicates_(predicates) {}

  /// Rule-local variable by name (interned on first use).
  RuleTerm Var(const std::string& name);
  static RuleTerm Const(Value v) { return RuleTerm::Const(v); }

  RuleBuilder& Head(const std::string& pred, std::vector<RuleTerm> args);
  RuleBuilder& Body(const std::string& pred, std::vector<RuleTerm> args);
  RuleBuilder& NegBody(const std::string& pred, std::vector<RuleTerm> args);
  RuleBuilder& Eq(RuleTerm lhs, RuleTerm rhs);
  RuleBuilder& Ne(RuleTerm lhs, RuleTerm rhs);
  RuleBuilder& Skolem(RuleTerm target, uint32_t fn,
                      std::vector<RuleTerm> args);
  RuleBuilder& Filter(sparql::ExprPtr expr,
                      std::vector<std::pair<std::string, VarId>> vars);
  RuleBuilder& AssignExpr(RuleTerm target, sparql::ExprPtr expr,
                          std::vector<std::pair<std::string, VarId>> vars);

  /// Finishes the rule. The builder can be reused afterwards.
  Rule Build();

  VarId VarIdOf(const std::string& name);

  /// Distinct variables occurring in positive body atoms, sorted by name —
  /// the argument list of the paper's Skolem ID generator (Appendix C:
  /// "a sorted list of all variables occurring in positive atoms of the
  /// rule body").
  std::vector<RuleTerm> PositiveBodyVars() const;

 private:
  PredicateTable* predicates_;
  Rule rule_;
  std::unordered_map<std::string, VarId> vars_;
};

}  // namespace sparqlog::datalog
