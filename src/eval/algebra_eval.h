#pragma once

#include <optional>

#include "eval/binding.h"
#include "eval/expr_eval.h"
#include "eval/path_eval.h"
#include "rdf/graph.h"
#include "sparql/ast.h"
#include "util/exec_context.h"
#include "util/status.h"

/// \file algebra_eval.h
/// Direct, standard-compliant evaluation of the SPARQL algebra with
/// multiset semantics. This is the repository's reference oracle and the
/// stand-in for Apache Jena Fuseki in the experiments: it follows the
/// W3C semantics faithfully (including the OPTIONAL-FILTER combination,
/// MINUS's disjoint-domain rule, and zero-length property paths for
/// constant endpoints) but applies no cross-binding memoization or
/// materialization — which is precisely why it falls behind the
/// translated Datalog programs on recursive path workloads (§6.3).

namespace sparqlog::eval {

class AlgebraEvaluator {
 public:
  AlgebraEvaluator(const rdf::Dataset& dataset, rdf::TermDictionary* dict,
                   ExecContext* ctx, EngineQuirks quirks = EngineQuirks())
      : base_dataset_(dataset),
        dict_(dict),
        expr_eval_(dict),
        ctx_(ctx),
        quirks_(quirks),
        cost_(quirks.per_binding_overhead_ns) {}

  /// Evaluates a full query: dataset clauses, WHERE pattern, aggregation,
  /// solution modifiers, projection, query form.
  Result<QueryResult> EvalQuery(const sparql::Query& query);

 private:
  Result<Multiset> EvalPattern(const sparql::Pattern& p,
                               const rdf::Graph& active,
                               const Solution& input);

  std::optional<rdf::TermId> ResolveEndpoint(const sparql::TermOrVar& tv,
                                             const Solution& input);

  Result<Multiset> Aggregate(const sparql::Query& q, const Multiset& sols);
  Status Sort(const sparql::Query& q, Multiset* sols);

  void RegisterVars(const sparql::Query& q);
  void RegisterPatternVars(const sparql::Pattern& p);

  const rdf::Dataset& base_dataset_;
  std::optional<rdf::Dataset> scoped_dataset_;  // FROM/FROM NAMED view
  const rdf::Dataset* active_dataset_ = nullptr;
  rdf::TermDictionary* dict_;
  ExprEvaluator expr_eval_;
  ExecContext* ctx_;
  EngineQuirks quirks_;
  CostModel cost_;
  VarTable vars_;
};

}  // namespace sparqlog::eval
