#pragma once

#include <optional>

#include "eval/algebra_eval.h"
#include "rdf/graph.h"
#include "util/exec_context.h"

/// \file stardog_sim.h
/// The "Stardog" baseline for the ontology experiment (Figure 10): a
/// reasoner that materializes the RDFS-subset closure of the data by a
/// *naive* forward-chaining fixpoint (the full rule set is re-applied to
/// the whole graph each round, no semi-naive deltas) and then answers
/// queries with the direct algebra evaluator. This reproduces the
/// behaviour shape the paper reports: competitive with SparqLog on flat
/// ontology queries, but far slower — up to timing out — on recursive
/// property paths with two variables, where SparqLog's semi-naive
/// Datalog evaluation wins (§6.3, queries 4 and 5).

namespace sparqlog::quirks {

class StardogSim {
 public:
  StardogSim(const rdf::Dataset* dataset, rdf::TermDictionary* dict)
      : dataset_(dataset), dict_(dict) {}

  /// Naive materialization of the subClassOf / subPropertyOf / domain /
  /// range closure into an internal dataset copy ("loading" in the
  /// benchmark's sense). Respects the context's budget.
  Status Materialize(ExecContext* ctx);

  /// Evaluates `query` over the materialized dataset.
  Result<eval::QueryResult> Execute(const sparql::Query& query,
                                    ExecContext* ctx);

 private:
  const rdf::Dataset* dataset_;
  rdf::TermDictionary* dict_;
  std::optional<rdf::Dataset> materialized_;
};

}  // namespace sparqlog::quirks
