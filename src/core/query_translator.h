#pragma once

#include "core/data_translator.h"
#include "datalog/ast.h"
#include "datalog/value.h"
#include "sparql/ast.h"
#include "util/status.h"

/// \file query_translator.h
/// The paper's query translation method T_Q (§5, Appendix A): walks the
/// parse tree of a SPARQL query and emits Warded Datalog± rules for each
/// subpattern, using the NodeIndex doubling scheme (root = 1, children =
/// 2i / 2i+1) and the `ans<i>` predicate naming of §5.1.
///
/// Bag semantics (dst = false) adds a tuple-ID column generated by the
/// Skolem function `f<i>(sorted positive body vars)`; set semantics
/// (dst = true, i.e. DISTINCT queries) omits ID columns entirely.
/// Zero-or-one / zero-or-more / one-or-more paths force `ID = []` per the
/// SPARQL property-path semantics (§5.2).
///
/// Deviations from the printed definitions (documented in DESIGN.md §2):
///  * subjectOrObject carries the active graph (Def A.17 loses it);
///  * the zero-length rule for constant endpoints is unconditional
///    (Def A.18's `not term(X)` guard misses constants that occur in a
///    different graph of the dataset);
///  * negated property sets emit the forward (backward) rule only when
///    forward (backward) members exist, matching the W3C decomposition.

namespace sparqlog::core {

/// Fills the data-dependent output directives of `out` from `q`: visible
/// and hidden column names, ORDER BY key specs (positions computed
/// against the column layout and `out->has_tid_column`, which must be
/// set beforehand), LIMIT/OFFSET and DISTINCT. Shared by T_Q's SELECT
/// emission and the program cache's parameter re-binding
/// (core/program_cache.h), so the two can never drift.
void RefreshOutputDirectives(const sparql::Query& q,
                             datalog::OutputSpec* out);

/// The tail of RefreshOutputDirectives: ORDER BY specs, LIMIT/OFFSET and
/// DISTINCT, computed against the column layout already in `out`. Used
/// by re-binding when the cached column *positions* must be kept (an
/// order-permuting alpha-renaming would lay columns out differently) and
/// only their spellings were rewritten.
void RefreshOutputData(const sparql::Query& q, datalog::OutputSpec* out);

class QueryTranslator {
 public:
  QueryTranslator(rdf::TermDictionary* dict, datalog::SkolemStore* skolems,
                  bool ontology = false)
      : dict_(dict), skolems_(skolems), ontology_(ontology) {}

  /// Ablation knob (see bench/ablation_planner): disables the
  /// constant-endpoint closure seeding. Default on; turning it off
  /// preserves semantics but evaluates the unseeded closure of the
  /// printed definitions.
  void set_seed_constants(bool on) { seed_constants_ = on; }

  /// Translates a parsed query into a Datalog± program (rules + output
  /// directives). EDB predicate ids follow the canonical order of
  /// InternEdbPredicates, so the program evaluates against any database
  /// produced by DataTranslator over the same dictionary.
  Result<datalog::Program> Translate(const sparql::Query& query);

 private:
  /// Graph context: the paper's D argument (constant graph or variable).
  struct Ctx {
    bool is_var = false;
    std::string var;
    datalog::Value constant = 0;
  };

  Status TransPattern(const sparql::Pattern& p, bool dst, const Ctx& g,
                      uint64_t i);
  Status TransTriple(const sparql::Pattern& p, bool dst, const Ctx& g,
                     uint64_t i);
  Status TransJoin(const sparql::Pattern& p, bool dst, const Ctx& g,
                   uint64_t i);
  Status TransUnion(const sparql::Pattern& p, bool dst, const Ctx& g,
                    uint64_t i);
  Status TransOptional(const sparql::Pattern& p, bool dst, const Ctx& g,
                       uint64_t i);
  Status TransMinus(const sparql::Pattern& p, bool dst, const Ctx& g,
                    uint64_t i);
  Status TransFilter(const sparql::Pattern& p, bool dst, const Ctx& g,
                     uint64_t i);
  Status TransGraph(const sparql::Pattern& p, bool dst, const Ctx& g,
                    uint64_t i);
  Status TransPathPattern(const sparql::Pattern& p, bool dst, const Ctx& g,
                          uint64_t i);
  Status TransBind(const sparql::Pattern& p, bool dst, const Ctx& g,
                   uint64_t i);
  Status TransValues(const sparql::Pattern& p, bool dst, const Ctx& g,
                     uint64_t i);
  Status TransExistsFilter(const sparql::Pattern& p, bool dst, const Ctx& g,
                           uint64_t i);
  /// `top` marks the top-level expression of a property path pattern: the
  /// endpoints S/O apply there, enabling (a) the constant zero-length-path
  /// rules of Defs A.18/A.19 and (b) constant-endpoint seeding of the
  /// closure rules — the query-driven evaluation the Vadalog substrate
  /// performs (the closure is computed from/to the constant instead of
  /// globally; semantics are unchanged since the pattern rule restricts to
  /// the constant anyway).
  Status TransPath(const sparql::Path& pp, bool dst,
                   const sparql::TermOrVar& S, const sparql::TermOrVar& O,
                   const Ctx& g, uint64_t i, bool top);

  Status EmitSelect(const sparql::Query& q, bool dst, const Ctx& g);
  Status EmitAsk(const sparql::Query& q, bool dst, const Ctx& g);
  void EmitCompRules();
  void EmitOntologyRules();

  rdf::TermDictionary* dict_;
  datalog::SkolemStore* skolems_;
  bool ontology_;

  datalog::Program program_;
  EdbPredicates edb_;
  bool needs_comp_ = false;
  bool seed_constants_ = true;
  datalog::Value empty_skolem_ = 0;    ///< the `[]` constant
  std::string triple_pred_;            ///< "triple" or "itriple"
  std::string so_pred_;                ///< subjectOrObject variant
};

}  // namespace sparqlog::core
