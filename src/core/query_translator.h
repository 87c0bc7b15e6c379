#pragma once

#include <unordered_map>

#include "core/data_translator.h"
#include "datalog/ast.h"
#include "datalog/value.h"
#include "sparql/ast.h"
#include "util/status.h"

/// \file query_translator.h
/// The paper's query translation method T_Q (§5, Appendix A): walks the
/// parse tree of a SPARQL query and emits Warded Datalog± rules for each
/// subpattern, naming the predicate of node i `ans<i>` (§5.1). Node
/// indices come from a per-Translate counter (root = 1, every child the
/// next free number), so predicate and Skolem-function names stay unique
/// at any nesting depth.
///
/// Two static analyses over the algebra (certain-variable reasoning in
/// the style of Pérez et al.) make the rules leaner than the printed
/// per-operator definitions:
///  * certainly bound: the variables bound in every solution of a
///    subpattern. A join on a variable certainly bound on both sides is a
///    plain shared rule variable; the null-aware `comp/3` (Def A.2) is
///    used only where a side may leave the variable unbound (OPTIONAL
///    right-only variables, one-branch UNION variables, BIND targets,
///    VALUES UNDEF columns);
///  * duplicate-free: subpatterns that yield each mapping at most once
///    (BGPs, set-typed paths, and joins / filters / BINDs / OPTIONALs of
///    such subpatterns on certainly-bound shared variables). Their
///    variable tuple is their identity, so they carry no Skolem tuple-ID
///    column; neither does anything under a `+`, `*`, `?`, `{n,}` or
///    `{,n}` closure, which consumes a set.
/// Bag semantics keeps an ID column only on subpatterns that can repeat a
/// mapping; DISTINCT queries (dst = true) carry none. An ID need only
/// make (ID, variable tuple) unique, so a node mints a Skolem term
/// (`f<i>` over the sorted positive body variables) only when nothing
/// cheaper does: a duplicate-free UNION or alternative branch is tagged
/// with the constant `f<i>a()` / `f<i>b()`, and a node with one bag input
/// and no comp carries that input's ID. Every maximal BGP, with the
/// FILTERs over its certainly-bound variables, is one rule body that the
/// cost-based planner orders as a whole.
///
/// Deviations from the printed definitions (documented in
/// docs/ARCHITECTURE.md):
///  * the two analyses above (fewer rules, IDs and comp atoms; the same
///    solution multisets);
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

  /// Result of the two static analyses for one pattern node.
  struct Analysis {
    std::vector<std::string> vars;     ///< var(P), sorted
    std::vector<std::string> certain;  ///< bound in every solution, sorted
    bool dup_free = false;             ///< no mapping occurs twice
  };

  /// Variables shared by `a` and `b` that one of them may leave unbound:
  /// a join of the two needs `comp` on exactly these.
  static std::vector<std::string> CompShared(const Analysis& a,
                                             const Analysis& b);
  /// Memoized analyses of `p` (keyed by node address for one Translate).
  const Analysis& Analyze(const sparql::Pattern& p);
  /// True when node `p` carries a tuple-ID column under mode `dst`.
  bool HasId(const sparql::Pattern& p, bool dst) {
    return !dst && !Analyze(p).dup_free;
  }
  /// The constant ID `f<i><suffix>()` of the tuples a duplicate-free
  /// branch contributes to the bag union (or alternative path) node i:
  /// with the branch's variable tuple it identifies each of them.
  Result<datalog::Value> BranchTag(uint64_t i, const char* suffix);
  /// Next unused node index.
  uint64_t Fresh() { return next_index_++; }

  Status TransPattern(const sparql::Pattern& p, bool dst, const Ctx& g,
                      uint64_t i);
  /// One rule for a maximal group of joined triple patterns, path
  /// patterns, absorbed FILTERs and other subpatterns (their own
  /// predicates appear as body atoms).
  Status TransGroup(const sparql::Pattern& p, bool dst, const Ctx& g,
                    uint64_t i);
  Status TransUnion(const sparql::Pattern& p, bool dst, const Ctx& g,
                    uint64_t i);
  Status TransOptional(const sparql::Pattern& p, bool dst, const Ctx& g,
                       uint64_t i);
  Status TransMinus(const sparql::Pattern& p, bool dst, const Ctx& g,
                    uint64_t i);
  Status TransGraph(const sparql::Pattern& p, bool dst, const Ctx& g,
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
  uint64_t next_index_ = 2;
  std::unordered_map<const sparql::Pattern*, Analysis> analyses_;
  bool seed_constants_ = true;
  datalog::Value empty_skolem_ = 0;    ///< the `[]` constant
  std::string triple_pred_;            ///< "triple" or "itriple"
  std::string so_pred_;                ///< subjectOrObject variant
};

}  // namespace sparqlog::core
