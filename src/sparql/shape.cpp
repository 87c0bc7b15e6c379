#include "sparql/shape.h"

#include <algorithm>
#include <unordered_map>

#include "rdf/dictionary.h"

namespace sparqlog::sparql {

namespace {

/// Single-pass canonicalizer: appends a token stream to `key` while
/// interning variables (by first appearance) and constants (by first
/// appearance of each distinct TermId).
///
/// Join chains are canonicalized: every kJoin tree is flattened into its
/// conjunct list and the conjuncts are emitted in the order of their
/// *concrete* local serializations (original variable spellings, raw
/// TermIds — computed by a nested concrete-mode canonicalizer). Sorting by
/// concrete keys is a deterministic function of the concrete query, so two
/// queries that collide were traversed in the same canonical conjunct
/// order — parameter slots, variable ordinals and the name-rank
/// permutation all line up, and re-binding stays sound. Conjunct order
/// inside a join never changes the translated program's solutions (rule
/// bodies are conjunctions, and the join planner reorders them against
/// live statistics anyway), so `{A . B}` and `{B . A}` now share one cache
/// entry; renamings that permute the concrete sort order miss
/// conservatively, exactly like order-permuting alpha-renamings always
/// have.
class Canonicalizer {
 public:
  explicit Canonicalizer(bool concrete = false) : concrete_(concrete) {}

  QueryShape Run(const Query& q) {
    Tag('F');
    Num(static_cast<uint64_t>(q.form));
    Flag(q.distinct);
    Flag(q.select_all);

    Tag('S');
    Num(q.select.size());
    for (const SelectItem& item : q.select) {
      Flag(item.is_aggregate);
      if (item.is_aggregate) {
        Num(static_cast<uint64_t>(item.fn));
        Flag(item.count_star);
        Flag(item.agg_distinct);
        // The alias is an output *name*, not structure: aggregation reads
        // it from the live query at solution-translation time.
      }
      if (!item.count_star) Var(item.var);
    }

    Tag('G');
    Num(q.group_by.size());
    for (const std::string& v : q.group_by) Var(v);

    Tag('W');
    if (q.where) Pattern(*q.where);

    Tag('O');
    Num(q.order_by.size());
    for (const OrderKey& k : q.order_by) {
      Flag(k.descending);
      Expr(*k.expr);
    }

    // The lexicographic rank permutation of the canonical variables is
    // deliberately NOT part of the key: the translation orders predicate
    // arguments by sorted original names (Pattern::Vars), but re-binding
    // restores the cached column layout through `var_names`, so renamings
    // that permute the name order still hit.
    QueryShape shape;
    shape.key = std::move(key_);
    shape.params = std::move(params_);

    // Variable names cannot contain the delimiters ('$', '?', ';'), so
    // this serialization is injective over (params, names, limit/offset).
    std::string data;
    for (rdf::TermId t : shape.params) {
      data.push_back('$');
      data += std::to_string(t);
    }
    for (const std::string& name : var_names_) {
      data.push_back('?');
      data += name;
      data.push_back(';');
    }
    if (q.limit) data += "L" + std::to_string(*q.limit);
    if (q.offset) data += "O" + std::to_string(*q.offset);
    shape.data_key = std::move(data);
    shape.var_names = std::move(var_names_);
    return shape;
  }

 private:
  void Tag(char c) { key_.push_back(c); }
  void Num(uint64_t n) {
    key_.push_back('#');
    key_ += std::to_string(n);
    key_.push_back(';');
  }
  void Flag(bool b) { key_.push_back(b ? '1' : '0'); }

  void Var(const std::string& name) {
    // A blank node is a variable the translation never projects and may
    // give a tuple ID, so it is a different shape from a named variable.
    const char tag = IsBlankVar(name) ? '_' : '?';
    if (concrete_) {
      // Concrete mode (join-conjunct sort keys): the spelling itself.
      // Names cannot contain the delimiters, so this stays injective.
      key_.push_back(tag);
      key_ += name;
      key_.push_back(';');
      return;
    }
    auto [it, inserted] =
        var_ids_.try_emplace(name, static_cast<uint32_t>(var_names_.size()));
    if (inserted) var_names_.push_back(name);
    key_.push_back(tag);
    key_ += std::to_string(it->second);
    key_.push_back(';');
  }

  void Const(rdf::TermId term) {
    if (concrete_) {
      key_.push_back('$');
      key_ += std::to_string(term);
      key_.push_back(';');
      return;
    }
    auto [it, inserted] =
        param_ids_.try_emplace(term, static_cast<uint32_t>(params_.size()));
    if (inserted) params_.push_back(term);
    key_.push_back('$');
    key_ += std::to_string(it->second);
    key_.push_back(';');
  }

  void TV(const TermOrVar& tv) {
    if (tv.is_var) {
      Var(tv.var);
    } else {
      Const(tv.term);
    }
  }

  void Expr(const sparql::Expr& e) {
    Tag('e');
    Num(static_cast<uint64_t>(e.kind));
    switch (e.kind) {
      case ExprKind::kVar:
        Var(e.var);
        break;
      case ExprKind::kTerm:
        Const(e.term);
        break;
      case ExprKind::kCompare:
        Num(static_cast<uint64_t>(e.compare_op));
        break;
      case ExprKind::kArith:
        Num(static_cast<uint64_t>(e.arith_op));
        break;
      case ExprKind::kBuiltin:
        Num(static_cast<uint64_t>(e.builtin));
        break;
      default:
        break;
    }
    Num(e.args.size());
    for (const ExprPtr& arg : e.args) Expr(*arg);
  }

  void PathExpr(const sparql::Path& p) {
    Tag('p');
    Num(static_cast<uint64_t>(p.kind));
    switch (p.kind) {
      case PathKind::kLink:
        Const(p.iri);
        break;
      case PathKind::kNegated:
        Num(p.neg_fwd.size());
        for (rdf::TermId t : p.neg_fwd) Const(t);
        Num(p.neg_bwd.size());
        for (rdf::TermId t : p.neg_bwd) Const(t);
        break;
      case PathKind::kExactly:
      case PathKind::kNOrMore:
      case PathKind::kUpTo:
        Num(p.count);
        break;
      default:
        break;
    }
    if (p.left) PathExpr(*p.left);
    if (p.right) PathExpr(*p.right);
  }

  /// Collects the conjunct leaves of a (possibly nested) kJoin tree in
  /// written order; any association of the same conjuncts flattens alike.
  static void FlattenJoin(const sparql::Pattern& p,
                          std::vector<const sparql::Pattern*>* out) {
    if (p.kind == PatternKind::kJoin) {
      FlattenJoin(*p.left, out);
      FlattenJoin(*p.right, out);
      return;
    }
    out->push_back(&p);
  }

  void Pattern(const sparql::Pattern& p) {
    Tag('(');
    Num(static_cast<uint64_t>(p.kind));
    switch (p.kind) {
      case PatternKind::kEmpty:
        break;
      case PatternKind::kTriple:
        TV(p.s);
        TV(p.p);
        TV(p.o);
        break;
      case PatternKind::kPath:
        TV(p.s);
        TV(p.o);
        PathExpr(*p.path);
        break;
      case PatternKind::kJoin: {
        // Canonical conjunct order: flatten the join tree and sort the
        // conjuncts by their concrete local keys (see class comment). The
        // sort is stable, so fully identical conjuncts (which any order
        // serializes the same) keep their written order. The emitted
        // count keeps the flattened serialization injective.
        std::vector<const sparql::Pattern*> conjuncts;
        FlattenJoin(p, &conjuncts);
        std::vector<std::pair<std::string, const sparql::Pattern*>> keyed;
        keyed.reserve(conjuncts.size());
        for (const sparql::Pattern* c : conjuncts) {
          Canonicalizer local(/*concrete=*/true);
          local.Pattern(*c);
          keyed.emplace_back(std::move(local.key_), c);
        }
        std::stable_sort(
            keyed.begin(), keyed.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
        Num(keyed.size());
        for (const auto& [unused, c] : keyed) Pattern(*c);
        break;
      }
      case PatternKind::kUnion:
      case PatternKind::kOptional:
      case PatternKind::kMinus:
        Pattern(*p.left);
        Pattern(*p.right);
        break;
      case PatternKind::kFilter:
        Pattern(*p.left);
        Expr(*p.condition);
        break;
      case PatternKind::kGraph:
        TV(p.graph);
        Pattern(*p.left);
        break;
      case PatternKind::kBind:
        Pattern(*p.left);
        Expr(*p.condition);
        Var(p.bind_var);
        break;
      case PatternKind::kValues:
        Num(p.values_vars.size());
        for (const std::string& v : p.values_vars) Var(v);
        Num(p.values_rows.size());
        for (const auto& row : p.values_rows) {
          for (rdf::TermId cell : row) {
            // UNDEF is the distinguished unbound marker, not a parameter.
            if (cell == rdf::TermDictionary::kUndef) {
              Tag('u');
            } else {
              Const(cell);
            }
          }
        }
        break;
      case PatternKind::kExistsFilter:
        Flag(p.exists_negated);
        Pattern(*p.left);
        Pattern(*p.right);
        break;
    }
    Tag(')');
  }

  /// Concrete mode: serialize spellings and raw TermIds instead of
  /// interning (used for join-conjunct sort keys only; Run is never
  /// called on a concrete canonicalizer).
  bool concrete_ = false;
  std::string key_;
  std::unordered_map<std::string, uint32_t> var_ids_;
  std::vector<std::string> var_names_;
  std::unordered_map<rdf::TermId, uint32_t> param_ids_;
  std::vector<rdf::TermId> params_;
};

}  // namespace

QueryShape ComputeQueryShape(const Query& query) {
  return Canonicalizer().Run(query);
}

}  // namespace sparqlog::sparql
