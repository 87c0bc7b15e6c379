#include "eval/expr_eval.h"

#include <algorithm>
#include <cmath>
#include <string_view>
// GCC 12 reports -Wmaybe-uninitialized false positives inside libstdc++'s
// std::regex state machine (the std::function<bool(char)> of
// _State<char>, moved in _NFA::_M_insert_*) when optimizing under
// ASan+UBSan, which breaks -Werror builds. Silence it for the regex
// headers only; the warning stays on for this file's own code.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <regex>
#pragma GCC diagnostic pop
#else
#include <regex>
#endif

#include "util/string_util.h"

namespace sparqlog::eval {

using rdf::Term;
using rdf::TermDictionary;
using rdf::TermId;
using rdf::TermKind;
using sparql::ArithOp;
using sparql::Builtin;
using sparql::CompareOp;
using sparql::Expr;
using sparql::ExprKind;

namespace {

bool IsStringish(const Term& t) {
  // Simple literal or xsd:string (normalized to empty datatype), no lang.
  return t.is_literal() && t.datatype.empty() && t.lang.empty();
}

bool IsPlainOrLang(const Term& t) {
  return t.is_literal() && t.datatype.empty();
}

}  // namespace

EBV ExprEvaluator::TermToEBV(TermId id) const {
  if (id == TermDictionary::kUndef) return EBV::kError;
  const Term& t = dict_->get(id);
  if (!t.is_literal()) return EBV::kError;
  if (t.datatype == rdf::xsd::kBoolean) {
    if (t.lexical == "true" || t.lexical == "1") return EBV::kTrue;
    if (t.lexical == "false" || t.lexical == "0") return EBV::kFalse;
    return EBV::kError;
  }
  if (t.is_numeric()) {
    double v = t.AsDouble();
    return (v != 0.0 && !std::isnan(v)) ? EBV::kTrue : EBV::kFalse;
  }
  if (IsPlainOrLang(t)) {
    return t.lexical.empty() ? EBV::kFalse : EBV::kTrue;
  }
  return EBV::kError;
}

EBV ExprEvaluator::EvalEBV(const Expr& e, const VarLookup& lookup) {
  switch (e.kind) {
    case ExprKind::kOr: {
      EBV a = EvalEBV(*e.args[0], lookup);
      if (a == EBV::kTrue) return EBV::kTrue;
      EBV b = EvalEBV(*e.args[1], lookup);
      if (b == EBV::kTrue) return EBV::kTrue;
      if (a == EBV::kFalse && b == EBV::kFalse) return EBV::kFalse;
      return EBV::kError;
    }
    case ExprKind::kAnd: {
      EBV a = EvalEBV(*e.args[0], lookup);
      if (a == EBV::kFalse) return EBV::kFalse;
      EBV b = EvalEBV(*e.args[1], lookup);
      if (b == EBV::kFalse) return EBV::kFalse;
      if (a == EBV::kTrue && b == EBV::kTrue) return EBV::kTrue;
      return EBV::kError;
    }
    case ExprKind::kNot: {
      EBV a = EvalEBV(*e.args[0], lookup);
      if (a == EBV::kError) return EBV::kError;
      return a == EBV::kTrue ? EBV::kFalse : EBV::kTrue;
    }
    case ExprKind::kCompare: {
      auto a = EvalTerm(*e.args[0], lookup);
      auto b = EvalTerm(*e.args[1], lookup);
      if (!a || !b) return EBV::kError;
      return Compare(e.compare_op, *a, *b);
    }
    default: {
      auto v = EvalTerm(e, lookup);
      if (!v) return EBV::kError;
      return TermToEBV(*v);
    }
  }
}

EBV ExprEvaluator::Compare(CompareOp op, TermId a, TermId b) const {
  if (a == TermDictionary::kUndef || b == TermDictionary::kUndef) {
    return EBV::kError;
  }
  if (op == CompareOp::kEq || op == CompareOp::kNe) {
    const Term& ta = dict_->get(a);
    const Term& tb = dict_->get(b);
    bool eq;
    if (a == b) {
      eq = true;
    } else if (ta.is_numeric() && tb.is_numeric()) {
      eq = ta.AsDouble() == tb.AsDouble();
    } else if (ta.is_literal() && tb.is_literal() &&
               !ta.datatype.empty() && ta.datatype == tb.datatype &&
               !ta.is_numeric()) {
      // Same unsupported datatype, different lexical forms: the standard
      // leaves this an error for `=`; equal lexical forms were caught by
      // the identity check above.
      return EBV::kError;
    } else {
      eq = false;
    }
    bool result = (op == CompareOp::kEq) ? eq : !eq;
    return result ? EBV::kTrue : EBV::kFalse;
  }
  auto cmp = CompareTermsSparql(*dict_, a, b);
  if (!cmp) return EBV::kError;
  bool r = false;
  switch (op) {
    case CompareOp::kLt: r = *cmp < 0; break;
    case CompareOp::kLe: r = *cmp <= 0; break;
    case CompareOp::kGt: r = *cmp > 0; break;
    case CompareOp::kGe: r = *cmp >= 0; break;
    default: break;
  }
  return r ? EBV::kTrue : EBV::kFalse;
}

std::optional<int> CompareTermsSparql(const TermDictionary& dict, TermId a,
                                      TermId b) {
  const Term& ta = dict.get(a);
  const Term& tb = dict.get(b);
  if (ta.is_numeric() && tb.is_numeric()) {
    double x = ta.AsDouble(), y = tb.AsDouble();
    return x < y ? -1 : x > y ? 1 : 0;
  }
  if (ta.is_literal() && tb.is_literal()) {
    // Strings (simple or xsd:string).
    if (IsStringish(ta) && IsStringish(tb)) {
      return ta.lexical.compare(tb.lexical) < 0   ? -1
             : ta.lexical.compare(tb.lexical) > 0 ? 1
                                                  : 0;
    }
    // Booleans: false < true.
    if (ta.datatype == rdf::xsd::kBoolean && tb.datatype == rdf::xsd::kBoolean) {
      int x = ta.lexical == "true" ? 1 : 0;
      int y = tb.lexical == "true" ? 1 : 0;
      return x - y;
    }
    // dateTime / date: ISO lexical forms order correctly.
    if (ta.datatype == tb.datatype &&
        (ta.datatype == rdf::xsd::kDateTime || ta.datatype == rdf::xsd::kDate)) {
      int c = ta.lexical.compare(tb.lexical);
      return c < 0 ? -1 : c > 0 ? 1 : 0;
    }
  }
  return std::nullopt;  // type error
}

int CompareForOrder(const TermDictionary& dict, TermId a, TermId b) {
  if (a == b) return 0;
  const Term& ta = dict.get(a);
  const Term& tb = dict.get(b);
  auto rank = [](const Term& t) {
    switch (t.kind) {
      case TermKind::kUndef: return 0;
      case TermKind::kBlank: return 1;
      case TermKind::kIri: return 2;
      case TermKind::kLiteral: return 3;
    }
    return 4;
  };
  if (rank(ta) != rank(tb)) return rank(ta) < rank(tb) ? -1 : 1;
  if (ta.kind == TermKind::kLiteral) {
    if (auto c = CompareTermsSparql(dict, a, b); c && *c != 0) return *c;
    if (auto c = CompareTermsSparql(dict, a, b); c && *c == 0) {
      // Values equal (e.g. "1"^^int vs "1.0"^^double): break ties on the
      // rendered form so the order is total and deterministic.
      std::string ra = ta.ToString(), rb = tb.ToString();
      return ra < rb ? -1 : ra > rb ? 1 : 0;
    }
  }
  // Same kind: compare rendered forms. IRIs render as "<" lexical ">" and
  // blank nodes as "_:" lexical, so both compare without rendering: the
  // shared prefix drops out and the suffix decides when one lexical form
  // is a prefix of the other.
  if (ta.kind == TermKind::kIri || ta.kind == TermKind::kBlank) {
    std::string_view la = ta.lexical, lb = tb.lexical;
    const size_t n = std::min(la.size(), lb.size());
    int c = la.substr(0, n).compare(lb.substr(0, n));
    if (c != 0 || la.size() == lb.size()) return c < 0 ? -1 : c > 0 ? 1 : 0;
    if (ta.kind == TermKind::kBlank) return la.size() < lb.size() ? -1 : 1;
    // One IRI is a proper prefix of the other: its '>' meets the longer
    // one's next character; on a tie the shorter rendering ends first.
    const bool a_shorter = la.size() < lb.size();
    const unsigned char next = a_shorter ? lb[n] : la[n];
    const bool shorter_first = static_cast<unsigned char>('>') <= next;
    return shorter_first == a_shorter ? -1 : 1;
  }
  std::string ra = ta.ToString(), rb = tb.ToString();
  return ra < rb ? -1 : ra > rb ? 1 : 0;
}

std::optional<TermId> ExprEvaluator::Arith(ArithOp op, TermId a, TermId b) {
  const Term& ta = dict_->get(a);
  const Term& tb = dict_->get(b);
  if (!ta.is_numeric() || !tb.is_numeric()) return std::nullopt;
  bool both_int = ta.numeric_kind == rdf::NumericKind::kInteger &&
                  tb.numeric_kind == rdf::NumericKind::kInteger;
  if (both_int && op != ArithOp::kDiv) {
    int64_t x = ta.int_value, y = tb.int_value;
    int64_t r = 0;
    switch (op) {
      case ArithOp::kAdd: r = x + y; break;
      case ArithOp::kSub: r = x - y; break;
      case ArithOp::kMul: r = x * y; break;
      case ArithOp::kDiv: break;  // handled below
    }
    return dict_->InternInteger(r);
  }
  double x = ta.AsDouble(), y = tb.AsDouble();
  double r = 0;
  switch (op) {
    case ArithOp::kAdd: r = x + y; break;
    case ArithOp::kSub: r = x - y; break;
    case ArithOp::kMul: r = x * y; break;
    case ArithOp::kDiv:
      if (y == 0.0 && both_int) return std::nullopt;  // integer div by zero
      r = x / y;
      break;
  }
  return dict_->InternDouble(r);
}

std::optional<TermId> ExprEvaluator::EvalTerm(const Expr& e,
                                              const VarLookup& lookup) {
  switch (e.kind) {
    case ExprKind::kVar:
      return lookup(e.var);
    case ExprKind::kTerm:
      return e.term;
    case ExprKind::kOr:
    case ExprKind::kAnd:
    case ExprKind::kNot:
    case ExprKind::kCompare: {
      EBV v = EvalEBV(e, lookup);
      if (v == EBV::kError) return std::nullopt;
      return dict_->InternBoolean(v == EBV::kTrue);
    }
    case ExprKind::kArith: {
      auto a = EvalTerm(*e.args[0], lookup);
      auto b = EvalTerm(*e.args[1], lookup);
      if (!a || !b) return std::nullopt;
      return Arith(e.arith_op, *a, *b);
    }
    case ExprKind::kNegate: {
      auto a = EvalTerm(*e.args[0], lookup);
      if (!a) return std::nullopt;
      const Term& t = dict_->get(*a);
      if (!t.is_numeric()) return std::nullopt;
      if (t.numeric_kind == rdf::NumericKind::kInteger) {
        return dict_->InternInteger(-t.int_value);
      }
      return dict_->InternDouble(-t.AsDouble());
    }
    case ExprKind::kBuiltin:
      return EvalBuiltin(e, lookup);
  }
  return std::nullopt;
}

std::optional<TermId> ExprEvaluator::EvalBuiltin(const Expr& e,
                                                 const VarLookup& lookup) {
  auto boolean = [this](bool v) { return dict_->InternBoolean(v); };

  // BOUND takes a variable, not a value.
  if (e.builtin == Builtin::kBound) {
    if (e.args[0]->kind != ExprKind::kVar) return std::nullopt;
    return boolean(lookup(e.args[0]->var) != TermDictionary::kUndef);
  }

  // Evaluate arguments.
  std::vector<TermId> args;
  for (const auto& a : e.args) {
    auto v = EvalTerm(*a, lookup);
    if (!v) return std::nullopt;
    args.push_back(*v);
  }

  auto term_of = [&](size_t i) -> const Term& { return dict_->get(args[i]); };
  auto string_arg = [&](size_t i) -> std::optional<std::string> {
    const Term& t = term_of(i);
    if (args[i] == TermDictionary::kUndef) return std::nullopt;
    if (t.is_literal()) return t.lexical;
    return std::nullopt;
  };

  switch (e.builtin) {
    case Builtin::kBound:
      return std::nullopt;  // handled above
    case Builtin::kIsIri:
      if (args[0] == TermDictionary::kUndef) return std::nullopt;
      return boolean(term_of(0).is_iri());
    case Builtin::kIsBlank:
      if (args[0] == TermDictionary::kUndef) return std::nullopt;
      return boolean(term_of(0).is_blank());
    case Builtin::kIsLiteral:
      if (args[0] == TermDictionary::kUndef) return std::nullopt;
      return boolean(term_of(0).is_literal());
    case Builtin::kIsNumeric:
      if (args[0] == TermDictionary::kUndef) return std::nullopt;
      return boolean(term_of(0).is_numeric());
    case Builtin::kStr: {
      if (args[0] == TermDictionary::kUndef) return std::nullopt;
      const Term& t = term_of(0);
      if (t.is_iri() || t.is_literal()) return dict_->InternString(t.lexical);
      return std::nullopt;
    }
    case Builtin::kLang: {
      if (args[0] == TermDictionary::kUndef) return std::nullopt;
      const Term& t = term_of(0);
      if (!t.is_literal()) return std::nullopt;
      return dict_->InternString(t.lang);
    }
    case Builtin::kDatatype: {
      if (args[0] == TermDictionary::kUndef) return std::nullopt;
      const Term& t = term_of(0);
      if (!t.is_literal()) return std::nullopt;
      if (!t.lang.empty()) return dict_->InternIri(rdf::xsd::kLangString);
      if (t.datatype.empty()) return dict_->InternIri(rdf::xsd::kString);
      return dict_->InternIri(t.datatype);
    }
    case Builtin::kRegex: {
      auto text = string_arg(0);
      auto pattern = string_arg(1);
      if (!text || !pattern) return std::nullopt;
      auto flags = std::regex::ECMAScript;
      if (args.size() == 3) {
        auto f = string_arg(2);
        if (!f) return std::nullopt;
        if (f->find('i') != std::string::npos) flags |= std::regex::icase;
      }
      try {
        std::regex re(*pattern, flags);
        return boolean(std::regex_search(*text, re));
      } catch (const std::regex_error&) {
        return std::nullopt;
      }
    }
    case Builtin::kUCase: {
      auto s = string_arg(0);
      if (!s) return std::nullopt;
      const Term& t = term_of(0);
      return dict_->InternLiteral(AsciiToUpper(*s), t.datatype, t.lang);
    }
    case Builtin::kLCase: {
      auto s = string_arg(0);
      if (!s) return std::nullopt;
      const Term& t = term_of(0);
      return dict_->InternLiteral(AsciiToLower(*s), t.datatype, t.lang);
    }
    case Builtin::kStrLen: {
      auto s = string_arg(0);
      if (!s) return std::nullopt;
      return dict_->InternInteger(static_cast<int64_t>(s->size()));
    }
    case Builtin::kContains: {
      auto a = string_arg(0), b = string_arg(1);
      if (!a || !b) return std::nullopt;
      return boolean(a->find(*b) != std::string::npos);
    }
    case Builtin::kStrStarts: {
      auto a = string_arg(0), b = string_arg(1);
      if (!a || !b) return std::nullopt;
      return boolean(StartsWith(*a, *b));
    }
    case Builtin::kStrEnds: {
      auto a = string_arg(0), b = string_arg(1);
      if (!a || !b) return std::nullopt;
      return boolean(EndsWith(*a, *b));
    }
    case Builtin::kLangMatches: {
      auto tag = string_arg(0), range = string_arg(1);
      if (!tag || !range) return std::nullopt;
      if (*range == "*") return boolean(!tag->empty());
      std::string lt = AsciiToLower(*tag), lr = AsciiToLower(*range);
      return boolean(lt == lr || StartsWith(lt, lr + "-"));
    }
    case Builtin::kSameTerm:
      if (args[0] == TermDictionary::kUndef ||
          args[1] == TermDictionary::kUndef) {
        return std::nullopt;
      }
      return boolean(args[0] == args[1]);
    case Builtin::kAbs: {
      if (args[0] == TermDictionary::kUndef) return std::nullopt;
      const Term& t = term_of(0);
      if (!t.is_numeric()) return std::nullopt;
      if (t.numeric_kind == rdf::NumericKind::kInteger) {
        return dict_->InternInteger(t.int_value < 0 ? -t.int_value
                                                    : t.int_value);
      }
      return dict_->InternDouble(std::abs(t.AsDouble()));
    }
  }
  return std::nullopt;
}

}  // namespace sparqlog::eval
