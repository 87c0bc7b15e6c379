#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

/// \file term.h
/// RDF terms (IRIs, literals, blank nodes) per RDF 1.1 Concepts, plus the
/// distinguished "undef" term used by the translation to represent SPARQL's
/// unbound value ("null" in the paper's Datalog encoding).

namespace sparqlog::rdf {

/// Interned term handle. Id 0 is always the undef/null term.
using TermId = uint32_t;

/// Well-known XSD / RDF datatype IRIs used by the expression evaluator.
namespace xsd {
inline constexpr std::string_view kString = "http://www.w3.org/2001/XMLSchema#string";
inline constexpr std::string_view kInteger = "http://www.w3.org/2001/XMLSchema#integer";
inline constexpr std::string_view kDecimal = "http://www.w3.org/2001/XMLSchema#decimal";
inline constexpr std::string_view kDouble = "http://www.w3.org/2001/XMLSchema#double";
inline constexpr std::string_view kFloat = "http://www.w3.org/2001/XMLSchema#float";
inline constexpr std::string_view kBoolean = "http://www.w3.org/2001/XMLSchema#boolean";
inline constexpr std::string_view kDate = "http://www.w3.org/2001/XMLSchema#date";
inline constexpr std::string_view kDateTime = "http://www.w3.org/2001/XMLSchema#dateTime";
inline constexpr std::string_view kLangString =
    "http://www.w3.org/1999/02/22-rdf-syntax-ns#langString";
}  // namespace xsd

namespace rdfns {
inline constexpr std::string_view kType =
    "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";
inline constexpr std::string_view kSubClassOf =
    "http://www.w3.org/2000/01/rdf-schema#subClassOf";
inline constexpr std::string_view kSubPropertyOf =
    "http://www.w3.org/2000/01/rdf-schema#subPropertyOf";
inline constexpr std::string_view kDomain =
    "http://www.w3.org/2000/01/rdf-schema#domain";
inline constexpr std::string_view kRange =
    "http://www.w3.org/2000/01/rdf-schema#range";
}  // namespace rdfns

/// Kind tag of a term.
enum class TermKind : uint8_t {
  kUndef = 0,  ///< SPARQL unbound / the translation's "null" constant
  kIri,
  kLiteral,
  kBlank,
};

/// Numeric interpretation of a literal, precomputed at intern time.
enum class NumericKind : uint8_t { kNone = 0, kInteger, kDouble };

/// A fully materialized RDF term. Literals carry their datatype IRI as a
/// string (empty = simple literal, treated as xsd:string per RDF 1.1) and
/// an optional language tag (which implies rdf:langString).
struct Term {
  TermKind kind = TermKind::kUndef;
  std::string lexical;   ///< IRI text, literal lexical form, or bnode label
  std::string datatype;  ///< literal datatype IRI ("" = simple)
  std::string lang;      ///< language tag, lower-cased ("" = none)

  // Cached at intern time by the dictionary.
  NumericKind numeric_kind = NumericKind::kNone;
  int64_t int_value = 0;
  double double_value = 0.0;

  static Term Iri(std::string iri) {
    Term t;
    t.kind = TermKind::kIri;
    t.lexical = std::move(iri);
    return t;
  }
  static Term Literal(std::string lex, std::string datatype = "",
                      std::string lang = "");
  static Term Blank(std::string label) {
    Term t;
    t.kind = TermKind::kBlank;
    t.lexical = std::move(label);
    return t;
  }
  static Term Undef() { return Term(); }

  bool is_iri() const { return kind == TermKind::kIri; }
  bool is_literal() const { return kind == TermKind::kLiteral; }
  bool is_blank() const { return kind == TermKind::kBlank; }
  bool is_undef() const { return kind == TermKind::kUndef; }
  bool is_numeric() const { return numeric_kind != NumericKind::kNone; }

  /// Numeric value as double (valid when is_numeric()).
  double AsDouble() const {
    return numeric_kind == NumericKind::kInteger
               ? static_cast<double>(int_value)
               : double_value;
  }

  /// N-Triples-style rendering: <iri>, "lex"^^<dt>, "lex"@lang, _:b, UNDEF.
  std::string ToString() const;
};

bool operator==(const Term& a, const Term& b);

}  // namespace sparqlog::rdf
