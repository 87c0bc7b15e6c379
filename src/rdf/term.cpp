#include "rdf/term.h"

#include "util/string_util.h"

namespace sparqlog::rdf {

namespace {

bool IsNumericDatatype(std::string_view dt, bool* integral) {
  if (dt == xsd::kInteger ||
      dt == "http://www.w3.org/2001/XMLSchema#int" ||
      dt == "http://www.w3.org/2001/XMLSchema#long" ||
      dt == "http://www.w3.org/2001/XMLSchema#short" ||
      dt == "http://www.w3.org/2001/XMLSchema#byte" ||
      dt == "http://www.w3.org/2001/XMLSchema#nonNegativeInteger" ||
      dt == "http://www.w3.org/2001/XMLSchema#positiveInteger" ||
      dt == "http://www.w3.org/2001/XMLSchema#unsignedInt" ||
      dt == "http://www.w3.org/2001/XMLSchema#unsignedLong") {
    *integral = true;
    return true;
  }
  if (dt == xsd::kDecimal || dt == xsd::kDouble || dt == xsd::kFloat) {
    *integral = false;
    return true;
  }
  return false;
}

}  // namespace

Term Term::Literal(std::string lex, std::string datatype, std::string lang) {
  Term t;
  t.kind = TermKind::kLiteral;
  t.lexical = std::move(lex);
  // RDF 1.1: "abc"^^xsd:string is the same term as "abc"; normalize to the
  // simple-literal spelling so interning collapses them.
  if (datatype != xsd::kString) t.datatype = std::move(datatype);
  t.lang = AsciiToLower(lang);
  if (!t.lang.empty()) t.datatype.clear();  // lang implies rdf:langString

  bool integral = false;
  if (t.lang.empty() && IsNumericDatatype(t.datatype, &integral)) {
    if (integral) {
      if (auto v = ParseInt64(StripAscii(t.lexical))) {
        t.numeric_kind = NumericKind::kInteger;
        t.int_value = *v;
      }
    } else {
      if (auto v = ParseDouble(StripAscii(t.lexical))) {
        t.numeric_kind = NumericKind::kDouble;
        t.double_value = *v;
      }
    }
  }
  return t;
}

std::string Term::ToString() const {
  switch (kind) {
    case TermKind::kUndef:
      return "UNDEF";
    case TermKind::kIri:
      return "<" + lexical + ">";
    case TermKind::kBlank:
      return "_:" + lexical;
    case TermKind::kLiteral: {
      std::string out = "\"" + EscapeStringLiteral(lexical) + "\"";
      if (!lang.empty()) {
        out += "@" + lang;
      } else if (!datatype.empty()) {
        out += "^^<" + datatype + ">";
      }
      return out;
    }
  }
  return "?";
}

bool operator==(const Term& a, const Term& b) {
  return a.kind == b.kind && a.lexical == b.lexical &&
         a.datatype == b.datatype && a.lang == b.lang;
}

}  // namespace sparqlog::rdf
