// Unit tests for the shared SPARQL expression evaluator: three-valued
// logic, EBV coercion, operator-level comparison, arithmetic, builtins,
// and the ORDER BY total order.

#include <gtest/gtest.h>

#include <vector>

#include "eval/expr_eval.h"
#include "sparql/parser.h"

namespace sparqlog::eval {
namespace {

using rdf::TermDictionary;
using rdf::TermId;

class ExprEvalTest : public ::testing::Test {
 protected:
  ExprEvalTest() : eval_(&dict_) {}

  /// Parses `expr` via a FILTER in a dummy query.
  sparql::ExprPtr Parse(const std::string& expr) {
    auto q = sparql::ParseQuery(
        "PREFIX ex: <http://ex.org/> SELECT ?x WHERE { ?x ex:p ?y . FILTER (" +
            expr + ") }",
        &dict_);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    return q->where->condition;
  }

  EBV Eval(const std::string& expr,
           std::map<std::string, TermId> bindings = {}) {
    auto e = Parse(expr);
    return eval_.EvalEBV(*e, [&](const std::string& name) -> TermId {
      auto it = bindings.find(name);
      return it == bindings.end() ? TermDictionary::kUndef : it->second;
    });
  }

  TermDictionary dict_;
  ExprEvaluator eval_;
};

TEST_F(ExprEvalTest, NumericComparisons) {
  EXPECT_EQ(Eval("3 < 5"), EBV::kTrue);
  EXPECT_EQ(Eval("3.5 >= 3.5"), EBV::kTrue);
  EXPECT_EQ(Eval("2 > 10"), EBV::kFalse);
  // Cross-type numeric comparison (integer vs double).
  EXPECT_EQ(Eval("2 = 2.0"), EBV::kTrue);
  EXPECT_EQ(Eval("\"2\" = 2"), EBV::kFalse);  // string vs number
}

TEST_F(ExprEvalTest, StringComparisons) {
  EXPECT_EQ(Eval("\"abc\" < \"abd\""), EBV::kTrue);
  EXPECT_EQ(Eval("\"abc\" = \"abc\""), EBV::kTrue);
  EXPECT_EQ(Eval("\"a\"@en = \"a\"@en"), EBV::kTrue);
  EXPECT_EQ(Eval("\"a\"@en = \"a\"@de"), EBV::kFalse);
  // Ordering IRIs is a type error -> filter drops the row.
  EXPECT_EQ(Eval("ex:a < ex:b"), EBV::kError);
  EXPECT_EQ(Eval("ex:a = ex:a"), EBV::kTrue);
}

TEST_F(ExprEvalTest, ArithmeticAndPrecedence) {
  EXPECT_EQ(Eval("1 + 2 * 3 = 7"), EBV::kTrue);
  EXPECT_EQ(Eval("(1 + 2) * 3 = 9"), EBV::kTrue);
  EXPECT_EQ(Eval("7 / 2 = 3.5"), EBV::kTrue);
  EXPECT_EQ(Eval("-(3) + 3 = 0"), EBV::kTrue);
  EXPECT_EQ(Eval("1 / 0 > 0"), EBV::kError);  // integer division by zero
  EXPECT_EQ(Eval("\"x\" + 1 = 2"), EBV::kError);
}

TEST_F(ExprEvalTest, ThreeValuedLogic) {
  // ?unbound produces errors; || and && follow SPARQL's partial logic.
  EXPECT_EQ(Eval("?z > 1"), EBV::kError);
  EXPECT_EQ(Eval("1 = 1 || ?z > 1"), EBV::kTrue);
  EXPECT_EQ(Eval("?z > 1 || 1 = 1"), EBV::kTrue);
  EXPECT_EQ(Eval("1 = 2 || ?z > 1"), EBV::kError);
  EXPECT_EQ(Eval("1 = 2 && ?z > 1"), EBV::kFalse);
  EXPECT_EQ(Eval("1 = 1 && ?z > 1"), EBV::kError);
  EXPECT_EQ(Eval("!(?z > 1)"), EBV::kError);
}

TEST_F(ExprEvalTest, EffectiveBooleanValue) {
  EXPECT_EQ(Eval("true"), EBV::kTrue);
  EXPECT_EQ(Eval("false"), EBV::kFalse);
  EXPECT_EQ(Eval("1"), EBV::kTrue);
  EXPECT_EQ(Eval("0"), EBV::kFalse);
  EXPECT_EQ(Eval("\"\""), EBV::kFalse);
  EXPECT_EQ(Eval("\"x\""), EBV::kTrue);
  EXPECT_EQ(Eval("ex:iri"), EBV::kError);  // IRIs have no EBV
}

TEST_F(ExprEvalTest, BoundAndTypeChecks) {
  TermId iri = dict_.InternIri("http://ex.org/a");
  TermId lit = dict_.InternString("v");
  TermId blank = dict_.InternBlank("b");
  TermId num = dict_.InternInteger(5);
  EXPECT_EQ(Eval("BOUND(?y)", {{"y", lit}}), EBV::kTrue);
  EXPECT_EQ(Eval("BOUND(?y)"), EBV::kFalse);
  EXPECT_EQ(Eval("isIRI(?y)", {{"y", iri}}), EBV::kTrue);
  EXPECT_EQ(Eval("isIRI(?y)", {{"y", lit}}), EBV::kFalse);
  EXPECT_EQ(Eval("isBLANK(?y)", {{"y", blank}}), EBV::kTrue);
  EXPECT_EQ(Eval("isLITERAL(?y)", {{"y", lit}}), EBV::kTrue);
  EXPECT_EQ(Eval("isNUMERIC(?y)", {{"y", num}}), EBV::kTrue);
  EXPECT_EQ(Eval("isNUMERIC(?y)", {{"y", lit}}), EBV::kFalse);
  // Type checks on unbound are errors.
  EXPECT_EQ(Eval("isIRI(?y)"), EBV::kError);
}

TEST_F(ExprEvalTest, StringBuiltins) {
  EXPECT_EQ(Eval("STR(ex:a) = \"http://ex.org/a\""), EBV::kTrue);
  EXPECT_EQ(Eval("UCASE(\"aB\") = \"AB\""), EBV::kTrue);
  EXPECT_EQ(Eval("LCASE(\"aB\") = \"ab\""), EBV::kTrue);
  EXPECT_EQ(Eval("STRLEN(\"abcd\") = 4"), EBV::kTrue);
  EXPECT_EQ(Eval("CONTAINS(\"abcd\", \"bc\")"), EBV::kTrue);
  EXPECT_EQ(Eval("STRSTARTS(\"abcd\", \"ab\")"), EBV::kTrue);
  EXPECT_EQ(Eval("STRENDS(\"abcd\", \"cd\")"), EBV::kTrue);
  EXPECT_EQ(Eval("ABS(-3) = 3"), EBV::kTrue);
}

TEST_F(ExprEvalTest, RegexBuiltin) {
  EXPECT_EQ(Eval("regex(\"hello\", \"ell\")"), EBV::kTrue);
  EXPECT_EQ(Eval("regex(\"hello\", \"^h.*o$\")"), EBV::kTrue);
  EXPECT_EQ(Eval("regex(\"HELLO\", \"hello\")"), EBV::kFalse);
  EXPECT_EQ(Eval("regex(\"HELLO\", \"hello\", \"i\")"), EBV::kTrue);
  EXPECT_EQ(Eval("regex(\"x\", \"[\")"), EBV::kError);  // bad pattern
}

TEST_F(ExprEvalTest, LangAndDatatype) {
  EXPECT_EQ(Eval("LANG(\"chat\"@FR) = \"fr\""), EBV::kTrue);
  EXPECT_EQ(Eval("LANG(\"chat\") = \"\""), EBV::kTrue);
  EXPECT_EQ(
      Eval("DATATYPE(\"x\") = <http://www.w3.org/2001/XMLSchema#string>"),
      EBV::kTrue);
  EXPECT_EQ(
      Eval("DATATYPE(5) = <http://www.w3.org/2001/XMLSchema#integer>"),
      EBV::kTrue);
  EXPECT_EQ(Eval("LANGMATCHES(LANG(\"a\"@en-GB), \"en\")"), EBV::kTrue);
  EXPECT_EQ(Eval("LANGMATCHES(LANG(\"a\"@de), \"en\")"), EBV::kFalse);
  EXPECT_EQ(Eval("LANGMATCHES(LANG(\"a\"@de), \"*\")"), EBV::kTrue);
}

TEST_F(ExprEvalTest, SameTerm) {
  EXPECT_EQ(Eval("sameTerm(\"1\", \"1\")"), EBV::kTrue);
  // Value-equal but different terms.
  EXPECT_EQ(Eval("sameTerm(1, 1.0)"), EBV::kFalse);
  EXPECT_EQ(Eval("1 = 1.0"), EBV::kTrue);
}

TEST_F(ExprEvalTest, OrderTotalOrder) {
  TermId unbound = TermDictionary::kUndef;
  TermId blank = dict_.InternBlank("b");
  TermId iri = dict_.InternIri("http://a");
  TermId lit1 = dict_.InternInteger(1);
  TermId lit2 = dict_.InternInteger(2);
  TermId str = dict_.InternString("z");
  // unbound < blank < IRI < literal.
  EXPECT_LT(CompareForOrder(dict_, unbound, blank), 0);
  EXPECT_LT(CompareForOrder(dict_, blank, iri), 0);
  EXPECT_LT(CompareForOrder(dict_, iri, lit1), 0);
  EXPECT_LT(CompareForOrder(dict_, lit1, lit2), 0);
  EXPECT_EQ(CompareForOrder(dict_, lit1, lit1), 0);
  // Incomparable literals still get a deterministic total order.
  int ab = CompareForOrder(dict_, lit1, str);
  int ba = CompareForOrder(dict_, str, lit1);
  EXPECT_EQ(ab, -ba);
  EXPECT_NE(ab, 0);
}

TEST_F(ExprEvalTest, OrderIrisAndBlanksByRenderedForm) {
  // Prefix pairs whose next character sorts below, at and above the '>'
  // that closes the shorter IRI's rendering.
  std::vector<TermId> ids;
  for (const char* lex : {"http://a", "http://a#x", "http://a>", "http://ab",
                          "http://a/", "http://b", "", "http://a?"}) {
    ids.push_back(dict_.InternIri(lex));
  }
  for (const char* label : {"b", "b1", "b0", "a", "c"}) {
    ids.push_back(dict_.InternBlank(label));
  }
  for (TermId a : ids) {
    for (TermId b : ids) {
      const rdf::Term& ta = dict_.get(a);
      const rdf::Term& tb = dict_.get(b);
      if (ta.kind != tb.kind) continue;
      int rendered = ta.ToString().compare(tb.ToString());
      rendered = rendered < 0 ? -1 : rendered > 0 ? 1 : 0;
      EXPECT_EQ(CompareForOrder(dict_, a, b), rendered)
          << ta.ToString() << " vs " << tb.ToString();
    }
  }
}

}  // namespace
}  // namespace sparqlog::eval
