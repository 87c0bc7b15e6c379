// Unit tests for the query translation T_Q: structural checks per
// definition (A.3-A.22), set- vs bag-semantics variants, constant-endpoint
// seeding, ontology rules, and the paper's claim that every translated
// program is Warded Datalog± (§5.3).

#include <gtest/gtest.h>

#include "core/query_translator.h"
#include "datalog/printer.h"
#include "datalog/stratify.h"
#include "datalog/warded.h"
#include "sparql/parser.h"

namespace sparqlog::core {
namespace {

class TranslatorTest : public ::testing::Test {
 protected:
  datalog::Program Translate(const std::string& query, bool ontology = false) {
    auto parsed =
        sparql::ParseQuery("PREFIX ex: <http://ex.org/>\n" + query, &dict_);
    EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
    QueryTranslator translator(&dict_, &skolems_, ontology);
    auto program = translator.Translate(*parsed);
    EXPECT_TRUE(program.ok()) << program.status().ToString();
    return std::move(program).ValueOrDie();
  }

  std::string Render(const datalog::Program& program) {
    return datalog::ToString(program, dict_, skolems_);
  }

  /// Number of rules whose head predicate is `name`.
  size_t RulesFor(const datalog::Program& program, const std::string& name) {
    auto pred = program.predicates.Lookup(name);
    if (!pred) return 0;
    size_t n = 0;
    for (const auto& rule : program.rules) {
      if (rule.head.predicate == *pred) ++n;
    }
    return n;
  }

  rdf::TermDictionary dict_;
  datalog::SkolemStore skolems_;
};

TEST_F(TranslatorTest, TriplePatternDefA3) {
  auto program = Translate("SELECT ?s ?o WHERE { ?s ex:p ?o }");
  // ans1 (triple) + ans (select).
  EXPECT_EQ(RulesFor(program, "ans1"), 1u);
  EXPECT_EQ(RulesFor(program, "ans"), 1u);
  // A triple pattern yields each mapping once, so even under bag
  // semantics its variable tuple is its identity: no Skolem TID.
  std::string text = Render(program);
  EXPECT_EQ(text.find("ID ="), std::string::npos) << text;
  EXPECT_FALSE(program.output.has_tid_column);
  EXPECT_NE(text.find("triple("), std::string::npos);
}

TEST_F(TranslatorTest, ProjectionKeepsDroppedVariablesAsTrailingColumns) {
  // `?o` is projected away; the output keeps it as a column T_S does not
  // read, so two objects of one subject stay two solutions.
  auto program = Translate("SELECT ?s WHERE { ?s ex:p ?o }");
  EXPECT_FALSE(program.output.has_tid_column);
  EXPECT_EQ(program.output.columns, (std::vector<std::string>{"s"}));
  EXPECT_EQ(program.predicates.Arity(program.output.predicate), 3u);
  EXPECT_EQ(Render(program).find("ID ="), std::string::npos);
}

TEST_F(TranslatorTest, DistinctUsesSetSemantics) {
  auto program = Translate("SELECT DISTINCT ?s WHERE { ?s ex:p ?o }");
  std::string text = Render(program);
  EXPECT_EQ(text.find("ID ="), std::string::npos)
      << "set semantics must not generate TIDs:\n"
      << text;
  EXPECT_FALSE(program.output.has_tid_column);
}

TEST_F(TranslatorTest, CertainJoinSharesOneVariableDefA5) {
  // Both triple patterns certainly bind ?o: the join is one shared rule
  // variable in one rule body, with no comp.
  auto program =
      Translate("SELECT ?s WHERE { ?s ex:p ?o . ?o ex:q ?z }");
  std::string text = Render(program);
  EXPECT_EQ(text.find("comp("), std::string::npos) << text;
  EXPECT_EQ(RulesFor(program, "comp"), 0u);
  EXPECT_EQ(RulesFor(program, "ans1"), 1u);
  EXPECT_NE(text.find("triple(V_s, <http://ex.org/p>, V_o"), std::string::npos)
      << text;
  EXPECT_NE(text.find("triple(V_o, <http://ex.org/q>, V_z"), std::string::npos)
      << text;
}

TEST_F(TranslatorTest, OptionalThenJoinNeedsCompDefA5) {
  // ?z may be unbound after the OPTIONAL, so joining it with a triple
  // pattern needs the null-aware comp (Def A.2), included once.
  auto program = Translate(
      "SELECT * WHERE { ?s ex:p ?o OPTIONAL { ?s ex:q ?z } ?z ex:r ?w }");
  std::string text = Render(program);
  EXPECT_EQ(RulesFor(program, "comp"), 4u);
  EXPECT_NE(text.find("comp(V_z, V2_z, C2_z)"), std::string::npos) << text;
  // ?s is certainly bound on both sides of the OPTIONAL: no comp there.
  EXPECT_EQ(text.find("V2_s"), std::string::npos) << text;
}

TEST_F(TranslatorTest, GmarkPathQueryHasNoCompAndNoIds) {
  auto program = Translate(
      "SELECT ?x ?y ?z WHERE { ?x (ex:p/ex:q|ex:p)+ ?y . ?y ex:p ?z }");
  std::string text = Render(program);
  EXPECT_EQ(text.find("comp("), std::string::npos) << text;
  EXPECT_EQ(text.find("ID ="), std::string::npos) << text;
  EXPECT_FALSE(program.output.has_tid_column);
}

TEST_F(TranslatorTest, SixPatternBgpIsOneRule) {
  auto program = Translate(
      "SELECT ?inproc ?author ?title WHERE {"
      " ?inproc ex:type ex:Inproceedings . ?inproc ex:creator ?author ."
      " ?inproc ex:booktitle ?booktitle . ?inproc ex:title ?title ."
      " ?inproc ex:partOf ?proc . ?inproc ex:pages ?page }");
  EXPECT_EQ(RulesFor(program, "ans1"), 1u);
  auto ans1 = *program.predicates.Lookup("ans1");
  size_t rules = 0;
  for (const auto& rule : program.rules) {
    if (rule.head.predicate != ans1) continue;
    EXPECT_EQ(rule.positive.size(), 6u);
    ++rules;
  }
  EXPECT_EQ(rules, 1u);
  // The BGP rule and the projection: nothing else.
  EXPECT_EQ(program.rules.size(), 2u);
}

TEST_F(TranslatorTest, UnionBranchesKeepIds) {
  // UNION can repeat a mapping, so each branch tags its tuples with its
  // own ID. The join above reads that bag through plain variables, so the
  // union's ID still identifies its rows: it carries it instead of
  // minting one.
  auto program = Translate(
      "SELECT ?s WHERE { { ?s ex:p ?o } UNION { ?s ex:q ?o } ?s ex:r ?z }");
  std::string text = Render(program);
  EXPECT_NE(text.find("ID = [\"f2a\"]"), std::string::npos) << text;
  EXPECT_NE(text.find("ID = [\"f2b\"]"), std::string::npos) << text;
  EXPECT_EQ(text.find("\"f1\""), std::string::npos) << text;
  EXPECT_NE(text.find("ans1(ID1, "), std::string::npos) << text;
  EXPECT_TRUE(program.output.has_tid_column);
}

TEST_F(TranslatorTest, CrossProductNeedsNoComp) {
  auto program = Translate("SELECT * WHERE { ?a ex:p ?b . ?c ex:q ?d }");
  EXPECT_EQ(RulesFor(program, "comp"), 0u);
}

TEST_F(TranslatorTest, UnionPadsWithNullDefA6) {
  auto program = Translate(
      "SELECT * WHERE { { ?s ex:p ?o } UNION { ?s ex:q ?z } }");
  EXPECT_EQ(RulesFor(program, "ans1"), 2u);
  std::string text = Render(program);
  EXPECT_NE(text.find("null(V_z)"), std::string::npos);
  EXPECT_NE(text.find("null(V_o)"), std::string::npos);
  // Branch-specific Skolem functions keep duplicates apart.
  EXPECT_NE(text.find("\"f1a\""), std::string::npos);
  EXPECT_NE(text.find("\"f1b\""), std::string::npos);
}

TEST_F(TranslatorTest, OptionalThreeRulesDefA7) {
  auto program = Translate(
      "SELECT * WHERE { ?s ex:p ?o OPTIONAL { ?s ex:q ?z } }");
  EXPECT_EQ(RulesFor(program, "ans1"), 2u);      // join + unmatched
  EXPECT_EQ(RulesFor(program, "ans_opt1"), 1u);  // compatibility probe
  std::string text = Render(program);
  EXPECT_NE(text.find("not ans_opt1("), std::string::npos);
  EXPECT_NE(text.find("null(V_z)"), std::string::npos);
}

TEST_F(TranslatorTest, OptionalFilterAppliesConditionToJoinDefA9) {
  auto program = Translate(
      "SELECT * WHERE { ?s ex:p ?o OPTIONAL { ?s ex:q ?z "
      "FILTER (?z > ?o) } }");
  // No separate filter predicate: C moves into the opt/join rules.
  EXPECT_EQ(RulesFor(program, "ans3"), 1u);  // the inner triple directly
  std::string text = Render(program);
  // The condition appears twice (ans_opt rule and the join rule).
  size_t first = text.find("(?z > ?o)");
  ASSERT_NE(first, std::string::npos);
  EXPECT_NE(text.find("(?z > ?o)", first + 1), std::string::npos);
}

TEST_F(TranslatorTest, MinusRulesDefA10) {
  auto program = Translate(
      "SELECT ?s WHERE { ?s ex:p ?o . MINUS { ?s ex:q ?z } }");
  EXPECT_GE(RulesFor(program, "ans_join1"), 1u);
  EXPECT_EQ(RulesFor(program, "ans_equal1"), 1u);  // one shared var (s)
  std::string text = Render(program);
  EXPECT_NE(text.find("not ans_equal1("), std::string::npos);
  EXPECT_NE(text.find("not null("), std::string::npos);
}

TEST_F(TranslatorTest, GraphConstantAndVariableDefA4) {
  auto constant = Translate(
      "SELECT ?s WHERE { GRAPH <http://g> { ?s ex:p ?o } }");
  std::string text = Render(constant);
  EXPECT_NE(text.find("named(<http://g>)"), std::string::npos);

  auto variable =
      Translate("SELECT ?g ?s WHERE { GRAPH ?g { ?s ex:p ?o } }");
  text = Render(variable);
  EXPECT_NE(text.find("named(V_g)"), std::string::npos);
}

TEST_F(TranslatorTest, PropertyPathClosureDefA16) {
  auto program = Translate("SELECT ?x ?y WHERE { ?x ex:p+ ?y }");
  // pp node 2: single-step + closure rules. The closure is a set, so it
  // carries no ID column: X, Y and the graph.
  EXPECT_EQ(RulesFor(program, "ans2"), 2u);
  std::string text = Render(program);
  EXPECT_EQ(text.find("ID ="), std::string::npos) << text;
  // The closure is genuinely recursive.
  auto strat = datalog::Stratify(program).ValueOrDie();
  auto pred = *program.predicates.Lookup("ans2");
  EXPECT_EQ(program.predicates.Arity(pred), 3u);
  EXPECT_TRUE(strat.stratum_recursive[strat.predicate_stratum[pred]]);
}

TEST_F(TranslatorTest, ZeroOrMoreEmitsZeroRulesDefA19) {
  auto program = Translate("SELECT ?x ?y WHERE { ?x ex:p* ?y }");
  // zero rule (subjectOrObject) + step + closure.
  EXPECT_EQ(RulesFor(program, "ans2"), 3u);
  std::string text = Render(program);
  EXPECT_NE(text.find("subjectOrObject("), std::string::npos);
}

TEST_F(TranslatorTest, ConstantEndpointZeroRuleDefA18) {
  auto program = Translate("SELECT ?y WHERE { ex:ghost ex:p? ?y }");
  std::string text = Render(program);
  // Unconditional constant zero-length rule for the subject.
  EXPECT_NE(text.find("ans2(<http://ex.org/ghost>, <http://ex.org/ghost>"),
            std::string::npos)
      << text;
}

TEST_F(TranslatorTest, ConstantSeedingRestrictsClosure) {
  auto program = Translate("SELECT ?y WHERE { ex:a ex:p+ ?y }");
  std::string text = Render(program);
  // The base chain rule is seeded with the constant subject.
  EXPECT_NE(text.find("X0 = <http://ex.org/a>"), std::string::npos);
  auto back = Translate("SELECT ?x WHERE { ?x ex:p+ ex:a }");
  text = Render(back);
  EXPECT_NE(text.find("X1 = <http://ex.org/a>"), std::string::npos);
}

TEST_F(TranslatorTest, NegatedPropertySetDefA20) {
  auto program = Translate("SELECT ?x ?y WHERE { ?x !(ex:p|^ex:q) ?y }");
  std::string text = Render(program);
  EXPECT_NE(text.find("P != <http://ex.org/p>"), std::string::npos);
  EXPECT_NE(text.find("P != <http://ex.org/q>"), std::string::npos);
  // Forward-only sets emit a single rule.
  auto fwd_only = Translate("SELECT ?x ?y WHERE { ?x !ex:p ?y }");
  EXPECT_EQ(RulesFor(fwd_only, "ans2"), 1u);
}

TEST_F(TranslatorTest, AskRulesDefA22) {
  auto program = Translate("ASK { ?s ex:p ?o }");
  EXPECT_TRUE(program.output.is_ask);
  EXPECT_EQ(RulesFor(program, "ans"), 2u);
  EXPECT_EQ(RulesFor(program, "ans_ask"), 1u);
  std::string text = Render(program);
  EXPECT_NE(text.find("not ans_ask("), std::string::npos);
}

TEST_F(TranslatorTest, FilterBecomesEmbeddedExpression) {
  auto program = Translate(
      "SELECT ?s WHERE { ?s ex:p ?o . FILTER regex(?o, \"x\") }");
  bool found = false;
  for (const auto& rule : program.rules) {
    for (const auto& b : rule.builtins) {
      if (b.kind == datalog::BuiltinKind::kFilterExpr) found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(TranslatorTest, OrderByDirectives) {
  auto program = Translate(
      "SELECT ?o WHERE { ?s ex:p ?o } ORDER BY DESC(?o) LIMIT 3 OFFSET 1");
  ASSERT_EQ(program.output.order_by.size(), 1u);
  EXPECT_TRUE(program.output.order_by[0].descending);
  EXPECT_EQ(*program.output.limit, 3u);
  EXPECT_EQ(*program.output.offset, 1u);
  std::string text = Render(program);
  EXPECT_NE(text.find("@post(\"ans\""), std::string::npos);
  EXPECT_NE(text.find("@output(\"ans\")"), std::string::npos);
}

TEST_F(TranslatorTest, OrderByNonProjectedVarBecomesHiddenColumn) {
  auto program =
      Translate("SELECT ?s WHERE { ?s ex:p ?o } ORDER BY ?o");
  EXPECT_EQ(program.output.columns, (std::vector<std::string>{"s"}));
  EXPECT_EQ(program.output.hidden_columns, (std::vector<std::string>{"o"}));
}

TEST_F(TranslatorTest, OntologyModeEmitsInferenceRules) {
  auto program = Translate("SELECT ?s WHERE { ?s ex:p ?o }", true);
  std::string text = Render(program);
  EXPECT_NE(text.find("itriple("), std::string::npos);
  EXPECT_NE(text.find("subC("), std::string::npos);
  EXPECT_NE(text.find("subP("), std::string::npos);
  // Pattern leaves read the inferred predicate.
  EXPECT_GE(RulesFor(program, "itriple"), 4u);
}

// Every translated program must be warded (the paper's §5.3 claim) and
// stratifiable; sweep over a representative query set.
class WardedSweepTest : public TranslatorTest,
                        public ::testing::WithParamInterface<const char*> {};

TEST_P(WardedSweepTest, TranslationIsWardedAndStratifiable) {
  auto program = Translate(GetParam());
  datalog::WardedReport report = datalog::AnalyzeWarded(program);
  EXPECT_TRUE(report.warded) << GetParam() << "\n"
                             << (report.violations.empty()
                                     ? ""
                                     : report.violations[0]);
  EXPECT_TRUE(datalog::Stratify(program).ok()) << GetParam();
  EXPECT_TRUE(program.Validate().ok()) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    Queries, WardedSweepTest,
    ::testing::Values(
        "SELECT ?s WHERE { ?s ex:p ?o }",
        "SELECT DISTINCT ?s ?o WHERE { ?s ex:p ?o . ?o ex:q ?z }",
        "SELECT * WHERE { { ?s ex:p ?o } UNION { ?s ex:q ?o } }",
        "SELECT * WHERE { ?s ex:p ?o OPTIONAL { ?s ex:q ?z } }",
        "SELECT * WHERE { ?s ex:p ?o OPTIONAL { ?s ex:q ?z "
        "FILTER (?z != ?o) } }",
        "SELECT ?s WHERE { ?s ex:p ?o MINUS { ?s ex:q ?z } }",
        "SELECT ?s WHERE { GRAPH ?g { ?s ex:p ?o } }",
        "SELECT ?x ?y WHERE { ?x ex:p+ ?y }",
        "SELECT ?x ?y WHERE { ?x (ex:p/ex:q)* ?y }",
        "SELECT ?x ?y WHERE { ?x (^ex:p|ex:q)? ?y }",
        "SELECT ?x ?y WHERE { ?x !(ex:p|^ex:q) ?y }",
        "SELECT ?x ?y WHERE { ?x ex:p{2,4} ?y }",
        "ASK { ?s ex:p ?o . FILTER (?o > 3) }",
        "SELECT ?s (COUNT(?o) AS ?n) WHERE { ?s ex:p ?o } GROUP BY ?s",
        "SELECT ?s WHERE { ?s ex:p ?o . ?s ex:q ?z . "
        "FILTER (BOUND(?o) && regex(?z, \"a\")) } ORDER BY ?s LIMIT 2"));

}  // namespace
}  // namespace sparqlog::core
