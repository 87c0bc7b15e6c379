// Integration tests on the paper's running examples: the OPTIONAL query of
// Figure 1/2 (film directors) and the property path query of Figure 3/4
// (reachable countries), executed through the full SparqLog pipeline
// (T_D -> T_Q -> Datalog evaluation -> T_S) and cross-checked against the
// reference algebra evaluator.

#include <gtest/gtest.h>

#include "core/engine.h"
#include "eval/algebra_eval.h"
#include "rdf/turtle_parser.h"
#include "sparql/parser.h"

namespace sparqlog {
namespace {

using core::Engine;
using eval::QueryResult;

class PaperExamplesTest : public ::testing::Test {
 protected:
  PaperExamplesTest() : dataset_(&dict_) {}

  void LoadTurtle(const std::string& ttl) {
    auto st = rdf::ParseTurtle(ttl, &dataset_);
    ASSERT_TRUE(st.ok()) << st.ToString();
  }

  QueryResult RunSparqLog(const std::string& query) {
    Engine engine(&dataset_, &dict_);
    EXPECT_TRUE(engine.Load().ok());
    auto result = engine.ExecuteText(query);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::move(std::move(result).ValueOrDie().result);
  }

  QueryResult RunReference(const std::string& query) {
    auto parsed = sparql::ParseQuery(query, &dict_);
    EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
    ExecContext ctx;
    eval::AlgebraEvaluator ref(dataset_, &dict_, &ctx);
    auto result = ref.EvalQuery(*parsed);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::move(result).ValueOrDie();
  }

  rdf::TermDictionary dict_;
  rdf::Dataset dataset_;
};

constexpr char kDirectorsTurtle[] = R"(
@prefix ex: <http://ex.org/> .
ex:glucas ex:name "George" .
ex:glucas ex:lastname "Lucas" .
_:b1 ex:name "Steven" .
)";

TEST_F(PaperExamplesTest, Figure1OptionalQuery) {
  LoadTurtle(kDirectorsTurtle);
  const std::string query = R"(
    PREFIX ex: <http://ex.org/>
    SELECT ?N ?L
    WHERE { ?X ex:name ?N . OPTIONAL { ?X ex:lastname ?L } }
    ORDER BY ?N
  )";
  QueryResult got = RunSparqLog(query);
  ASSERT_EQ(got.columns, (std::vector<std::string>{"N", "L"}));
  ASSERT_EQ(got.rows.size(), 2u);
  // Sorted by ?N: "George" (with "Lucas") before "Steven" (unbound ?L).
  EXPECT_EQ(dict_.get(got.rows[0][0]).lexical, "George");
  EXPECT_EQ(dict_.get(got.rows[0][1]).lexical, "Lucas");
  EXPECT_EQ(dict_.get(got.rows[1][0]).lexical, "Steven");
  EXPECT_EQ(got.rows[1][1], rdf::TermDictionary::kUndef);

  QueryResult ref = RunReference(query);
  EXPECT_TRUE(got.SameSolutions(ref));
}

constexpr char kCountriesTurtle[] = R"(
@prefix ex: <http://ex.org/> .
ex:spain ex:borders ex:france .
ex:france ex:borders ex:belgium .
ex:france ex:borders ex:germany .
ex:belgium ex:borders ex:germany .
ex:germany ex:borders ex:austria .
)";

TEST_F(PaperExamplesTest, Figure3PropertyPathQuery) {
  LoadTurtle(kCountriesTurtle);
  const std::string query = R"(
    PREFIX ex: <http://ex.org/>
    SELECT ?B
    WHERE { ?A ex:borders+ ?B . FILTER (?A = ex:spain) }
  )";
  QueryResult got = RunSparqLog(query);
  ASSERT_EQ(got.columns, (std::vector<std::string>{"B"}));
  // {france, germany, austria, belgium}: one-or-more paths have set
  // semantics, so germany (reachable via two routes) appears once.
  std::set<std::string> names;
  for (const auto& row : got.rows) names.insert(dict_.get(row[0]).lexical);
  EXPECT_EQ(got.rows.size(), 4u);
  EXPECT_EQ(names, (std::set<std::string>{
                       "http://ex.org/france", "http://ex.org/germany",
                       "http://ex.org/austria", "http://ex.org/belgium"}));

  QueryResult ref = RunReference(query);
  EXPECT_TRUE(got.SameSolutions(ref));
}

TEST_F(PaperExamplesTest, TranslationRendersLikeFigure2) {
  LoadTurtle(kDirectorsTurtle);
  Engine engine(&dataset_, &dict_);
  auto text = engine.TranslateToText(R"(
    PREFIX ex: <http://ex.org/>
    SELECT ?N ?L
    WHERE { ?X ex:name ?N . OPTIONAL { ?X ex:lastname ?L } }
    ORDER BY ?N
  )");
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  // Structural spot checks against Figure 2.
  EXPECT_NE(text->find("ans1("), std::string::npos);
  EXPECT_NE(text->find("ans_opt1("), std::string::npos);
  EXPECT_NE(text->find("not ans_opt1("), std::string::npos);
  // Both joins bind ?X certainly (a triple pattern on each side of the
  // OPTIONAL), so neither needs the null-aware comp of Def A.2.
  EXPECT_EQ(text->find("comp("), std::string::npos) << *text;
  EXPECT_NE(text->find("@output(\"ans\")"), std::string::npos);
  EXPECT_NE(text->find("@post(\"ans\", \"orderby("), std::string::npos);
}

TEST_F(PaperExamplesTest, AskQueryForms) {
  LoadTurtle(kCountriesTurtle);
  QueryResult yes = RunSparqLog(
      "PREFIX ex: <http://ex.org/> ASK { ex:spain ex:borders ex:france }");
  EXPECT_TRUE(yes.is_ask);
  EXPECT_TRUE(yes.ask_value);
  QueryResult no = RunSparqLog(
      "PREFIX ex: <http://ex.org/> ASK { ex:spain ex:borders ex:austria }");
  EXPECT_TRUE(no.is_ask);
  EXPECT_FALSE(no.ask_value);
}

TEST_F(PaperExamplesTest, BagSemanticsPreservesDuplicates) {
  LoadTurtle(kCountriesTurtle);
  // Projecting away ?A leaves duplicate ?B bindings (france and belgium
  // both border germany): bag semantics must keep both.
  QueryResult got = RunSparqLog(
      "PREFIX ex: <http://ex.org/> SELECT ?B WHERE { ?A ex:borders ?B }");
  EXPECT_EQ(got.rows.size(), 5u);
  QueryResult distinct = RunSparqLog(
      "PREFIX ex: <http://ex.org/> SELECT DISTINCT ?B WHERE "
      "{ ?A ex:borders ?B }");
  EXPECT_EQ(distinct.rows.size(), 4u);
}

}  // namespace
}  // namespace sparqlog
