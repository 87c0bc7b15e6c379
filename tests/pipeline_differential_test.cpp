// Property-based differential testing: the SparqLog pipeline (T_D + T_Q +
// Datalog evaluation + T_S) must produce the same solution multisets as
// the W3C-faithful reference evaluator on randomly generated graphs and
// queries. This is the empirical half of the paper's two-way correctness
// strategy (§5.3) turned into an automated invariant.

#include <gtest/gtest.h>

#include "core/engine.h"
#include "eval/algebra_eval.h"
#include "quirks/stardog_sim.h"
#include "rdf/graph.h"
#include "rdf/turtle_parser.h"
#include "sparql/parser.h"
#include "util/hash.h"
#include "util/string_util.h"

namespace sparqlog {
namespace {

using eval::QueryResult;

/// Generates a random graph with `edges` edges over `nodes` nodes and up
/// to 3 predicates, with literals/self-loops/cycles mixed in.
void RandomGraph(uint64_t seed, size_t nodes, size_t edges,
                 rdf::Dataset* dataset) {
  // Rng(s + 1)'s stream is Rng(s)'s shifted by one draw, so consecutive
  // seeds would mostly replay each other's graphs; mix the seed first.
  Rng rng(Fmix64(seed));
  auto* dict = dataset->dict();
  auto node = [&](size_t i) {
    return dict->InternIri("http://r.org/n" + std::to_string(i));
  };
  std::vector<rdf::TermId> preds = {dict->InternIri("http://r.org/p"),
                                    dict->InternIri("http://r.org/q"),
                                    dict->InternIri("http://r.org/r")};
  for (size_t i = 0; i < edges; ++i) {
    rdf::TermId s = node(rng.Uniform(nodes));
    rdf::TermId p = preds[rng.Skewed(preds.size())];
    rdf::TermId o = rng.Chance(0.15)
                        ? dict->InternString("v" + std::to_string(
                                                 rng.Uniform(4)))
                        : node(rng.Uniform(nodes));
    dataset->default_graph().Add(s, p, o);
  }
  // A named graph with a small subset.
  rdf::TermId g = dict->InternIri("http://r.org/g1");
  dataset->named_graph(g).Add(node(0), preds[0], node(1));
  dataset->named_graph(g).Add(node(1), preds[1], node(2));
}

class DifferentialTest
    : public ::testing::TestWithParam<std::tuple<int, const char*>> {
 protected:
  void RunBoth(uint64_t seed, const std::string& query_text) {
    rdf::TermDictionary dict;
    rdf::Dataset dataset(&dict);
    RandomGraph(seed, 8, 24, &dataset);

    auto parsed = sparql::ParseQuery(
        "PREFIX r: <http://r.org/>\n" + query_text, &dict);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

    ExecContext ctx;
    eval::AlgebraEvaluator reference(dataset, &dict, &ctx);
    auto expected = reference.EvalQuery(*parsed);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();

    core::Engine engine(&dataset, &dict);
    ASSERT_TRUE(engine.Load().ok());
    auto got_exec = engine.Execute(*parsed);
    ASSERT_TRUE(got_exec.ok()) << got_exec.status().ToString();
    const eval::QueryResult* got = &got_exec->result;

    EXPECT_TRUE(got->SameSolutions(*expected))
        << "seed " << seed << "\nquery: " << query_text << "\nreference ("
        << expected->rows.size() << " rows):\n"
        << expected->ToString(dict, 30) << "\nsparqlog (" << got->rows.size()
        << " rows):\n"
        << got->ToString(dict, 30);

    // Cache differential: a second execution through the same engine must
    // hit the program cache (and any memoized strata) and reproduce the
    // cold run bit-identically — same rows, same order, same columns.
    auto warm_exec = engine.Execute(*parsed);
    ASSERT_TRUE(warm_exec.ok()) << warm_exec.status().ToString();
    const eval::QueryResult* warm = &warm_exec->result;
    EXPECT_EQ(got->columns, warm->columns) << query_text;
    EXPECT_TRUE(got->rows == warm->rows)
        << "warm run diverged, seed " << seed << "\nquery: " << query_text
        << "\ncold (" << got->rows.size() << " rows):\n"
        << got->ToString(dict, 30) << "\nwarm (" << warm->rows.size()
        << " rows):\n"
        << warm->ToString(dict, 30);
    EXPECT_EQ(warm->is_ask, got->is_ask);
    EXPECT_EQ(warm->ask_value, got->ask_value);
    EXPECT_EQ(engine.stats().program_hits, 1u) << query_text;

    // Planner differential: join_planner=false runs the exact pre-planner
    // pipeline (translation-order bodies, runtime join heuristic). The
    // planner must never change the solution multiset at any thread
    // count — and wherever ORDER BY pins row order, not the rows either.
    for (uint32_t threads : {1u, 2u, 8u}) {
      core::Engine::Options off;
      off.planner.join_planner = false;
      off.parallelism.num_threads = threads;
      core::Engine plain_engine(&dataset, &dict, off);
      ASSERT_TRUE(plain_engine.Load().ok());
      auto plain_exec = plain_engine.Execute(*parsed);
      ASSERT_TRUE(plain_exec.ok()) << plain_exec.status().ToString();
      const eval::QueryResult* plain = &plain_exec->result;
      EXPECT_EQ(plain->columns, got->columns) << query_text;
      EXPECT_EQ(plain->is_ask, got->is_ask);
      EXPECT_EQ(plain->ask_value, got->ask_value) << query_text;
      EXPECT_TRUE(plain->SameSolutions(*got))
          << "planner changed solutions, seed " << seed << " threads "
          << threads << "\nquery: " << query_text << "\nplanner-on ("
          << got->rows.size() << " rows):\n"
          << got->ToString(dict, 30) << "\nplanner-off ("
          << plain->rows.size() << " rows):\n"
          << plain->ToString(dict, 30);
      if (!parsed->order_by.empty()) {
        EXPECT_TRUE(plain->rows == got->rows)
            << "planner changed ORDER BY output, seed " << seed
            << " threads " << threads << "\nquery: " << query_text;
      }
    }
  }
};

TEST_P(DifferentialTest, PipelineMatchesReference) {
  auto [seed, query] = GetParam();
  RunBoth(static_cast<uint64_t>(seed), query);
}

constexpr const char* kQueries[] = {
    // Bag-semantics joins and projections.
    "SELECT ?a WHERE { ?a r:p ?b }",
    "SELECT ?b WHERE { ?a r:p ?b . ?b r:q ?c }",
    "SELECT * WHERE { ?a r:p ?b . ?b r:p ?c . ?c r:q ?d }",
    "SELECT DISTINCT ?a ?c WHERE { ?a r:p ?b . ?b r:p ?c }",
    // Optional, incl. nested and filtered.
    "SELECT * WHERE { ?a r:p ?b OPTIONAL { ?b r:q ?c } }",
    "SELECT * WHERE { ?a r:p ?b OPTIONAL { ?b r:q ?c . ?c r:p ?d } }",
    "SELECT * WHERE { ?a r:p ?b OPTIONAL { ?b r:q ?c FILTER (?c != ?a) } }",
    // Union with asymmetric domains.
    "SELECT * WHERE { { ?a r:p ?b } UNION { ?a r:q ?c } }",
    "SELECT ?v WHERE { { ?a r:p ?v } UNION { ?v r:q ?b } }",
    // Minus.
    "SELECT ?a ?b WHERE { ?a r:p ?b MINUS { ?a r:q ?c } }",
    "SELECT ?a WHERE { ?a r:p ?b MINUS { ?z r:r ?w } }",
    // Filters with three-valued logic.
    "SELECT ?a WHERE { ?a r:p ?b . FILTER (isIRI(?b)) }",
    "SELECT * WHERE { ?a r:p ?b OPTIONAL { ?b r:q ?c } "
    "FILTER (!BOUND(?c) || ?c = ?a) }",
    "SELECT ?a WHERE { ?a r:p ?b . FILTER (STR(?b) < STR(?a)) }",
    // Property paths, incl. the recursive forms and endpoints.
    "SELECT ?x ?y WHERE { ?x r:p/r:q ?y }",
    "SELECT ?x ?y WHERE { ?x (r:p|r:q) ?y }",
    "SELECT ?x ?y WHERE { ?x ^r:p ?y }",
    "SELECT ?x ?y WHERE { ?x r:p+ ?y }",
    "SELECT ?x ?y WHERE { ?x r:p* ?y }",
    "SELECT ?x ?y WHERE { ?x r:p? ?y }",
    "SELECT ?y WHERE { <http://r.org/n0> r:p+ ?y }",
    "SELECT ?x WHERE { ?x r:p* <http://r.org/n1> }",
    "SELECT ?y WHERE { <http://r.org/ghost> r:p* ?y }",
    "SELECT ?x ?y WHERE { ?x !(r:p) ?y }",
    "SELECT ?x ?y WHERE { ?x !(r:p|^r:q) ?y }",
    "SELECT ?x ?y WHERE { ?x (^r:p|r:q)+ ?y }",
    "SELECT ?x ?y WHERE { ?x r:p{2} ?y }",
    "SELECT ?x ?y WHERE { ?x r:p{0,2} ?y }",
    "SELECT ?x ?y WHERE { ?x r:p{2,} ?y }",
    "SELECT ?x ?z WHERE { ?x r:p+ ?y . ?y r:q ?z }",
    // Paths joined with patterns and modifiers.
    "SELECT DISTINCT ?x WHERE { ?x r:p* ?y . ?y r:q ?z }",
    "SELECT ?a ?b WHERE { ?a r:p ?b } ORDER BY ?b ?a LIMIT 5",
    "SELECT ?a WHERE { ?a r:p ?b } ORDER BY DESC(?a) OFFSET 2 LIMIT 3",
    // Graph patterns.
    "SELECT ?g ?s WHERE { GRAPH ?g { ?s r:p ?o } }",
    "SELECT ?s WHERE { GRAPH <http://r.org/g1> { ?s ?p ?o } }",
    // Ask.
    "ASK { ?a r:p ?b . ?b r:q ?c }",
    "ASK { <http://r.org/ghost> r:p ?b }",
};

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, DifferentialTest,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::ValuesIn(kQueries)),
    [](const ::testing::TestParamInfo<DifferentialTest::ParamType>& info) {
      return "seed" + std::to_string(std::get<0>(info.param)) + "_q" +
             std::to_string(info.index % (sizeof(kQueries) / sizeof(char*)));
    });

// DISTINCT must equal the deduplicated bag result (set-vs-bag coherence of
// the two translation variants).
TEST(SetBagCoherenceTest, DistinctEqualsDedupedBag) {
  for (uint64_t seed : {7u, 8u, 9u}) {
    rdf::TermDictionary dict;
    rdf::Dataset dataset(&dict);
    RandomGraph(seed, 6, 18, &dataset);
    core::Engine engine(&dataset, &dict);
    ASSERT_TRUE(engine.Load().ok());

    auto bag = engine.ExecuteText(
        "PREFIX r: <http://r.org/> SELECT ?a WHERE { ?a r:p ?b . ?b r:p ?c }");
    auto set = engine.ExecuteText(
        "PREFIX r: <http://r.org/> SELECT DISTINCT ?a WHERE "
        "{ ?a r:p ?b . ?b r:p ?c }");
    ASSERT_TRUE(bag.ok() && set.ok());
    auto rows = bag->result.SortedRows();
    rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
    EXPECT_EQ(rows, set->result.SortedRows()) << "seed " << seed;
  }
}

// Multiplicity check: projecting away a join variable multiplies
// solutions; compare counts against the reference on purpose-built data.
TEST(MultiplicityTest, ProjectionCountsMatchReference) {
  rdf::TermDictionary dict;
  rdf::Dataset dataset(&dict);
  auto iri = [&](const std::string& s) {
    return dict.InternIri("http://m.org/" + s);
  };
  // a -p-> b1..b3; each bi -q-> c: projecting ?a yields 3 duplicates.
  for (int i = 0; i < 3; ++i) {
    dataset.default_graph().Add(iri("a"), iri("p"),
                                iri("b" + std::to_string(i)));
    dataset.default_graph().Add(iri("b" + std::to_string(i)), iri("q"),
                                iri("c"));
  }
  core::Engine engine(&dataset, &dict);
  ASSERT_TRUE(engine.Load().ok());
  auto result = engine.ExecuteText(
      "PREFIX m: <http://m.org/> SELECT ?a WHERE { ?a m:p ?b . ?b m:q ?c }");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->result.rows.size(), 3u);
  for (const auto& row : result->result.rows) {
    EXPECT_EQ(dict.get(row[0]).lexical, "http://m.org/a");
  }
}

// Deep queries: node indices come from a counter, so predicate and
// Skolem-function names stay unique however deep the parse tree grows
// (a doubling scheme wraps a 64-bit index at depth 64). Each query runs
// on a 3-cycle under a 10 s timeout and must match the reference.
TEST(DeepQueryTest, LongPathsBgpsAndNestedOptionalsMatchReference) {
  rdf::TermDictionary dict;
  rdf::Dataset dataset(&dict);
  auto iri = [&](const std::string& s) {
    return dict.InternIri("http://d.org/" + s);
  };
  dataset.default_graph().Add(iri("a"), iri("p"), iri("b"));
  dataset.default_graph().Add(iri("b"), iri("p"), iri("c"));
  dataset.default_graph().Add(iri("c"), iri("p"), iri("a"));
  core::Engine::Options options;
  options.timeout = std::chrono::seconds(10);
  core::Engine engine(&dataset, &dict, options);
  ASSERT_TRUE(engine.Load().ok());

  auto sequence = [](int links) {
    std::string path = "d:p";
    for (int k = 1; k < links; ++k) path += "/d:p";
    return "SELECT ?x ?y WHERE { ?x " + path + " ?y }";
  };
  std::string bgp = "SELECT * WHERE {";
  for (int k = 0; k < 70; ++k) {
    bgp += " ?x" + std::to_string(k) + " d:p ?x" + std::to_string(k + 1) +
           " .";
  }
  bgp += " }";
  // 70 nested OPTIONALs: level k nests level k+1.
  std::string optionals;
  for (int k = 69; k >= 0; --k) {
    std::string triple = "?x" + std::to_string(k) + " d:p ?x" +
                         std::to_string(k + 1);
    optionals = optionals.empty() ? triple
                                  : triple + " OPTIONAL { " + optionals + " }";
  }
  const std::string queries[] = {sequence(64), sequence(65), sequence(200),
                                 bgp, "SELECT * WHERE { " + optionals + " }"};
  for (const std::string& query : queries) {
    auto parsed =
        sparql::ParseQuery("PREFIX d: <http://d.org/>\n" + query, &dict);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    ExecContext ctx;
    ctx.set_deadline_after(std::chrono::seconds(10));
    eval::AlgebraEvaluator reference(dataset, &dict, &ctx);
    auto expected = reference.EvalQuery(*parsed);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    auto got = engine.Execute(*parsed);
    ASSERT_TRUE(got.ok()) << got.status().ToString() << "\n"
                          << query.substr(0, 80);
    EXPECT_EQ(got->result.rows.size(), 3u) << query.substr(0, 80);
    EXPECT_TRUE(got->result.SameSolutions(*expected)) << query.substr(0, 80);
  }
}

// The ontology mode must agree with materialize-then-query on the same
// RDFS subset (cross-validation of two independent implementations).
TEST(OntologyCoherenceTest, DatalogRulesMatchMaterialization) {
  rdf::TermDictionary dict;
  rdf::Dataset dataset(&dict);
  auto st = rdf::ParseTurtle(R"(
    @prefix ex: <http://o.org/> .
    @prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
    @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
    ex:Cat rdfs:subClassOf ex:Animal .
    ex:Animal rdfs:subClassOf ex:Being .
    ex:hasPet rdfs:subPropertyOf ex:likes .
    ex:hasPet rdfs:range ex:Animal .
    ex:tom rdf:type ex:Cat .
    ex:ann ex:hasPet ex:tom .
    ex:ann ex:hasPet ex:felix .
  )",
                             &dataset);
  ASSERT_TRUE(st.ok());

  core::Engine::Options options;
  options.ontology = true;
  core::Engine engine(&dataset, &dict, options);
  ASSERT_TRUE(engine.Load().ok());

  quirks::StardogSim materializer(&dataset, &dict);
  ExecContext ctx;
  ASSERT_TRUE(materializer.Materialize(&ctx).ok());

  const char* queries[] = {
      "PREFIX ex: <http://o.org/> PREFIX rdf: "
      "<http://www.w3.org/1999/02/22-rdf-syntax-ns#> "
      "SELECT ?x WHERE { ?x rdf:type ex:Being }",
      "PREFIX ex: <http://o.org/> SELECT ?a ?b WHERE { ?a ex:likes ?b }",
      "PREFIX ex: <http://o.org/> PREFIX rdf: "
      "<http://www.w3.org/1999/02/22-rdf-syntax-ns#> "
      "SELECT DISTINCT ?x WHERE { ?x rdf:type ex:Animal }",
  };
  for (const char* q : queries) {
    auto parsed = sparql::ParseQuery(q, &dict);
    ASSERT_TRUE(parsed.ok());
    auto via_rules = engine.Execute(*parsed);
    auto via_materialization = materializer.Execute(*parsed, &ctx);
    ASSERT_TRUE(via_rules.ok()) << via_rules.status().ToString();
    ASSERT_TRUE(via_materialization.ok());
    EXPECT_TRUE(via_rules->result.SameSolutions(*via_materialization)) << q;
  }
}

}  // namespace
}  // namespace sparqlog
