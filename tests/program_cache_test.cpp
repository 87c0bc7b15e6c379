// Tests for the query-shape program cache and the memoized stratum
// results: shape-key canonicalization (alpha-renamed queries collide,
// structurally different queries don't, constants lift into parameter
// slots preserving their equality pattern), LRU eviction order, the
// engine's cache stats counters, re-binding correctness (including
// constants inside FILTER expressions, VALUES data blocks, and the
// ambient-collision refusal in ontology mode), and dataset-generation
// invalidation after graph mutation.

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/program_cache.h"
#include "rdf/turtle_parser.h"
#include "sparql/parser.h"
#include "sparql/shape.h"

namespace sparqlog {
namespace {

sparql::Query Parse(const std::string& text, rdf::TermDictionary* dict,
                    bool extensions = false) {
  sparql::ParserOptions popts;
  popts.extensions = extensions;
  auto q = sparql::ParseQuery("PREFIX ex: <http://ex.org/>\n" + text, dict,
                              popts);
  EXPECT_TRUE(q.ok()) << text << "\n" << q.status().ToString();
  return std::move(q).ValueOrDie();
}

sparql::QueryShape Shape(const std::string& text, rdf::TermDictionary* dict,
                         bool extensions = false) {
  return sparql::ComputeQueryShape(Parse(text, dict, extensions));
}

// --- Shape-key canonicalization -------------------------------------------

TEST(QueryShapeTest, AlphaRenamedQueriesCollide) {
  rdf::TermDictionary dict;
  auto a = Shape("SELECT ?a ?b WHERE { ?a ex:p ?b . ?b ex:q ?c }", &dict);
  // Order-preserving alpha-renaming: a<b<c and u<v<w.
  auto b = Shape("SELECT ?u ?v WHERE { ?u ex:p ?v . ?v ex:q ?w }", &dict);
  EXPECT_EQ(a.key, b.key);
  EXPECT_EQ(a.params, b.params);
  // Different variable spellings are data, not shape.
  EXPECT_NE(a.data_key, b.data_key);
}

TEST(QueryShapeTest, StructurallyDifferentQueriesDiffer) {
  rdf::TermDictionary dict;
  auto base = Shape("SELECT ?a WHERE { ?a ex:p ?b }", &dict);
  const char* variants[] = {
      "SELECT ?a WHERE { ?a ex:p ?b . ?b ex:p ?c }",
      "SELECT ?a WHERE { ?a ex:p ?b OPTIONAL { ?b ex:q ?c } }",
      "SELECT ?a WHERE { { ?a ex:p ?b } UNION { ?a ex:q ?b } }",
      "SELECT ?a WHERE { ?a ex:p+ ?b }",
      "SELECT DISTINCT ?a WHERE { ?a ex:p ?b }",
      "SELECT ?a WHERE { ?a ex:p ?b FILTER (isIRI(?b)) }",
      "ASK { ?a ex:p ?b }",
      "SELECT ?a WHERE { ?a ex:p ?b } ORDER BY ?a",
  };
  for (const char* v : variants) {
    EXPECT_NE(base.key, Shape(v, &dict).key) << v;
  }
}

TEST(QueryShapeTest, ConstantsLiftIntoParameters) {
  rdf::TermDictionary dict;
  auto a = Shape("SELECT ?x WHERE { ?x ex:p ex:n1 }", &dict);
  auto b = Shape("SELECT ?x WHERE { ?x ex:q ex:n2 }", &dict);
  EXPECT_EQ(a.key, b.key);
  EXPECT_NE(a.params, b.params);
  ASSERT_EQ(a.params.size(), 2u);  // predicate + object
  EXPECT_NE(a.data_key, b.data_key);
}

TEST(QueryShapeTest, ConstantEqualityPatternIsStructural) {
  rdf::TermDictionary dict;
  // Same constant twice vs. two distinct constants: different shapes
  // (the translation of e.g. zero-length paths depends on it).
  auto same = Shape("SELECT ?x WHERE { ex:a ex:p ex:a }", &dict);
  auto diff = Shape("SELECT ?x WHERE { ex:a ex:p ex:b }", &dict);
  EXPECT_NE(same.key, diff.key);
  EXPECT_EQ(same.params.size(), 2u);
  EXPECT_EQ(diff.params.size(), 3u);
}

TEST(QueryShapeTest, JoinOrderIsNormalizedAway) {
  rdf::TermDictionary dict;
  auto a = Shape("SELECT ?x ?z WHERE { ?x ex:p ?y . ?y ex:q ?z }", &dict);
  // Same conjuncts, written in the other order: one shape, and because
  // names and constants are identical, one data_key too (verbatim reuse).
  auto b = Shape("SELECT ?x ?z WHERE { ?y ex:q ?z . ?x ex:p ?y }", &dict);
  EXPECT_EQ(a.key, b.key);
  EXPECT_EQ(a.params, b.params);
  EXPECT_EQ(a.data_key, b.data_key);
  // Re-association through a group flattens to the same conjunct list.
  auto c = Shape(
      "SELECT ?x ?z WHERE { { ?y ex:q ?z . ?x ex:p ?y } . ?x ex:r ?w }",
      &dict);
  auto d = Shape(
      "SELECT ?x ?z WHERE { ?x ex:r ?w . { ?x ex:p ?y . ?y ex:q ?z } }",
      &dict);
  EXPECT_EQ(c.key, d.key);
  EXPECT_EQ(c.data_key, d.data_key);
  EXPECT_NE(a.key, c.key);
}

TEST(QueryShapeTest, JoinNormalizationAlignsParameterSlots) {
  rdf::TermDictionary dict;
  auto a = Shape("SELECT ?x ?z WHERE { ?x ex:p ?y . ?y ex:q ?z }", &dict);
  // Permuted conjuncts with different constants: same shape, and the
  // parameter slots follow the canonical (sorted) traversal, so slot i
  // means the same syntactic position in both — re-binding stays sound.
  auto b = Shape("SELECT ?x ?z WHERE { ?y ex:q2 ?z . ?x ex:p2 ?y }", &dict);
  EXPECT_EQ(a.key, b.key);
  ASSERT_EQ(a.params.size(), 2u);
  ASSERT_EQ(b.params.size(), 2u);
  // Slot 0 is the ?x-conjunct predicate in both (concrete keys sort the
  // ?x conjunct first), slot 1 the ?y-conjunct predicate.
  EXPECT_EQ(a.params[0], dict.InternIri("http://ex.org/p"));
  EXPECT_EQ(b.params[0], dict.InternIri("http://ex.org/p2"));
  EXPECT_EQ(a.params[1], dict.InternIri("http://ex.org/q"));
  EXPECT_EQ(b.params[1], dict.InternIri("http://ex.org/q2"));
}

TEST(QueryShapeTest, OrderPermutingRenamingsCollide) {
  rdf::TermDictionary dict;
  auto a = Shape("SELECT ?x ?y WHERE { ?x ex:p ?y }", &dict);
  // ?b sorts before ?a: the renaming permutes the lexicographic name
  // order, which used to be part of the key (a conservative miss).
  auto b = Shape("SELECT ?b ?a WHERE { ?b ex:p ?a }", &dict);
  EXPECT_EQ(a.key, b.key);
  EXPECT_NE(a.data_key, b.data_key);
  // The spellings ride along by canonical ordinal for re-binding.
  EXPECT_EQ(a.var_names, (std::vector<std::string>{"x", "y"}));
  EXPECT_EQ(b.var_names, (std::vector<std::string>{"b", "a"}));
}

TEST(QueryShapeTest, LimitOffsetAreDataNotShape) {
  rdf::TermDictionary dict;
  auto a = Shape("SELECT ?x WHERE { ?x ex:p ?y } LIMIT 5", &dict);
  auto b = Shape("SELECT ?x WHERE { ?x ex:p ?y } LIMIT 7", &dict);
  auto c = Shape("SELECT ?x WHERE { ?x ex:p ?y }", &dict);
  EXPECT_EQ(a.key, b.key);
  EXPECT_EQ(a.key, c.key);
  EXPECT_NE(a.data_key, b.data_key);
  EXPECT_NE(a.data_key, c.data_key);
}

// --- LRU eviction ----------------------------------------------------------

TEST(ProgramCacheTest, EvictsLeastRecentlyUsed) {
  core::ProgramCache cache(2);
  auto entry = [] {
    core::ProgramCache::Entry e;
    e.program = std::make_shared<const datalog::Program>();
    return e;
  };
  sparql::QueryShape a, b, c, d;
  a.key = "a";
  b.key = "b";
  c.key = "c";
  d.key = "d";
  cache.Insert(a, entry());
  cache.Insert(b, entry());
  EXPECT_EQ(cache.size(), 2u);
  cache.Insert(c, entry());  // evicts a (oldest)
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_FALSE(cache.Lookup(a).has_value());
  EXPECT_TRUE(cache.Lookup(b).has_value());  // promotes b over c
  cache.Insert(d, entry());                  // evicts c, not the promoted b
  EXPECT_EQ(cache.evictions(), 2u);
  EXPECT_FALSE(cache.Lookup(c).has_value());
  EXPECT_TRUE(cache.Lookup(b).has_value());
  EXPECT_TRUE(cache.Lookup(d).has_value());
}

// --- Engine-level stats + re-binding correctness ---------------------------

class ProgramCacheEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dataset_ = std::make_unique<rdf::Dataset>(&dict_);
    ASSERT_TRUE(rdf::ParseTurtle(R"(
      @prefix ex: <http://ex.org/> .
      ex:a ex:p ex:b . ex:b ex:p ex:c . ex:c ex:p ex:d .
      ex:a ex:q ex:c . ex:b ex:q ex:d .
      ex:a ex:name "alice" . ex:b ex:name "bob" .
    )",
                                 dataset_.get())
                    .ok());
  }

  eval::QueryResult Exec(core::Engine& engine, const std::string& text) {
    if (!engine.loaded()) {
      Status st = engine.Load();
      EXPECT_TRUE(st.ok()) << st.ToString();
    }
    auto r = engine.ExecuteText("PREFIX ex: <http://ex.org/>\n" + text);
    EXPECT_TRUE(r.ok()) << text << "\n" << r.status().ToString();
    return std::move(r).ValueOrDie().result;
  }

  rdf::TermDictionary dict_;
  std::unique_ptr<rdf::Dataset> dataset_;
};

TEST_F(ProgramCacheEngineTest, StatsCountHitsRebindsMisses) {
  core::Engine engine(dataset_.get(), &dict_);
  auto r1 = Exec(engine, "SELECT ?x ?y WHERE { ?x ex:p ?y }");
  EXPECT_EQ(engine.stats().program_misses, 1u);

  auto r2 = Exec(engine, "SELECT ?x ?y WHERE { ?x ex:p ?y }");
  EXPECT_EQ(engine.stats().program_hits, 1u);
  EXPECT_EQ(r1.rows, r2.rows);
  EXPECT_EQ(r1.columns, r2.columns);

  // Same shape, different constant: re-bind.
  auto r3 = Exec(engine, "SELECT ?x ?y WHERE { ?x ex:q ?y }");
  EXPECT_EQ(engine.stats().program_rebinds, 1u);
  EXPECT_EQ(r3.rows.size(), 2u);

  // Order-preserving alpha-renaming: re-bind, renamed output columns.
  auto r4 = Exec(engine, "SELECT ?u ?v WHERE { ?u ex:p ?v }");
  EXPECT_EQ(engine.stats().program_rebinds, 2u);
  EXPECT_EQ(r4.columns, (std::vector<std::string>{"u", "v"}));
  EXPECT_EQ(r4.rows, r1.rows);

  // Different shape: miss.
  Exec(engine, "SELECT ?x WHERE { ?x ex:p ?y . ?y ex:p ?z }");
  EXPECT_EQ(engine.stats().program_misses, 2u);

  // Stratum memo engaged on the repeats.
  EXPECT_GT(engine.stats().stratum_hits, 0u);
}

// The translator decides tuple IDs and comp joins from which variables
// are blank nodes, projected or certainly bound, so those are all shape:
// a cached program is never re-bound across them.
TEST(QueryShapeTest, BlankNodesAreNotVariables) {
  rdf::TermDictionary dict;
  auto var = Shape("SELECT * WHERE { ?x ex:p ?b }", &dict);
  auto blank = Shape("SELECT * WHERE { ?x ex:p _:b }", &dict);
  auto anon = Shape("SELECT * WHERE { ?x ex:p [] }", &dict);
  EXPECT_NE(var.key, blank.key);
  EXPECT_NE(var.key, anon.key);
  EXPECT_EQ(blank.key, anon.key);  // both one fresh blank node
}

TEST_F(ProgramCacheEngineTest, BlankNodeAndVariableNeverShareAProgram) {
  core::Engine engine(dataset_.get(), &dict_);
  // ?b is projected: one row per triple. _:b is not: ex:a's two ex:p/ex:q
  // objects still make two rows, so SELECT * needs the dropped column.
  auto named = Exec(engine, "SELECT * WHERE { ?x ex:p ?b }");
  auto blank = Exec(engine, "SELECT * WHERE { ?x ex:p _:b }");
  auto anon = Exec(engine, "SELECT * WHERE { ?x ex:q [] }");
  EXPECT_EQ(named.columns, (std::vector<std::string>{"b", "x"}));
  EXPECT_EQ(blank.columns, (std::vector<std::string>{"x"}));
  EXPECT_EQ(named.rows.size(), 3u);
  EXPECT_EQ(blank.rows.size(), 3u);
  EXPECT_EQ(anon.rows.size(), 2u);
  EXPECT_EQ(engine.stats().program_misses, 2u);
  EXPECT_EQ(engine.stats().program_rebinds, 1u);
  auto again = Exec(engine, "SELECT * WHERE { ?y ex:q ?b }");
  EXPECT_EQ(again.columns, (std::vector<std::string>{"b", "y"}));
  // OPTIONAL-then-join (comp) and a plain join differ in shape too.
  auto opt = Exec(engine,
                  "SELECT ?x WHERE { ?x ex:p ?y OPTIONAL { ?y ex:q ?z } "
                  "?z ex:p ?w }");
  auto plain = Exec(engine, "SELECT ?x WHERE { ?x ex:p ?y . ?y ex:q ?z . "
                            "?z ex:p ?w }");
  // ex:b and ex:c have no ex:q, so their ?z stays unbound and joins
  // every ex:p triple (3 each); the plain join finds no ?z ex:p ?w.
  EXPECT_EQ(opt.rows.size(), 6u);
  EXPECT_EQ(plain.rows.size(), 0u);
}

TEST_F(ProgramCacheEngineTest, JoinPermutationHitsAndAnswersCorrectly) {
  core::Engine engine(dataset_.get(), &dict_);
  auto r1 = Exec(engine, "SELECT ?x ?z WHERE { ?x ex:p ?y . ?y ex:q ?z }");
  EXPECT_EQ(engine.stats().program_misses, 1u);
  // The permuted spelling is a verbatim hit (same key, same data_key) and
  // the cached program's solutions are the permuted query's solutions.
  auto r2 = Exec(engine, "SELECT ?x ?z WHERE { ?y ex:q ?z . ?x ex:p ?y }");
  EXPECT_EQ(engine.stats().program_hits, 1u);
  EXPECT_EQ(engine.stats().program_misses, 1u);
  EXPECT_EQ(r1.columns, r2.columns);
  EXPECT_EQ(r1.rows, r2.rows);
  // Permuted *and* re-parameterized: a re-bind, cross-checked against a
  // cache-less engine.
  auto r3 = Exec(engine, "SELECT ?x ?z WHERE { ?y ex:p ?z . ?x ex:q ?y }");
  EXPECT_EQ(engine.stats().program_rebinds, 1u);
  core::Engine::Options cold_opts;
  cold_opts.caching.program_cache = false;
  cold_opts.caching.stratum_memo = false;
  core::Engine cold(dataset_.get(), &dict_, cold_opts);
  auto fresh = Exec(cold, "SELECT ?x ?z WHERE { ?y ex:p ?z . ?x ex:q ?y }");
  EXPECT_TRUE(r3.SameSolutions(fresh));
}

// Rows keyed by column *name* (SameSolutions is positional; permuted
// renamings may legitimately lay columns out differently).
std::multiset<std::vector<std::pair<std::string, rdf::TermId>>> NamedRows(
    const eval::QueryResult& r) {
  std::multiset<std::vector<std::pair<std::string, rdf::TermId>>> out;
  for (const auto& row : r.rows) {
    std::vector<std::pair<std::string, rdf::TermId>> named;
    for (size_t i = 0; i < r.columns.size() && i < row.size(); ++i) {
      named.emplace_back(r.columns[i], row[i]);
    }
    std::sort(named.begin(), named.end());
    out.insert(std::move(named));
  }
  return out;
}

TEST_F(ProgramCacheEngineTest, OrderPermutingRenamingRebindsCorrectly) {
  core::Engine engine(dataset_.get(), &dict_);
  auto r1 = Exec(engine, "SELECT ?x ?y WHERE { ?x ex:p ?y } ORDER BY ?y");
  EXPECT_EQ(engine.stats().program_misses, 1u);
  // ?b < ?a: the renaming permutes the sorted variable layout the
  // translation uses internally. Must re-bind (names are data), not miss.
  auto r2 = Exec(engine, "SELECT ?b ?a WHERE { ?b ex:p ?a } ORDER BY ?a");
  EXPECT_EQ(engine.stats().program_misses, 1u);
  EXPECT_EQ(engine.stats().program_rebinds, 1u);
  EXPECT_EQ(r2.columns, (std::vector<std::string>{"b", "a"}));
  // SELECT lists align canonically, so the rows agree positionally too.
  EXPECT_EQ(r1.rows, r2.rows);
}

TEST_F(ProgramCacheEngineTest, PermutedRenamingSelectStarMatchesCold) {
  core::Engine engine(dataset_.get(), &dict_);
  // SELECT * lays columns out in each query's own sorted name order —
  // exactly the layout a permuted renaming disturbs.
  Exec(engine, "SELECT * WHERE { ?u ex:p ?t }");
  auto warm = Exec(engine, "SELECT * WHERE { ?a ex:p ?z }");
  EXPECT_EQ(engine.stats().program_rebinds, 1u);
  core::Engine::Options cold_opts;
  cold_opts.caching.program_cache = false;
  cold_opts.caching.stratum_memo = false;
  core::Engine cold(dataset_.get(), &dict_, cold_opts);
  auto fresh = Exec(cold, "SELECT * WHERE { ?a ex:p ?z }");
  EXPECT_EQ(NamedRows(warm), NamedRows(fresh));
}

TEST_F(ProgramCacheEngineTest, PermutedRenamingAggregateMatchesCold) {
  core::Engine engine(dataset_.get(), &dict_);
  // The aggregate path reads the pattern root laid out in sorted pattern
  // variables; the permuted renaming must not scramble group keys.
  auto r1 = Exec(engine,
                 "SELECT ?y (COUNT(?x) AS ?n) WHERE { ?x ex:p ?y } "
                 "GROUP BY ?y");
  auto r2 = Exec(engine,
                 "SELECT ?b (COUNT(?c) AS ?n) WHERE { ?c ex:p ?b } "
                 "GROUP BY ?b");
  EXPECT_EQ(engine.stats().program_misses, 1u);
  EXPECT_EQ(engine.stats().program_rebinds, 1u);
  core::Engine::Options cold_opts;
  cold_opts.caching.program_cache = false;
  cold_opts.caching.stratum_memo = false;
  core::Engine cold(dataset_.get(), &dict_, cold_opts);
  auto fresh = Exec(cold,
                    "SELECT ?b (COUNT(?c) AS ?n) WHERE { ?c ex:p ?b } "
                    "GROUP BY ?b");
  EXPECT_EQ(NamedRows(r2), NamedRows(fresh));
  // The renaming only relabels columns; the solutions agree positionally.
  EXPECT_TRUE(r1.SameSolutions(r2));
}

TEST_F(ProgramCacheEngineTest, RebindReachesFilterExpressions) {
  core::Engine engine(dataset_.get(), &dict_);
  auto r1 = Exec(engine,
                 "SELECT ?x WHERE { ?x ex:p ?y FILTER (?y != ex:b) }");
  auto r2 = Exec(engine,
                 "SELECT ?x WHERE { ?x ex:p ?y FILTER (?y != ex:c) }");
  EXPECT_EQ(engine.stats().program_rebinds, 1u);
  EXPECT_EQ(r1.rows.size(), 2u);  // b->c and c->d survive
  EXPECT_EQ(r2.rows.size(), 2u);  // a->b and c->d survive
  EXPECT_NE(r1.rows, r2.rows);

  // Fresh-engine cross-check: the re-bound program answers like a cold
  // translation.
  core::Engine::Options cold_opts;
  cold_opts.caching.program_cache = false;
  cold_opts.caching.stratum_memo = false;
  core::Engine cold(dataset_.get(), &dict_, cold_opts);
  auto fresh = Exec(cold, "SELECT ?x WHERE { ?x ex:p ?y FILTER (?y != ex:c) }");
  EXPECT_TRUE(r2.SameSolutions(fresh));
}

TEST_F(ProgramCacheEngineTest, RebindReachesValuesFacts) {
  core::Engine::Options options;
  options.extensions = true;
  core::Engine engine(dataset_.get(), &dict_, options);
  auto r1 = Exec(engine,
                 "SELECT ?x ?y WHERE { VALUES ?x { ex:a ex:b } ?x ex:p ?y }");
  auto r2 = Exec(engine,
                 "SELECT ?x ?y WHERE { VALUES ?x { ex:b ex:c } ?x ex:p ?y }");
  EXPECT_EQ(engine.stats().program_rebinds, 1u);
  EXPECT_EQ(r1.rows.size(), 2u);
  EXPECT_EQ(r2.rows.size(), 2u);
  EXPECT_NE(r1.rows, r2.rows);
}

TEST_F(ProgramCacheEngineTest, RebindRefreshesLimitAndOrder) {
  core::Engine engine(dataset_.get(), &dict_);
  auto r1 = Exec(engine,
                 "SELECT ?x ?y WHERE { ?x ex:p ?y } ORDER BY ?y LIMIT 2");
  auto r2 = Exec(engine,
                 "SELECT ?x ?y WHERE { ?x ex:p ?y } ORDER BY ?y LIMIT 3");
  EXPECT_EQ(r1.rows.size(), 2u);
  EXPECT_EQ(r2.rows.size(), 3u);
  EXPECT_GE(engine.stats().program_rebinds, 1u);
  // Shared prefix under the shared ORDER BY.
  EXPECT_EQ(r1.rows[0], r2.rows[0]);
  EXPECT_EQ(r1.rows[1], r2.rows[1]);
}

TEST_F(ProgramCacheEngineTest, OntologyAmbientCollisionRetranslates) {
  // In ontology mode rdf:type is baked into the inference rules; a cached
  // template whose parameter *is* rdf:type must not be value-substituted.
  rdf::Dataset onto(&dict_);
  ASSERT_TRUE(rdf::ParseTurtle(R"(
    @prefix ex: <http://o.org/> .
    @prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
    @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
    ex:Cat rdfs:subClassOf ex:Animal .
    ex:tom rdf:type ex:Cat .
    ex:ann ex:likes ex:tom .
  )",
                               &onto)
                  .ok());
  core::Engine::Options options;
  options.ontology = true;
  core::Engine engine(&onto, &dict_, options);
  ASSERT_TRUE(engine.Load().ok());
  const std::string prefix =
      "PREFIX ex: <http://o.org/> "
      "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> ";
  auto typed = engine.ExecuteText(
      prefix + "SELECT ?x WHERE { ?x rdf:type ex:Animal }");
  ASSERT_TRUE(typed.ok());
  EXPECT_EQ(typed->result.rows.size(), 1u);  // tom, via subClassOf inference
  // Same shape (var, const, const), different predicate constant: the
  // rdf:type parameter collides with the ontology rules, so the engine
  // must re-translate rather than re-bind — and still answer correctly.
  auto likes =
      engine.ExecuteText(prefix + "SELECT ?x WHERE { ?x ex:likes ex:tom }");
  ASSERT_TRUE(likes.ok());
  EXPECT_EQ(likes->result.rows.size(), 1u);  // ann
  EXPECT_EQ(engine.stats().program_rebinds, 0u);
  EXPECT_EQ(engine.stats().program_misses, 2u);
  // And the inference rules survived: re-ask the typed query.
  auto typed2 = engine.ExecuteText(
      prefix + "SELECT ?x WHERE { ?x rdf:type ex:Animal }");
  ASSERT_TRUE(typed2.ok());
  EXPECT_EQ(typed2->result.rows, typed->result.rows);
}

// --- Dataset-generation invalidation ---------------------------------------

TEST_F(ProgramCacheEngineTest, GraphMutationInvalidatesEdbAndMemo) {
  core::Engine engine(dataset_.get(), &dict_);
  const std::string q = "SELECT ?x ?y WHERE { ?x ex:p+ ?y }";
  auto cold = Exec(engine, q);
  auto warm = Exec(engine, q);
  EXPECT_EQ(cold.rows, warm.rows);
  auto before = engine.stats();
  EXPECT_GT(before.stratum_hits, 0u);
  EXPECT_EQ(before.invalidations, 0u);

  // Mutate the dataset: the chain grows, so the closure must too.
  dataset_->default_graph().Add(dict_.InternIri("http://ex.org/d"),
                                dict_.InternIri("http://ex.org/p"),
                                dict_.InternIri("http://ex.org/e"));
  // In-flight queries keep the loaded snapshot; publishing the mutation
  // is an explicit second Load().
  auto stale = Exec(engine, q);
  EXPECT_EQ(stale.rows, warm.rows);
  ASSERT_TRUE(engine.Load().ok());
  auto after_mutation = Exec(engine, q);
  EXPECT_GT(after_mutation.rows.size(), warm.rows.size());
  auto stats = engine.stats();
  EXPECT_EQ(stats.invalidations, 1u);
  // The post-mutation run re-derived its strata (memo was cleared)...
  EXPECT_GT(stats.stratum_misses, before.stratum_misses);
  // ...and a repeat of it hits the rebuilt memo, bit-identically.
  auto warm2 = Exec(engine, q);
  EXPECT_EQ(after_mutation.rows, warm2.rows);
  EXPECT_GT(engine.stats().stratum_hits, stats.stratum_hits);
}

TEST_F(ProgramCacheEngineTest, TinyMemoBudgetEvictsButStaysCorrect) {
  core::Engine::Options options;
  options.caching.stratum_memo_bytes = 1;  // every snapshot overflows the budget
  core::Engine engine(dataset_.get(), &dict_, options);
  const std::string q = "SELECT ?x ?y WHERE { ?x ex:p+ ?y }";
  auto cold = Exec(engine, q);
  auto warm = Exec(engine, q);
  EXPECT_EQ(cold.rows, warm.rows);
  EXPECT_GT(engine.stats().stratum_evictions, 0u);
}

}  // namespace
}  // namespace sparqlog
