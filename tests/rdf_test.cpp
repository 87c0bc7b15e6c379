// Unit tests for the RDF substrate: term normalization, dictionary
// interning, graph indexes, dataset construction (FROM / FROM NAMED),
// the Turtle/TriG parser, and serialization round-trips.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <set>
#include <thread>
#include <tuple>
#include <vector>

#include "rdf/dictionary.h"
#include "rdf/graph.h"
#include "rdf/term.h"
#include "rdf/turtle_parser.h"
#include "rdf/writer.h"
#include "util/hash.h"

namespace sparqlog::rdf {
namespace {

TEST(TermTest, XsdStringNormalizesToSimpleLiteral) {
  Term a = Term::Literal("abc");
  Term b = Term::Literal("abc", std::string(xsd::kString));
  EXPECT_EQ(a, b);
  TermDictionary dict;
  EXPECT_EQ(dict.Intern(a), dict.Intern(b));
}

TEST(TermTest, LanguageTagLowercasedAndExclusive) {
  Term t = Term::Literal("chat", "", "EN");
  EXPECT_EQ(t.lang, "en");
  EXPECT_TRUE(t.datatype.empty());
}

TEST(TermTest, NumericCaching) {
  Term i = Term::Literal("42", std::string(xsd::kInteger));
  EXPECT_EQ(i.numeric_kind, NumericKind::kInteger);
  EXPECT_EQ(i.int_value, 42);
  Term d = Term::Literal("2.5", std::string(xsd::kDouble));
  EXPECT_EQ(d.numeric_kind, NumericKind::kDouble);
  EXPECT_DOUBLE_EQ(d.AsDouble(), 2.5);
  Term bad = Term::Literal("xyz", std::string(xsd::kInteger));
  EXPECT_EQ(bad.numeric_kind, NumericKind::kNone);
  Term plain = Term::Literal("42");
  EXPECT_FALSE(plain.is_numeric());  // plain literals are not numeric
}

TEST(TermTest, Rendering) {
  EXPECT_EQ(Term::Iri("http://x").ToString(), "<http://x>");
  EXPECT_EQ(Term::Blank("b1").ToString(), "_:b1");
  EXPECT_EQ(Term::Literal("a\"b").ToString(), "\"a\\\"b\"");
  EXPECT_EQ(Term::Literal("hi", "", "en").ToString(), "\"hi\"@en");
  EXPECT_EQ(Term::Literal("5", std::string(xsd::kInteger)).ToString(),
            "\"5\"^^<http://www.w3.org/2001/XMLSchema#integer>");
  EXPECT_EQ(Term::Undef().ToString(), "UNDEF");
}

TEST(DictionaryTest, InternIsIdempotent) {
  TermDictionary dict;
  TermId a = dict.InternIri("http://x");
  TermId b = dict.InternIri("http://x");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, TermDictionary::kUndef);
  EXPECT_EQ(dict.get(a).lexical, "http://x");
}

TEST(DictionaryTest, UndefIsSlotZero) {
  TermDictionary dict;
  EXPECT_EQ(dict.size(), 1u);
  EXPECT_TRUE(dict.get(TermDictionary::kUndef).is_undef());
}

TEST(DictionaryTest, DistinctKindsDistinctIds) {
  TermDictionary dict;
  TermId iri = dict.InternIri("x");
  TermId lit = dict.InternLiteral("x");
  TermId bn = dict.InternBlank("x");
  EXPECT_NE(iri, lit);
  EXPECT_NE(lit, bn);
  EXPECT_NE(iri, bn);
}

// Interning by Term and by string_view agree on each RDF 1.1 spelling
// that names one term, and the stored term is the normalized spelling.
TEST(DictionaryTest, NormalizedSpellingsShareOneIdByTermAndByView) {
  TermDictionary dict;
  const std::string xsd_string(xsd::kString);
  const std::string xsd_integer(xsd::kInteger);

  const TermId abc = dict.InternLiteral("abc");
  EXPECT_EQ(dict.InternLiteral("abc", xsd::kString), abc);
  EXPECT_EQ(dict.InternString("abc"), abc);
  EXPECT_EQ(dict.Intern(Term::Literal("abc", xsd_string)), abc);
  Term unnormalized;  // not built through Term::Literal
  unnormalized.kind = TermKind::kLiteral;
  unnormalized.lexical = "abc";
  unnormalized.datatype = xsd_string;
  EXPECT_EQ(dict.Intern(unnormalized), abc);
  EXPECT_EQ(dict.Lookup(unnormalized), abc);
  EXPECT_TRUE(dict.get(abc).datatype.empty());

  const TermId en = dict.InternLiteral("x", "", "EN");
  EXPECT_EQ(dict.InternLiteral("x", "", "en"), en);
  EXPECT_EQ(dict.Intern(Term::Literal("x", "", "eN")), en);
  EXPECT_EQ(dict.Lookup(Term::Literal("x", "", "En")), en);
  EXPECT_EQ(dict.get(en).lang, "en");

  // A tag implies rdf:langString, whatever datatype comes with it.
  EXPECT_EQ(dict.InternLiteral("x", xsd::kInteger, "en"), en);
  EXPECT_EQ(dict.InternLiteral("x", xsd::kLangString, "EN"), en);
  EXPECT_EQ(dict.Intern(Term::Literal("x", xsd_integer, "En")), en);
  EXPECT_TRUE(dict.get(en).datatype.empty());

  // Different terms stay apart.
  const TermId plain = dict.InternLiteral("x");
  const TermId typed = dict.InternLiteral("x", xsd::kInteger);
  EXPECT_NE(plain, en);
  EXPECT_NE(typed, en);
  EXPECT_NE(typed, plain);
  EXPECT_NE(dict.InternLiteral("x", "", "en-gb"), en);
  EXPECT_EQ(dict.Intern(Term::Literal("x", xsd_integer)), typed);
  EXPECT_FALSE(dict.get(typed).is_numeric());  // "x" is no integer
  EXPECT_EQ(dict.Intern(Term()), TermDictionary::kUndef);
}

TEST(DictionaryTest, LookupWithoutInterning) {
  TermDictionary dict;
  EXPECT_FALSE(dict.Lookup(Term::Iri("http://nope")).has_value());
  TermId id = dict.InternIri("http://yes");
  EXPECT_EQ(*dict.Lookup(Term::Iri("http://yes")), id);
}

TEST(DictionaryTest, NumericHelpers) {
  TermDictionary dict;
  TermId i = dict.InternInteger(-3);
  EXPECT_EQ(dict.get(i).int_value, -3);
  TermId b = dict.InternBoolean(true);
  EXPECT_EQ(dict.get(b).lexical, "true");
  EXPECT_EQ(dict.get(b).datatype, xsd::kBoolean);
}

class GraphTest : public ::testing::Test {
 protected:
  GraphTest() {
    s_ = dict_.InternIri("s");
    p_ = dict_.InternIri("p");
    q_ = dict_.InternIri("q");
    o1_ = dict_.InternIri("o1");
    o2_ = dict_.InternIri("o2");
    graph_.Add(s_, p_, o1_);
    graph_.Add(s_, p_, o2_);
    graph_.Add(o1_, q_, o2_);
  }
  TermDictionary dict_;
  Graph graph_;
  TermId s_, p_, q_, o1_, o2_;
};

TEST_F(GraphTest, AddDeduplicates) {
  EXPECT_EQ(graph_.size(), 3u);
  EXPECT_FALSE(graph_.Add(s_, p_, o1_));
  EXPECT_EQ(graph_.size(), 3u);
}

TEST_F(GraphTest, MatchPatterns) {
  size_t n = 0;
  graph_.Match(s_, std::nullopt, std::nullopt, [&](const Triple&) { ++n; });
  EXPECT_EQ(n, 2u);
  n = 0;
  graph_.Match(std::nullopt, p_, o2_, [&](const Triple&) { ++n; });
  EXPECT_EQ(n, 1u);
  n = 0;
  graph_.Match(std::nullopt, std::nullopt, std::nullopt,
               [&](const Triple&) { ++n; });
  EXPECT_EQ(n, 3u);
  n = 0;
  graph_.Match(o2_, std::nullopt, std::nullopt, [&](const Triple&) { ++n; });
  EXPECT_EQ(n, 0u);
  // Fully bound.
  n = 0;
  graph_.Match(o1_, q_, o2_, [&](const Triple&) { ++n; });
  EXPECT_EQ(n, 1u);
}

TEST_F(GraphTest, SubjectsAndObjectsIsDeduplicatedAndIncremental) {
  const auto& nodes = graph_.SubjectsAndObjects();
  EXPECT_EQ(nodes.size(), 3u);  // s, o1, o2 (p/q are predicates only)
  graph_.Add(o2_, q_, dict_.InternIri("o3"));
  EXPECT_EQ(graph_.SubjectsAndObjects().size(), 4u);
}

TEST_F(GraphTest, Predicates) {
  auto preds = graph_.Predicates();
  EXPECT_EQ(preds.size(), 2u);
}

using TripleKey = std::tuple<TermId, TermId, TermId>;

TripleKey KeyOf(const Triple& t) { return {t.s, t.p, t.o}; }

/// Every read of `g` against a brute-force scan of `g.triples()`: Match
/// on all 8 bound/unbound patterns over every id of the universe (plus
/// one id no triple holds), WithSubject, WithPredicate, Predicates and
/// SubjectsAndObjects. Views keep insertion order, so sequences compare
/// exactly.
void ExpectReadsMatchScan(const Graph& g, TermId max_node, TermId max_pred,
                          const std::string& where) {
  const std::vector<Triple>& all = g.triples();
  auto scan = [&](std::optional<TermId> s, std::optional<TermId> p,
                  std::optional<TermId> o) {
    std::vector<TripleKey> out;
    for (const Triple& t : all) {
      if ((!s || t.s == *s) && (!p || t.p == *p) && (!o || t.o == *o)) {
        out.push_back(KeyOf(t));
      }
    }
    return out;
  };
  auto values = [](bool bound, TermId max) {
    std::vector<std::optional<TermId>> out;
    if (!bound) return std::vector<std::optional<TermId>>{std::nullopt};
    for (TermId v = 1; v <= max + 1; ++v) out.push_back(v);
    return out;
  };
  for (int mask = 0; mask < 8; ++mask) {
    for (auto s : values(mask & 1, max_node)) {
      for (auto p : values(mask & 2, max_pred)) {
        for (auto o : values(mask & 4, max_node)) {
          std::vector<TripleKey> got;
          g.Match(s, p, o, [&](const Triple& t) { got.push_back(KeyOf(t)); });
          ASSERT_EQ(got, scan(s, p, o)) << where << " pattern " << mask;
        }
      }
    }
  }
  for (TermId v = 1; v <= max_node + 1; ++v) {
    std::vector<TripleKey> got;
    for (const Triple& t : g.WithSubject(v)) got.push_back(KeyOf(t));
    ASSERT_EQ(got, scan(v, std::nullopt, std::nullopt)) << where;
  }
  std::set<TermId> preds;
  for (TermId v = 1; v <= max_pred + 1; ++v) {
    std::vector<TripleKey> got;
    for (const Triple& t : g.WithPredicate(v)) got.push_back(KeyOf(t));
    ASSERT_EQ(got, scan(std::nullopt, v, std::nullopt)) << where;
    if (!got.empty()) preds.insert(v);
  }
  std::vector<TermId> got_preds = g.Predicates();
  std::sort(got_preds.begin(), got_preds.end());
  ASSERT_EQ(got_preds, std::vector<TermId>(preds.begin(), preds.end()))
      << where;
  std::vector<TermId> nodes;
  std::set<TermId> seen;
  for (const Triple& t : all) {
    for (TermId n : {t.s, t.o}) {
      if (seen.insert(n).second) nodes.push_back(n);
    }
  }
  ASSERT_EQ(g.SubjectsAndObjects(), nodes) << where;
}

// Random Add / ApplyDelta (deletes, re-inserts, no-ops) / MergeFrom
// sequences: after each step the content equals a model set and every
// view-backed read equals a scan of triples().
TEST(GraphViewsTest, ReadsMatchAScanThroughMutations) {
  constexpr TermId kNodes = 6;
  constexpr TermId kPreds = 3;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(Fmix64(seed));
    auto random_triple = [&] {
      return Triple{static_cast<TermId>(1 + rng.Uniform(kNodes)),
                    static_cast<TermId>(1 + rng.Uniform(kPreds)),
                    static_cast<TermId>(1 + rng.Uniform(kNodes))};
    };
    Graph g;
    std::set<TripleKey> model;
    for (int step = 0; step < 40; ++step) {
      const std::string where =
          "seed " + std::to_string(seed) + " step " + std::to_string(step);
      const uint64_t before = g.version();
      size_t changes = 0;
      switch (rng.Uniform(4)) {
        case 0:
        case 1: {
          const Triple t = random_triple();
          const bool fresh = model.insert(KeyOf(t)).second;
          ASSERT_EQ(g.Add(t), fresh) << where;
          changes = fresh ? 1 : 0;
          break;
        }
        case 2: {
          // Deletes mix present and absent triples; inserts mix fresh
          // triples, present ones (no-ops) and just-deleted ones
          // (re-inserts).
          std::vector<Triple> deletes, inserts;
          for (uint64_t n = rng.Uniform(5); n > 0; --n) {
            deletes.push_back(random_triple());
          }
          if (!g.triples().empty() && rng.Chance(0.7)) {
            deletes.push_back(g.triples()[rng.Uniform(g.triples().size())]);
          }
          for (uint64_t n = rng.Uniform(4); n > 0; --n) {
            inserts.push_back(random_triple());
          }
          if (!deletes.empty() && rng.Chance(0.5)) {
            inserts.push_back(deletes[rng.Uniform(deletes.size())]);
          }
          size_t removed = 0, added = 0;
          for (const Triple& t : deletes) removed += model.erase(KeyOf(t));
          for (const Triple& t : inserts) {
            added += model.insert(KeyOf(t)).second ? 1 : 0;
          }
          const auto [got_added, got_removed] = g.ApplyDelta(inserts, deletes);
          ASSERT_EQ(got_added, added) << where;
          ASSERT_EQ(got_removed, removed) << where;
          changes = added + removed;
          break;
        }
        case 3: {
          Graph other;
          for (uint64_t n = rng.Uniform(4); n > 0; --n) {
            const Triple t = random_triple();
            other.Add(t);
            changes += model.insert(KeyOf(t)).second ? 1 : 0;
          }
          g.MergeFrom(other);
          break;
        }
      }
      ASSERT_EQ(g.version(), before + changes) << where;
      std::set<TripleKey> content;
      for (const Triple& t : g.triples()) content.insert(KeyOf(t));
      ASSERT_EQ(g.size(), model.size()) << where;
      ASSERT_EQ(content, model) << where;
      for (const TripleKey& k : model) {
        ASSERT_TRUE(g.Contains({std::get<0>(k), std::get<1>(k),
                                std::get<2>(k)}))
            << where;
      }
      ExpectReadsMatchScan(g, kNodes, kPreds, where);
      // A copy carries the triples but builds its own views.
      if (step % 10 == 9) ExpectReadsMatchScan(Graph(g), kNodes, kPreds, where);
    }
  }
}

// Several threads make the first view-building calls on a fresh graph
// (and on the same graph after a mutation dropped its views) at once;
// each must see complete views.
TEST(GraphViewsTest, ConcurrentFirstReadsSeeCompleteViews) {
  constexpr int kThreads = 4;
  constexpr TermId kNodes = 300;
  constexpr TermId kPreds = 5;
  Rng rng(Fmix64(7));
  Graph g;
  for (int i = 0; i < 3000; ++i) {
    g.Add(static_cast<TermId>(1 + rng.Uniform(kNodes)),
          static_cast<TermId>(1 + rng.Uniform(kPreds)),
          static_cast<TermId>(1 + rng.Uniform(kNodes)));
  }
  for (int round = 0; round < 3; ++round) {
    if (round == 1) g.Add(kNodes + 1, 1, kNodes + 2);     // drops the views
    if (round == 2) g.ApplyDelta({}, {g.triples()[0]});  // and the nodes
    std::vector<size_t> by_p(kPreds + 1, 0), by_s(kNodes + 3, 0);
    std::set<TermId> nodes;
    for (const Triple& t : g.triples()) {
      ++by_p[t.p];
      ++by_s[t.s];
      nodes.insert(t.s);
      nodes.insert(t.o);
    }
    std::atomic<int> ready{0};
    std::vector<int> errors(kThreads, 0);
    std::vector<std::thread> threads;
    for (int w = 0; w < kThreads; ++w) {
      threads.emplace_back([&, w] {
        ready.fetch_add(1);
        while (ready.load() < kThreads) {
        }
        for (TermId p = 1; p <= kPreds; ++p) {
          size_t n = 0;
          g.Match(std::nullopt, p, std::nullopt, [&](const Triple&) { ++n; });
          if (n != by_p[p] || g.WithPredicate(p).size() != by_p[p]) {
            ++errors[w];
          }
        }
        for (TermId s = 1; s < by_s.size(); ++s) {
          if (g.WithSubject(s).size() != by_s[s]) ++errors[w];
        }
        if (g.SubjectsAndObjects().size() != nodes.size()) ++errors[w];
        if (g.Predicates().size() != kPreds) ++errors[w];
      });
    }
    for (std::thread& t : threads) t.join();
    for (int w = 0; w < kThreads; ++w) {
      EXPECT_EQ(errors[w], 0) << "round " << round << " thread " << w;
    }
  }
}

TEST(DatasetTest, WithClausesMergesFromGraphs) {
  TermDictionary dict;
  Dataset store(&dict);
  TermId g1 = dict.InternIri("g1"), g2 = dict.InternIri("g2");
  TermId a = dict.InternIri("a"), p = dict.InternIri("p");
  store.named_graph(g1).Add(a, p, dict.InternIri("x"));
  store.named_graph(g2).Add(a, p, dict.InternIri("y"));

  Dataset scoped = store.WithClauses({g1, g2}, {g1});
  EXPECT_EQ(scoped.default_graph().size(), 2u);
  EXPECT_NE(scoped.FindNamedGraph(g1), nullptr);
  EXPECT_EQ(scoped.FindNamedGraph(g2), nullptr);
  // Unknown graph names resolve to empty graphs.
  Dataset empty = store.WithClauses({dict.InternIri("nope")}, {});
  EXPECT_EQ(empty.default_graph().size(), 0u);
}

TEST(TurtleParserTest, PrefixesAndSugar) {
  TermDictionary dict;
  Dataset dataset(&dict);
  auto st = ParseTurtle(R"(
    @prefix ex: <http://ex.org/> .
    ex:a a ex:T ;
         ex:p ex:b , ex:c .
  )",
                        &dataset);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(dataset.default_graph().size(), 3u);
  TermId type =
      dict.InternIri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type");
  size_t n = 0;
  dataset.default_graph().Match(std::nullopt, type, std::nullopt,
                                [&](const Triple&) { ++n; });
  EXPECT_EQ(n, 1u);
}

TEST(TurtleParserTest, LiteralsOfAllShapes) {
  TermDictionary dict;
  Dataset dataset(&dict);
  auto st = ParseTurtle(R"(
    @prefix ex: <http://ex.org/> .
    @prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
    ex:a ex:p "plain" .
    ex:a ex:p "tagged"@en-GB .
    ex:a ex:p "7"^^xsd:integer .
    ex:a ex:p 42 .
    ex:a ex:p 2.5 .
    ex:a ex:p 1.0e3 .
    ex:a ex:p true .
    ex:a ex:p "esc\"aped\nline" .
    ex:a ex:p """long
string""" .
  )",
                        &dataset);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(dataset.default_graph().size(), 9u);
  EXPECT_TRUE(dict.Lookup(Term::Literal("tagged", "", "en-gb")).has_value());
  EXPECT_TRUE(
      dict.Lookup(Term::Literal("7", std::string(xsd::kInteger))).has_value());
  EXPECT_TRUE(dict.Lookup(Term::Literal("esc\"aped\nline")).has_value());
}

TEST(TurtleParserTest, BlankNodes) {
  TermDictionary dict;
  Dataset dataset(&dict);
  auto st = ParseTurtle(R"(
    @prefix ex: <http://ex.org/> .
    _:x ex:p ex:a .
    [ ex:q ex:b ] ex:p ex:c .
  )",
                        &dataset);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(dataset.default_graph().size(), 3u);
}

TEST(TurtleParserTest, GraphBlocks) {
  TermDictionary dict;
  Dataset dataset(&dict);
  auto st = ParseTurtle(R"(
    @prefix ex: <http://ex.org/> .
    ex:a ex:p ex:b .
    GRAPH <http://g1> { ex:a ex:p ex:c . ex:c ex:p ex:d . }
  )",
                        &dataset);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(dataset.default_graph().size(), 1u);
  const Graph* g1 = dataset.FindNamedGraph(dict.InternIri("http://g1"));
  ASSERT_NE(g1, nullptr);
  EXPECT_EQ(g1->size(), 2u);
}

TEST(TurtleParserTest, Errors) {
  TermDictionary dict;
  Dataset dataset(&dict);
  EXPECT_TRUE(ParseTurtle("ex:a ex:p ex:b .", &dataset).IsParseError())
      << "undeclared prefix must fail";
  EXPECT_TRUE(ParseTurtle("<a> <b> .", &dataset).IsParseError());
  EXPECT_TRUE(
      ParseTurtle("<a> <b> \"unterminated .", &dataset).IsParseError());
  EXPECT_TRUE(ParseTurtle("<a> <b> (1 2) .", &dataset).IsParseError())
      << "collections are rejected";
}

TEST(TurtleParserTest, EscapesDecodeToUtf8) {
  TermDictionary dict;
  Dataset dataset(&dict);
  auto st = ParseTurtle(
      R"(<http://s> <http://p> "caf\u00e9", "caf\u00E8", "\u20AC",
          "\U0001F600", "\u0041", "A", <http://x/\u0041> .)",
      &dataset);
  ASSERT_TRUE(st.ok()) << st.ToString();
  // "\u0041" and "A" are one term; the two accented spellings are two.
  EXPECT_EQ(dataset.default_graph().size(), 6u);
  EXPECT_TRUE(dict.Lookup(Term::Literal("caf\xC3\xA9")).has_value());
  EXPECT_TRUE(dict.Lookup(Term::Literal("caf\xC3\xA8")).has_value());
  EXPECT_TRUE(dict.Lookup(Term::Literal("\xE2\x82\xAC")).has_value());
  EXPECT_TRUE(dict.Lookup(Term::Literal("\xF0\x9F\x98\x80")).has_value());
  EXPECT_TRUE(dict.Lookup(Term::Iri("http://x/A")).has_value());
}

TEST(TurtleParserTest, NumbersTypedAsTurtleAndSparqlDefineThem) {
  TermDictionary dict;
  Dataset dataset(&dict);
  auto st = ParseTurtle(
      "<http://s> <http://p> 42, -7, 3.5, .5, 1e2, 2.5E-3, 1.e2 .\n"
      "<http://s> <http://q> 7.\n",
      &dataset);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(dataset.default_graph().size(), 8u);
  for (auto [lex, type] : std::initializer_list<
           std::pair<const char*, std::string_view>>{
           {"42", xsd::kInteger}, {"-7", xsd::kInteger},
           {"7", xsd::kInteger}, {"3.5", xsd::kDecimal},
           {".5", xsd::kDecimal}, {"1e2", xsd::kDouble},
           {"2.5E-3", xsd::kDouble}, {"1.e2", xsd::kDouble}}) {
    EXPECT_TRUE(dict.Lookup(Term::Literal(lex, std::string(type))).has_value())
        << lex;
  }
}

TEST(TurtleParserTest, NamesMayContainButNotEndWithADot) {
  TermDictionary dict;
  Dataset dataset(&dict);
  auto st = ParseTurtle(
      "@prefix ex: <http://ex.org/> .\n"
      "_:b.1 ex:p ex:a.b.\n"
      "ex:c ex:p _:b.1.\n",
      &dataset);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(dataset.default_graph().size(), 2u);
  EXPECT_TRUE(dict.Lookup(Term::Iri("http://ex.org/a.b")).has_value());
  EXPECT_TRUE(dict.Lookup(Term::Blank("b.1")).has_value());
}

TEST(TurtleParserTest, MalformedEscapesAreTypedErrorsAtTheirColumn) {
  struct Case {
    const char* name;
    const char* escape;  // appended to a string literal left open
  };
  const Case cases[] = {
      {"trailing backslash", "\\"},
      {"unknown escape", "\\q\" ."},
      {"short \\u", "\\u00\" ."},
      {"non-hex \\u", "\\uZZZZ\" ."},
      {"surrogate", "\\uD800\" ."},
      {"beyond U+10FFFF", "\\U00110000\" ."},
  };
  const std::string head = "# line 1\n<http://a> <http://b> \"x";
  // The column of the '\' that follows `head`.
  const std::string where =
      "line 2, column " + std::to_string(head.size() - head.find('\n'));
  for (const Case& c : cases) {
    TermDictionary dict;
    Dataset dataset(&dict);
    Status st = ParseTurtle(head + c.escape, &dataset);
    EXPECT_TRUE(st.IsParseError()) << c.name << ": " << st.ToString();
    EXPECT_NE(st.message().find(where), std::string::npos)
        << c.name << ": " << st.ToString();
  }
  TermDictionary dict;
  Dataset dataset(&dict);
  Status st = ParseTurtle("<http://a\\n> <http://b> <http://c> .", &dataset);
  EXPECT_TRUE(st.IsParseError()) << "an IRI takes only \\u and \\U";
  EXPECT_NE(st.message().find("line 1, column 10"), std::string::npos)
      << st.ToString();
}

// Cuts each seed document at every byte offset. Every cut parses or is a
// typed ParseError with a line and a column; each cut is read from a heap
// buffer of exactly its length, so a read past the end trips ASan.
TEST(TurtleParserTest, EveryTruncationIsOkOrAPositionedParseError) {
  const std::string seeds[] = {
      R"(@prefix ex: <http://ex.org/> .
    ex:a a ex:T ;
         ex:p ex:b , ex:c .)",
      R"(@prefix ex: <http://ex.org/> .
    @prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
    ex:a ex:p "tagged"@en-GB .
    ex:a ex:p "7"^^xsd:integer .
    ex:a ex:p 42 , 2.5 , 1.0e3 , true .
    ex:a ex:p "esc\"aped\nline" , 'single' , """long
string""" .)",
      R"(BASE <http://b.org/>
    PREFIX ex: <http://ex.org/>
    _:x.1 ex:p <rel> .
    [ ex:q ex:b ] ex:p ex:c.d .
    GRAPH <http://g1> { ex:a ex:p "caf\u00e9" . ex:c ex:p "\U0001F600" . })",
  };
  for (const std::string& seed : seeds) {
    for (size_t n = 0; n <= seed.size(); ++n) {
      std::unique_ptr<char[]> cut(new char[n]);
      std::copy(seed.begin(), seed.begin() + n, cut.get());
      TermDictionary dict;
      Dataset dataset(&dict);
      Status st = ParseTurtle(std::string_view(cut.get(), n), &dataset);
      if (st.ok()) continue;
      ASSERT_TRUE(st.IsParseError()) << st.ToString();
      ASSERT_NE(st.message().find(", column "), std::string::npos)
          << st.ToString();
    }
    TermDictionary dict;
    Dataset dataset(&dict);
    EXPECT_TRUE(ParseTurtle(seed, &dataset).ok()) << seed;
  }
}

TEST(WriterTest, RoundTripPreservesDataset) {
  TermDictionary dict;
  Dataset original(&dict);
  auto st = ParseTurtle(R"(
    @prefix ex: <http://ex.org/> .
    ex:a ex:p "x"@en .
    ex:a ex:p "7"^^<http://www.w3.org/2001/XMLSchema#integer> .
    _:b ex:q ex:a .
    GRAPH <http://g> { ex:a ex:p ex:c . }
  )",
                        &original);
  ASSERT_TRUE(st.ok());

  std::string text = WriteTrig(original);
  Dataset reparsed(&dict);
  st = ParseTurtle(text, &reparsed);
  ASSERT_TRUE(st.ok()) << st.ToString() << "\n" << text;
  EXPECT_EQ(reparsed.default_graph().size(), original.default_graph().size());
  for (const Triple& t : original.default_graph().triples()) {
    EXPECT_TRUE(reparsed.default_graph().Contains(t));
  }
  const Graph* g = reparsed.FindNamedGraph(dict.InternIri("http://g"));
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->size(), 1u);
}

}  // namespace
}  // namespace sparqlog::rdf
