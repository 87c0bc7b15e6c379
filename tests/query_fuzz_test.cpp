// Randomized differential fuzzing: generate random query trees from the
// supported grammar (patterns, paths, filters, modifiers) over random
// graphs, and require the translated-Datalog pipeline and the reference
// evaluator to agree on the solution multiset. Complements the curated
// differential suite with shapes no human wrote. The grammar aims at the
// translator's static analyses (certainly-bound variables, duplicate-free
// subpatterns) where they could be wrong: blank nodes, projections that
// drop variables, closures over sequences and alternatives, and joins on
// variables an OPTIONAL, a UNION branch or a BIND may leave unbound.

#include <gtest/gtest.h>

#include "core/engine.h"
#include "eval/algebra_eval.h"
#include "sparql/parser.h"
#include "util/hash.h"
#include "util/string_util.h"

namespace sparqlog {
namespace {

class QueryGen {
 public:
  explicit QueryGen(uint64_t seed) : rng_(seed) {}

  std::string Generate() {
    var_counter_ = 0;
    std::string body = Group(2);
    std::string select = rng_.Chance(0.3) ? "SELECT DISTINCT *" : "SELECT *";
    if (var_counter_ >= 3 && rng_.Chance(0.4)) {
      // A bag projection: the dropped variables carry the multiplicities.
      select = "SELECT ?v0 ?v1";
    }
    std::string modifiers;
    if (rng_.Chance(0.3)) {
      modifiers += " ORDER BY ?v0";
      if (rng_.Chance(0.5)) modifiers += " LIMIT " + Int(1, 8);
    }
    return select + " WHERE { " + body + " }" + modifiers;
  }

 private:
  std::string Int(uint64_t lo, uint64_t hi) {
    return std::to_string(lo + rng_.Uniform(hi - lo + 1));
  }
  std::string Var() {
    // Reuse earlier variables often so joins actually connect.
    if (var_counter_ > 0 && rng_.Chance(0.6)) {
      return "?v" + std::to_string(rng_.Uniform(var_counter_));
    }
    return "?v" + std::to_string(var_counter_++);
  }
  std::string Node() {
    return "<http://f.org/n" + std::to_string(rng_.Uniform(6)) + ">";
  }
  std::string Pred() {
    static constexpr const char* kPreds[] = {"<http://f.org/p>",
                                             "<http://f.org/q>",
                                             "<http://f.org/r>"};
    return kPreds[rng_.Uniform(3)];
  }
  std::string FreshVar() { return "?v" + std::to_string(var_counter_++); }
  std::string Endpoint() {
    if (rng_.Chance(0.1)) {
      // A blank node: a variable that is never projected.
      return rng_.Chance(0.5) ? "[]" : "_:b" + std::to_string(rng_.Uniform(2));
    }
    return rng_.Chance(0.25) ? Node() : Var();
  }

  std::string Path(int depth) {
    if (depth <= 0) return Pred();
    switch (rng_.Uniform(9)) {
      case 7: return "(" + Pred() + "/" + Pred() + ")+";
      case 8: return "(" + Pred() + "|" + Pred() + ")*";
      case 0: return Path(depth - 1) + "/" + Path(depth - 1);
      case 1: return "(" + Path(depth - 1) + "|" + Path(depth - 1) + ")";
      case 2: return "^" + Pred();
      case 3: return "(" + Pred() + ")+";
      case 4: return "(" + Pred() + ")*";
      case 5: return "(" + Pred() + ")?";
      default: return "!(" + Pred() + ")";
    }
  }

  std::string Leaf() {
    if (rng_.Chance(0.35)) {
      return Endpoint() + " " + Path(1) + " " + Endpoint() + " .";
    }
    return Endpoint() + " " + Pred() + " " + Endpoint() + " .";
  }

  std::string Group(int depth) {
    std::string out = Leaf();
    int extras = static_cast<int>(rng_.Uniform(3));
    for (int i = 0; i < extras; ++i) {
      switch (rng_.Uniform(depth > 0 ? 9 : 2)) {
        case 0:
          out += " " + Leaf();
          break;
        case 1:
          out += " FILTER (" + Filter() + ")";
          break;
        case 2:
          out += " OPTIONAL { " + Group(depth - 1) + " }";
          break;
        case 3:
          out += " MINUS { " + Group(depth - 1) + " }";
          break;
        case 4:
          out = "{ " + out + " } UNION { " + Group(depth - 1) + " }";
          break;
        case 5: {
          // OPTIONAL, then a join on the optional variable.
          std::string v = FreshVar();
          out += " OPTIONAL { " + Var() + " " + Pred() + " " + v + " } " + v +
                 " " + Pred() + " " + Endpoint() + " .";
          break;
        }
        case 6: {
          // A UNION whose branch-only variable is joined afterwards.
          std::string v = FreshVar();
          out = "{ " + out + " } UNION { " + Var() + " " + Pred() + " " + v +
                " . } " + v + " " + Pred() + " " + Endpoint() + " .";
          break;
        }
        case 7: {
          // BIND of a possibly unbound variable, then maybe joined.
          std::string from = Var();
          std::string v = FreshVar();
          out += " BIND(" + from + " AS " + v + ")";
          if (rng_.Chance(0.5)) {
            out += " " + v + " " + Pred() + " " + Endpoint() + " .";
          }
          break;
        }
        default:
          out += " " + Leaf();
          break;
      }
    }
    return out;
  }

  std::string Filter() {
    std::string v = "?v" + std::to_string(
                               var_counter_ > 0 ? rng_.Uniform(var_counter_)
                                                : 0);
    switch (rng_.Uniform(4)) {
      case 0: return "BOUND(" + v + ")";
      case 1: return "!BOUND(" + v + ")";
      case 2: return v + " != " + Node();
      default: return "isIRI(" + v + ")";
    }
  }

  Rng rng_;
  size_t var_counter_ = 0;
};

void BuildGraph(uint64_t seed, rdf::Dataset* dataset) {
  Rng rng(seed);
  auto* dict = dataset->dict();
  auto node = [&](uint64_t i) {
    return dict->InternIri("http://f.org/n" + std::to_string(i));
  };
  rdf::TermId preds[3] = {dict->InternIri("http://f.org/p"),
                          dict->InternIri("http://f.org/q"),
                          dict->InternIri("http://f.org/r")};
  for (int i = 0; i < 20; ++i) {
    dataset->default_graph().Add(node(rng.Uniform(6)),
                                 preds[rng.Uniform(3)], node(rng.Uniform(6)));
  }
}

class QueryFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(QueryFuzzTest, PipelineAgreesWithReference) {
  uint64_t seed = static_cast<uint64_t>(GetParam());
  rdf::TermDictionary dict;
  rdf::Dataset dataset(&dict);
  BuildGraph(seed * 31 + 1, &dataset);

  // One cached engine serves every query of the seed (its caches
  // accumulate across queries, like a long-lived server), while each
  // query also runs on a fresh cache-less engine as the uncached oracle.
  core::Engine::Options options;
  options.timeout = std::chrono::seconds(30);
  core::Engine engine(&dataset, &dict, options);
  ASSERT_TRUE(engine.Load().ok());

  // Rng(s + 1)'s stream is Rng(s)'s shifted by one draw, so consecutive
  // seeds would mostly replay each other's queries; mix the seed first.
  QueryGen gen(Fmix64(seed));
  // Several queries per seed.
  for (int qi = 0; qi < 5; ++qi) {
    std::string text = gen.Generate();
    sparql::ParserOptions parse_options;
    parse_options.extensions = true;  // BIND
    auto parsed = sparql::ParseQuery(text, &dict, parse_options);
    ASSERT_TRUE(parsed.ok()) << text << "\n" << parsed.status().ToString();

    ExecContext ctx;
    ctx.set_deadline_after(std::chrono::seconds(20));
    eval::AlgebraEvaluator reference(dataset, &dict, &ctx);
    auto expected = reference.EvalQuery(*parsed);
    ASSERT_TRUE(expected.ok()) << text << "\n"
                               << expected.status().ToString();

    auto got_exec = engine.Execute(*parsed);
    ASSERT_TRUE(got_exec.ok()) << text << "\n" << got_exec.status().ToString();
    const eval::QueryResult* got = &got_exec->result;

    EXPECT_TRUE(got->SameSolutions(*expected))
        << "seed " << seed << " query " << qi << ":\n"
        << text << "\nreference (" << expected->rows.size() << "):\n"
        << expected->ToString(dict, 40) << "\npipeline (" << got->rows.size()
        << "):\n"
        << got->ToString(dict, 40);

    // Cached-vs-fresh equivalence: the warm repeat must be bit-identical
    // to the cold run, and a cache-less engine must agree on the
    // solution multiset.
    auto warm_exec = engine.Execute(*parsed);
    ASSERT_TRUE(warm_exec.ok()) << text << "\n"
                                << warm_exec.status().ToString();
    const eval::QueryResult* warm = &warm_exec->result;
    EXPECT_EQ(got->columns, warm->columns) << text;
    EXPECT_TRUE(got->rows == warm->rows)
        << "seed " << seed << " query " << qi
        << ": warm run diverged\n" << text << "\ncold ("
        << got->rows.size() << "):\n" << got->ToString(dict, 40)
        << "\nwarm (" << warm->rows.size() << "):\n"
        << warm->ToString(dict, 40);
    EXPECT_EQ(warm->ask_value, got->ask_value) << text;

    core::Engine::Options uncached_opts = options;
    uncached_opts.caching.program_cache = false;
    uncached_opts.caching.stratum_memo = false;
    core::Engine uncached(&dataset, &dict, uncached_opts);
    ASSERT_TRUE(uncached.Load().ok());
    auto fresh = uncached.Execute(*parsed);
    ASSERT_TRUE(fresh.ok()) << text << "\n" << fresh.status().ToString();
    EXPECT_TRUE(warm->SameSolutions(fresh->result))
        << "seed " << seed << " query " << qi
        << ": cached and cache-less engines disagree\n" << text;

    // Planner differential: planner-off (= exact pre-planner pipeline)
    // must agree on the solution multiset, and on exact row order
    // wherever ORDER BY pins it. Thread counts rotate per query so each
    // seed sweeps {1, 2, 8}.
    static constexpr uint32_t kThreads[] = {1, 2, 8};
    core::Engine::Options planner_off = options;
    planner_off.planner.join_planner = false;
    planner_off.parallelism.num_threads = kThreads[qi % 3];
    core::Engine plain(&dataset, &dict, planner_off);
    ASSERT_TRUE(plain.Load().ok());
    auto unplanned_exec = plain.Execute(*parsed);
    ASSERT_TRUE(unplanned_exec.ok()) << text << "\n"
                                     << unplanned_exec.status().ToString();
    const eval::QueryResult* unplanned = &unplanned_exec->result;
    EXPECT_EQ(unplanned->columns, got->columns) << text;
    EXPECT_EQ(unplanned->ask_value, got->ask_value) << text;
    EXPECT_TRUE(unplanned->SameSolutions(*got))
        << "seed " << seed << " query " << qi
        << ": planner changed solutions (threads "
        << planner_off.parallelism.num_threads << ")\n" << text << "\nplanner-on ("
        << got->rows.size() << "):\n" << got->ToString(dict, 40)
        << "\nplanner-off (" << unplanned->rows.size() << "):\n"
        << unplanned->ToString(dict, 40);
    if (!parsed->order_by.empty()) {
      EXPECT_TRUE(unplanned->rows == got->rows)
          << "seed " << seed << " query " << qi
          << ": planner changed ORDER BY output\n" << text;
    }
  }
  // The per-seed engine must have served every repeat from the cache
  // (more if the generator happened to repeat a shape across queries).
  EXPECT_GE(engine.stats().program_hits, 5u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueryFuzzTest, ::testing::Range(1, 25));

}  // namespace
}  // namespace sparqlog
