// Incremental EDB maintenance (Engine::ApplyUpdate): delta publishing,
// DRed deletion, selective memo invalidation, and the HTTP update
// endpoint — proven by mutation-differential testing. Every mutated
// engine is compared against a freshly Load()ed engine over an
// identical dataset (same dictionary, so TermIds align): query results
// must match, and where ORDER BY pins a total order, match
// bit-identically. This is the maintenance analogue of the pipeline
// differential suite.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "core/engine.h"
#include "rdf/graph.h"
#include "rdf/turtle_parser.h"
#include "server/http_server.h"
#include "util/hash.h"

namespace sparqlog {
namespace {

using core::Engine;

constexpr const char* kPrefix = "PREFIX r: <http://r.org/>\n";

rdf::TermId Node(rdf::TermDictionary* dict, size_t i) {
  return dict->InternIri("http://r.org/n" + std::to_string(i));
}

rdf::TermId Pred(rdf::TermDictionary* dict, const std::string& name) {
  return dict->InternIri("http://r.org/" + name);
}

/// Copies every triple of `src` (default and named graphs) into `dst`.
/// Both datasets share one dictionary, so the copy is id-for-id.
void CopyDataset(const rdf::Dataset& src, rdf::Dataset* dst) {
  for (const rdf::Triple& t : src.default_graph().triples()) {
    dst->default_graph().Add(t);
  }
  for (const auto& [name, graph] : src.named_graphs()) {
    for (const rdf::Triple& t : graph.triples()) {
      dst->named_graph(name).Add(t);
    }
  }
}

/// Queries covering the shapes incremental maintenance can disturb:
/// plain joins, recursive closures (TC kernel strata), unions
/// (alternate derivations), negation, optional, and a fully ordered
/// projection for the bit-identity check.
constexpr const char* kDifferentialQueries[] = {
    "SELECT ?a ?b WHERE { ?a r:p ?b }",
    "SELECT ?a ?c WHERE { ?a r:p ?b . ?b r:q ?c }",
    "SELECT ?x ?y WHERE { ?x r:p+ ?y }",
    "SELECT ?x ?y WHERE { ?x r:p* ?y }",
    "SELECT ?x ?y WHERE { ?x (r:p|r:q) ?y }",
    "SELECT ?x ?y WHERE { ?x (r:p/r:q)+ ?y }",
    "SELECT * WHERE { ?a r:p ?b OPTIONAL { ?b r:q ?c } }",
    "SELECT ?a ?b WHERE { ?a r:p ?b MINUS { ?a r:q ?c } }",
    "ASK { ?a r:p ?b . ?b r:p ?a }",
};
constexpr const char* kOrderedQuery =
    "SELECT ?x ?y WHERE { ?x r:p+ ?y } ORDER BY ?x ?y";

/// Asserts that `engine` (which has been mutated through ApplyUpdate)
/// answers every differential query exactly like a cold engine built
/// over a copy of its current dataset.
void ExpectMatchesFreshLoad(Engine* engine, const rdf::Dataset& dataset,
                            rdf::TermDictionary* dict,
                            const Engine::Options& options,
                            const std::string& context) {
  rdf::Dataset reference_data(dict);
  CopyDataset(dataset, &reference_data);
  Engine reference(static_cast<const rdf::Dataset*>(&reference_data), dict,
                   options);
  ASSERT_TRUE(reference.Load().ok());

  for (const char* q : kDifferentialQueries) {
    auto got = engine->ExecuteText(kPrefix + std::string(q));
    auto want = reference.ExecuteText(kPrefix + std::string(q));
    ASSERT_TRUE(got.ok()) << context << "\n" << q << "\n"
                          << got.status().ToString();
    ASSERT_TRUE(want.ok()) << context << "\n" << q;
    EXPECT_EQ(got->result.ask_value, want->result.ask_value)
        << context << "\n" << q;
    EXPECT_EQ(got->result.SortedRows(), want->result.SortedRows())
        << context << "\nquery: " << q << "\nincremental ("
        << got->result.rows.size() << " rows):\n"
        << got->result.ToString(*dict, 30) << "\nfresh load ("
        << want->result.rows.size() << " rows):\n"
        << want->result.ToString(*dict, 30);
  }
  // ORDER BY over the full projection pins a total order — the
  // incremental engine must reproduce the recomputation bit-for-bit.
  auto got = engine->ExecuteText(kPrefix + std::string(kOrderedQuery));
  auto want = reference.ExecuteText(kPrefix + std::string(kOrderedQuery));
  ASSERT_TRUE(got.ok() && want.ok()) << context;
  EXPECT_TRUE(got->result.rows == want->result.rows)
      << context << "\nordered closure diverged:\nincremental:\n"
      << got->result.ToString(*dict, 30) << "\nfresh load:\n"
      << want->result.ToString(*dict, 30);
}

// ---------------------------------------------------------------------
// Satellite: a net-empty update is a true no-op — no generation bump,
// no EDB rebuild, no memo wipe, and warm queries keep hitting.
TEST(IncrementalNoOpTest, EmptyAndAlreadyPresentMutationsAreFree) {
  rdf::TermDictionary dict;
  rdf::Dataset dataset(&dict);
  rdf::TermId p = Pred(&dict, "p");
  dataset.default_graph().Add(Node(&dict, 0), p, Node(&dict, 1));
  dataset.default_graph().Add(Node(&dict, 1), p, Node(&dict, 2));

  Engine engine(&dataset, &dict);
  ASSERT_TRUE(engine.Load().ok());
  const uint64_t generation = dataset.Generation();

  const std::string query = kPrefix + std::string("SELECT ?x WHERE "
                                                  "{ ?x r:p+ ?y }");
  ASSERT_TRUE(engine.ExecuteText(query).ok());  // warm the stratum memo
  const uint64_t warm_hits = engine.stats().stratum_hits;

  // Empty mutation set.
  Engine::UpdateStats us;
  ASSERT_TRUE(engine.ApplyUpdate({}, {}, &us).ok());
  EXPECT_TRUE(us.noop);
  EXPECT_EQ(us.inserted, 0u);
  EXPECT_EQ(us.deleted, 0u);

  // Re-inserting present triples and deleting absent ones nets to zero;
  // so does deleting a present triple that the same call re-inserts.
  rdf::Triple present{Node(&dict, 0), p, Node(&dict, 1)};
  rdf::Triple absent{Node(&dict, 7), p, Node(&dict, 8)};
  ASSERT_TRUE(engine.ApplyUpdate({present}, {absent}, &us).ok());
  EXPECT_TRUE(us.noop);
  ASSERT_TRUE(engine.ApplyUpdate({present}, {present}, &us).ok());
  EXPECT_TRUE(us.noop) << "(G \\ D) ∪ I keeps a present triple present";

  EXPECT_EQ(dataset.Generation(), generation) << "no-op bumped the dataset";
  EXPECT_EQ(engine.stats().update_noops, 3u);
  EXPECT_EQ(engine.stats().invalidations, 0u) << "no-op rebuilt the EDB";

  // The memo survived: the warm query hits again instead of re-deriving.
  ASSERT_TRUE(engine.ExecuteText(query).ok());
  EXPECT_GT(engine.stats().stratum_hits, warm_hits)
      << "no-op update invalidated the stratum memo";

  // Insert and delete of the same ABSENT triple is not a no-op: under
  // (G \ D) ∪ I the insert wins and the triple becomes present.
  rdf::Triple fresh{Node(&dict, 8), p, Node(&dict, 9)};
  ASSERT_TRUE(engine.ApplyUpdate({fresh}, {fresh}, &us).ok());
  EXPECT_FALSE(us.noop);
  EXPECT_EQ(us.inserted, 1u);
  EXPECT_TRUE(dataset.default_graph().Contains(fresh));
}

// ---------------------------------------------------------------------
// Insert-only updates publish incrementally and match a fresh load.
TEST(IncrementalUpdateTest, InsertOnlyMatchesFreshLoad) {
  rdf::TermDictionary dict;
  rdf::Dataset dataset(&dict);
  rdf::TermId p = Pred(&dict, "p");
  rdf::TermId q = Pred(&dict, "q");
  for (size_t i = 0; i < 4; ++i) {
    dataset.default_graph().Add(Node(&dict, i), p, Node(&dict, i + 1));
  }
  Engine::Options options;
  Engine engine(&dataset, &dict, options);
  ASSERT_TRUE(engine.Load().ok());
  ASSERT_TRUE(engine.ExecuteText(kPrefix +
                                 std::string("SELECT ?x ?y WHERE "
                                             "{ ?x r:p+ ?y }"))
                  .ok());

  Engine::UpdateStats us;
  std::vector<rdf::Triple> ins = {
      {Node(&dict, 4), p, Node(&dict, 5)},   // extends the chain
      {Node(&dict, 0), q, Node(&dict, 5)},   // new predicate edge
      {Node(&dict, 9), p, Node(&dict, 9)},   // self-loop on a new node
  };
  ASSERT_TRUE(engine.ApplyUpdate(ins, {}, &us).ok());
  EXPECT_TRUE(us.incremental);
  EXPECT_EQ(us.inserted, 3u);
  EXPECT_FALSE(us.noop);
  ExpectMatchesFreshLoad(&engine, dataset, &dict, options, "insert-only");
  EXPECT_GT(engine.stats().strata_incremental, 0u)
      << "insertion delta should have run the incremental path";
}

// Deleting one support of a doubly-derived tuple: DRed over-deletes it,
// then the re-derivation pass restores it through the alternate rule.
TEST(IncrementalUpdateTest, DeletionKeepsAlternatelySupportedTuples) {
  rdf::TermDictionary dict;
  rdf::Dataset dataset(&dict);
  rdf::TermId p = Pred(&dict, "p");
  rdf::TermId q = Pred(&dict, "q");
  // (n0, n1) is reachable through r:p AND through r:q; dropping the p
  // edge must keep the union-path solution alive via q.
  dataset.default_graph().Add(Node(&dict, 0), p, Node(&dict, 1));
  dataset.default_graph().Add(Node(&dict, 0), q, Node(&dict, 1));
  dataset.default_graph().Add(Node(&dict, 1), p, Node(&dict, 2));

  Engine::Options options;
  Engine engine(&dataset, &dict, options);
  ASSERT_TRUE(engine.Load().ok());
  const std::string union_q =
      kPrefix + std::string("SELECT ?x ?y WHERE { ?x (r:p|r:q)+ ?y }");
  ASSERT_TRUE(engine.ExecuteText(union_q).ok());  // snapshot the stratum

  Engine::UpdateStats us;
  ASSERT_TRUE(
      engine.ApplyUpdate({}, {{Node(&dict, 0), p, Node(&dict, 1)}}, &us)
          .ok());
  EXPECT_TRUE(us.incremental);
  EXPECT_EQ(us.deleted, 1u);

  auto got = engine.ExecuteText(union_q);
  ASSERT_TRUE(got.ok());
  bool found = false;
  for (const auto& row : got->result.rows) {
    if (row[0] == Node(&dict, 0) && row[1] == Node(&dict, 1)) found = true;
  }
  EXPECT_TRUE(found) << "alternate support lost under DRed:\n"
                     << got->result.ToString(dict, 30);
  ExpectMatchesFreshLoad(&engine, dataset, &dict, options, "alt-support");
}

// Deletions inside cycles and self-loops — the worst case for deletion
// propagation (every closure tuple transitively touches the edge) and
// the case that routes TC-shaped strata to the full-recompute fallback.
TEST(IncrementalUpdateTest, CyclicClosureDeletions) {
  Engine::Options options;
  for (bool kernel : {true, false}) {
    options.fixpoint.tc_kernel = kernel;
    rdf::TermDictionary dict;
    rdf::Dataset dataset(&dict);
    rdf::TermId p = Pred(&dict, "p");
    // A 4-cycle with a self-loop and a tail.
    for (size_t i = 0; i < 4; ++i) {
      dataset.default_graph().Add(Node(&dict, i), p, Node(&dict, (i + 1) % 4));
    }
    dataset.default_graph().Add(Node(&dict, 2), p, Node(&dict, 2));
    dataset.default_graph().Add(Node(&dict, 3), p, Node(&dict, 5));

    Engine engine(&dataset, &dict, options);
    ASSERT_TRUE(engine.Load().ok());
    ASSERT_TRUE(engine
                    .ExecuteText(kPrefix + std::string("SELECT ?x ?y WHERE "
                                                       "{ ?x r:p+ ?y }"))
                    .ok());

    // Break the cycle, drop the self-loop, keep the tail.
    Engine::UpdateStats us;
    ASSERT_TRUE(engine
                    .ApplyUpdate({}, {{Node(&dict, 1), p, Node(&dict, 2)},
                                      {Node(&dict, 2), p, Node(&dict, 2)}},
                                 &us)
                    .ok());
    EXPECT_TRUE(us.incremental);
    ExpectMatchesFreshLoad(&engine, dataset, &dict, options,
                           kernel ? "cycle-del tc_kernel=on"
                                  : "cycle-del tc_kernel=off");
  }
}

// ---------------------------------------------------------------------
// Satellite: the randomized mutation-sequence fuzzer, swept across
// thread counts and with the planner/caches ablated. Each step applies
// a random insert/delete mix, then compares against a fresh load.
class MutationFuzzTest
    : public ::testing::TestWithParam<std::tuple<uint32_t, bool>> {};

TEST_P(MutationFuzzTest, RandomMutationSequencesMatchFreshLoad) {
  auto [threads, ablated] = GetParam();
  Engine::Options options;
  options.parallelism.num_threads = threads;
  if (ablated) {
    // The differential must hold with every acceleration layer off:
    // without the stratum memo there is no old snapshot, so each query
    // recomputes — updates must still publish a correct EDB.
    options.planner.join_planner = false;
    options.caching.program_cache = false;
    options.caching.stratum_memo = false;
  }

  for (uint64_t seed : {11u, 12u}) {
    // Fmix64: consecutive Rng seeds replay each other one draw apart.
    Rng rng(Fmix64(seed + threads * 100 + (ablated ? 7 : 0)));
    rdf::TermDictionary dict;
    rdf::Dataset dataset(&dict);
    rdf::TermId preds[2] = {Pred(&dict, "p"), Pred(&dict, "q")};
    constexpr size_t kNodes = 8;
    for (size_t i = 0; i < 24; ++i) {
      dataset.default_graph().Add(Node(&dict, rng.Uniform(kNodes)),
                                  preds[rng.Uniform(2)],
                                  Node(&dict, rng.Uniform(kNodes)));
    }
    // A static named graph: updates target the default graph only and
    // must never disturb named-graph contents.
    rdf::TermId g = dict.InternIri("http://r.org/g1");
    dataset.named_graph(g).Add(Node(&dict, 0), preds[0], Node(&dict, 1));

    Engine engine(&dataset, &dict, options);
    ASSERT_TRUE(engine.Load().ok());

    auto random_triple = [&]() {
      return rdf::Triple{Node(&dict, rng.Uniform(kNodes)),
                         preds[rng.Uniform(2)],
                         Node(&dict, rng.Uniform(kNodes))};
    };
    size_t effective_updates = 0;
    for (int step = 0; step < 10; ++step) {
      std::vector<rdf::Triple> ins;
      std::vector<rdf::Triple> del;
      for (size_t i = rng.Uniform(4); i > 0; --i) ins.push_back(random_triple());
      const auto& current = dataset.default_graph().triples();
      for (size_t i = rng.Uniform(4); i > 0 && !current.empty(); --i) {
        // Mostly delete existing triples; sometimes absent ones (which
        // must net out) or a triple also being inserted this step.
        if (rng.Chance(0.7)) {
          del.push_back(current[rng.Uniform(current.size())]);
        } else if (!ins.empty() && rng.Chance(0.5)) {
          del.push_back(ins[rng.Uniform(ins.size())]);
        } else {
          del.push_back(random_triple());
        }
      }
      Engine::UpdateStats us;
      ASSERT_TRUE(engine.ApplyUpdate(ins, del, &us).ok());
      if (!us.noop) ++effective_updates;
      // Interleave queries between mutations so the memo holds warm
      // snapshots for the next step's delta to re-derive from.
      ExpectMatchesFreshLoad(&engine, dataset, &dict, options,
                             "fuzz seed " + std::to_string(seed) + " step " +
                                 std::to_string(step) + " threads " +
                                 std::to_string(threads) +
                                 (ablated ? " ablated" : ""));
    }
    EXPECT_EQ(engine.stats().updates, 10u);
    EXPECT_EQ(engine.stats().update_noops, 10u - effective_updates);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MutationFuzzTest,
    ::testing::Combine(::testing::Values(1u, 2u, 8u),
                       ::testing::Values(false, true)),
    [](const ::testing::TestParamInfo<MutationFuzzTest::ParamType>& info) {
      return "threads" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_ablated" : "_accelerated");
    });

// ---------------------------------------------------------------------
// Satellite: a budget trip mid-query after an update must leave the
// engine consistent — re-derivation is per-query, so a failed query
// publishes nothing and the next unbounded query sees correct results.
TEST(IncrementalUpdateTest, BudgetTripAfterUpdateLeavesEngineConsistent) {
  rdf::TermDictionary dict;
  rdf::Dataset dataset(&dict);
  rdf::TermId p = Pred(&dict, "p");
  for (size_t i = 0; i < 12; ++i) {
    dataset.default_graph().Add(Node(&dict, i), p, Node(&dict, i + 1));
  }
  Engine::Options options;
  Engine engine(&dataset, &dict, options);
  ASSERT_TRUE(engine.Load().ok());
  const std::string closure =
      kPrefix + std::string("SELECT ?x ?y WHERE { ?x r:p+ ?y }");
  ASSERT_TRUE(engine.ExecuteText(closure).ok());

  // Mutate (a deletion, so the lazy re-derivation includes DRed work),
  // then trip the tuple budget on the very query that would re-derive.
  Engine::UpdateStats us;
  ASSERT_TRUE(engine
                  .ApplyUpdate({{Node(&dict, 12), p, Node(&dict, 13)}},
                               {{Node(&dict, 5), p, Node(&dict, 6)}}, &us)
                  .ok());
  Engine::QueryLimits tight;
  tight.tuple_budget = 1;
  auto tripped = engine.ExecuteText(closure, tight);
  EXPECT_FALSE(tripped.ok()) << "a 1-tuple budget should trip on a closure";

  ExpectMatchesFreshLoad(&engine, dataset, &dict, options, "post-budget-trip");
}

// A dataset mutated behind the engine's back (here: a triple inserted
// and deleted again, so the content is unchanged but the generation
// moved) must still publish updates correctly through the full-rebuild
// branch and report them as non-incremental.
TEST(IncrementalUpdateTest, FullRebuildFallbackOnGenerationMismatch) {
  rdf::TermDictionary dict;
  rdf::Dataset dataset(&dict);
  rdf::TermId p = Pred(&dict, "p");
  dataset.default_graph().Add(Node(&dict, 0), p, Node(&dict, 1));
  Engine::Options options;
  Engine engine(&dataset, &dict, options);
  ASSERT_TRUE(engine.Load().ok());
  const rdf::Triple bump{Node(&dict, 0), p, Node(&dict, 0)};
  dataset.default_graph().ApplyDelta({bump}, {});
  dataset.default_graph().ApplyDelta({}, {bump});

  Engine::UpdateStats us;
  ASSERT_TRUE(
      engine.ApplyUpdate({{Node(&dict, 1), p, Node(&dict, 2)}}, {}, &us).ok());
  EXPECT_FALSE(us.incremental);
  EXPECT_EQ(engine.stats().invalidations, 1u);
  ExpectMatchesFreshLoad(&engine, dataset, &dict, options, "rebuild-path");
}

// A microscopic over-delete bound forces the DRed fallback (stratum
// recomputed from scratch); results must be unaffected.
TEST(IncrementalUpdateTest, OverdeleteBoundFallsBackToRecompute) {
  // bound 1 trips on the raw input delta (pre-DRed eligibility bail);
  // bound 4 admits the delta but trips mid-cascade when unwinding the
  // chain head over-deletes the whole closure. Both must recompute.
  for (uint64_t bound : {uint64_t(1), uint64_t(4)}) {
    rdf::TermDictionary dict;
    rdf::Dataset dataset(&dict);
    rdf::TermId p = Pred(&dict, "p");
    for (size_t i = 0; i < 8; ++i) {
      dataset.default_graph().Add(Node(&dict, i), p, Node(&dict, i + 1));
    }
    Engine::Options options;
    options.update.max_overdelete = bound;
    options.fixpoint.tc_kernel = false;  // generic DRed, not the TC route
    Engine engine(&dataset, &dict, options);
    ASSERT_TRUE(engine.Load().ok());
    const std::string closure =
        kPrefix + std::string("SELECT ?x ?y WHERE { ?x r:p+ ?y }");
    ASSERT_TRUE(engine.ExecuteText(closure).ok());

    Engine::UpdateStats us;
    ASSERT_TRUE(
        engine.ApplyUpdate({}, {{Node(&dict, 0), p, Node(&dict, 1)}}, &us)
            .ok());
    EXPECT_TRUE(us.incremental);
    ASSERT_TRUE(engine.ExecuteText(closure).ok());
    EXPECT_GT(engine.stats().incremental_fallbacks, 0u)
        << "bound " << bound
        << ": deleting the chain head over-deletes the whole closure; the "
           "bound must have tripped";
    ExpectMatchesFreshLoad(&engine, dataset, &dict, options,
                           "overdelete-bound " + std::to_string(bound));
  }
}

// ---------------------------------------------------------------------
// Satellite: concurrent serving under maintenance. Eight readers
// hammer Execute while one writer applies updates; run under TSan via
// the CI thread-race job. Readers must only ever observe fully
// published states — each result is one of the datasets the writer
// published, never a torn mix.
TEST(IncrementalConcurrencyTest, ReadersAndWriterRaceCleanly) {
  rdf::TermDictionary dict;
  rdf::Dataset dataset(&dict);
  rdf::TermId p = Pred(&dict, "p");
  for (size_t i = 0; i < 6; ++i) {
    dataset.default_graph().Add(Node(&dict, i), p, Node(&dict, i + 1));
  }
  Engine engine(&dataset, &dict);
  ASSERT_TRUE(engine.Load().ok());
  const std::string closure =
      kPrefix + std::string("SELECT ?x ?y WHERE { ?x r:p+ ?y }");

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  readers.reserve(8);
  for (int r = 0; r < 8; ++r) {
    // Bounded iterations so the race window is real but the test stays
    // fast (free-running readers would starve the writer's exclusive
    // publish lock for the whole toggling loop).
    readers.emplace_back([&]() {
      for (int i = 0; i < 25; ++i) {
        auto result = engine.ExecuteText(closure);
        if (!result.ok()) failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // The writer toggles one edge on and off until the readers finish:
  // every publish flips between the chain and the closed cycle.
  rdf::Triple edge{Node(&dict, 6), p, Node(&dict, 0)};  // closes a cycle
  std::atomic<int> published{0};
  std::thread writer([&]() {
    for (int i = 0; !done.load(std::memory_order_acquire); ++i) {
      Status st = (i % 2 == 0) ? engine.ApplyUpdate({edge}, {})
                               : engine.ApplyUpdate({}, {edge});
      EXPECT_TRUE(st.ok()) << st.ToString();
      published.fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (auto& t : readers) t.join();
  done.store(true, std::memory_order_release);
  writer.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(published.load(), 0);
  ExpectMatchesFreshLoad(&engine, dataset, &dict, Engine::Options(),
                         "post-hammer");
}

// ---------------------------------------------------------------------
// The HTTP surface: POST /update on a mutable server, read-only
// rejection, and the new stats keys. Routed without sockets.
TEST(IncrementalHttpTest, UpdateEndpointAppliesTurtleDeltas) {
  rdf::TermDictionary dict;
  rdf::Dataset dataset(&dict);
  ASSERT_TRUE(rdf::ParseTurtle(R"(
    @prefix r: <http://r.org/> .
    r:n0 r:p r:n1 .
    r:n1 r:p r:n2 .
  )",
                               &dataset)
                  .ok());
  Engine engine(&dataset, &dict);
  ASSERT_TRUE(engine.Load().ok());
  server::HttpServer http(&engine, &dict);

  auto count_rows = [&]() {
    auto result = engine.ExecuteText(
        kPrefix + std::string("SELECT ?x ?y WHERE { ?x r:p+ ?y }"));
    EXPECT_TRUE(result.ok());
    return result.ok() ? result->result.rows.size() : size_t(0);
  };
  const size_t before = count_rows();

  server::HttpRequest insert;
  insert.method = "POST";
  insert.path = "/update";
  insert.body = "@prefix r: <http://r.org/> . r:n2 r:p r:n3 .";
  auto response = http.Route(insert);
  EXPECT_EQ(response.status, 200) << response.body;
  EXPECT_NE(response.body.find("\"inserted\":1"), std::string::npos)
      << response.body;
  EXPECT_NE(response.body.find("\"incremental\":true"), std::string::npos)
      << response.body;
  EXPECT_GT(count_rows(), before) << "insert not visible to queries";

  server::HttpRequest remove = insert;
  remove.query = "op=delete";
  response = http.Route(remove);
  EXPECT_EQ(response.status, 200) << response.body;
  EXPECT_NE(response.body.find("\"deleted\":1"), std::string::npos)
      << response.body;
  EXPECT_EQ(count_rows(), before) << "delete did not restore the state";

  // Idempotent re-delete nets to a no-op.
  response = http.Route(remove);
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"noop\":true"), std::string::npos)
      << response.body;

  // Guard rails: bad op, missing body, wrong method.
  server::HttpRequest bad = insert;
  bad.query = "op=upsert";
  EXPECT_EQ(http.Route(bad).status, 400);
  server::HttpRequest empty;
  empty.method = "POST";
  empty.path = "/update";
  EXPECT_EQ(http.Route(empty).status, 400);
  server::HttpRequest get = insert;
  get.method = "GET";
  EXPECT_EQ(http.Route(get).status, 405);

  // The stats payload carries the maintenance counters.
  server::HttpRequest stats;
  stats.method = "GET";
  stats.path = "/stats";
  auto stats_response = http.Route(stats);
  EXPECT_EQ(stats_response.status, 200);
  EXPECT_NE(stats_response.body.find("\"updates\":3"), std::string::npos)
      << stats_response.body;
  EXPECT_NE(stats_response.body.find("\"update_noops\":1"), std::string::npos)
      << stats_response.body;
}

TEST(IncrementalHttpTest, ReadOnlyServerRejectsUpdates) {
  rdf::TermDictionary dict;
  rdf::Dataset dataset(&dict);
  dataset.default_graph().Add(Node(&dict, 0), Pred(&dict, "p"),
                              Node(&dict, 1));
  Engine engine(&dataset, &dict);
  ASSERT_TRUE(engine.Load().ok());
  // Const-engine constructor: the read-only surface of PR 7.
  server::HttpServer http(static_cast<const Engine*>(&engine), &dict);

  server::HttpRequest request;
  request.method = "POST";
  request.path = "/update";
  request.body = "@prefix r: <http://r.org/> . r:a r:p r:b .";
  auto response = http.Route(request);
  EXPECT_EQ(response.status, 403);
  EXPECT_NE(response.body.find("read_only"), std::string::npos)
      << response.body;
}

}  // namespace
}  // namespace sparqlog
