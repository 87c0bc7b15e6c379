// Tests for the benchmark workloads: generator determinism, the paper's
// query counts (17 / 50 / 236 / 77 / 6), parseability and executability
// of every bundled query, and the compliance-classification machinery.

#include <gtest/gtest.h>

#include <set>

#include "core/engine.h"
#include "eval/algebra_eval.h"
#include "sparql/features.h"
#include "sparql/parser.h"
#include "workloads/beseppi.h"
#include "workloads/feasible.h"
#include "workloads/gmark.h"
#include "workloads/ontobench.h"
#include "workloads/runner.h"
#include "workloads/sp2bench.h"
#include "workloads/systems.h"

namespace sparqlog::workloads {
namespace {

TEST(Sp2bTest, GeneratorIsDeterministicAndSized) {
  rdf::TermDictionary d1, d2;
  rdf::Dataset a(&d1), b(&d2);
  Sp2bOptions options;
  options.target_triples = 2000;
  GenerateSp2b(options, &a);
  GenerateSp2b(options, &b);
  EXPECT_EQ(a.default_graph().size(), b.default_graph().size());
  EXPECT_GE(a.default_graph().size(), 2000u);
  EXPECT_LE(a.default_graph().size(), 2100u);
}

TEST(Sp2bTest, SeventeenQueriesAllParse) {
  rdf::TermDictionary dict;
  auto queries = Sp2bQueries();
  EXPECT_EQ(queries.size(), 17u);
  std::set<std::string> names;
  for (const auto& [name, text] : queries) {
    names.insert(name);
    auto q = sparql::ParseQuery(text, &dict);
    EXPECT_TRUE(q.ok()) << name << ": " << q.status().ToString();
  }
  EXPECT_EQ(names.size(), 17u);
}

TEST(Sp2bTest, QueriesProduceResultsOnGeneratedData) {
  rdf::TermDictionary dict;
  rdf::Dataset dataset(&dict);
  Sp2bOptions options;
  options.target_triples = 1500;
  GenerateSp2b(options, &dataset);
  core::Engine engine(&dataset, &dict);
  ASSERT_TRUE(engine.Load().ok());
  // Spot-check queries that must be non-empty on any generated instance.
  for (const char* name : {"q1", "q2", "q3a", "q5b", "q10", "q11"}) {
    for (const auto& [qname, text] : Sp2bQueries()) {
      if (qname != name) continue;
      auto result = engine.ExecuteText(text);
      ASSERT_TRUE(result.ok()) << qname << ": "
                               << result.status().ToString();
      EXPECT_FALSE(result->result.rows.empty()) << qname;
    }
  }
}

TEST(GmarkTest, ScenariosAndDeterminism) {
  GmarkScenario social = GmarkSocial();
  EXPECT_EQ(social.predicates.size(), 12u);
  auto q1 = GenerateGmarkQueries(social);
  auto q2 = GenerateGmarkQueries(social);
  EXPECT_EQ(q1, q2);
  EXPECT_EQ(q1.size(), 50u);
  EXPECT_EQ(GenerateGmarkQueries(GmarkTest()).size(), 50u);
}

TEST(GmarkTest, AllQueriesParseAndUsePaths) {
  rdf::TermDictionary dict;
  size_t with_recursion = 0;
  for (const auto& scenario : {GmarkSocial(), GmarkTest()}) {
    for (const auto& text : GenerateGmarkQueries(scenario)) {
      auto q = sparql::ParseQuery(text, &dict);
      ASSERT_TRUE(q.ok()) << text << "\n" << q.status().ToString();
      auto f = sparql::AnalyzeFeatures(*q);
      if (f.path_one_or_more || f.path_zero_or_more || f.path_counted) {
        ++with_recursion;
      }
    }
  }
  // The workload must exercise recursion heavily (its entire point).
  EXPECT_GE(with_recursion, 30u);
}

TEST(GmarkTest, GraphHasRequestedShape) {
  rdf::TermDictionary dict;
  rdf::Dataset dataset(&dict);
  GmarkScenario s = GmarkTest();
  GenerateGmarkGraph(s, &dataset);
  EXPECT_EQ(dataset.default_graph().size(), s.edges);
  EXPECT_LE(dataset.default_graph().Predicates().size(),
            s.predicates.size());
}

TEST(BeseppiTest, CategoryCountsMatchTable3) {
  auto queries = BeseppiQueries();
  EXPECT_EQ(queries.size(), 236u);
  std::map<std::string, int> counts;
  for (const auto& q : queries) counts[q.category]++;
  EXPECT_EQ(counts["Inverse"], 20);
  EXPECT_EQ(counts["Sequence"], 24);
  EXPECT_EQ(counts["Alternative"], 23);
  EXPECT_EQ(counts["ZeroOrOne"], 24);
  EXPECT_EQ(counts["OneOrMore"], 34);
  EXPECT_EQ(counts["ZeroOrMore"], 38);
  EXPECT_EQ(counts["Negated"], 73);
}

TEST(BeseppiTest, AllQueriesParseAndEvaluate) {
  rdf::TermDictionary dict;
  rdf::Dataset dataset(&dict);
  GenerateBeseppiGraph(&dataset);
  for (const auto& bq : BeseppiQueries()) {
    auto q = sparql::ParseQuery(bq.text, &dict);
    ASSERT_TRUE(q.ok()) << bq.name << ": " << bq.text;
    ExecContext ctx;
    eval::AlgebraEvaluator ref(dataset, &dict, &ctx);
    auto r = ref.EvalQuery(*q);
    ASSERT_TRUE(r.ok()) << bq.name << ": " << r.status().ToString();
  }
}

TEST(FeasibleTest, SeventySevenQueriesParse) {
  rdf::TermDictionary dict;
  auto queries = FeasibleQueries();
  EXPECT_EQ(queries.size(), 77u);
  size_t distinct = 0, graph = 0, regex = 0;
  for (const auto& [name, text] : queries) {
    auto q = sparql::ParseQuery(text, &dict);
    ASSERT_TRUE(q.ok()) << name << ": " << q.status().ToString() << "\n"
                        << text;
    auto f = sparql::AnalyzeFeatures(*q);
    distinct += f.distinct;
    graph += f.graph;
    regex += f.regex;
  }
  // The paper's feature mix, loosely: DISTINCT heavy, GRAPH ~10%, REGEX ~9%.
  EXPECT_GE(distinct, 20u);
  EXPECT_GE(graph, 6u);
  EXPECT_GE(regex, 5u);
}

TEST(FeasibleTest, SwdfHasNamedGraph) {
  rdf::TermDictionary dict;
  rdf::Dataset dataset(&dict);
  GenerateSwdf(&dataset, 99, 100);
  EXPECT_GT(dataset.default_graph().size(), 300u);
  EXPECT_EQ(dataset.named_graphs().size(), 1u);
}

TEST(OntoBenchTest, SixQueriesAndOntologyTriples) {
  rdf::TermDictionary dict;
  rdf::Dataset dataset(&dict);
  OntoBenchOptions options;
  options.sp2b_triples = 1000;
  GenerateOntoBench(options, &dataset);
  EXPECT_EQ(OntoBenchQueries().size(), 6u);
  // subClassOf / subPropertyOf statements present.
  rdf::TermId sub_class = dict.InternIri(std::string(rdf::rdfns::kSubClassOf));
  size_t n = 0;
  dataset.default_graph().Match(std::nullopt, sub_class, std::nullopt,
                                [&](const rdf::Triple&) { ++n; });
  EXPECT_GE(n, 6u);
}

// Cache differential over the bundled workloads: every query swept twice
// through one engine (cold then warm) must reproduce bit-identical
// solutions, with the warm pass served from the program cache. This is
// the repeated-query serving scenario the caches exist for, exercised on
// realistic query mixes (SP2Bench's joins/optionals/filters and gMark's
// recursive paths).
TEST(CacheDifferentialTest, Sp2bQueriesColdWarmBitIdentical) {
  rdf::TermDictionary dict;
  rdf::Dataset dataset(&dict);
  Sp2bOptions options;
  options.target_triples = 800;
  GenerateSp2b(options, &dataset);

  core::Engine::Options eopts;
  eopts.timeout = std::chrono::seconds(10);
  eopts.tuple_budget = 4'000'000;
  core::Engine engine(&dataset, &dict, eopts);
  ASSERT_TRUE(engine.Load().ok());

  size_t swept = 0;
  for (const auto& [name, text] : Sp2bQueries()) {
    uint64_t hits_before = engine.stats().program_hits;
    auto cold = engine.ExecuteText(text);
    if (!cold.ok()) continue;  // over-budget queries can't be compared
    auto warm = engine.ExecuteText(text);
    ASSERT_TRUE(warm.ok()) << name << ": " << warm.status().ToString();
    EXPECT_EQ(cold->result.columns, warm->result.columns) << name;
    EXPECT_TRUE(cold->result.rows == warm->result.rows)
        << name << ": warm run diverged (" << cold->result.rows.size()
        << " vs " << warm->result.rows.size() << " rows)";
    EXPECT_EQ(warm->result.ask_value, cold->result.ask_value) << name;
    EXPECT_GT(engine.stats().program_hits, hits_before) << name;
    ++swept;
  }
  // The suite must actually sweep the workload, not skip it wholesale.
  EXPECT_GE(swept, 12u);
}

TEST(CacheDifferentialTest, GmarkQueriesColdWarmBitIdentical) {
  rdf::TermDictionary dict;
  rdf::Dataset dataset(&dict);
  GmarkScenario scenario = GmarkTest();
  GenerateGmarkGraph(scenario, &dataset);

  core::Engine::Options eopts;
  eopts.timeout = std::chrono::seconds(10);
  eopts.tuple_budget = 4'000'000;
  core::Engine engine(&dataset, &dict, eopts);
  ASSERT_TRUE(engine.Load().ok());

  size_t swept = 0;
  for (const auto& text : GenerateGmarkQueries(scenario)) {
    uint64_t hits_before = engine.stats().program_hits;
    auto cold = engine.ExecuteText(text);
    if (!cold.ok()) continue;
    auto warm = engine.ExecuteText(text);
    ASSERT_TRUE(warm.ok()) << text << "\n" << warm.status().ToString();
    EXPECT_EQ(cold->result.columns, warm->result.columns) << text;
    EXPECT_TRUE(cold->result.rows == warm->result.rows)
        << text << "\nwarm run diverged (" << cold->result.rows.size()
        << " vs " << warm->result.rows.size() << " rows)";
    EXPECT_GT(engine.stats().program_hits, hits_before) << text;
    ++swept;
  }
  EXPECT_GE(swept, 30u);
  // The recursive-path workload must exercise the stratum memo.
  EXPECT_GT(engine.stats().stratum_hits, 0u);
}

// Planner differential over the bundled workloads: the cost-based join
// planner must never change solution multisets (or ORDER BY row order) on
// realistic query mixes, at any thread count. Planner-off is the exact
// pre-planner pipeline (translation-order bodies, runtime heuristic), so
// this pins the planner as a pure evaluation-order optimization.
void SweepPlannerDifferential(const rdf::Dataset& dataset,
                              rdf::TermDictionary* dict,
                              const std::vector<std::string>& names,
                              const std::vector<std::string>& queries,
                              size_t min_swept) {
  for (uint32_t threads : {1u, 2u, 8u}) {
    core::Engine::Options on;
    on.timeout = std::chrono::seconds(10);
    on.tuple_budget = 4'000'000;
    on.parallelism.num_threads = threads;
    core::Engine::Options off = on;
    off.planner.join_planner = false;
    core::Engine planned(&dataset, dict, on);
    core::Engine plain(&dataset, dict, off);
    ASSERT_TRUE(planned.Load().ok());
    ASSERT_TRUE(plain.Load().ok());
    size_t swept = 0;
    for (size_t i = 0; i < queries.size(); ++i) {
      auto parsed = sparql::ParseQuery(queries[i], dict);
      ASSERT_TRUE(parsed.ok()) << names[i];
      auto a = planned.Execute(*parsed);
      auto b = plain.Execute(*parsed);
      // A budget-class failure (timeout / mem-out) on either side leaves
      // nothing to compare — slow hosts (Debug, sanitizers) legitimately
      // blow the 10 s deadline on the heaviest queries, on either engine.
      // Skip those; min_swept still enforces coverage. Any other failure
      // is a real bug and still fails the sweep.
      auto over_budget = [](const Status& s) {
        return s.IsTimeout() || s.IsResourceExhausted();
      };
      if (over_budget(a.status()) || over_budget(b.status())) continue;
      ASSERT_TRUE(a.ok()) << names[i] << " threads " << threads << ": "
                          << a.status().ToString();
      ASSERT_TRUE(b.ok()) << names[i] << " threads " << threads << ": "
                          << b.status().ToString();
      EXPECT_EQ(a->result.columns, b->result.columns) << names[i];
      EXPECT_TRUE(a->result.SameSolutions(b->result))
          << names[i] << " threads " << threads
          << ": planner changed solutions (" << a->result.rows.size()
          << " vs " << b->result.rows.size() << " rows)";
      if (!parsed->order_by.empty()) {
        EXPECT_TRUE(a->result.rows == b->result.rows)
            << names[i] << " threads " << threads
            << ": planner changed ORDER BY output";
      }
      ++swept;
    }
    EXPECT_GE(swept, min_swept) << "threads " << threads;
    // The planner actually ran on the planned engine...
    EXPECT_GT(planned.stats().plans_computed, 0u);
    // ...and never on the planner-off engine.
    EXPECT_EQ(plain.stats().plans_computed, 0u);
  }
}

TEST(PlannerDifferentialTest, Sp2bQueriesMatchAcrossThreadCounts) {
  rdf::TermDictionary dict;
  rdf::Dataset dataset(&dict);
  Sp2bOptions options;
  options.target_triples = 600;
  GenerateSp2b(options, &dataset);
  std::vector<std::string> names, queries;
  for (const auto& [name, text] : Sp2bQueries()) {
    names.push_back(name);
    queries.push_back(text);
  }
  SweepPlannerDifferential(dataset, &dict, names, queries, 12);
}

TEST(PlannerDifferentialTest, GmarkQueriesMatchAcrossThreadCounts) {
  rdf::TermDictionary dict;
  rdf::Dataset dataset(&dict);
  GmarkScenario scenario = GmarkTest();
  GenerateGmarkGraph(scenario, &dataset);
  std::vector<std::string> queries = GenerateGmarkQueries(scenario);
  std::vector<std::string> names;
  for (size_t i = 0; i < queries.size(); ++i) {
    names.push_back("gmark" + std::to_string(i));
  }
  SweepPlannerDifferential(dataset, &dict, names, queries, 30);
}

// The warm-repeat serving mode of the SparqLog adapter: Run() re-executes
// the query on the warm engine, records the warm timing and real cache
// hits, and FormatCacheStats renders them for harness tables.
TEST(CacheDifferentialTest, SparqLogSystemWarmRepeatRecordsCacheHits) {
  rdf::TermDictionary dict;
  rdf::Dataset dataset(&dict);
  Sp2bOptions options;
  options.target_triples = 400;
  GenerateSp2b(options, &dataset);
  Limits limits;
  limits.timeout_ms = 10000;
  limits.warm_repeat = true;

  auto system = MakeSparqLogSystem(&dataset, &dict, limits);
  RunRecord r = system->Run(
      Sp2bPrefixes() + "SELECT ?j WHERE { ?j rdf:type bench:Journal }");
  ASSERT_TRUE(r.ok()) << r.message;
  EXPECT_GE(r.warm_exec_seconds, 0.0);
  EXPECT_EQ(r.engine.program_hits, 1u);
  EXPECT_EQ(r.engine.program_misses, 1u);
  EXPECT_GT(r.engine.stratum_hits, 0u);
  EXPECT_GT(r.engine.tuples_restored, 0u);
  // The cold run planned once; the warm repeat reused the cached plan.
  EXPECT_EQ(r.engine.plans_computed, 1u);
  EXPECT_EQ(r.engine.plan_cache_hits, 1u);
  EXPECT_GE(r.plan_estimate_error, 1.0);
  std::string line = FormatCacheStats(r);
  EXPECT_NE(line.find("Tq 1h/0r/1m"), std::string::npos) << line;
  EXPECT_NE(line.find("plan 1c/1h"), std::string::npos) << line;
}

// The fixpoint-parallelism counters render only when a run actually
// fanned out, so serial baselines keep the historical one-line format.
// FormatCacheStats reads the run's embedded EngineStats snapshot.
TEST(RunnerTest, FormatCacheStatsIncludesParallelCounters) {
  RunRecord r;
  r.engine.program_hits = 1;
  r.engine.program_misses = 1;
  std::string serial_line = FormatCacheStats(r);
  EXPECT_NE(serial_line.find("Tq 1h/0r/1m"), std::string::npos)
      << serial_line;
  EXPECT_EQ(serial_line.find("par "), std::string::npos) << serial_line;
  r.engine.parallel_rounds = 6;
  r.engine.naive_rounds_sharded = 1;
  r.engine.staged_tuples_merged = 120;
  r.engine.merge_fanout_width = 4;
  r.engine.interning_contention = 2;
  std::string line = FormatCacheStats(r);
  EXPECT_NE(line.find("par 6r/1n"), std::string::npos) << line;
  EXPECT_NE(line.find("120 merged ×4"), std::string::npos) << line;
  EXPECT_NE(line.find("2 contended"), std::string::npos) << line;
  // Planner counters render only when the planner ran.
  EXPECT_EQ(line.find("plan "), std::string::npos) << line;
  r.engine.plans_computed = 2;
  r.engine.plan_cache_hits = 1;
  r.plan_estimate_error = 1.5;
  std::string planned_line = FormatCacheStats(r);
  EXPECT_NE(planned_line.find("plan 2c/1h q1.5"), std::string::npos)
      << planned_line;
  // TC-kernel counters render only when the kernel ran.
  EXPECT_EQ(planned_line.find("tc "), std::string::npos) << planned_line;
  r.engine.tc_kernels_hit = 3;
  r.engine.tc_dense_frontiers = 1;
  r.engine.tc_sparse_frontiers = 2;
  std::string tc_line = FormatCacheStats(r);
  EXPECT_NE(tc_line.find("tc 3k (1d/2s)"), std::string::npos) << tc_line;
}

TEST(RunnerTest, OutcomeClassification) {
  EXPECT_EQ(ClassifyStatus(Status::OK()), Outcome::kOk);
  EXPECT_EQ(ClassifyStatus(Status::Timeout("t")), Outcome::kTimeout);
  EXPECT_EQ(ClassifyStatus(Status::ResourceExhausted("m")), Outcome::kMemOut);
  EXPECT_EQ(ClassifyStatus(Status::NotSupported("n")),
            Outcome::kNotSupported);
  EXPECT_EQ(ClassifyStatus(Status::Internal("x")), Outcome::kError);
}

TEST(RunnerTest, ComplianceClassification) {
  eval::QueryResult expected;
  expected.columns = {"x"};
  expected.rows = {{1}, {2}, {2}};

  RunRecord exact;
  exact.result = expected;
  ComplianceClass c = Classify(exact, expected);
  EXPECT_TRUE(c.correct && c.complete && !c.error);

  RunRecord incomplete;  // lost a duplicate
  incomplete.result.columns = {"x"};
  incomplete.result.rows = {{1}, {2}};
  c = Classify(incomplete, expected);
  EXPECT_TRUE(c.correct);
  EXPECT_FALSE(c.complete);

  RunRecord incorrect;  // invented a row
  incorrect.result.columns = {"x"};
  incorrect.result.rows = {{1}, {2}, {2}, {9}};
  c = Classify(incorrect, expected);
  EXPECT_FALSE(c.correct);
  EXPECT_TRUE(c.complete);

  RunRecord failed;
  failed.outcome = Outcome::kTimeout;
  c = Classify(failed, expected);
  EXPECT_TRUE(c.error);
}

TEST(SystemsTest, AllFourSystemsAnswerASimpleQuery) {
  rdf::TermDictionary dict;
  rdf::Dataset dataset(&dict);
  Sp2bOptions options;
  options.target_triples = 400;
  GenerateSp2b(options, &dataset);
  Limits limits;
  limits.timeout_ms = 10000;

  const std::string query = Sp2bPrefixes() +
                            "SELECT ?j WHERE { ?j rdf:type bench:Journal }";
  auto sparqlog_sys = MakeSparqLogSystem(&dataset, &dict, limits);
  auto fuseki = MakeFusekiSystem(&dataset, &dict, limits);
  auto virtuoso = MakeVirtuosoSystem(&dataset, &dict, limits);
  auto stardog = MakeStardogSystem(&dataset, &dict, limits);

  RunRecord base = fuseki->Run(query);
  ASSERT_TRUE(base.ok()) << base.message;
  EXPECT_FALSE(base.result.rows.empty());
  for (auto* sys : {sparqlog_sys.get(), virtuoso.get(), stardog.get()}) {
    RunRecord r = sys->Run(query);
    ASSERT_TRUE(r.ok()) << sys->name() << ": " << r.message;
    EXPECT_TRUE(r.result.SameSolutions(base.result)) << sys->name();
    EXPECT_GT(r.load_seconds, 0.0) << sys->name();
  }
}

TEST(SystemsTest, VirtuosoRejectsTwoVarRecursivePaths) {
  rdf::TermDictionary dict;
  rdf::Dataset dataset(&dict);
  GenerateBeseppiGraph(&dataset);
  Limits limits;
  auto virtuoso = MakeVirtuosoSystem(&dataset, &dict, limits);
  RunRecord r = virtuoso->Run(
      "SELECT ?x ?y WHERE { ?x <http://example.org/beseppi/p>+ ?y }");
  EXPECT_EQ(r.outcome, Outcome::kNotSupported);
}

}  // namespace
}  // namespace sparqlog::workloads
