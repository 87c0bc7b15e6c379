// Micro-ablations (google-benchmark) for the design choices DESIGN.md
// calls out: semi-naive vs naive fixpoint (the mechanism behind the
// Figure 10 gap), indexed joins, term-dictionary interning, Skolem-term
// interning (the duplicate-preservation machinery of §4.3), and the
// translated-pipeline evaluation of a transitive closure vs the direct
// per-source search of the reference evaluator.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "datalog/evaluator.h"
#include "eval/algebra_eval.h"
#include "rdf/dictionary.h"
#include "sparql/parser.h"
#include "util/hash.h"
#include "util/thread_pool.h"
#include "workloads/gmark.h"
#include "workloads/sp2bench.h"

namespace {

using namespace sparqlog;

/// Chain-with-shortcuts graph: n nodes, edges i->i+1 plus skips.
void BuildChainGraph(size_t n, rdf::TermDictionary* dict,
                     rdf::Dataset* dataset) {
  rdf::TermId p = dict->InternIri("http://b.org/p");
  auto node = [&](size_t i) {
    return dict->InternIri("http://b.org/n" + std::to_string(i));
  };
  for (size_t i = 0; i + 1 < n; ++i) {
    dataset->default_graph().Add(node(i), p, node(i + 1));
    if (i % 7 == 0 && i + 5 < n) {
      dataset->default_graph().Add(node(i), p, node(i + 5));
    }
  }
}

/// Transitive closure program: tc(X,Y) :- edge(X,Y); tc(X,Z) :- edge(X,Y), tc(Y,Z).
datalog::Program ClosureProgram(datalog::Database* edb,
                                const rdf::Dataset& dataset,
                                rdf::TermDictionary* dict) {
  datalog::Program program;
  datalog::PredicateId edge = program.predicates.Intern("edge", 2);
  for (const auto& t : dataset.default_graph().triples()) {
    edb->relation(edge, 2).Insert(
        {datalog::ValueFromTerm(t.s), datalog::ValueFromTerm(t.o)}, 0);
  }
  (void)dict;
  datalog::RuleBuilder rb(&program.predicates);
  rb.Head("tc", {rb.Var("X"), rb.Var("Y")});
  rb.Body("edge", {rb.Var("X"), rb.Var("Y")});
  program.rules.push_back(rb.Build());
  rb.Head("tc", {rb.Var("X"), rb.Var("Z")});
  rb.Body("edge", {rb.Var("X"), rb.Var("Y")});
  rb.Body("tc", {rb.Var("Y"), rb.Var("Z")});
  program.rules.push_back(rb.Build());
  program.output.predicate = *program.predicates.Lookup("tc");
  program.output.has_graph_column = false;
  return program;
}

void BM_TransitiveClosure_SemiNaive(benchmark::State& state) {
  rdf::TermDictionary dict;
  rdf::Dataset dataset(&dict);
  BuildChainGraph(static_cast<size_t>(state.range(0)), &dict, &dataset);
  for (auto _ : state) {
    datalog::Database edb;
    datalog::Program program = ClosureProgram(&edb, dataset, &dict);
    datalog::SkolemStore skolems;
    datalog::Evaluator evaluator(&dict, &skolems);
    datalog::Database idb;
    ExecContext ctx;
    auto st = evaluator.Evaluate(program, &edb, &idb, &ctx);
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
    benchmark::DoNotOptimize(idb.TotalTuples());
  }
}
BENCHMARK(BM_TransitiveClosure_SemiNaive)->Arg(200)->Arg(400);

void BM_TransitiveClosure_Naive(benchmark::State& state) {
  rdf::TermDictionary dict;
  rdf::Dataset dataset(&dict);
  BuildChainGraph(static_cast<size_t>(state.range(0)), &dict, &dataset);
  for (auto _ : state) {
    datalog::Database edb;
    datalog::Program program = ClosureProgram(&edb, dataset, &dict);
    datalog::SkolemStore skolems;
    datalog::Evaluator evaluator(&dict, &skolems);
    evaluator.set_mode(datalog::FixpointMode::kNaive);
    datalog::Database idb;
    ExecContext ctx;
    auto st = evaluator.Evaluate(program, &edb, &idb, &ctx);
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
    benchmark::DoNotOptimize(idb.TotalTuples());
  }
}
BENCHMARK(BM_TransitiveClosure_Naive)->Arg(200)->Arg(400);

/// Sharded semi-naive fixpoint: args are (nodes, num_threads). The
/// num_threads=1 row is the serial path for in-run comparison; on a 4+
/// core machine the 4-thread row is the ISSUE-2 ≥2x target against it.
void BM_TransitiveClosure_Parallel(benchmark::State& state) {
  rdf::TermDictionary dict;
  rdf::Dataset dataset(&dict);
  BuildChainGraph(static_cast<size_t>(state.range(0)), &dict, &dataset);
  for (auto _ : state) {
    datalog::Database edb;
    datalog::Program program = ClosureProgram(&edb, dataset, &dict);
    datalog::SkolemStore skolems;
    datalog::Evaluator evaluator(&dict, &skolems);
    evaluator.set_num_threads(static_cast<uint32_t>(state.range(1)));
    datalog::Database idb;
    ExecContext ctx;
    auto st = evaluator.Evaluate(program, &edb, &idb, &ctx);
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
    benchmark::DoNotOptimize(idb.TotalTuples());
  }
}
BENCHMARK(BM_TransitiveClosure_Parallel)
    ->Args({400, 1})
    ->Args({400, 2})
    ->Args({400, 4});

// --- Barrier-merge microbenchmark ------------------------------------------
// The round-barrier merge in isolation: W=4 workers' staging stores for P
// predicates, merged into fresh relations either by a serial
// worker-then-predicate InsertStaged loop (the baseline, kept here only)
// or with the engine's per-predicate fan-out (MergeStagedParallel on a
// 4-worker pool). Arenas are bit-identical either way; on a multi-core
// host the fan-out row should beat the serial row once P > 1. The arg
// is P.

struct BarrierMergeFixture {
  static constexpr size_t kWorkers = 4;
  static constexpr size_t kTuplesPerStore = 20000;

  explicit BarrierMergeFixture(size_t num_preds) {
    Rng rng(7);
    staging.resize(num_preds);
    for (size_t p = 0; p < num_preds; ++p) {
      for (size_t w = 0; w < kWorkers; ++w) {
        staging[p].emplace_back(2);
        datalog::TupleStore& store = staging[p].back();
        for (size_t i = 0; i < kTuplesPerStore; ++i) {
          // ~25% of tuples overlap across workers (re-derivation mix).
          uint64_t k = rng.Uniform(4) == 0
                           ? i
                           : (w + 1) * 1000003u + i;
          datalog::Value row[2] = {k * 2654435761u % 500009, k % 977};
          bool fresh = false;
          store.Insert(row, &fresh);
        }
      }
    }
  }

  std::vector<std::vector<datalog::TupleStore>> staging;
};

void BM_BarrierMerge_Serial(benchmark::State& state) {
  BarrierMergeFixture fx(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    std::vector<std::unique_ptr<datalog::Relation>> targets;
    uint64_t merged = 0;
    for (size_t p = 0; p < fx.staging.size(); ++p) {
      targets.push_back(std::make_unique<datalog::Relation>(2));
    }
    for (size_t w = 0; w < BarrierMergeFixture::kWorkers; ++w) {
      for (size_t p = 0; p < fx.staging.size(); ++p) {
        merged += targets[p]->InsertStaged(fx.staging[p][w], 1);
      }
    }
    benchmark::DoNotOptimize(merged);
  }
  state.SetItemsProcessed(state.iterations() * fx.staging.size() *
                          BarrierMergeFixture::kWorkers *
                          BarrierMergeFixture::kTuplesPerStore);
}
BENCHMARK(BM_BarrierMerge_Serial)->Arg(1)->Arg(4)->Arg(8);

void BM_BarrierMerge_Fanout(benchmark::State& state) {
  BarrierMergeFixture fx(static_cast<size_t>(state.range(0)));
  ThreadPool pool(BarrierMergeFixture::kWorkers);
  for (auto _ : state) {
    std::vector<std::unique_ptr<datalog::Relation>> targets;
    std::vector<datalog::StagedMergeTask> tasks;
    for (size_t p = 0; p < fx.staging.size(); ++p) {
      targets.push_back(std::make_unique<datalog::Relation>(2));
      datalog::StagedMergeTask task;
      task.target = targets[p].get();
      for (const datalog::TupleStore& s : fx.staging[p]) {
        task.sources.push_back(&s);
      }
      tasks.push_back(std::move(task));
    }
    ExecContext ctx;
    uint32_t fanout = 0;
    auto merged = datalog::MergeStagedParallel(&tasks, 1, &pool, &ctx, &fanout);
    if (!merged.ok()) {
      state.SkipWithError(merged.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(*merged);
  }
  state.SetItemsProcessed(state.iterations() * fx.staging.size() *
                          BarrierMergeFixture::kWorkers *
                          BarrierMergeFixture::kTuplesPerStore);
}
BENCHMARK(BM_BarrierMerge_Fanout)->Arg(1)->Arg(4)->Arg(8);

// --- End-to-end parallel SP2Bench row --------------------------------------
// The workload the ISSUE-5 fan-out targets: a recursive property path
// over the SP2Bench citation graph (dcterms:references+), engine
// end-to-end with caches off so every iteration runs the full sharded
// fixpoint. Args are (target_triples, num_threads); the 1-thread row is
// the in-run serial baseline for the multi-core speedup.

void BM_Sp2b_Parallel(benchmark::State& state) {
  rdf::TermDictionary dict;
  rdf::Dataset dataset(&dict);
  workloads::Sp2bOptions options;
  options.target_triples = static_cast<size_t>(state.range(0));
  workloads::GenerateSp2b(options, &dataset);
  core::Engine::Options engine_options;
  engine_options.caching.program_cache = false;
  engine_options.caching.stratum_memo = false;
  engine_options.parallelism.num_threads = static_cast<uint32_t>(state.range(1));
  core::Engine engine(&dataset, &dict, engine_options);
  if (!engine.Load().ok()) {
    state.SkipWithError("load failed");
    return;
  }
  const std::string query =
      "PREFIX dcterms: <http://purl.org/dc/terms/> "
      "SELECT ?x ?y WHERE { ?x dcterms:references+ ?y }";
  for (auto _ : state) {
    auto result = engine.ExecuteText(query);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(result->result.rows.size());
  }
}
BENCHMARK(BM_Sp2b_Parallel)
    ->Args({6000, 1})
    ->Args({6000, 2})
    ->Args({6000, 4});

// --- Cost-based join planner -------------------------------------------

// Plan-sensitive SP2Bench star, written dense-atoms-first: dcterms:issued
// and dc:title cover every document, rdf:type bench:Journal a handful.
// All three patterns scan the one `triple` relation, so the planner-off
// runtime heuristic (size-based) cannot tell them apart and executes in
// written order — a full-document scan. Planner-on reads the predicate
// histogram and starts from the Journal pattern. Arg(1): 0 = planner
// off, 1 = on.
void BM_JoinPlanner_Sp2bStar(benchmark::State& state) {
  rdf::TermDictionary dict;
  rdf::Dataset dataset(&dict);
  workloads::Sp2bOptions options;
  options.target_triples = static_cast<size_t>(state.range(0));
  workloads::GenerateSp2b(options, &dataset);
  core::Engine::Options engine_options;
  engine_options.caching.program_cache = false;
  engine_options.caching.stratum_memo = false;
  engine_options.planner.join_planner = state.range(1) != 0;
  core::Engine engine(&dataset, &dict, engine_options);
  if (!engine.Load().ok()) {
    state.SkipWithError("load failed");
    return;
  }
  const std::string query = workloads::Sp2bPrefixes() +
                            "SELECT ?yr ?t WHERE { ?d dcterms:issued ?yr . "
                            "?d dc:title ?t . ?d rdf:type bench:Journal }";
  for (auto _ : state) {
    auto result = engine.ExecuteText(query);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(result->result.rows.size());
  }
}
BENCHMARK(BM_JoinPlanner_Sp2bStar)->Args({20000, 0})->Args({20000, 1});

// Synthetic subject star: every subject carries two dense predicates, a
// handful also the rare one; the query is written dense-first. The
// characteristic-set statistics give the planner the exact star count.
void BM_JoinPlanner_SyntheticStar(benchmark::State& state) {
  rdf::TermDictionary dict;
  rdf::Dataset dataset(&dict);
  const size_t n = static_cast<size_t>(state.range(0));
  rdf::TermId p1 = dict.InternIri("http://b.org/p1");
  rdf::TermId p2 = dict.InternIri("http://b.org/p2");
  rdf::TermId rare = dict.InternIri("http://b.org/rare");
  auto node = [&](const char* prefix, size_t i) {
    return dict.InternIri(std::string("http://b.org/") + prefix +
                          std::to_string(i));
  };
  for (size_t i = 0; i < n; ++i) {
    rdf::TermId s = node("s", i);
    dataset.default_graph().Add(s, p1, node("a", i));
    dataset.default_graph().Add(s, p2, node("b", i));
    if (i % 256 == 0) dataset.default_graph().Add(s, rare, node("r", i));
  }
  core::Engine::Options engine_options;
  engine_options.caching.program_cache = false;
  engine_options.caching.stratum_memo = false;
  engine_options.planner.join_planner = state.range(1) != 0;
  core::Engine engine(&dataset, &dict, engine_options);
  if (!engine.Load().ok()) {
    state.SkipWithError("load failed");
    return;
  }
  const std::string query =
      "PREFIX b: <http://b.org/> SELECT ?s ?v WHERE "
      "{ ?s b:p1 ?a . ?s b:p2 ?b . ?s b:rare ?v }";
  for (auto _ : state) {
    auto result = engine.ExecuteText(query);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(result->result.rows.size());
  }
}
BENCHMARK(BM_JoinPlanner_SyntheticStar)->Args({8192, 0})->Args({8192, 1});

// --- TupleStore microbenchmarks --------------------------------------------
// Isolate the columnar storage hot paths the fixpoint loop is built on:
// deduplicating insert (arena append + open-addressing probe), index probe
// (bucket lookup by bound column), and full cursor scan. Run with
// `--benchmark_out=BENCH_micro_datalog.json --benchmark_out_format=json`
// (see scripts/check.sh) to seed the BENCH_*.json perf trajectory.

/// Deterministic tuple stream with ~30% duplicates, the re-derivation mix
/// a transitive-closure fixpoint sees.
std::vector<std::array<datalog::Value, 2>> MakeTuples(size_t n) {
  std::vector<std::array<datalog::Value, 2>> tuples;
  tuples.reserve(n);
  Rng rng(42);
  size_t distinct = n * 7 / 10 + 1;
  for (size_t i = 0; i < n; ++i) {
    uint64_t k = rng.Uniform(distinct);
    tuples.push_back({k * 2654435761u % distinct, k % 977});
  }
  return tuples;
}

void BM_TupleStoreInsert(benchmark::State& state) {
  auto tuples = MakeTuples(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    datalog::Relation rel(2);
    for (const auto& t : tuples) rel.Insert(t.data(), 0);
    benchmark::DoNotOptimize(rel.size());
  }
  state.SetItemsProcessed(state.iterations() * tuples.size());
}
BENCHMARK(BM_TupleStoreInsert)->Arg(10000)->Arg(100000);

void BM_TupleStoreBulkLoad(benchmark::State& state) {
  // Same duplicate-heavy stream as BM_TupleStoreInsert, loaded through
  // the one-shot-sized-table path instead of per-tuple grow-and-probe.
  auto tuples = MakeTuples(static_cast<size_t>(state.range(0)));
  std::vector<datalog::Value> flat;
  flat.reserve(tuples.size() * 2);
  for (const auto& t : tuples) {
    flat.push_back(t[0]);
    flat.push_back(t[1]);
  }
  for (auto _ : state) {
    datalog::Relation rel(2);
    rel.BulkLoad(flat);
    benchmark::DoNotOptimize(rel.size());
  }
  state.SetItemsProcessed(state.iterations() * tuples.size());
}
BENCHMARK(BM_TupleStoreBulkLoad)->Arg(10000)->Arg(100000);

void BM_TupleStoreProbe(benchmark::State& state) {
  auto tuples = MakeTuples(static_cast<size_t>(state.range(0)));
  datalog::Relation rel(2);
  for (const auto& t : tuples) rel.Insert(t.data(), 0);
  const std::vector<uint32_t> cols = {0};
  std::vector<datalog::Value> key(1);
  datalog::MatchSpan span;
  rel.Probe(cols, key, &span);  // build the index outside the timed loop
  uint64_t i = 0;
  for (auto _ : state) {
    key[0] = tuples[i % tuples.size()][0];
    rel.Probe(cols, key, &span);
    uint64_t sum = 0;
    for (uint32_t id : span) sum += id;
    benchmark::DoNotOptimize(sum);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TupleStoreProbe)->Arg(10000)->Arg(100000);

void BM_TupleStoreScan(benchmark::State& state) {
  auto tuples = MakeTuples(static_cast<size_t>(state.range(0)));
  datalog::Relation rel(2);
  for (const auto& t : tuples) rel.Insert(t.data(), 0);
  for (auto _ : state) {
    uint64_t sum = 0;
    for (datalog::RowRef row : rel.rows()) sum += row[0] ^ row[1];
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * rel.size());
}
BENCHMARK(BM_TupleStoreScan)->Arg(10000)->Arg(100000);

/// An update's delete followed by the reads that come after it: an
/// SP2Bench `triple(s, p, o, g)` relation of about `range(0)` rows, with
/// indexes on the column sets serve-mixed's BGP rules probe, loses a
/// 200-row batch that starts 1,000 rows before the tail, then takes one
/// probe per index. The batch goes back to the tail untimed, so each
/// removal also folds 200 appended rows into every index, as an update
/// that inserts one batch and deletes an older one does.
void BM_Relation_DeleteThenProbe(benchmark::State& state) {
  rdf::TermDictionary dict;
  rdf::Dataset dataset(&dict);
  workloads::Sp2bOptions options;
  options.target_triples = static_cast<size_t>(state.range(0));
  workloads::GenerateSp2b(options, &dataset);
  datalog::Relation rel(4);
  for (const rdf::Triple& t : dataset.default_graph().triples()) {
    rel.Insert({datalog::ValueFromTerm(t.s), datalog::ValueFromTerm(t.p),
                datalog::ValueFromTerm(t.o), datalog::Value{0}},
               0);
  }
  const std::vector<std::vector<uint32_t>> subsets = {
      {0, 1, 3}, {1, 2, 3}, {2, 3}, {1, 3}};
  datalog::MatchSpan span;
  std::vector<datalog::Value> key;
  auto probe_all = [&](uint32_t id) {
    for (const std::vector<uint32_t>& cols : subsets) {
      key.clear();
      for (uint32_t c : cols) key.push_back(rel.row(id)[c]);
      rel.Probe(cols, key, &span);
      benchmark::DoNotOptimize(span.size());
    }
  };
  probe_all(0);  // builds the indexes
  constexpr uint32_t kBatch = 200;
  constexpr uint32_t kBeforeTail = 1000;
  std::vector<datalog::Value> batch;
  for (auto _ : state) {
    state.PauseTiming();
    const uint32_t first = static_cast<uint32_t>(rel.size()) - kBeforeTail;
    const datalog::Value* rows = rel.row(first).data();
    batch.assign(rows, rows + kBatch * 4);
    state.ResumeTiming();
    rel.RemoveRows(batch);
    probe_all(first);
    state.PauseTiming();
    rel.InsertStaged(batch.data(), kBatch, 0);
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_Relation_DeleteThenProbe)
    ->Arg(21000)
    ->Unit(benchmark::kMicrosecond);

// --- Cold EDB construction (T_D) -------------------------------------------
// The cold-start ingest the PR 3 caches cannot hide: materializing the
// EDB from an SP2Bench-style dataset, per-tuple (the PR 1 path, kept as
// the reference) vs the batched BulkLoad path the engine now uses on
// Load() and on every Dataset::Generation rebuild. The ISSUE-4
// acceptance target is BulkLoad ≥2x faster than per-tuple on this
// workload. The arg is the generated triple count.

void EdbBuildBenchmark(benchmark::State& state, core::EdbBuild build) {
  rdf::TermDictionary dict;
  rdf::Dataset dataset(&dict);
  workloads::Sp2bOptions options;
  options.target_triples = static_cast<size_t>(state.range(0));
  workloads::GenerateSp2b(options, &dataset);
  for (auto _ : state) {
    datalog::Database edb;
    auto st = core::DataTranslator::Translate(dataset, &dict, &edb, build);
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
    benchmark::DoNotOptimize(edb.TotalTuples());
  }
  state.SetItemsProcessed(state.iterations() * dataset.TotalTriples());
}

void BM_BulkLoad_Sp2bEdb(benchmark::State& state) {
  EdbBuildBenchmark(state, core::EdbBuild::kBulkLoad);
}
BENCHMARK(BM_BulkLoad_Sp2bEdb)->Arg(10000);

void BM_BulkLoad_Sp2bEdbPerTuple(benchmark::State& state) {
  EdbBuildBenchmark(state, core::EdbBuild::kPerTupleInsert);
}
BENCHMARK(BM_BulkLoad_Sp2bEdbPerTuple)->Arg(10000);

void BM_DictionaryIntern(benchmark::State& state) {
  std::vector<std::string> iris;
  for (int i = 0; i < 10000; ++i) {
    iris.push_back("http://bench.example.org/entity/" + std::to_string(i));
  }
  for (auto _ : state) {
    rdf::TermDictionary dict;
    for (const auto& iri : iris) benchmark::DoNotOptimize(dict.InternIri(iri));
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_DictionaryIntern);

void BM_SkolemIntern(benchmark::State& state) {
  datalog::SkolemStore skolems;
  uint32_t fn = skolems.InternFunction("f1");
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(skolems.Intern(fn, {i % 1000, (i / 7) % 997}));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SkolemIntern);

// Tuple-id minting as the translated rules do it: f1(ID1, ID2, vars...)
// with 4-8 arguments, two of them nested Skolem ids (the body atoms'
// tuple ids), mostly misses (every 8th term repeats an earlier one).
void BM_SkolemIntern_TupleIds(benchmark::State& state) {
  datalog::SkolemStore skolems;
  uint32_t leaf = skolems.InternFunction("f0");
  uint32_t fn = skolems.InternFunction("f1");
  std::vector<datalog::Value> ids;
  for (uint64_t i = 0; i < 4096; ++i) ids.push_back(skolems.Intern(leaf, {i}));
  datalog::Value args[8];
  uint64_t i = 0;
  for (auto _ : state) {
    const uint64_t k = (i % 8 == 7) ? i / 2 : i;  // 1 in 8 is a hit
    const size_t n = 4 + k % 5;
    args[0] = ids[k % ids.size()];
    args[1] = ids[(k / ids.size() + k * 31) % ids.size()];
    for (size_t a = 2; a < n; ++a) args[a] = (k * (a + 1)) % 50021;
    benchmark::DoNotOptimize(skolems.Intern(fn, args, n));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SkolemIntern_TupleIds);

// --- Repeated-query cache benchmarks ---------------------------------------
// The serving scenario of the query-shape cache (ISSUE 3): the same
// recursive-path query over a loaded engine, cold (caches disabled: full
// T_Q + fixpoint every iteration) vs warm (shape-keyed program reuse +
// memoized stratum replay). The acceptance target is warm ≥5x cold.

void BM_RepeatedQuery_Cold(benchmark::State& state) {
  rdf::TermDictionary dict;
  rdf::Dataset dataset(&dict);
  BuildChainGraph(500, &dict, &dataset);
  core::Engine::Options options;
  options.caching.program_cache = false;
  options.caching.stratum_memo = false;
  // Single-threaded: these rows are in the calibrated CI gate, where
  // host-adaptive parallelism would be a calibration outlier (see the
  // BM_TransitiveClosure_Parallel note in scripts/bench_compare.py).
  options.parallelism.num_threads = 1;
  core::Engine engine(&dataset, &dict, options);
  if (!engine.Load().ok()) {
    state.SkipWithError("load failed");
    return;
  }
  const std::string query =
      "SELECT ?x ?y WHERE { ?x <http://b.org/p>+ ?y }";
  for (auto _ : state) {
    auto result = engine.ExecuteText(query);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(result->result.rows.size());
  }
}
BENCHMARK(BM_RepeatedQuery_Cold);

void BM_RepeatedQuery_Warm(benchmark::State& state) {
  rdf::TermDictionary dict;
  rdf::Dataset dataset(&dict);
  BuildChainGraph(500, &dict, &dataset);
  core::Engine::Options options;
  options.parallelism.num_threads = 1;  // gated row: see BM_RepeatedQuery_Cold
  core::Engine engine(&dataset, &dict, options);
  if (!engine.Load().ok()) {
    state.SkipWithError("load failed");
    return;
  }
  const std::string query =
      "SELECT ?x ?y WHERE { ?x <http://b.org/p>+ ?y }";
  // Prime the caches outside the timed loop.
  auto primed = engine.ExecuteText(query);
  if (!primed.ok()) {
    state.SkipWithError(primed.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    auto result = engine.ExecuteText(query);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(result->result.rows.size());
  }
}
BENCHMARK(BM_RepeatedQuery_Warm);

/// Closure program over one predicate's triples in the exact stratum
/// shape the TC kernel detects: tc(X,Y) :- step(X,Y);
/// tc(X,Z) :- tc(X,Y), step(Y,Z).
datalog::Program StepClosureProgram(datalog::Database* edb,
                                    const rdf::Dataset& dataset,
                                    rdf::TermId pred) {
  datalog::Program program;
  datalog::PredicateId step = program.predicates.Intern("step", 2);
  dataset.default_graph().Match(
      std::nullopt, pred, std::nullopt, [&](const rdf::Triple& t) {
        edb->relation(step, 2).Insert(
            {datalog::ValueFromTerm(t.s), datalog::ValueFromTerm(t.o)}, 0);
      });
  datalog::RuleBuilder rb(&program.predicates);
  rb.Head("tc", {rb.Var("X"), rb.Var("Y")});
  rb.Body("step", {rb.Var("X"), rb.Var("Y")});
  program.rules.push_back(rb.Build());
  rb.Head("tc", {rb.Var("X"), rb.Var("Z")});
  rb.Body("tc", {rb.Var("X"), rb.Var("Y")});
  rb.Body("step", {rb.Var("Y"), rb.Var("Z")});
  program.rules.push_back(rb.Build());
  program.output.predicate = *program.predicates.Lookup("tc");
  program.output.has_graph_column = false;
  return program;
}

/// `knows+` closure over the gMark social graph (~3.4k step edges, ~1.05M
/// closure tuples) with the transitive-closure kernel on (arg 1) or off
/// (arg 0), measured at the Datalog layer. An end-to-end SPARQL run of
/// the same query spends most of its time in work identical on both
/// sides — skolem interning, the answer join, row materialization — so
/// only the fixpoint itself can expose the kernel's ratio. Serial
/// evaluator, so the gated on/off pair measures the kernel, not shard
/// fan-out. The kernel-on row is the ≥5x perf-gate target against
/// kernel-off.
void BM_PathKernel_GmarkSocialPlus(benchmark::State& state) {
  rdf::TermDictionary dict;
  rdf::Dataset dataset(&dict);
  workloads::GenerateGmarkGraph(workloads::GmarkSocial(), &dataset);
  const rdf::TermId knows = dict.InternIri("http://example.org/gMark/knows");
  const bool kernel = state.range(0) != 0;
  for (auto _ : state) {
    datalog::Database edb;
    datalog::Program program = StepClosureProgram(&edb, dataset, knows);
    datalog::SkolemStore skolems;
    datalog::Evaluator evaluator(&dict, &skolems);
    evaluator.set_tc_kernel(kernel);
    datalog::Database idb;
    ExecContext ctx;
    auto st = evaluator.Evaluate(program, &edb, &idb, &ctx);
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(idb.TotalTuples());
  }
}
BENCHMARK(BM_PathKernel_GmarkSocialPlus)->Arg(0)->Arg(1);

/// Same on/off pair over the chain-with-shortcuts closure — deep
/// frontiers (one BFS level per chain hop) rather than the social
/// graph's shallow fan-out.
void BM_PathKernel_ChainPlus(benchmark::State& state) {
  rdf::TermDictionary dict;
  rdf::Dataset dataset(&dict);
  BuildChainGraph(500, &dict, &dataset);
  const rdf::TermId p = dict.InternIri("http://b.org/p");
  const bool kernel = state.range(0) != 0;
  for (auto _ : state) {
    datalog::Database edb;
    datalog::Program program = StepClosureProgram(&edb, dataset, p);
    datalog::SkolemStore skolems;
    datalog::Evaluator evaluator(&dict, &skolems);
    evaluator.set_tc_kernel(kernel);
    datalog::Database idb;
    ExecContext ctx;
    auto st = evaluator.Evaluate(program, &edb, &idb, &ctx);
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(idb.TotalTuples());
  }
}
BENCHMARK(BM_PathKernel_ChainPlus)->Arg(0)->Arg(1);

void BM_PipelineOneOrMore_SparqLog(benchmark::State& state) {
  rdf::TermDictionary dict;
  rdf::Dataset dataset(&dict);
  BuildChainGraph(500, &dict, &dataset);
  const std::string query =
      "SELECT ?x ?y WHERE { ?x <http://b.org/p>+ ?y }";
  for (auto _ : state) {
    core::Engine engine(&dataset, &dict);
    if (!engine.Load().ok()) {
      state.SkipWithError("load failed");
      break;
    }
    auto result = engine.ExecuteText(query);
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
    benchmark::DoNotOptimize(result->result.rows.size());
  }
}
BENCHMARK(BM_PipelineOneOrMore_SparqLog);

void BM_PipelineOneOrMore_Reference(benchmark::State& state) {
  rdf::TermDictionary dict;
  rdf::Dataset dataset(&dict);
  BuildChainGraph(500, &dict, &dataset);
  auto query = sparql::ParseQuery(
      "SELECT ?x ?y WHERE { ?x <http://b.org/p>+ ?y }", &dict);
  for (auto _ : state) {
    ExecContext ctx;
    eval::AlgebraEvaluator evaluator(dataset, &dict, &ctx);
    auto result = evaluator.EvalQuery(*query);
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
    benchmark::DoNotOptimize(result->rows.size());
  }
}
BENCHMARK(BM_PipelineOneOrMore_Reference);

void BM_TranslateSp2bQ2(benchmark::State& state) {
  rdf::TermDictionary dict;
  datalog::SkolemStore skolems;
  const std::string query =
      "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> "
      "PREFIX bench: <http://localhost/vocabulary/bench/> "
      "PREFIX dc: <http://purl.org/dc/elements/1.1/> "
      "PREFIX dcterms: <http://purl.org/dc/terms/> "
      "PREFIX swrc: <http://swrc.ontoware.org/ontology#> "
      "SELECT ?inproc ?author ?title WHERE { "
      "?inproc rdf:type bench:Inproceedings . ?inproc dc:creator ?author . "
      "?inproc dcterms:partOf ?proc . ?inproc dc:title ?title . "
      "?inproc swrc:pages ?page . OPTIONAL { ?inproc bench:abstract ?a } } "
      "ORDER BY ?inproc";
  auto parsed = sparql::ParseQuery(query, &dict);
  for (auto _ : state) {
    core::QueryTranslator translator(&dict, &skolems);
    auto program = translator.Translate(*parsed);
    if (!program.ok()) state.SkipWithError(program.status().ToString().c_str());
    benchmark::DoNotOptimize(program->rules.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TranslateSp2bQ2);

// --- Concurrent serving benchmarks -----------------------------------------
// The PR 7 serving scenario: many client threads calling Execute() on ONE
// shared, Load()ed engine (exactly what the HTTP workers do). Three request
// streams:
//   BM_Serving_HotShape   one cached shape repeated — program-cache hit +
//                         stratum-memo replay every request.
//   BM_Serving_ColdShape  cycles through 96 structurally distinct shapes,
//                         more than the capacity-64 program-cache LRU holds,
//                         so every request is a full T_Q + plan + fixpoint.
//   BM_Serving_Mixed      80% hot / 20% cold interleave at 1/2/8 client
//                         threads — the QPS + tail-latency row.
// Counters: items_per_second is end-to-end QPS across all client threads;
// p50_us/p99_us are per-thread request latencies averaged over threads.
// The PR 7 acceptance bar is hot p50 >= 3x better than cold p50.

struct ServingBenchState {
  rdf::TermDictionary dict;
  rdf::Dataset dataset{&dict};
  std::unique_ptr<core::Engine> engine;
  std::vector<std::string> hot;
  std::vector<std::string> cold;
};

ServingBenchState* g_serving = nullptr;

/// 96 structurally distinct SELECT shapes: chain length 1..12 crossed with
/// DISTINCT / FILTER / ORDER BY toggles. The program cache keys on query
/// *structure* (constants rebind on hit), so defeating it needs shape
/// variety, not constant variety.
std::vector<std::string> ColdShapeStream() {
  std::vector<std::string> queries;
  for (int len = 1; len <= 12; ++len) {
    for (int variant = 0; variant < 8; ++variant) {
      std::string body;
      for (int i = 0; i < len; ++i) {
        body += "?v" + std::to_string(i) + " <http://b.org/p> ?v" +
                std::to_string(i + 1) + " . ";
      }
      if (variant & 1) body += "FILTER (?v0 != ?v" + std::to_string(len) + ") ";
      std::string query = std::string("SELECT ") +
                          ((variant & 2) ? "DISTINCT " : "") + "?v0 ?v" +
                          std::to_string(len) + " WHERE { " + body + "}";
      if (variant & 4) query += " ORDER BY ?v0";
      queries.push_back(std::move(query));
    }
  }
  return queries;
}

void ServingSetup() {
  auto* s = new ServingBenchState();
  BuildChainGraph(300, &s->dict, &s->dataset);
  core::Engine::Options options;
  // Parallelism lives at the client level here: each google-benchmark
  // thread is one serving client, and the engine executes each query
  // serially — the HTTP worker-pool configuration.
  options.parallelism.num_threads = 1;
  s->engine = std::make_unique<core::Engine>(&s->dataset, &s->dict, options);
  if (!s->engine->Load().ok()) std::abort();
  s->hot = {
      "SELECT ?x ?y WHERE { ?x <http://b.org/p>+ ?y }",
      "SELECT ?x ?y WHERE { ?x <http://b.org/p> ?y }",
      "SELECT ?x ?z WHERE { ?x <http://b.org/p> ?y . "
      "?y <http://b.org/p> ?z }",
      "ASK { <http://b.org/n0> <http://b.org/p>+ <http://b.org/n9> }",
  };
  s->cold = ColdShapeStream();
  // Prime the hot shapes so the hot stream measures steady-state serving.
  for (const std::string& q : s->hot) {
    if (!s->engine->ExecuteText(q).ok()) std::abort();
  }
  g_serving = s;
}

void ServingTeardown() {
  delete g_serving;
  g_serving = nullptr;
}

/// Shared request loop: runs `pick(i)` each iteration against the shared
/// engine, recording per-request wall latency; reports QPS + p50/p99.
template <typename PickQuery>
void ServingLoop(benchmark::State& state, PickQuery pick) {
  if (state.thread_index() == 0) ServingSetup();
  // google-benchmark synchronizes all threads at loop entry, so non-zero
  // threads cannot observe g_serving before thread 0 publishes it.
  std::vector<double> latencies_us;
  latencies_us.reserve(1 << 14);
  uint64_t i = static_cast<uint64_t>(state.thread_index()) * 1000003u;
  for (auto _ : state) {
    const std::string& query = pick(i++);
    auto t0 = std::chrono::steady_clock::now();
    auto result = g_serving->engine->ExecuteText(query);
    auto t1 = std::chrono::steady_clock::now();
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(result->result.rows.size());
    latencies_us.push_back(
        std::chrono::duration<double, std::micro>(t1 - t0).count());
  }
  if (!latencies_us.empty()) {
    std::sort(latencies_us.begin(), latencies_us.end());
    auto pct = [&](double p) {
      size_t idx = static_cast<size_t>(p * (latencies_us.size() - 1));
      return latencies_us[idx];
    };
    state.counters["p50_us"] =
        benchmark::Counter(pct(0.50), benchmark::Counter::kAvgThreads);
    state.counters["p99_us"] =
        benchmark::Counter(pct(0.99), benchmark::Counter::kAvgThreads);
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) ServingTeardown();
}

void BM_Serving_HotShape(benchmark::State& state) {
  ServingLoop(state, [](uint64_t i) -> const std::string& {
    return g_serving->hot[i % g_serving->hot.size()];
  });
}
BENCHMARK(BM_Serving_HotShape)->Threads(1)->Threads(2)->Threads(8)
    ->UseRealTime();

void BM_Serving_ColdShape(benchmark::State& state) {
  ServingLoop(state, [](uint64_t i) -> const std::string& {
    return g_serving->cold[i % g_serving->cold.size()];
  });
}
BENCHMARK(BM_Serving_ColdShape)->Threads(1)->Threads(2)->Threads(8)
    ->UseRealTime();

void BM_Serving_Mixed(benchmark::State& state) {
  ServingLoop(state, [](uint64_t i) -> const std::string& {
    if (i % 5 == 4) return g_serving->cold[(i / 5) % g_serving->cold.size()];
    return g_serving->hot[i % g_serving->hot.size()];
  });
}
BENCHMARK(BM_Serving_Mixed)->Threads(1)->Threads(2)->Threads(8)
    ->UseRealTime();

// --- Overload serving ------------------------------------------------------
// PR 10: sustained 2x-capacity pressure against the bounded admission
// queue. Eight client threads hammer an engine admitting four, with a
// short queue and deadline, degrade controller on. The engine must shed
// (kUnavailable -> HTTP 503 + Retry-After) rather than queue without
// bound, keep the admitted requests' p99 close to uncontended latency
// (the queue deadline caps time-in-queue), and exit degraded mode on
// its own once the loop ends and load drops. Counters:
//   shed_rate        fraction of requests shed across all threads
//   p99_admitted_us  per-thread p99 of ADMITTED requests (avg threads)
//   degraded_exit    1 if the engine left degraded mode when load
//                    dropped (0 = stuck degraded — a regression)
//   uncontended_us   solo p99 of the same queries, measured after the
//                    load drops — the p99_admitted_us yardstick

void BM_Serving_Overload(benchmark::State& state) {
  if (state.thread_index() == 0) {
    auto* s = new ServingBenchState();
    BuildChainGraph(300, &s->dict, &s->dataset);
    core::Engine::Options options;
    options.parallelism.num_threads = 1;
    // Admission capacity tracks the machine: admitted queries run
    // concurrently, so admitting more than ~half the cores makes the
    // admitted-latency counter measure CPU time-slicing instead of
    // queue behavior. Eight client threads against this cap is always
    // >= 2x offered load, so shedding still engages everywhere.
    options.serving.max_in_flight = std::max(
        1u, std::min(4u, std::thread::hardware_concurrency() / 2));
    options.serving.queue_limit = 4;
    options.serving.queue_timeout = std::chrono::milliseconds(2);
    options.degrade.enabled = true;
    s->engine = std::make_unique<core::Engine>(&s->dataset, &s->dict,
                                               options);
    if (!s->engine->Load().ok()) std::abort();
    s->hot = {
        "SELECT ?x ?y WHERE { ?x <http://b.org/p>+ ?y }",
        "SELECT ?x ?z WHERE { ?x <http://b.org/p> ?y . "
        "?y <http://b.org/p> ?z }",
    };
    for (const std::string& q : s->hot) {
      if (!s->engine->ExecuteText(q).ok()) std::abort();
    }
    g_serving = s;
  }
  std::vector<double> admitted_us;
  admitted_us.reserve(1 << 14);
  uint64_t sheds = 0;
  uint64_t total = 0;
  uint64_t i = static_cast<uint64_t>(state.thread_index()) * 1000003u;
  for (auto _ : state) {
    const std::string& query = g_serving->hot[i++ % g_serving->hot.size()];
    auto t0 = std::chrono::steady_clock::now();
    auto result = g_serving->engine->ExecuteText(query);
    auto t1 = std::chrono::steady_clock::now();
    ++total;
    if (result.ok()) {
      benchmark::DoNotOptimize(result->result.rows.size());
      admitted_us.push_back(
          std::chrono::duration<double, std::micro>(t1 - t0).count());
    } else if (result.status().IsUnavailable()) {
      ++sheds;  // shed by admission control: the designed overload path
      // A shed client pauses before re-offering load, like a real
      // client honoring Retry-After (scaled down to keep the loop
      // hot). Without this, shed threads spin at full speed and the
      // admitted-latency counter measures scheduler contention.
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    } else {
      state.SkipWithError(result.status().ToString().c_str());
      break;
    }
  }
  if (total > 0) {
    state.counters["shed_rate"] = benchmark::Counter(
        static_cast<double>(sheds) / static_cast<double>(total),
        benchmark::Counter::kAvgThreads);
  }
  if (!admitted_us.empty()) {
    std::sort(admitted_us.begin(), admitted_us.end());
    state.counters["p99_admitted_us"] = benchmark::Counter(
        admitted_us[static_cast<size_t>(0.99 * (admitted_us.size() - 1))],
        benchmark::Counter::kAvgThreads);
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    // Load drops: a trickle of successful queries must wash the shed
    // outcomes out of the window and clear degraded mode automatically.
    for (int k = 0; k < 256 && g_serving->engine->degraded(); ++k) {
      if (!g_serving->engine->ExecuteText(g_serving->hot[0]).ok()) break;
    }
    state.counters["degraded_exit"] =
        g_serving->engine->degraded() ? 0.0 : 1.0;
    // Solo p99 reference for the overload numbers: p99_admitted_us
    // should sit within ~2x of this once queue wait is capped by the
    // deadline (tail-to-tail comparison; scheduler noise on saturated
    // single-core machines still widens the admitted side).
    std::vector<double> solo_us;
    for (int k = 0; k < 64; ++k) {
      const std::string& q = g_serving->hot[k % g_serving->hot.size()];
      auto t0 = std::chrono::steady_clock::now();
      if (!g_serving->engine->ExecuteText(q).ok()) break;
      auto t1 = std::chrono::steady_clock::now();
      solo_us.push_back(
          std::chrono::duration<double, std::micro>(t1 - t0).count());
    }
    if (!solo_us.empty()) {
      std::sort(solo_us.begin(), solo_us.end());
      state.counters["uncontended_us"] =
          solo_us[static_cast<size_t>(0.99 * (solo_us.size() - 1))];
    }
    ServingTeardown();
  }
}
BENCHMARK(BM_Serving_Overload)->Threads(8)->UseRealTime();

// --- Incremental EDB maintenance -------------------------------------------
// The PR 9 acceptance row: a 100-triple ApplyUpdate against the SP2Bench
// EDB must publish >= 10x faster than the full re-Load() it replaces.
// Setup measures the median-of-3 cold rebuild; each loop iteration
// inserts a fixed 100-triple batch and then deletes it again (returning
// to the baseline state, so every iteration does identical work).
// `update_vs_reload_x` is the speedup of one delta publish over one full
// rebuild — the gated >= 10x number.

void BM_Update_SmallDelta(benchmark::State& state) {
  rdf::TermDictionary dict;
  rdf::Dataset dataset(&dict);
  workloads::Sp2bOptions options;
  options.target_triples = static_cast<size_t>(state.range(0));
  workloads::GenerateSp2b(options, &dataset);
  core::Engine engine(&dataset, &dict);
  if (!engine.Load().ok()) {
    state.SkipWithError("load failed");
    return;
  }

  // Median-of-3 full EDB rebuild of the same dataset — measured through
  // scratch engines so the benchmark engine's incremental anchors stay
  // untouched.
  std::array<double, 3> reloads;
  for (double& r : reloads) {
    core::Engine rebuild(static_cast<const rdf::Dataset*>(&dataset), &dict);
    auto t0 = std::chrono::steady_clock::now();
    if (!rebuild.Load().ok()) {
      state.SkipWithError("reload failed");
      return;
    }
    r = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
  }
  std::sort(reloads.begin(), reloads.end());
  const double reload_median = reloads[1];

  std::vector<rdf::Triple> delta;
  rdf::TermId ref = dict.InternIri("http://u.org/ref");
  for (int i = 0; i < 100; ++i) {
    delta.push_back({dict.InternIri("http://u.org/s" + std::to_string(i)),
                     ref,
                     dict.InternIri("http://u.org/s" + std::to_string(i + 1))});
  }
  double update_seconds = 0.0;
  uint64_t updates = 0;
  for (auto _ : state) {
    core::Engine::UpdateStats ins, del;
    if (!engine.ApplyUpdate(delta, {}, &ins).ok() ||
        !engine.ApplyUpdate({}, delta, &del).ok()) {
      state.SkipWithError("update failed");
      break;
    }
    if (!ins.incremental || !del.incremental) {
      state.SkipWithError("update fell back to a full rebuild");
      break;
    }
    update_seconds += ins.wall_seconds + del.wall_seconds;
    updates += 2;
  }
  if (updates > 0) {
    state.counters["update_vs_reload_x"] = benchmark::Counter(
        reload_median / (update_seconds / static_cast<double>(updates)));
  }
}
BENCHMARK(BM_Update_SmallDelta)->Arg(20000)->Unit(benchmark::kMicrosecond);

// Mixed serving under maintenance: thread 0 is the writer, toggling a
// side edge into the chain on and off (insert publishes a TC delta the
// readers' closure re-derives incrementally; delete routes the TC-shaped
// stratum through the recompute fallback), while the remaining client
// threads keep executing the hot closure query. Reader rows report
// p50/p99 request latency; the writer reports per-update publish time.

struct UpdateServingState {
  rdf::TermDictionary dict;
  rdf::Dataset dataset{&dict};
  std::unique_ptr<core::Engine> engine;
  rdf::Triple toggled{};
  std::string query;
};

UpdateServingState* g_update_serving = nullptr;

void BM_Update_MixedServing(benchmark::State& state) {
  if (state.thread_index() == 0) {
    auto* s = new UpdateServingState();
    BuildChainGraph(300, &s->dict, &s->dataset);
    core::Engine::Options options;
    options.parallelism.num_threads = 1;
    s->engine =
        std::make_unique<core::Engine>(&s->dataset, &s->dict, options);
    if (!s->engine->Load().ok()) std::abort();
    s->toggled = {s->dict.InternIri("http://u.org/writer"),
                  s->dict.InternIri("http://b.org/p"),
                  s->dict.InternIri("http://b.org/n0")};
    s->query = "SELECT ?x ?y WHERE { ?x <http://b.org/p>+ ?y }";
    if (!s->engine->ExecuteText(s->query).ok()) std::abort();
    g_update_serving = s;
  }
  if (state.thread_index() == 0) {
    uint64_t i = 0;
    double publish_seconds = 0.0;
    for (auto _ : state) {
      core::Engine::UpdateStats us;
      Status st = (i++ % 2 == 0)
                      ? g_update_serving->engine->ApplyUpdate(
                            {g_update_serving->toggled}, {}, &us)
                      : g_update_serving->engine->ApplyUpdate(
                            {}, {g_update_serving->toggled}, &us);
      if (!st.ok()) {
        state.SkipWithError(st.ToString().c_str());
        break;
      }
      publish_seconds += us.wall_seconds;
    }
    if (state.iterations() > 0) {
      state.counters["publish_us"] = benchmark::Counter(
          publish_seconds * 1e6 / static_cast<double>(state.iterations()));
    }
    state.SetItemsProcessed(state.iterations());
  } else {
    std::vector<double> latencies_us;
    latencies_us.reserve(1 << 14);
    for (auto _ : state) {
      auto t0 = std::chrono::steady_clock::now();
      auto result = g_update_serving->engine->ExecuteText(
          g_update_serving->query);
      auto t1 = std::chrono::steady_clock::now();
      if (!result.ok()) {
        state.SkipWithError(result.status().ToString().c_str());
        break;
      }
      benchmark::DoNotOptimize(result->result.rows.size());
      latencies_us.push_back(
          std::chrono::duration<double, std::micro>(t1 - t0).count());
    }
    if (!latencies_us.empty()) {
      std::sort(latencies_us.begin(), latencies_us.end());
      auto pct = [&](double p) {
        size_t idx = static_cast<size_t>(p * (latencies_us.size() - 1));
        return latencies_us[idx];
      };
      state.counters["p50_us"] =
          benchmark::Counter(pct(0.50), benchmark::Counter::kAvgThreads);
      state.counters["p99_us"] =
          benchmark::Counter(pct(0.99), benchmark::Counter::kAvgThreads);
    }
    state.SetItemsProcessed(state.iterations());
  }
  if (state.thread_index() == 0) {
    delete g_update_serving;
    g_update_serving = nullptr;
  }
}
BENCHMARK(BM_Update_MixedServing)->Threads(4)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
