// Tests for the parallel sharded semi-naive fixpoint: thread-count sweeps
// over recursive programs (results must be set-identical to the serial
// path), a stress program deriving into many relations concurrently, a
// regression pin that num_threads=1 reproduces the seed single-threaded
// insertion order byte-for-byte, budget enforcement across workers,
// Skolem- and builtin-heavy strata proving the serial-eligibility
// carve-outs are gone (thread-safe interning), the sharded initial naive
// pass, the per-predicate merge fan-out (deterministic at a fixed
// thread count), the probe's index-capacity scan fallback, and
// concurrent-interning hammers for TermDictionary and SkolemStore (the
// TSan job sweeps this suite).

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/engine.h"
#include "datalog/ast.h"
#include "datalog/evaluator.h"
#include "datalog/printer.h"
#include "datalog/relation.h"
#include "datalog/value.h"
#include "sparql/ast.h"
#include "util/thread_pool.h"

namespace sparqlog::datalog {
namespace {

class ParallelFixpointTest : public ::testing::Test {
 protected:
  Value V(int64_t i) { return ValueFromTerm(dict_.InternInteger(i)); }

  /// Evaluates `program` over `edb_facts` with `num_threads` workers and
  /// returns the canonical IDB dump (empty string on evaluation error).
  std::string Dump(const Program& program,
                   const std::vector<std::pair<PredicateId,
                                               std::vector<Value>>>& facts,
                   uint32_t num_threads,
                   const std::vector<std::string>& skolem_fns = {}) {
    Database edb, idb;
    for (const auto& [pred, tuple] : facts) {
      edb.relation(pred, static_cast<uint32_t>(tuple.size()))
          .Insert(tuple, 0);
    }
    SkolemStore skolems;
    for (const std::string& fn : skolem_fns) skolems.InternFunction(fn);
    Evaluator evaluator(&dict_, &skolems);
    evaluator.set_num_threads(num_threads);
    ExecContext ctx;
    if (!evaluator.Evaluate(program, &edb, &idb, &ctx).ok()) return "";
    return ToString(idb, program.predicates, dict_, skolems);
  }

  rdf::TermDictionary dict_;
};

/// Transitive closure over a graph with cycles, swept across worker
/// counts including 0 (= hardware_concurrency auto-resolution).
TEST_F(ParallelFixpointTest, ClosureAgreesAcrossThreadCounts) {
  Program program;
  PredicateId edge = program.predicates.Intern("edge", 2);
  RuleBuilder rb(&program.predicates);
  rb.Head("tc", {rb.Var("X"), rb.Var("Y")});
  rb.Body("edge", {rb.Var("X"), rb.Var("Y")});
  program.rules.push_back(rb.Build());
  rb.Head("tc", {rb.Var("X"), rb.Var("Z")});
  rb.Body("edge", {rb.Var("X"), rb.Var("Y")});
  rb.Body("tc", {rb.Var("Y"), rb.Var("Z")});
  program.rules.push_back(rb.Build());

  std::vector<std::pair<PredicateId, std::vector<Value>>> facts;
  for (int64_t i = 1; i <= 40; ++i) {
    facts.push_back({edge, {V(i), V(i % 40 + 1)}});
    if (i % 5 == 0) facts.push_back({edge, {V(i), V((i + 11) % 40 + 1)}});
  }
  std::string serial = Dump(program, facts, 1);
  ASSERT_FALSE(serial.empty());
  for (uint32_t threads : {0u, 2u, 3u, 8u}) {
    EXPECT_EQ(serial, Dump(program, facts, threads))
        << "num_threads=" << threads;
  }

  // Prove the sharded path actually engaged (no silent serial fallback).
  Database edb, idb;
  for (const auto& [pred, tuple] : facts) {
    edb.relation(pred, static_cast<uint32_t>(tuple.size()))
        .Insert(tuple, 0);
  }
  SkolemStore skolems;
  Evaluator evaluator(&dict_, &skolems);
  evaluator.set_num_threads(2);
  ExecContext ctx;
  ASSERT_TRUE(evaluator.Evaluate(program, &edb, &idb, &ctx).ok());
  EXPECT_GT(evaluator.stats().parallel_rounds, 0u);
}

/// Stress: six mutually recursive predicates in one SCC, so every round
/// fans out shards that derive into many relations concurrently and the
/// barrier merges staging buffers for all of them.
TEST_F(ParallelFixpointTest, ManyRelationsDerivedConcurrently) {
  constexpr int kPreds = 6;
  Program program;
  PredicateId edge = program.predicates.Intern("edge", 2);
  RuleBuilder rb(&program.predicates);
  auto name = [](int i) { return "p" + std::to_string(i); };
  rb.Head(name(0), {rb.Var("X"), rb.Var("Y")});
  rb.Body("edge", {rb.Var("X"), rb.Var("Y")});
  program.rules.push_back(rb.Build());
  for (int i = 0; i < kPreds; ++i) {
    // p_{i+1 mod k}(X,Z) :- p_i(X,Y), edge(Y,Z): one cyclic chain of
    // predicates, all in the same stratum.
    rb.Head(name((i + 1) % kPreds), {rb.Var("X"), rb.Var("Z")});
    rb.Body(name(i), {rb.Var("X"), rb.Var("Y")});
    rb.Body("edge", {rb.Var("Y"), rb.Var("Z")});
    program.rules.push_back(rb.Build());
  }

  std::vector<std::pair<PredicateId, std::vector<Value>>> facts;
  for (int64_t i = 1; i <= 24; ++i) {
    facts.push_back({edge, {V(i), V(i % 24 + 1)}});
    if (i % 4 == 0) facts.push_back({edge, {V(i), V((i + 7) % 24 + 1)}});
  }
  std::string serial = Dump(program, facts, 1);
  ASSERT_FALSE(serial.empty());
  for (uint32_t threads : {2u, 8u}) {
    EXPECT_EQ(serial, Dump(program, facts, threads))
        << "num_threads=" << threads;
  }
}

/// Pins the seed single-threaded behavior: with num_threads=1 the arena
/// insertion order of the semi-naive closure must stay exactly the
/// pre-parallelism sequence (initial pass in rule order with same-pass
/// visibility, then one delta scan per round). Byte-identical dumps
/// follow a fortiori, since dumps are derived from arena contents.
TEST_F(ParallelFixpointTest, SingleThreadKeepsSeedInsertionOrder) {
  Program program;
  PredicateId edge = program.predicates.Intern("edge", 2);
  RuleBuilder rb(&program.predicates);
  rb.Head("tc", {rb.Var("X"), rb.Var("Y")});
  rb.Body("edge", {rb.Var("X"), rb.Var("Y")});
  program.rules.push_back(rb.Build());
  rb.Head("tc", {rb.Var("X"), rb.Var("Z")});
  rb.Body("edge", {rb.Var("X"), rb.Var("Y")});
  rb.Body("tc", {rb.Var("Y"), rb.Var("Z")});
  program.rules.push_back(rb.Build());
  PredicateId tc = *program.predicates.Lookup("tc");

  Database edb, idb;
  for (int64_t i = 1; i <= 3; ++i) {
    edb.relation(edge, 2).Insert({V(i), V(i + 1)}, 0);
  }
  SkolemStore skolems;
  Evaluator evaluator(&dict_, &skolems);
  evaluator.set_num_threads(1);
  ExecContext ctx;
  ASSERT_TRUE(evaluator.Evaluate(program, &edb, &idb, &ctx).ok());

  // Chain 1->2->3->4. Initial pass: rule 1 copies the edges in scan
  // order, then rule 2 joins each edge against the tc rows already
  // inserted this pass. Round 2's delta scan adds the last pair.
  const std::vector<std::vector<Value>> expected = {
      {V(1), V(2)}, {V(2), V(3)}, {V(3), V(4)},
      {V(1), V(3)}, {V(2), V(4)}, {V(1), V(4)},
  };
  const Relation* rel = idb.Find(tc);
  ASSERT_NE(rel, nullptr);
  ASSERT_EQ(rel->size(), expected.size());
  for (uint32_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(rel->row(i), expected[i]) << "row " << i;
  }
  EXPECT_EQ(evaluator.stats().parallel_rounds, 0u);
}

/// Comparison-only and Skolem-building rules sharing one recursive
/// stratum: with thread-safe interning every rule shards (there is no
/// serial path within a round any more), and results must match the
/// fully serial evaluation.
TEST_F(ParallelFixpointTest, MixedEligibilityStratumAgrees) {
  Program program;
  PredicateId edge = program.predicates.Intern("edge", 2);
  SkolemStore naming;
  uint32_t f = naming.InternFunction("f1");
  RuleBuilder rb(&program.predicates);
  rb.Head("a", {rb.Var("X"), rb.Var("Y")});
  rb.Body("edge", {rb.Var("X"), rb.Var("Y")});
  program.rules.push_back(rb.Build());
  rb.Head("a", {rb.Var("X"), rb.Var("Z")});
  rb.Body("a", {rb.Var("X"), rb.Var("Y")});
  rb.Body("edge", {rb.Var("Y"), rb.Var("Z")});
  program.rules.push_back(rb.Build());
  // b tags pairs with a Skolem id and feeds them back into a, closing the
  // SCC {a, b} while staying a terminating program (b adds no new pairs).
  rb.Head("b", {rb.Var("ID"), rb.Var("X"), rb.Var("Y")});
  rb.Body("a", {rb.Var("X"), rb.Var("Y")});
  rb.Skolem(rb.Var("ID"), f, {rb.Var("X"), rb.Var("Y")});
  program.rules.push_back(rb.Build());
  rb.Head("a", {rb.Var("X"), rb.Var("Y")});
  rb.Body("b", {rb.Var("ID"), rb.Var("X"), rb.Var("Y")});
  program.rules.push_back(rb.Build());

  std::vector<std::pair<PredicateId, std::vector<Value>>> facts;
  for (int64_t i = 1; i <= 12; ++i) {
    facts.push_back({edge, {V(i), V(i % 12 + 1)}});
  }
  std::string serial = Dump(program, facts, 1, {"f1"});
  ASSERT_FALSE(serial.empty());
  for (uint32_t threads : {2u, 8u}) {
    EXPECT_EQ(serial, Dump(program, facts, threads, {"f1"}))
        << "num_threads=" << threads;
  }
}

/// Regression pin for the removed serial-eligibility carve-outs: a
/// recursive stratum whose ONLY recursive rule builds a Skolem term used
/// to be forced onto the serial path (parallel_rounds stayed 0); with
/// thread-safe SkolemStore interning it must fan out.
TEST_F(ParallelFixpointTest, SkolemOnlyRecursiveRuleShards) {
  Program program;
  PredicateId edge = program.predicates.Intern("edge", 2);
  SkolemStore naming;
  uint32_t f = naming.InternFunction("f1");
  RuleBuilder rb(&program.predicates);
  rb.Head("a", {rb.Var("X"), rb.Var("Y")});
  rb.Body("edge", {rb.Var("X"), rb.Var("Y")});
  program.rules.push_back(rb.Build());
  // The one recursive rule: tags reachable pairs with a Skolem id and
  // re-derives a through b, closing the SCC {a, b}.
  rb.Head("b", {rb.Var("ID"), rb.Var("X"), rb.Var("Z")});
  rb.Body("a", {rb.Var("X"), rb.Var("Y")});
  rb.Body("edge", {rb.Var("Y"), rb.Var("Z")});
  rb.Skolem(rb.Var("ID"), f, {rb.Var("X"), rb.Var("Z")});
  program.rules.push_back(rb.Build());
  rb.Head("a", {rb.Var("X"), rb.Var("Y")});
  rb.Body("b", {rb.Var("ID"), rb.Var("X"), rb.Var("Y")});
  program.rules.push_back(rb.Build());

  std::vector<std::pair<PredicateId, std::vector<Value>>> facts;
  for (int64_t i = 1; i <= 16; ++i) {
    facts.push_back({edge, {V(i), V(i % 16 + 1)}});
  }
  std::string serial = Dump(program, facts, 1, {"f1"});
  ASSERT_FALSE(serial.empty());
  for (uint32_t threads : {2u, 8u}) {
    EXPECT_EQ(serial, Dump(program, facts, threads, {"f1"}))
        << "num_threads=" << threads;
  }

  Database edb, idb;
  for (const auto& [pred, tuple] : facts) {
    edb.relation(pred, static_cast<uint32_t>(tuple.size()))
        .Insert(tuple, 0);
  }
  SkolemStore skolems;
  skolems.InternFunction("f1");
  Evaluator evaluator(&dict_, &skolems);
  evaluator.set_num_threads(2);
  ExecContext ctx;
  ASSERT_TRUE(evaluator.Evaluate(program, &edb, &idb, &ctx).ok());
  EXPECT_GT(evaluator.stats().parallel_rounds, 0u)
      << "Skolem rule fell back to the serial path";
  EXPECT_GT(evaluator.stats().staged_tuples_merged, 0u);
}

/// Builtin-heavy recursion: the recursive rule evaluates a FILTER and a
/// BIND arithmetic expression per derivation, interning fresh integer
/// literals into the shared dictionary from every worker. Results must be
/// set-identical across thread counts and the stratum must fan out.
TEST_F(ParallelFixpointTest, ExprBuiltinRecursionShardsAndAgrees) {
  Program program;
  PredicateId seed = program.predicates.Intern("seed", 1);
  RuleBuilder rb(&program.predicates);
  rb.Head("n", {rb.Var("X")});
  rb.Body("seed", {rb.Var("X")});
  program.rules.push_back(rb.Build());
  // n(Z) :- n(Y), FILTER(Y < 60), BIND(Y + 1 AS Z): counts upward, with
  // both expression kinds interning terms mid-join.
  rb.Head("n", {rb.Var("Z")});
  rb.Body("n", {rb.Var("Y")});
  {
    using sparql::Expr;
    auto y = Expr::MakeVar("Y");
    auto bound = Expr::MakeTerm(dict_.InternInteger(60));
    auto one = Expr::MakeTerm(dict_.InternInteger(1));
    rb.Filter(Expr::MakeCompare(sparql::CompareOp::kLt, y, bound),
              {{"Y", rb.VarIdOf("Y")}});
    rb.AssignExpr(rb.Var("Z"),
                  Expr::MakeArith(sparql::ArithOp::kAdd, y, one),
                  {{"Y", rb.VarIdOf("Y")}});
  }
  program.rules.push_back(rb.Build());

  std::vector<std::pair<PredicateId, std::vector<Value>>> facts;
  for (int64_t i = 1; i <= 8; ++i) facts.push_back({seed, {V(i * 3)}});
  std::string serial = Dump(program, facts, 1);
  ASSERT_FALSE(serial.empty());
  for (uint32_t threads : {2u, 8u}) {
    EXPECT_EQ(serial, Dump(program, facts, threads))
        << "num_threads=" << threads;
  }

  Database edb, idb;
  for (const auto& [pred, tuple] : facts) {
    edb.relation(pred, static_cast<uint32_t>(tuple.size()))
        .Insert(tuple, 0);
  }
  SkolemStore skolems;
  Evaluator evaluator(&dict_, &skolems);
  evaluator.set_num_threads(8);
  ExecContext ctx;
  ASSERT_TRUE(evaluator.Evaluate(program, &edb, &idb, &ctx).ok());
  EXPECT_GT(evaluator.stats().parallel_rounds, 0u)
      << "expression-builtin rule fell back to the serial path";
}

/// The initial naive pass of a recursive stratum shards too: the base
/// rule's full EDB scan is the bulk of round 1 here, and the stats must
/// show it ran as a sharded fan-out — with the set result identical to
/// the 1-thread run, whose initial pass is serial.
TEST_F(ParallelFixpointTest, InitialNaivePassShards) {
  Program program;
  PredicateId edge = program.predicates.Intern("edge", 2);
  RuleBuilder rb(&program.predicates);
  rb.Head("tc", {rb.Var("X"), rb.Var("Y")});
  rb.Body("edge", {rb.Var("X"), rb.Var("Y")});
  program.rules.push_back(rb.Build());
  rb.Head("tc", {rb.Var("X"), rb.Var("Z")});
  rb.Body("edge", {rb.Var("X"), rb.Var("Y")});
  rb.Body("tc", {rb.Var("Y"), rb.Var("Z")});
  program.rules.push_back(rb.Build());

  std::vector<std::pair<PredicateId, std::vector<Value>>> facts;
  for (int64_t i = 1; i <= 60; ++i) {
    facts.push_back({edge, {V(i), V(i % 60 + 1)}});
  }
  std::string serial = Dump(program, facts, 1);
  ASSERT_FALSE(serial.empty());

  Database edb, idb;
  for (const auto& [pred, tuple] : facts) {
    edb.relation(pred, static_cast<uint32_t>(tuple.size()))
        .Insert(tuple, 0);
  }
  SkolemStore skolems;
  Evaluator evaluator(&dict_, &skolems);
  evaluator.set_num_threads(4);
  ExecContext ctx;
  ASSERT_TRUE(evaluator.Evaluate(program, &edb, &idb, &ctx).ok());
  EXPECT_GT(evaluator.stats().naive_rounds_sharded, 0u);
  EXPECT_EQ(serial, ToString(idb, program.predicates, dict_, skolems));
}

/// Two evaluations at the same thread count must produce every
/// relation's arena BIT-identical (insertion order included) — the
/// determinism claim the parallel barrier rests on — and the merge must
/// actually fan out on a many-head stratum.
TEST_F(ParallelFixpointTest, MergeFanOutArenasDeterministicAtFixedThreads) {
  // One SCC {a, b, c} where every delta round derives into all three
  // heads: a closes transitively, b and c copy/flip each new a row, and
  // both feed back into a — so each barrier merges three predicates and
  // the fan-out actually spreads.
  Program program;
  PredicateId edge = program.predicates.Intern("edge", 2);
  RuleBuilder rb(&program.predicates);
  rb.Head("a", {rb.Var("X"), rb.Var("Y")});
  rb.Body("edge", {rb.Var("X"), rb.Var("Y")});
  program.rules.push_back(rb.Build());
  rb.Head("a", {rb.Var("X"), rb.Var("Z")});
  rb.Body("a", {rb.Var("X"), rb.Var("Y")});
  rb.Body("edge", {rb.Var("Y"), rb.Var("Z")});
  program.rules.push_back(rb.Build());
  rb.Head("b", {rb.Var("X"), rb.Var("Y")});
  rb.Body("a", {rb.Var("X"), rb.Var("Y")});
  program.rules.push_back(rb.Build());
  rb.Head("c", {rb.Var("Y"), rb.Var("X")});
  rb.Body("a", {rb.Var("X"), rb.Var("Y")});
  program.rules.push_back(rb.Build());
  rb.Head("a", {rb.Var("X"), rb.Var("Y")});
  rb.Body("b", {rb.Var("X"), rb.Var("Y")});
  program.rules.push_back(rb.Build());
  rb.Head("a", {rb.Var("X"), rb.Var("Y")});
  rb.Body("c", {rb.Var("Y"), rb.Var("X")});
  program.rules.push_back(rb.Build());

  auto evaluate = [&](Database* idb, EvalStats* stats) {
    Database edb;
    for (int64_t i = 1; i <= 24; ++i) {
      edb.relation(edge, 2).Insert({V(i), V(i % 24 + 1)}, 0);
      if (i % 4 == 0) {
        edb.relation(edge, 2).Insert({V(i), V((i + 7) % 24 + 1)}, 0);
      }
    }
    SkolemStore skolems;
    Evaluator evaluator(&dict_, &skolems);
    evaluator.set_num_threads(4);
    ExecContext ctx;
    ASSERT_TRUE(evaluator.Evaluate(program, &edb, idb, &ctx).ok());
    *stats = evaluator.stats();
  };

  Database first_idb, second_idb;
  EvalStats first_stats, second_stats;
  evaluate(&first_idb, &first_stats);
  evaluate(&second_idb, &second_stats);
  EXPECT_GT(first_stats.merge_fanout_width, 1u);
  EXPECT_GT(first_stats.staged_tuples_merged, 0u);
  EXPECT_EQ(first_stats.staged_tuples_merged,
            second_stats.staged_tuples_merged);

  // Same thread count => same per-worker staging => the per-predicate
  // merge must reproduce the same arena order exactly.
  EXPECT_EQ(first_idb.Predicates(), second_idb.Predicates());
  for (uint32_t pred : first_idb.Predicates()) {
    const Relation* a = first_idb.Find(pred);
    const Relation* b = second_idb.Find(pred);
    ASSERT_NE(b, nullptr) << "predicate " << pred;
    ASSERT_EQ(a->size(), b->size()) << "predicate " << pred;
    for (uint32_t i = 0; i < a->size(); ++i) {
      ASSERT_TRUE(a->row(i) == b->row(i))
          << "predicate " << pred << " row " << i;
    }
  }
}

/// A predicate probed on more binding patterns than a relation has index
/// slots: past Relation::kMaxPublishedIndexes the probe fails and the
/// join scans, serially and in the sharded workers alike, with the same
/// answers. Rule m walks edges whose attribute columns in mask m all
/// equal 1, so each of the 128 rules probes `edge` on its own column
/// subset and derives its own chain.
TEST_F(ParallelFixpointTest, ProbeCapacityFallbackScansWithSameAnswers) {
  constexpr uint32_t kAttrs = 7;
  constexpr uint32_t kMasks = 1u << kAttrs;  // 128 column subsets
  constexpr int64_t kNodes = 60;
  static_assert(kMasks > Relation::kMaxPublishedIndexes);
  Program program;
  PredicateId edge = program.predicates.Intern("edge", kAttrs + 2);
  PredicateId reach = program.predicates.Intern("reach", 2);
  RuleBuilder rb(&program.predicates);
  for (uint32_t m = 0; m < kMasks; ++m) {
    std::vector<RuleTerm> args = {rb.Var("X")};
    for (uint32_t a = 0; a < kAttrs; ++a) {
      args.push_back((m >> a) & 1 ? RuleBuilder::Const(V(1))
                                  : rb.Var("A" + std::to_string(a)));
    }
    args.push_back(rb.Var("Y"));
    rb.Head("reach", {RuleBuilder::Const(V(m)), rb.Var("Y")});
    rb.Body("reach", {RuleBuilder::Const(V(m)), rb.Var("X")});
    rb.Body("edge", args);
    program.rules.push_back(rb.Build());
    program.facts.push_back({reach, {V(m), V(0)}});
  }

  // Chain edges i -> i+1 carry attribute bits i % kMasks; shortcut edges
  // i -> i+7 carry every bit.
  struct Edge {
    int64_t from, to;
    uint32_t bits;
  };
  std::vector<Edge> edges;
  for (int64_t i = 0; i + 1 < kNodes; ++i) {
    edges.push_back({i, i + 1, static_cast<uint32_t>(i % kMasks)});
    if (i + 7 < kNodes) edges.push_back({i, i + 7, kMasks - 1});
  }
  std::vector<std::pair<PredicateId, std::vector<Value>>> facts;
  for (const Edge& e : edges) {
    std::vector<Value> row = {V(e.from)};
    for (uint32_t a = 0; a < kAttrs; ++a) row.push_back(V((e.bits >> a) & 1));
    row.push_back(V(e.to));
    facts.push_back({edge, row});
  }

  // Expected: per mask, the nodes reachable from 0 over its edges.
  Program expected_program;
  PredicateId expected_reach = expected_program.predicates.Intern("reach", 2);
  for (uint32_t m = 0; m < kMasks; ++m) {
    std::vector<bool> seen(kNodes, false);
    std::vector<int64_t> stack = {0};
    seen[0] = true;
    while (!stack.empty()) {
      int64_t x = stack.back();
      stack.pop_back();
      for (const Edge& e : edges) {
        if (e.from == x && (e.bits & m) == m && !seen[e.to]) {
          seen[e.to] = true;
          stack.push_back(e.to);
        }
      }
    }
    for (int64_t n = 0; n < kNodes; ++n) {
      if (seen[n]) expected_program.facts.push_back({expected_reach,
                                                    {V(m), V(n)}});
    }
  }
  const std::string expected = Dump(expected_program, {}, 1);
  ASSERT_FALSE(expected.empty());
  for (uint32_t threads : {1u, 4u}) {
    EXPECT_EQ(Dump(program, facts, threads), expected)
        << "threads=" << threads;
  }
}

/// Direct unit test of the per-predicate merge fan-out: staged stores
/// merge in worker order per predicate (each merged arena equals, row by
/// row, an InsertStaged loop over the same sources in worker order),
/// duplicates collapse against the target and across workers, the tuple
/// budget is charged per batch, and the fan-out width reports the
/// workers actually used.
TEST_F(ParallelFixpointTest, MergeStagedParallelUnit) {
  constexpr size_t kWorkers = 4;
  constexpr int kPreds = 3;
  ThreadPool pool(kWorkers);
  std::vector<std::unique_ptr<Relation>> targets;
  std::vector<std::vector<TupleStore>> staging(kPreds);
  std::vector<StagedMergeTask> tasks;
  for (int p = 0; p < kPreds; ++p) {
    targets.push_back(std::make_unique<Relation>(2));
    targets[p]->Insert({V(0), V(p)}, 0);  // pre-existing row to dedup against
    StagedMergeTask task;
    task.target = targets[p].get();
    for (size_t w = 0; w < kWorkers; ++w) {
      staging[p].emplace_back(2);
      TupleStore& store = staging[p].back();
      for (int64_t i = 0; i < 10; ++i) {
        // Overlap across workers: tuple (i, p) staged by every worker;
        // (w*100 + i, p) unique per worker. Plus the target's (0, p).
        std::vector<Value> dup = {V(i), V(p)};
        std::vector<Value> uniq = {V(static_cast<int64_t>(w) * 100 + i + 10),
                                   V(p)};
        bool fresh = false;
        store.Insert(dup.data(), &fresh);
        store.Insert(uniq.data(), &fresh);
      }
    }
    for (size_t w = 0; w < kWorkers; ++w) {
      task.sources.push_back(&staging[p][w]);
    }
    tasks.push_back(std::move(task));
  }

  ExecContext ctx;
  uint32_t fanout = 0;
  auto merged = MergeStagedParallel(&tasks, 1, &pool, &ctx, &fanout);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  // Per predicate: 10 shared dups minus the pre-existing (0,p) -> 9 new,
  // plus 10 unique per worker * 4 workers.
  EXPECT_EQ(*merged, static_cast<uint64_t>(kPreds) * (9 + 10 * kWorkers));
  EXPECT_EQ(fanout, 3u);  // three live predicates, four workers
  EXPECT_EQ(ctx.tuples_used(), *merged);
  for (int p = 0; p < kPreds; ++p) {
    EXPECT_EQ(targets[p]->size(), 1u + 9 + 10 * kWorkers);
    // Worker-order merge: worker 0's unique rows precede worker 1's.
    EXPECT_TRUE(targets[p]->Contains({V(10), V(p)}));
    Relation reference(2);
    reference.Insert({V(0), V(p)}, 0);
    for (const TupleStore& store : staging[p]) {
      reference.InsertStaged(store, 1);
    }
    ASSERT_EQ(targets[p]->size(), reference.size()) << "predicate " << p;
    for (uint32_t i = 0; i < reference.size(); ++i) {
      ASSERT_TRUE(targets[p]->row(i) == reference.row(i))
          << "predicate " << p << " row " << i;
      EXPECT_EQ(targets[p]->row_round(i), reference.row_round(i));
    }
  }

  // Budget enforcement: a tiny budget trips during the merge.
  std::vector<StagedMergeTask> tasks2;
  Relation target2(2);
  TupleStore big(2);
  for (int64_t i = 0; i < 600; ++i) {
    std::vector<Value> row = {V(i), V(i)};
    bool fresh = false;
    big.Insert(row.data(), &fresh);
  }
  StagedMergeTask t2;
  t2.target = &target2;
  t2.sources.push_back(&big);
  tasks2.push_back(std::move(t2));
  ExecContext small;
  small.set_tuple_budget(100);
  auto tripped = MergeStagedParallel(&tasks2, 1, &pool, &small, &fanout);
  EXPECT_TRUE(tripped.status().IsResourceExhausted());
}

/// Concurrent interning hammer: every worker interns an overlapping
/// stream of terms; a given term content must resolve to exactly one id,
/// ids must round-trip through the lock-free get(), and the count must
/// equal the distinct-content count. (TSan sweeps this suite: a racy
/// slot publish or index stripe would surface here.)
TEST_F(ParallelFixpointTest, DictionaryConcurrentInterningIsConsistent) {
  constexpr size_t kWorkers = 8;
  constexpr int kDistinct = 300;
  rdf::TermDictionary dict;
  ThreadPool pool(kWorkers);
  std::vector<std::vector<rdf::TermId>> ids(kWorkers);
  pool.RunOnWorkers([&](size_t w) {
    std::vector<rdf::TermId>& mine = ids[w];
    for (int i = 0; i < kDistinct; ++i) {
      // Overlapping across workers, interleaved kinds.
      int k = (i + static_cast<int>(w) * 37) % kDistinct;
      mine.push_back(dict.InternIri("http://c.org/e" + std::to_string(k)));
      mine.push_back(dict.InternInteger(k));
    }
  });
  // Same content -> same id, across all workers.
  for (size_t w = 1; w < kWorkers; ++w) {
    for (int i = 0; i < kDistinct; ++i) {
      int k = (i + static_cast<int>(w) * 37) % kDistinct;
      rdf::TermId iri = dict.InternIri("http://c.org/e" + std::to_string(k));
      rdf::TermId num = dict.InternInteger(k);
      EXPECT_EQ(ids[w][2 * i], iri);
      EXPECT_EQ(ids[w][2 * i + 1], num);
    }
  }
  // undef + kDistinct IRIs + kDistinct integers.
  EXPECT_EQ(dict.size(), 1u + 2u * kDistinct);
  // Lock-free get() round-trips content.
  for (int k = 0; k < kDistinct; ++k) {
    auto id = dict.Lookup(rdf::Term::Iri("http://c.org/e" + std::to_string(k)));
    ASSERT_TRUE(id.has_value());
    EXPECT_EQ(dict.get(*id).lexical, "http://c.org/e" + std::to_string(k));
  }
}

/// Same hammer for SkolemStore: concurrent Intern of overlapping Skolem
/// terms must be consistent and get() must round-trip.
TEST_F(ParallelFixpointTest, SkolemStoreConcurrentInterningIsConsistent) {
  constexpr size_t kWorkers = 8;
  constexpr uint64_t kDistinct = 400;
  SkolemStore skolems;
  uint32_t f = skolems.InternFunction("f1");
  uint32_t g = skolems.InternFunction("f2");
  ThreadPool pool(kWorkers);
  std::vector<std::vector<Value>> vals(kWorkers);
  pool.RunOnWorkers([&](size_t w) {
    for (uint64_t i = 0; i < kDistinct; ++i) {
      uint64_t k = (i + w * 53) % kDistinct;
      vals[w].push_back(skolems.Intern(f, {k, k % 7}));
      vals[w].push_back(skolems.Intern(g, {k}));
    }
  });
  for (size_t w = 0; w < kWorkers; ++w) {
    for (uint64_t i = 0; i < kDistinct; ++i) {
      uint64_t k = (i + w * 53) % kDistinct;
      EXPECT_EQ(vals[w][2 * i], skolems.Intern(f, {k, k % 7}));
      EXPECT_EQ(vals[w][2 * i + 1], skolems.Intern(g, {k}));
      const SkolemTerm t = skolems.get(vals[w][2 * i]);
      EXPECT_EQ(t.fn, f);
      ASSERT_EQ(t.args.size(), 2u);
      EXPECT_EQ(t.args[0], k);
    }
  }
  EXPECT_EQ(skolems.size(), 2 * kDistinct);
}

/// The deadline must trip within one round even when all the round's
/// work happens in the barrier merge fan-out: with an already-expired
/// deadline and multi-thread merge workers, Evaluate must return Timeout
/// (the batch-advance budget pacing samples the clock once per
/// kClockStride merged tuples per worker, whatever the fan-out width).
TEST_F(ParallelFixpointTest, DeadlineTripsUnderMergeFanOut) {
  constexpr int kPreds = 4;
  Program program;
  PredicateId edge = program.predicates.Intern("edge", 2);
  RuleBuilder rb(&program.predicates);
  auto name = [](int i) { return "p" + std::to_string(i); };
  rb.Head(name(0), {rb.Var("X"), rb.Var("Y")});
  rb.Body("edge", {rb.Var("X"), rb.Var("Y")});
  program.rules.push_back(rb.Build());
  for (int i = 0; i < kPreds; ++i) {
    rb.Head(name((i + 1) % kPreds), {rb.Var("X"), rb.Var("Z")});
    rb.Body(name(i), {rb.Var("X"), rb.Var("Y")});
    rb.Body("edge", {rb.Var("Y"), rb.Var("Z")});
    program.rules.push_back(rb.Build());
  }
  Database edb, idb;
  for (int64_t i = 1; i <= 48; ++i) {
    edb.relation(edge, 2).Insert({V(i), V(i % 48 + 1)}, 0);
  }
  SkolemStore skolems;
  Evaluator evaluator(&dict_, &skolems);
  evaluator.set_num_threads(8);
  ExecContext ctx;
  ctx.set_deadline_after(std::chrono::milliseconds(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  Status st = evaluator.Evaluate(program, &edb, &idb, &ctx);
  EXPECT_TRUE(st.IsTimeout()) << st.ToString();
}

/// The tuple budget ("mem-out") must still trip when derivations are
/// staged by parallel workers — enforced mid-round per worker and exactly
/// at each merge barrier.
TEST_F(ParallelFixpointTest, TupleBudgetTripsAcrossWorkers) {
  Program program;
  PredicateId edge = program.predicates.Intern("edge", 2);
  RuleBuilder rb(&program.predicates);
  rb.Head("tc", {rb.Var("X"), rb.Var("Y")});
  rb.Body("edge", {rb.Var("X"), rb.Var("Y")});
  program.rules.push_back(rb.Build());
  rb.Head("tc", {rb.Var("X"), rb.Var("Z")});
  rb.Body("edge", {rb.Var("X"), rb.Var("Y")});
  rb.Body("tc", {rb.Var("Y"), rb.Var("Z")});
  program.rules.push_back(rb.Build());

  Database edb, idb;
  for (int64_t i = 1; i <= 64; ++i) {
    edb.relation(edge, 2).Insert({V(i), V(i % 64 + 1)}, 0);
  }
  SkolemStore skolems;
  Evaluator evaluator(&dict_, &skolems);
  evaluator.set_num_threads(8);
  ExecContext ctx;
  ctx.set_tuple_budget(500);  // full closure is 64*64 = 4096 tuples
  Status st = evaluator.Evaluate(program, &edb, &idb, &ctx);
  EXPECT_TRUE(st.IsResourceExhausted()) << st.ToString();
}

/// Parallel fixpoint × cache interaction: a full-pipeline engine swept at
/// num_threads {1, 2, 8} must serve warm (program-cache + stratum-memo)
/// repeats bit-identically to its own cold run at every thread count, and
/// the thread count must never change the solution multiset. The warm
/// path replays memoized stratum snapshots instead of re-running the
/// sharded fixpoint, so this pins the snapshot/restore machinery under
/// the same configurations the TSan job sweeps.
TEST_F(ParallelFixpointTest, EngineWarmHitsAgreeAcrossThreadCounts) {
  rdf::TermDictionary dict;
  rdf::Dataset dataset(&dict);
  rdf::TermId p = dict.InternIri("http://par.org/p");
  auto node = [&](int64_t i) {
    return dict.InternIri("http://par.org/n" + std::to_string(i));
  };
  for (int64_t i = 1; i <= 40; ++i) {
    dataset.default_graph().Add(node(i), p, node(i % 40 + 1));
    if (i % 5 == 0) dataset.default_graph().Add(node(i), p, node((i + 11) % 40 + 1));
  }
  const std::string query =
      "SELECT ?x ?y WHERE { ?x <http://par.org/p>+ ?y }";

  eval::QueryResult serial_cold;
  for (uint32_t threads : {1u, 2u, 8u}) {
    core::Engine::Options options;
    options.parallelism.num_threads = threads;
    core::Engine engine(&dataset, &dict, options);
    ASSERT_TRUE(engine.Load().ok());

    auto cold = engine.ExecuteText(query);
    ASSERT_TRUE(cold.ok()) << "threads=" << threads << ": "
                           << cold.status().ToString();
    auto warm = engine.ExecuteText(query);
    ASSERT_TRUE(warm.ok()) << "threads=" << threads << ": "
                           << warm.status().ToString();
    // Warm must be bit-identical to this engine's own cold run.
    EXPECT_TRUE(cold->result.rows == warm->result.rows)
        << "threads=" << threads;
    EXPECT_EQ(cold->result.columns, warm->result.columns)
        << "threads=" << threads;
    EXPECT_EQ(engine.stats().program_hits, 1u) << "threads=" << threads;
    EXPECT_GT(engine.stats().stratum_hits, 0u) << "threads=" << threads;

    // Across thread counts the multiset (not the order) is pinned.
    if (threads == 1) {
      serial_cold = std::move(cold->result);
    } else {
      EXPECT_TRUE(warm->result.SameSolutions(serial_cold))
          << "threads=" << threads;
    }
  }
}

/// Engine::stats() surfaces the fixpoint-parallelism counters for the
/// last Execute: a recursive path query at num_threads=4 must report
/// sharded rounds, a sharded initial pass and merged staged tuples,
/// while the single-threaded engine reports none.
TEST_F(ParallelFixpointTest, EngineStatsExposeParallelCounters) {
  rdf::TermDictionary dict;
  rdf::Dataset dataset(&dict);
  rdf::TermId p = dict.InternIri("http://stat.org/p");
  auto node = [&](int64_t i) {
    return dict.InternIri("http://stat.org/n" + std::to_string(i));
  };
  for (int64_t i = 1; i <= 40; ++i) {
    dataset.default_graph().Add(node(i), p, node(i % 40 + 1));
  }
  const std::string query =
      "SELECT ?x ?y WHERE { ?x <http://stat.org/p>+ ?y }";

  core::Engine::Options options;
  options.parallelism.num_threads = 4;
  core::Engine engine(&dataset, &dict, options);
  ASSERT_TRUE(engine.Load().ok());
  auto result = engine.ExecuteText(query);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Per-query fixpoint counters ride the Execution...
  const datalog::EvalStats& fp = result->stats.fixpoint;
  EXPECT_GT(fp.rounds, 0u);
  EXPECT_GT(fp.parallel_rounds, 0u);
  EXPECT_GT(fp.naive_rounds_sharded, 0u);
  EXPECT_GT(fp.staged_tuples_merged, 0u);
  EXPECT_GT(result->stats.wall_seconds, 0.0);
  // ...and aggregate into the engine-lifetime stats.
  core::Engine::EngineStats stats = engine.stats();
  EXPECT_EQ(stats.queries, 1u);
  EXPECT_GT(stats.rounds, 0u);
  EXPECT_GT(stats.parallel_rounds, 0u);
  EXPECT_GT(stats.naive_rounds_sharded, 0u);
  EXPECT_GT(stats.staged_tuples_merged, 0u);

  core::Engine::Options serial_options;
  serial_options.parallelism.num_threads = 1;
  core::Engine serial(&dataset, &dict, serial_options);
  ASSERT_TRUE(serial.Load().ok());
  auto serial_result = serial.ExecuteText(query);
  ASSERT_TRUE(serial_result.ok()) << serial_result.status().ToString();
  EXPECT_EQ(serial.stats().parallel_rounds, 0u);
  EXPECT_EQ(serial.stats().staged_tuples_merged, 0u);
  EXPECT_TRUE(result->result.SameSolutions(serial_result->result));
}

/// Every summed EngineStats counter equals the sum of the per-query
/// QueryStats::fixpoint values, and merge_fanout_width their maximum,
/// over a TC query, its memo-hit repeat, a non-TC recursive query, an
/// update and the re-derivation after it. The check expands the counter
/// list itself, so a counter added there is covered here unedited.
TEST_F(ParallelFixpointTest, EngineStatsFoldPerQueryFixpointCounters) {
  rdf::TermDictionary dict;
  rdf::Dataset dataset(&dict);
  rdf::TermId p = dict.InternIri("http://fold.org/p");
  rdf::TermId q = dict.InternIri("http://fold.org/q");
  auto node = [&](int64_t i) {
    return dict.InternIri("http://fold.org/n" + std::to_string(i));
  };
  for (int64_t i = 1; i <= 40; ++i) {
    dataset.default_graph().Add(node(i), p, node(i % 40 + 1));
    if (i % 3 == 0) dataset.default_graph().Add(node(i), q, node(i + 1));
  }
  const std::string prefix = "PREFIX f: <http://fold.org/> ";
  const std::string closure = prefix + "SELECT ?x ?y WHERE { ?x f:p+ ?y }";
  const std::string alternation =
      prefix + "SELECT ?x ?y WHERE { ?x (f:p|f:q)+ ?y }";

  core::Engine::Options options;
  options.parallelism.num_threads = 4;
  core::Engine engine(&dataset, &dict, options);
  ASSERT_TRUE(engine.Load().ok());

  core::Engine::EngineStats expect;
  auto run = [&](const std::string& text) {
    auto result = engine.ExecuteText(text);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const EvalStats& fp = result->stats.fixpoint;
#define FOLD_SUM(name) expect.name += fp.name;
#define FOLD_MAX(name) expect.name = std::max<uint64_t>(expect.name, fp.name);
    SPARQLOG_ENGINE_STATS(SPARQLOG_STAT_SKIP, FOLD_SUM, FOLD_MAX,
                          SPARQLOG_STAT_SKIP)
#undef FOLD_SUM
#undef FOLD_MAX
  };
  run(closure);
  run(closure);  // memo hit
  run(alternation);
  ASSERT_TRUE(engine
                  .ApplyUpdate({{node(50), p, node(1)}},
                               {{node(7), p, node(8)}})
                  .ok());
  run(closure);
  run(alternation);

  const core::Engine::EngineStats stats = engine.stats();
#define EXPECT_FOLDED(name) EXPECT_EQ(stats.name, expect.name) << #name;
  SPARQLOG_ENGINE_STATS(SPARQLOG_STAT_SKIP, EXPECT_FOLDED, EXPECT_FOLDED,
                        SPARQLOG_STAT_SKIP)
#undef EXPECT_FOLDED
  // The sequence exercised what it claims to check.
  EXPECT_EQ(stats.queries, 5u);
  EXPECT_GT(stats.tc_kernels_hit, 0u);
  EXPECT_GT(stats.stratum_hits, 0u);
  EXPECT_GT(stats.parallel_rounds, 0u);
  EXPECT_GT(stats.merge_fanout_width, 0u);
  EXPECT_GT(stats.strata_incremental, 0u);
}

/// The deadline must still be sampled when an evaluation is made of many
/// short rule runs: the clock-stride phase persists across serial
/// invocations (as the pre-parallelism context-owned counter did), so an
/// expired deadline trips even though no single RuleRun performs
/// kClockStride checks on its own.
TEST_F(ParallelFixpointTest, DeadlineTripsAcrossManyShortRuleRuns) {
  Program program;
  PredicateId edge = program.predicates.Intern("edge", 2);
  RuleBuilder rb(&program.predicates);
  rb.Head("tc", {rb.Var("X"), rb.Var("Y")});
  rb.Body("edge", {rb.Var("X"), rb.Var("Y")});
  program.rules.push_back(rb.Build());
  rb.Head("tc", {rb.Var("X"), rb.Var("Z")});
  rb.Body("edge", {rb.Var("X"), rb.Var("Y")});
  rb.Body("tc", {rb.Var("Y"), rb.Var("Z")});
  program.rules.push_back(rb.Build());

  // A long chain: hundreds of fixpoint rounds with tiny deltas, so every
  // individual rule run stays far under one clock stride.
  Database edb, idb;
  for (int64_t i = 1; i <= 400; ++i) {
    edb.relation(edge, 2).Insert({V(i), V(i + 1)}, 0);
  }
  SkolemStore skolems;
  Evaluator evaluator(&dict_, &skolems);
  evaluator.set_num_threads(1);
  ExecContext ctx;
  ctx.set_deadline_after(std::chrono::milliseconds(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  Status st = evaluator.Evaluate(program, &edb, &idb, &ctx);
  EXPECT_TRUE(st.IsTimeout()) << st.ToString();
}

}  // namespace
}  // namespace sparqlog::datalog
