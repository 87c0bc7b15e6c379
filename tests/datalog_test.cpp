// Unit tests for the Datalog± engine substrate: relations and indexes,
// Skolem-term interning, SCC stratification, semi-naive evaluation
// (recursion, negation, builtins, duplicate preservation), the warded
// analyzer, and the program printer.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "datalog/ast.h"
#include "datalog/evaluator.h"
#include "datalog/printer.h"
#include "datalog/relation.h"
#include "datalog/stratify.h"
#include "datalog/value.h"
#include "datalog/warded.h"

namespace sparqlog::datalog {
namespace {

TEST(ValueTest, TermAndSkolemTagging) {
  SkolemStore skolems;
  Value term = ValueFromTerm(17);
  EXPECT_FALSE(IsSkolemValue(term));
  EXPECT_EQ(TermFromValue(term), 17u);
  uint32_t fn = skolems.InternFunction("f1");
  Value sk = skolems.Intern(fn, {term, 42});
  EXPECT_TRUE(IsSkolemValue(sk));
}

TEST(SkolemStoreTest, InterningIsStructural) {
  SkolemStore skolems;
  uint32_t f = skolems.InternFunction("f");
  uint32_t g = skolems.InternFunction("g");
  EXPECT_EQ(skolems.InternFunction("f"), f);
  Value a = skolems.Intern(f, {1, 2});
  Value b = skolems.Intern(f, {1, 2});
  Value c = skolems.Intern(f, {2, 1});
  Value d = skolems.Intern(g, {1, 2});
  EXPECT_EQ(a, b);  // same grounding, same TID -> duplicates collapse
  EXPECT_NE(a, c);  // different grounding -> distinct TID
  EXPECT_NE(a, d);  // different rule -> distinct TID
}

TEST(SkolemStoreTest, NestedSkolemArguments) {
  SkolemStore skolems;
  uint32_t f = skolems.InternFunction("f");
  Value inner = skolems.Intern(f, {1});
  Value outer1 = skolems.Intern(f, {inner, 2});
  Value outer2 = skolems.Intern(f, {inner, 2});
  EXPECT_EQ(outer1, outer2);
  EXPECT_NE(outer1, inner);
}

TEST(SkolemStoreTest, ZeroArgumentTerm) {
  SkolemStore skolems;
  uint32_t empty = skolems.InternFunction("[]");
  Value a = skolems.Intern(empty, nullptr, 0);
  EXPECT_TRUE(IsSkolemValue(a));
  EXPECT_EQ(skolems.Intern(empty, {}), a);
  // Same function, one argument: a different term.
  EXPECT_NE(skolems.Intern(empty, {0}), a);
  SkolemTerm t = skolems.get(a);
  EXPECT_EQ(t.fn, empty);
  EXPECT_TRUE(t.args.empty());
  rdf::TermDictionary dict;
  EXPECT_EQ(skolems.Render(a, dict), "[\"[]\"]");
}

TEST(SkolemStoreTest, GetAndRenderRoundTrip) {
  SkolemStore skolems;
  rdf::TermDictionary dict;
  rdf::TermId iri = dict.InternIri("http://ex.org/a");
  uint32_t f = skolems.InternFunction("f1");
  uint32_t g = skolems.InternFunction("g");
  Value inner = skolems.Intern(g, {ValueFromTerm(iri)});
  const Value args[] = {ValueFromTerm(iri), inner, 7, inner};
  Value outer = skolems.Intern(f, args, 4);
  SkolemTerm t = skolems.get(outer);
  EXPECT_EQ(t.fn, f);
  ASSERT_EQ(t.args.size(), 4u);
  EXPECT_TRUE(std::equal(t.args.begin(), t.args.end(), args));
  // Re-interning the term read back yields the same handle.
  EXPECT_EQ(skolems.Intern(t.fn, t.args.data(), t.args.size()), outer);
  std::string inner_text = "[\"g\", " + dict.Render(iri) + "]";
  EXPECT_EQ(skolems.Render(inner, dict), inner_text);
  EXPECT_EQ(skolems.Render(outer, dict),
            "[\"f1\", " + dict.Render(iri) + ", " + inner_text + ", " +
                dict.Render(7) + ", " + inner_text + "]");
}

TEST(SkolemStoreTest, GrowsThroughRehashes) {
  SkolemStore skolems;
  uint32_t f = skolems.InternFunction("f");
  constexpr uint64_t kTerms = 200000;  // thousands of slots per stripe
  std::vector<Value> handles;
  for (uint64_t i = 0; i < kTerms; ++i) {
    // Mixed arities, so arena chunk boundaries fall mid-sequence.
    const Value args[] = {i, i % 13, i * 7, i % 5};
    handles.push_back(skolems.Intern(f, args, 1 + i % 4));
  }
  EXPECT_EQ(skolems.size(), kTerms);
  std::vector<Value> sorted = handles;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end());
  for (uint64_t i = 0; i < kTerms; ++i) {
    const Value args[] = {i, i % 13, i * 7, i % 5};
    ASSERT_EQ(skolems.Intern(f, args, 1 + i % 4), handles[i]) << i;
    SkolemTerm t = skolems.get(handles[i]);
    ASSERT_EQ(t.args.size(), 1 + i % 4);
    EXPECT_EQ(t.args[0], i);
  }
  EXPECT_EQ(skolems.size(), kTerms);
  // Arena words (~3.5 per term) plus at least one slot per term.
  EXPECT_GT(skolems.resident_bytes(), kTerms * 3 * sizeof(Value));
}

TEST(SkolemStoreTest, ReportsIdSpaceExhaustion) {
  SkolemStore skolems(/*max_terms=*/3);
  uint32_t f = skolems.InternFunction("f");
  Value a = skolems.Intern(f, {1});
  Value b = skolems.Intern(f, {2});
  Value c = skolems.Intern(f, {3});
  EXPECT_NE(c, SkolemStore::kExhausted);
  EXPECT_EQ(skolems.Intern(f, {4}), SkolemStore::kExhausted);
  EXPECT_EQ(skolems.Intern(f, {5}), SkolemStore::kExhausted);
  // Existing terms still resolve; nothing aliased or wrapped.
  EXPECT_EQ(skolems.Intern(f, {1}), a);
  EXPECT_EQ(skolems.Intern(f, {2}), b);
  EXPECT_EQ(skolems.size(), 3u);
}

TEST(SkolemStoreTest, ConcurrentInterningAgreesOnIdentity) {
  SkolemStore skolems;
  uint32_t f = skolems.InternFunction("f");
  uint32_t g = skolems.InternFunction("g");
  constexpr size_t kThreads = 8;
  constexpr uint64_t kPerThread = 4000;
  constexpr uint64_t kKeys = 10000;  // windows overlap across threads
  // Each thread interns g(k) and f(k, g(k), k % 11) for its window of
  // keys; windows start 1500 apart, so neighbouring threads race on
  // most of their terms.
  std::vector<std::vector<std::pair<Value, Value>>> got(kThreads);
  std::vector<std::thread> threads;
  for (size_t w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        uint64_t k = (w * 1500 + i) % kKeys;
        Value inner = skolems.Intern(g, {k});
        const Value args[] = {k, inner, k % 11};
        got[w].push_back({inner, skolems.Intern(f, args, 3)});
      }
    });
  }
  for (auto& t : threads) t.join();
  std::unordered_map<uint64_t, std::pair<Value, Value>> by_key;
  for (size_t w = 0; w < kThreads; ++w) {
    for (uint64_t i = 0; i < kPerThread; ++i) {
      uint64_t k = (w * 1500 + i) % kKeys;
      auto [it, fresh] = by_key.emplace(k, got[w][i]);
      EXPECT_EQ(it->second, got[w][i]) << "key " << k;  // equal terms
    }
  }
  std::unordered_set<Value> distinct;
  for (const auto& [k, pair] : by_key) {
    distinct.insert(pair.first);
    distinct.insert(pair.second);
    SkolemTerm t = skolems.get(pair.second);
    EXPECT_EQ(t.fn, f);
    ASSERT_EQ(t.args.size(), 3u);
    EXPECT_EQ(t.args[0], k);
    EXPECT_EQ(t.args[1], pair.first);
  }
  EXPECT_EQ(distinct.size(), 2 * by_key.size());  // distinct terms
  EXPECT_EQ(skolems.size(), 2 * by_key.size());
}

TEST(RelationTest, InsertDedupAndRounds) {
  Relation rel(2);
  EXPECT_TRUE(rel.Insert({1, 2}, 0));
  EXPECT_FALSE(rel.Insert({1, 2}, 1));  // duplicate
  EXPECT_TRUE(rel.Insert({1, 3}, 1));
  EXPECT_TRUE(rel.Insert({2, 3}, 2));
  EXPECT_EQ(rel.size(), 3u);
  EXPECT_TRUE(rel.Contains({1, 2}));
  EXPECT_FALSE(rel.Contains({9, 9}));
  auto [lo, hi] = rel.RoundRange(1);
  EXPECT_EQ(hi - lo, 1u);
  EXPECT_EQ(rel.row(lo), (std::vector<Value>{1, 3}));
}

/// Probe below the index capacity, where it always succeeds.
MatchSpan ProbeOk(Relation& rel, const std::vector<uint32_t>& cols,
                  const std::vector<Value>& key) {
  MatchSpan span;
  EXPECT_TRUE(rel.Probe(cols, key, &span));
  return span;
}

TEST(RelationTest, ProbeBuildsAndMaintainsIndexes) {
  Relation rel(2);
  rel.Insert({1, 10}, 0);
  rel.Insert({1, 11}, 0);
  rel.Insert({2, 10}, 0);
  MatchSpan span = ProbeOk(rel, {0}, {1});
  EXPECT_EQ(span.size(), 2u);
  // Index maintained across later inserts.
  rel.Insert({1, 12}, 1);
  span = ProbeOk(rel, {0}, {1});
  EXPECT_EQ(span.size(), 3u);
  // Multi-column probe.
  span = ProbeOk(rel, {0, 1}, {2, 10});
  ASSERT_EQ(span.size(), 1u);
  EXPECT_EQ(rel.row(span[0]), (std::vector<Value>{2, 10}));
  EXPECT_TRUE(ProbeOk(rel, {1}, {99}).empty());
}

TEST(RelationTest, ProbeSurvivesConcurrentBuild) {
  Relation rel(2);
  for (Value i = 0; i < 200; ++i) rel.Insert({i % 20, i}, 0);
  // Concurrent first-probe: workers race to build and publish the same
  // two indexes; every probe must see a fully built index.
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&rel, &mismatches] {
      for (Value k = 0; k < 20; ++k) {
        MatchSpan span;
        if (!rel.Probe({0}, {k}, &span) || span.size() != 10) {
          ++mismatches;
        }
        if (!rel.Probe({1}, {k}, &span) || span.size() != 1) {
          ++mismatches;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  // The published indexes stay maintained across later inserts.
  rel.Insert({3, 1000}, 1);
  EXPECT_EQ(ProbeOk(rel, {0}, {3}).size(), 11u);
  EXPECT_EQ(ProbeOk(rel, {1}, {1000}).size(), 1u);
}

TEST(RelationTest, ProbeReportsFailurePastIndexCapacity) {
  // Seven columns give 127 distinct non-empty column subsets, well past
  // the published-index capacity.
  constexpr uint32_t kArity = 7;
  Relation rel(kArity);
  for (Value i = 0; i < 40; ++i) {
    std::vector<Value> row;
    for (uint32_t c = 0; c < kArity; ++c) row.push_back(i % (c + 2));
    rel.Insert(row, 0);
  }
  auto subset = [](uint32_t mask) {
    std::vector<uint32_t> cols;
    for (uint32_t c = 0; c < kArity; ++c) {
      if (mask & (1u << c)) cols.push_back(c);
    }
    return cols;
  };
  // Key of row 0 (all zeros) on any column subset.
  auto key = [&](uint32_t mask) {
    return std::vector<Value>(subset(mask).size(), 0);
  };
  size_t built = 0;
  for (uint32_t mask = 1; mask < (1u << kArity); ++mask) {
    MatchSpan span;
    const bool ok = rel.Probe(subset(mask), key(mask), &span);
    if (built < Relation::kMaxPublishedIndexes) {
      ASSERT_TRUE(ok) << "mask " << mask;
      EXPECT_GE(span.size(), 1u) << "mask " << mask;  // row 0 matches
      ++built;
    } else {
      EXPECT_FALSE(ok) << "mask " << mask;
      EXPECT_TRUE(span.empty());  // untouched on failure
    }
  }
  // Indexes built before the capacity was reached keep answering and
  // stay maintained; an unindexed subset keeps failing.
  std::vector<Value> row(kArity, 0);
  row[kArity - 1] = 1000;
  rel.Insert(row, 1);
  const uint32_t kept = 1;  // {0}, built first
  MatchSpan span;
  ASSERT_TRUE(rel.Probe(subset(kept), key(kept), &span));
  EXPECT_EQ(span.size(), 21u);  // 20 even i plus the new row
  EXPECT_FALSE(rel.Probe(subset((1u << kArity) - 1), key((1u << kArity) - 1),
                         &span));
  // Dropping the indexes (row ids shift on removal) frees the capacity.
  EXPECT_EQ(rel.RemoveRows(row), 1u);
  ASSERT_TRUE(rel.Probe(subset((1u << kArity) - 1), key((1u << kArity) - 1),
                        &span));
  EXPECT_GE(span.size(), 1u);
}

TEST(RelationTest, InsertStagedMergesAndDedupes) {
  Relation rel(2);
  rel.Insert({1, 2}, 0);
  rel.Insert({3, 4}, 0);
  // Staging buffer holds one duplicate of the relation and two fresh
  // tuples (already deduped within itself, as worker staging stores are).
  TupleStore staged(2);
  bool fresh = false;
  const Value rows[][2] = {{1, 2}, {5, 6}, {7, 8}};
  for (const auto& row : rows) staged.Insert(row, &fresh);
  EXPECT_EQ(rel.InsertStaged(staged, 3), 2u);
  EXPECT_EQ(rel.size(), 4u);
  EXPECT_TRUE(rel.Contains({5, 6}));
  // Merged rows carry the barrier round: they form round 3's delta.
  auto [lo, hi] = rel.RoundRange(3);
  EXPECT_EQ(hi - lo, 2u);
  EXPECT_EQ(rel.row(lo), (std::vector<Value>{5, 6}));
  // An empty staging store merges nothing.
  TupleStore empty(2);
  EXPECT_EQ(rel.InsertStaged(empty, 4), 0u);
}

TEST(TupleStoreTest, ClearKeepsCapacityAndResetsDedup) {
  TupleStore store(2);
  bool fresh = false;
  for (Value i = 0; i < 100; ++i) {
    store.Insert(std::vector<Value>{i, i + 1}.data(), &fresh);
  }
  EXPECT_EQ(store.size(), 100u);
  size_t bytes_before = store.bytes();
  store.Clear();
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.bytes(), bytes_before);  // capacity retained
  const Value row[] = {7, 8};
  store.Insert(row, &fresh);
  EXPECT_TRUE(fresh);  // dedup table was reset, not just truncated
  store.Insert(row, &fresh);
  EXPECT_FALSE(fresh);
  EXPECT_EQ(store.size(), 1u);
}

TEST(RelationTest, ShardRangeCursorCoversArenaSegments) {
  Relation rel(2);
  for (Value i = 0; i < 10; ++i) rel.Insert({i, i * 2}, 0);
  TupleCursor shard = rel.rows(4, 7);
  ASSERT_EQ(shard.size(), 3u);
  EXPECT_EQ(shard[0], (std::vector<Value>{4, 8}));
  EXPECT_EQ(shard[2], (std::vector<Value>{6, 12}));
  // Shards tile the arena: [0,5) + [5,10) visit each row exactly once.
  size_t visited = 0;
  for (RowRef row : rel.rows(0, 5)) visited += row.size() ? 1 : 0;
  for (RowRef row : rel.rows(5, 10)) visited += row.size() ? 1 : 0;
  EXPECT_EQ(visited, rel.size());
  EXPECT_TRUE(rel.rows(10, 10).empty());
}

TEST(RelationTest, CursorIteratesArenaInInsertionOrder) {
  Relation rel(3);
  rel.Insert({1, 2, 3}, 0);
  rel.Insert({4, 5, 6}, 0);
  rel.Insert({7, 8, 9}, 1);
  std::vector<std::vector<Value>> seen;
  for (RowRef row : rel.rows()) seen.push_back(row.ToVector());
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], (std::vector<Value>{1, 2, 3}));
  EXPECT_EQ(seen[2], (std::vector<Value>{7, 8, 9}));
  // Random access through the cursor.
  TupleCursor cursor = rel.rows();
  EXPECT_EQ(cursor[1][2], 6u);
}

TEST(RelationTest, DedupSurvivesRehash) {
  // Enough inserts to force several open-addressing table growths.
  Relation rel(2);
  for (Value i = 0; i < 1000; ++i) {
    EXPECT_TRUE(rel.Insert({i, i * 31}, 0));
  }
  for (Value i = 0; i < 1000; ++i) {
    EXPECT_FALSE(rel.Insert({i, i * 31}, 1));
    EXPECT_TRUE(rel.Contains({i, i * 31}));
  }
  EXPECT_EQ(rel.size(), 1000u);
  EXPECT_FALSE(rel.Contains({1, 1}));
}

TEST(RelationTest, RoundMarksTrackSparseRounds) {
  Relation rel(1);
  rel.Insert({1}, 0);
  rel.Insert({2}, 0);
  rel.Insert({3}, 5);  // rounds may skip numbers across strata
  rel.Insert({4}, 7);
  auto [lo0, hi0] = rel.RoundRange(0);
  EXPECT_EQ(lo0, 0u);
  EXPECT_EQ(hi0, 2u);
  auto [lo5, hi5] = rel.RoundRange(5);
  EXPECT_EQ(lo5, 2u);
  EXPECT_EQ(hi5, 3u);
  auto [lo7, hi7] = rel.RoundRange(7);
  EXPECT_EQ(lo7, 3u);
  EXPECT_EQ(hi7, 4u);
  // A round with no inserts is an empty range.
  auto [lo3, hi3] = rel.RoundRange(3);
  EXPECT_EQ(lo3, hi3);
  EXPECT_EQ(rel.row_round(0), 0u);
  EXPECT_EQ(rel.row_round(2), 5u);
  EXPECT_EQ(rel.row_round(3), 7u);
}

TEST(RelationTest, MatchSpanStableAcrossConcurrentInserts) {
  // The evaluator relies on probing a bucket while recursive rules insert
  // into the same relation: the span must keep addressing the probe-time
  // prefix even as the bucket grows and the arena reallocates.
  Relation rel(2);
  for (Value i = 0; i < 8; ++i) rel.Insert({1, i}, 0);
  MatchSpan span = ProbeOk(rel, {0}, {1});
  ASSERT_EQ(span.size(), 8u);
  for (uint32_t k = 0; k < span.size(); ++k) {
    // Grow the same bucket (and the arena) mid-iteration.
    rel.Insert({1, 1000 + k}, 1);
    EXPECT_EQ(rel.row(span[k])[1], k);
  }
  EXPECT_EQ(ProbeOk(rel, {0}, {1}).size(), 16u);
}

TEST(RelationTest, InsertRowRefAliasingOwnArena) {
  // RowRefs viewing this relation's own arena must be safe to pass back
  // into Insert even while interleaved inserts grow (and reallocate) the
  // arena: aliased duplicates are no-ops, and TupleStore::Insert guards
  // the append against aliased source ranges.
  Relation rel(2);
  for (Value i = 0; i < 300; ++i) rel.Insert({i, i + 1}, 0);
  for (Value i = 0; i < 300; ++i) {
    EXPECT_FALSE(rel.Insert(rel.row(static_cast<uint32_t>(i)), 1));
    EXPECT_TRUE(rel.Insert({1000 + i, i}, 1));
  }
  EXPECT_EQ(rel.size(), 600u);
}

TEST(RelationTest, ZeroArityRelation) {
  Relation rel(0);
  EXPECT_FALSE(rel.Contains(std::vector<Value>{}));
  EXPECT_TRUE(rel.Insert(std::vector<Value>{}, 0));
  EXPECT_FALSE(rel.Insert(std::vector<Value>{}, 0));  // dedup
  EXPECT_EQ(rel.size(), 1u);
  size_t count = 0;
  for (RowRef row : rel.rows()) {
    EXPECT_EQ(row.size(), 0u);
    ++count;
  }
  EXPECT_EQ(count, 1u);
}

// --- evaluation fixtures ----------------------------------------------------

class EvaluatorTest : public ::testing::Test {
 protected:
  EvaluatorTest() : evaluator_(&dict_, &skolems_) {}

  /// edge facts into the EDB under predicate "edge"/2 of `program`.
  void AddEdges(Program* program,
                const std::vector<std::pair<Value, Value>>& edges) {
    PredicateId edge = program->predicates.Intern("edge", 2);
    for (auto [a, b] : edges) edb_.relation(edge, 2).Insert({a, b}, 0);
  }

  Result<const Relation*> Run(const Program& program, const char* output) {
    SPARQLOG_RETURN_NOT_OK(evaluator_.Evaluate(program, &edb_, &idb_, &ctx_));
    auto pred = program.predicates.Lookup(output);
    if (!pred) return Status::NotFound("no output predicate");
    const Relation* rel = idb_.Find(*pred);
    static const Relation& empty = *new Relation(0);
    return rel == nullptr ? &empty : rel;
  }

  rdf::TermDictionary dict_;
  SkolemStore skolems_;
  Database edb_, idb_;
  ExecContext ctx_;
  Evaluator evaluator_;
};

TEST_F(EvaluatorTest, TransitiveClosure) {
  Program program;
  AddEdges(&program, {{1, 2}, {2, 3}, {3, 4}, {4, 2}});  // cycle 2-3-4
  RuleBuilder rb(&program.predicates);
  rb.Head("tc", {rb.Var("X"), rb.Var("Y")});
  rb.Body("edge", {rb.Var("X"), rb.Var("Y")});
  program.rules.push_back(rb.Build());
  rb.Head("tc", {rb.Var("X"), rb.Var("Z")});
  rb.Body("edge", {rb.Var("X"), rb.Var("Y")});
  rb.Body("tc", {rb.Var("Y"), rb.Var("Z")});
  program.rules.push_back(rb.Build());

  const Relation* tc = Run(program, "tc").ValueOrDie();
  // Reach sets: 1->{2,3,4}, 2->{2,3,4}, 3->{2,3,4}, 4->{2,3,4}.
  EXPECT_EQ(tc->size(), 12u);
  EXPECT_TRUE(tc->Contains({1, 4}));
  EXPECT_TRUE(tc->Contains({2, 2}));  // via the cycle
  EXPECT_FALSE(tc->Contains({2, 1}));
}

TEST_F(EvaluatorTest, RecursiveRuleDerivesWhileProbingOwnIndex) {
  // tc(X,Z) :- tc(X,Y), tc(Y,Z) probes the tc index with Y bound while
  // EmitHead inserts into tc (growing the probed bucket and reallocating
  // the arena). Exercises the epoch-stable MatchSpan on a long chain so
  // multiple rehashes happen mid-iteration.
  Program program;
  std::vector<std::pair<Value, Value>> edges;
  for (Value i = 1; i <= 60; ++i) edges.push_back({i, i + 1});
  edges.push_back({61, 1});  // cycle over all 61 nodes: closure is 61x61
  AddEdges(&program, edges);
  RuleBuilder rb(&program.predicates);
  rb.Head("tc", {rb.Var("X"), rb.Var("Y")});
  rb.Body("edge", {rb.Var("X"), rb.Var("Y")});
  program.rules.push_back(rb.Build());
  rb.Head("tc", {rb.Var("X"), rb.Var("Z")});
  rb.Body("tc", {rb.Var("X"), rb.Var("Y")});
  rb.Body("tc", {rb.Var("Y"), rb.Var("Z")});
  program.rules.push_back(rb.Build());

  const Relation* tc = Run(program, "tc").ValueOrDie();
  EXPECT_EQ(tc->size(), 61u * 61u);
  EXPECT_TRUE(tc->Contains({1, 1}));
  EXPECT_TRUE(tc->Contains({61, 60}));
}

TEST_F(EvaluatorTest, NaiveModeComputesSameFixpoint) {
  Program program;
  AddEdges(&program, {{1, 2}, {2, 3}, {3, 1}, {3, 4}});
  RuleBuilder rb(&program.predicates);
  rb.Head("tc", {rb.Var("X"), rb.Var("Y")});
  rb.Body("edge", {rb.Var("X"), rb.Var("Y")});
  program.rules.push_back(rb.Build());
  rb.Head("tc", {rb.Var("X"), rb.Var("Z")});
  rb.Body("tc", {rb.Var("X"), rb.Var("Y")});
  rb.Body("tc", {rb.Var("Y"), rb.Var("Z")});
  program.rules.push_back(rb.Build());

  const Relation* semi = Run(program, "tc").ValueOrDie();
  size_t semi_size = semi->size();

  Database edb2, idb2;
  PredicateId edge = *program.predicates.Lookup("edge");
  for (RowRef row : edb_.Find(edge)->rows()) {
    edb2.relation(edge, 2).Insert(row, 0);
  }
  Evaluator naive(&dict_, &skolems_);
  naive.set_mode(FixpointMode::kNaive);
  ExecContext ctx;
  ASSERT_TRUE(naive.Evaluate(program, &edb2, &idb2, &ctx).ok());
  EXPECT_EQ(idb2.Find(*program.predicates.Lookup("tc"))->size(), semi_size);
}

TEST_F(EvaluatorTest, StratifiedNegation) {
  Program program;
  AddEdges(&program, {{1, 2}, {2, 3}});
  PredicateId special = program.predicates.Intern("special", 1);
  edb_.relation(special, 1).Insert({2}, 0);

  // plain(X, Y) :- edge(X, Y), not special(X).
  RuleBuilder rb(&program.predicates);
  rb.Head("plain", {rb.Var("X"), rb.Var("Y")});
  rb.Body("edge", {rb.Var("X"), rb.Var("Y")});
  rb.NegBody("special", {rb.Var("X")});
  program.rules.push_back(rb.Build());

  const Relation* plain = Run(program, "plain").ValueOrDie();
  EXPECT_EQ(plain->size(), 1u);
  EXPECT_TRUE(plain->Contains({1, 2}));
}

TEST_F(EvaluatorTest, NegationOverDerivedPredicate) {
  Program program;
  AddEdges(&program, {{1, 2}, {2, 3}, {3, 4}});
  // sink(X) :- edge(_, X), not has_out(X);  has_out(X) :- edge(X, _).
  RuleBuilder rb(&program.predicates);
  rb.Head("has_out", {rb.Var("X")});
  rb.Body("edge", {rb.Var("X"), rb.Var("Y")});
  program.rules.push_back(rb.Build());
  rb.Head("sink", {rb.Var("X")});
  rb.Body("edge", {rb.Var("Y"), rb.Var("X")});
  rb.NegBody("has_out", {rb.Var("X")});
  program.rules.push_back(rb.Build());

  const Relation* sink = Run(program, "sink").ValueOrDie();
  EXPECT_EQ(sink->size(), 1u);
  EXPECT_TRUE(sink->Contains({4}));
}

TEST_F(EvaluatorTest, SkolemTidsPreserveDuplicatesAcrossRules) {
  Program program;
  AddEdges(&program, {{1, 2}});
  PredicateId edge2 = program.predicates.Intern("edge2", 2);
  edb_.relation(edge2, 2).Insert({1, 2}, 0);

  // Two "union branch" rules deriving the same tuple content with
  // rule-specific Skolem TIDs: both survive (bag semantics, §4.3).
  uint32_t fa = skolems_.InternFunction("fa");
  uint32_t fb = skolems_.InternFunction("fb");
  RuleBuilder rb(&program.predicates);
  rb.Head("u", {rb.Var("ID"), rb.Var("X"), rb.Var("Y")});
  rb.Body("edge", {rb.Var("X"), rb.Var("Y")});
  rb.Skolem(rb.Var("ID"), fa, {rb.Var("X"), rb.Var("Y")});
  program.rules.push_back(rb.Build());
  rb.Head("u", {rb.Var("ID"), rb.Var("X"), rb.Var("Y")});
  rb.Body("edge2", {rb.Var("X"), rb.Var("Y")});
  rb.Skolem(rb.Var("ID"), fb, {rb.Var("X"), rb.Var("Y")});
  program.rules.push_back(rb.Build());

  const Relation* u = Run(program, "u").ValueOrDie();
  EXPECT_EQ(u->size(), 2u);  // same (1,2) payload, two TIDs
}

TEST_F(EvaluatorTest, EqBuiltinAssignsAndChecks) {
  Program program;
  AddEdges(&program, {{1, 2}, {3, 4}});
  // fixed(X, C) :- edge(X, Y), C = 99, X = 1.
  RuleBuilder rb(&program.predicates);
  rb.Head("fixed", {rb.Var("X"), rb.Var("C")});
  rb.Body("edge", {rb.Var("X"), rb.Var("Y")});
  rb.Eq(rb.Var("C"), RuleBuilder::Const(99));
  rb.Eq(rb.Var("X"), RuleBuilder::Const(1));
  program.rules.push_back(rb.Build());

  const Relation* fixed = Run(program, "fixed").ValueOrDie();
  EXPECT_EQ(fixed->size(), 1u);
  EXPECT_TRUE(fixed->Contains({1, 99}));
}

TEST_F(EvaluatorTest, NeBuiltinFilters) {
  Program program;
  AddEdges(&program, {{1, 1}, {1, 2}});
  RuleBuilder rb(&program.predicates);
  rb.Head("strict", {rb.Var("X"), rb.Var("Y")});
  rb.Body("edge", {rb.Var("X"), rb.Var("Y")});
  rb.Ne(rb.Var("X"), rb.Var("Y"));
  program.rules.push_back(rb.Build());

  const Relation* strict = Run(program, "strict").ValueOrDie();
  EXPECT_EQ(strict->size(), 1u);
  EXPECT_TRUE(strict->Contains({1, 2}));
}

TEST_F(EvaluatorTest, RuleWithEmptyBodyFiresOnce) {
  Program program;
  program.facts.push_back({program.predicates.Intern("seed", 1), {7}});
  RuleBuilder rb(&program.predicates);
  rb.Head("out", {rb.Var("X")});
  rb.Eq(rb.Var("X"), RuleBuilder::Const(5));
  program.rules.push_back(rb.Build());

  const Relation* out = Run(program, "out").ValueOrDie();
  EXPECT_EQ(out->size(), 1u);
  EXPECT_TRUE(out->Contains({5}));
  EXPECT_TRUE(idb_.Find(*program.predicates.Lookup("seed"))->Contains({7}));
}

TEST_F(EvaluatorTest, TupleBudgetAborts) {
  Program program;
  // A cross product large enough to exceed the budget.
  std::vector<std::pair<Value, Value>> edges;
  for (Value i = 0; i < 100; ++i) edges.push_back({i, i + 1});
  AddEdges(&program, edges);
  RuleBuilder rb(&program.predicates);
  rb.Head("cross", {rb.Var("X"), rb.Var("Z")});
  rb.Body("edge", {rb.Var("X"), rb.Var("Y1")});
  rb.Body("edge", {rb.Var("Z"), rb.Var("Y2")});
  program.rules.push_back(rb.Build());

  ctx_.set_tuple_budget(500);
  Status st = evaluator_.Evaluate(program, &edb_, &idb_, &ctx_);
  EXPECT_TRUE(st.IsResourceExhausted()) << st.ToString();
}

// A full Skolem id space fails the evaluation with a typed status — on
// the serial path and from parallel workers — instead of wrapping the
// tuple-id encoding onto plain term values.
TEST(EvaluatorSkolemTest, IdSpaceExhaustionFailsTyped) {
  for (uint32_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    rdf::TermDictionary dict;
    SkolemStore skolems(/*max_terms=*/20);
    Evaluator evaluator(&dict, &skolems);
    evaluator.set_num_threads(threads);
    Program program;
    PredicateId edge = program.predicates.Intern("edge", 2);
    Database edb, idb;
    for (Value i = 0; i < 50; ++i) edb.relation(edge, 2).Insert({i, i + 1}, 0);
    uint32_t f = skolems.InternFunction("f");
    uint32_t g = skolems.InternFunction("g");
    RuleBuilder base(&program.predicates);
    base.Head("path", {base.Var("ID"), base.Var("X"), base.Var("Y")});
    base.Body("edge", {base.Var("X"), base.Var("Y")});
    base.Skolem(base.Var("ID"), f, {base.Var("X"), base.Var("Y")});
    program.rules.push_back(base.Build());
    RuleBuilder step(&program.predicates);
    step.Head("path", {step.Var("ID"), step.Var("X"), step.Var("Z")});
    step.Body("path", {step.Var("I"), step.Var("X"), step.Var("Y")});
    step.Body("edge", {step.Var("Y"), step.Var("Z")});
    step.Skolem(step.Var("ID"), g, {step.Var("I"), step.Var("Z")});
    program.rules.push_back(step.Build());

    ExecContext ctx;
    Status st = evaluator.Evaluate(program, &edb, &idb, &ctx);
    EXPECT_TRUE(st.IsResourceExhausted()) << st.ToString();
    EXPECT_EQ(skolems.size(), 20u);
  }
}

TEST(ProgramValidateTest, RejectsUnsafeRules) {
  Program program;
  RuleBuilder rb(&program.predicates);
  // Head variable Y not bound anywhere.
  rb.Head("bad", {rb.Var("X"), rb.Var("Y")});
  rb.Body("edge", {rb.Var("X"), RuleBuilder::Const(1)});
  program.rules.push_back(rb.Build());
  program.predicates.Intern("edge", 2);
  EXPECT_FALSE(program.Validate().ok());
}

TEST(ProgramValidateTest, RejectsArityConflicts) {
  Program program;
  program.predicates.Intern("p", 2);
  program.predicates.Intern("p", 3);
  EXPECT_FALSE(program.Validate().ok());
}

TEST(StratifyTest, DependencyOrderAndRecursionFlags) {
  Program program;
  RuleBuilder rb(&program.predicates);
  // base -> mid (non-recursive) -> tc (recursive over mid).
  rb.Head("mid", {rb.Var("X"), rb.Var("Y")});
  rb.Body("base", {rb.Var("X"), rb.Var("Y")});
  program.rules.push_back(rb.Build());
  rb.Head("tc", {rb.Var("X"), rb.Var("Y")});
  rb.Body("mid", {rb.Var("X"), rb.Var("Y")});
  program.rules.push_back(rb.Build());
  rb.Head("tc", {rb.Var("X"), rb.Var("Z")});
  rb.Body("tc", {rb.Var("X"), rb.Var("Y")});
  rb.Body("mid", {rb.Var("Y"), rb.Var("Z")});
  program.rules.push_back(rb.Build());

  Stratification strat = Stratify(program).ValueOrDie();
  PredicateId base = *program.predicates.Lookup("base");
  PredicateId mid = *program.predicates.Lookup("mid");
  PredicateId tc = *program.predicates.Lookup("tc");
  EXPECT_LT(strat.predicate_stratum[base], strat.predicate_stratum[mid]);
  EXPECT_LT(strat.predicate_stratum[mid], strat.predicate_stratum[tc]);
  EXPECT_FALSE(strat.stratum_recursive[strat.predicate_stratum[mid]]);
  EXPECT_TRUE(strat.stratum_recursive[strat.predicate_stratum[tc]]);
}

TEST(StratifyTest, MutualRecursionSharesStratum) {
  Program program;
  RuleBuilder rb(&program.predicates);
  rb.Head("a", {rb.Var("X")});
  rb.Body("b", {rb.Var("X")});
  program.rules.push_back(rb.Build());
  rb.Head("b", {rb.Var("X")});
  rb.Body("a", {rb.Var("X")});
  program.rules.push_back(rb.Build());
  Stratification strat = Stratify(program).ValueOrDie();
  EXPECT_EQ(strat.predicate_stratum[*program.predicates.Lookup("a")],
            strat.predicate_stratum[*program.predicates.Lookup("b")]);
}

TEST(StratifyTest, RejectsNegativeCycle) {
  Program program;
  RuleBuilder rb(&program.predicates);
  rb.Head("p", {rb.Var("X")});
  rb.Body("base", {rb.Var("X")});
  rb.NegBody("q", {rb.Var("X")});
  program.rules.push_back(rb.Build());
  rb.Head("q", {rb.Var("X")});
  rb.Body("base", {rb.Var("X")});
  rb.NegBody("p", {rb.Var("X")});
  program.rules.push_back(rb.Build());
  auto strat = Stratify(program);
  EXPECT_FALSE(strat.ok());
}

TEST(WardedTest, LinearRulesAreWarded) {
  Program program;
  RuleBuilder rb(&program.predicates);
  rb.Head("p", {rb.Var("X"), rb.Var("Y")});
  rb.Body("q", {rb.Var("X"), rb.Var("Y")});
  program.rules.push_back(rb.Build());
  WardedReport report = AnalyzeWarded(program);
  EXPECT_TRUE(report.warded);
  EXPECT_TRUE(report.affected_positions.empty());
}

TEST(WardedTest, SkolemHeadsCreateAffectedPositions) {
  Program program;
  SkolemStore skolems;
  uint32_t f = skolems.InternFunction("f");
  RuleBuilder rb(&program.predicates);
  // p(ID, X) :- q(X), ID = f(X): position p[0] is affected.
  rb.Head("p", {rb.Var("ID"), rb.Var("X")});
  rb.Body("q", {rb.Var("X")});
  rb.Skolem(rb.Var("ID"), f, {rb.Var("X")});
  program.rules.push_back(rb.Build());
  // r(ID) :- p(ID, X): ID is dangerous but confined to the single atom.
  rb.Head("r", {rb.Var("ID")});
  rb.Body("p", {rb.Var("ID"), rb.Var("X")});
  program.rules.push_back(rb.Build());

  WardedReport report = AnalyzeWarded(program);
  EXPECT_TRUE(report.warded);
  EXPECT_FALSE(report.affected_positions.empty());
}

TEST(WardedTest, DetectsUnwardedJoinOnAffectedPositions) {
  Program program;
  SkolemStore skolems;
  uint32_t f = skolems.InternFunction("f");
  RuleBuilder rb(&program.predicates);
  rb.Head("p", {rb.Var("ID"), rb.Var("X")});
  rb.Body("q", {rb.Var("X")});
  rb.Skolem(rb.Var("ID"), f, {rb.Var("X")});
  program.rules.push_back(rb.Build());
  rb.Head("p2", {rb.Var("ID"), rb.Var("X")});
  rb.Body("q", {rb.Var("X")});
  rb.Skolem(rb.Var("ID"), f, {rb.Var("X")});
  program.rules.push_back(rb.Build());
  // Dangerous variables in two different body atoms: not warded.
  rb.Head("bad", {rb.Var("ID"), rb.Var("ID2")});
  rb.Body("p", {rb.Var("ID"), rb.Var("X")});
  rb.Body("p2", {rb.Var("ID2"), rb.Var("X")});
  program.rules.push_back(rb.Build());

  WardedReport report = AnalyzeWarded(program);
  EXPECT_FALSE(report.warded);
  EXPECT_FALSE(report.violations.empty());
}

TEST(PrinterTest, RendersRulesAndDirectives) {
  rdf::TermDictionary dict;
  SkolemStore skolems;
  Program program;
  uint32_t f = skolems.InternFunction("f1");
  RuleBuilder rb(&program.predicates);
  rb.Head("ans", {rb.Var("ID"), rb.Var("X")});
  rb.Body("triple", {rb.Var("X"), RuleBuilder::Const(ValueFromTerm(
                                      dict.InternIri("http://p"))),
                     rb.Var("Y"), rb.Var("D")});
  rb.NegBody("excluded", {rb.Var("X")});
  rb.Ne(rb.Var("X"), rb.Var("Y"));
  rb.Skolem(rb.Var("ID"), f, {rb.Var("X"), rb.Var("Y")});
  program.rules.push_back(rb.Build());
  program.output.predicate = *program.predicates.Lookup("ans");
  program.output.limit = 5;

  std::string text = ToString(program, dict, skolems);
  EXPECT_NE(text.find("ans(ID, X) :- triple(X, <http://p>, Y, D)"),
            std::string::npos);
  EXPECT_NE(text.find("not excluded(X)"), std::string::npos);
  EXPECT_NE(text.find("X != Y"), std::string::npos);
  EXPECT_NE(text.find("ID = [\"f1\", X, Y]"), std::string::npos);
  EXPECT_NE(text.find("@post(\"ans\", \"limit(5)\")"), std::string::npos);
  EXPECT_NE(text.find("@output(\"ans\")"), std::string::npos);
}

}  // namespace
}  // namespace sparqlog::datalog
