// Differential coverage for the bulk EDB load path (TupleStore::BulkLoad /
// Relation::BulkLoad / DataTranslator's batched build): bulk-built
// relations must be query-identical to insert-built ones — including
// duplicate-heavy and empty batches and the dynamic arity > 4 fallback —
// DataTranslator's bulk EDB must match the per-tuple reference build arena
// row by arena row, and the engine pipeline over it must be bit-identical
// at num_threads {1, 2, 8}.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "core/data_translator.h"
#include "core/engine.h"
#include "datalog/printer.h"
#include "datalog/relation.h"
#include "datalog/value.h"
#include "rdf/dictionary.h"
#include "rdf/graph.h"

namespace sparqlog::datalog {
namespace {

class TupleStoreBulkLoad : public ::testing::Test {
 protected:
  /// Flat duplicate-heavy batch of `n` arity-`k` rows over a small
  /// domain of interned integer terms (values must be dictionary-backed
  /// so canonical dumps can render them).
  std::vector<Value> MakeBatch(size_t n, uint32_t k, uint64_t seed) {
    std::vector<Value> rows;
    rows.reserve(n * k);
    Rng rng(seed);
    for (size_t i = 0; i < n; ++i) {
      for (uint32_t c = 0; c < k; ++c) rows.push_back(V(rng.Uniform(23) + 1));
    }
    return rows;
  }

  Value V(uint64_t i) {
    return ValueFromTerm(dict_.InternInteger(static_cast<int64_t>(i)));
  }

  /// Canonical sorted dump of a relation, for set comparison.
  std::string Canonical(const Relation& rel) {
    SkolemStore skolems;
    return ToString(rel, "r", dict_, skolems);
  }

  rdf::TermDictionary dict_;
};

TEST_F(TupleStoreBulkLoad, EmptyBatch) {
  Relation rel(2);
  EXPECT_EQ(rel.BulkLoad({}), 0u);
  EXPECT_EQ(rel.size(), 0u);
  EXPECT_FALSE(rel.Contains({V(1), V(2)}));
  // The store stays fully usable for ordinary inserts afterwards.
  EXPECT_TRUE(rel.Insert({V(1), V(2)}, 0));
  EXPECT_FALSE(rel.Insert({V(1), V(2)}, 0));
  EXPECT_TRUE(rel.Contains({V(1), V(2)}));
}

TEST_F(TupleStoreBulkLoad, DedupsDuplicateHeavyBatchBitIdentically) {
  std::vector<Value> batch = MakeBatch(5000, 2, 7);
  Relation bulk(2);
  Relation insert(2);
  for (size_t i = 0; i < batch.size(); i += 2) insert.Insert(&batch[i], 0);
  uint32_t loaded = bulk.BulkLoad(batch);
  EXPECT_EQ(loaded, insert.size());
  EXPECT_EQ(bulk.size(), insert.size());
  EXPECT_LT(bulk.size(), 5000u);  // the domain guarantees heavy dups
  EXPECT_EQ(Canonical(bulk), Canonical(insert));
  // BulkLoad preserves first-occurrence order: the arena is bit-identical
  // to the per-tuple build, row ids included.
  for (uint32_t i = 0; i < bulk.size(); ++i) {
    EXPECT_TRUE(bulk.row(i) == insert.row(i)) << "row " << i;
  }
  // Dedup table answers point lookups for every loaded row.
  for (size_t i = 0; i < batch.size(); i += 2) {
    EXPECT_TRUE(bulk.Contains(&batch[i]));
  }
  std::vector<Value> absent = {V(99), V(99)};
  EXPECT_FALSE(bulk.Contains(absent));
}

TEST_F(TupleStoreBulkLoad, DynamicStrideFallbackBeyondArity4) {
  const uint32_t k = 6;
  std::vector<Value> batch = MakeBatch(800, k, 11);
  Relation bulk(k);
  Relation insert(k);
  for (size_t i = 0; i < batch.size(); i += k) insert.Insert(&batch[i], 0);
  EXPECT_EQ(bulk.BulkLoad(batch), insert.size());
  EXPECT_EQ(Canonical(bulk), Canonical(insert));
  for (size_t i = 0; i < batch.size(); i += k) {
    EXPECT_TRUE(bulk.Contains(&batch[i]));
  }
}

TEST_F(TupleStoreBulkLoad, ProbeAndLaterInsertsAfterBulkLoad) {
  std::vector<Value> batch = MakeBatch(2000, 3, 3);
  Relation bulk(3);
  Relation insert(3);
  for (size_t i = 0; i < batch.size(); i += 3) insert.Insert(&batch[i], 0);
  bulk.BulkLoad(batch, /*round=*/0);

  // Round bookkeeping: the whole load is one round-0 range.
  auto [lo, hi] = bulk.RoundRange(0);
  EXPECT_EQ(lo, 0u);
  EXPECT_EQ(hi, bulk.size());

  // Index probes over the bulk arena agree with the insert-built twin.
  const std::vector<uint32_t> cols = {1};
  for (uint64_t key = 1; key <= 23; ++key) {
    std::vector<Value> k = {V(key)};
    MatchSpan a, b;
    ASSERT_TRUE(bulk.Probe(cols, k, &a));
    ASSERT_TRUE(insert.Probe(cols, k, &b));
    EXPECT_EQ(a.size(), b.size()) << "key " << key;
  }

  // Later tuple-at-a-time inserts extend the relation and its indexes.
  size_t before = bulk.size();
  std::vector<Value> fresh = {V(77), V(88), V(99)};
  EXPECT_TRUE(bulk.Insert(fresh, 1));
  EXPECT_FALSE(bulk.Insert(fresh, 1));
  auto [lo1, hi1] = bulk.RoundRange(1);
  EXPECT_EQ(lo1, before);
  EXPECT_EQ(hi1, bulk.size());
  std::vector<Value> key88 = {V(88)};
  MatchSpan span;
  ASSERT_TRUE(bulk.Probe(cols, key88, &span));
  ASSERT_EQ(span.size(), 1u);
  EXPECT_TRUE(bulk.row(span[0]) == fresh);
}

// --- DataTranslator differential -------------------------------------------

rdf::Dataset BuildMixedDataset(rdf::TermDictionary* dict) {
  rdf::Dataset dataset(dict);
  auto iri = [&](const std::string& s) {
    return dict->InternIri("http://t.org/" + s);
  };
  rdf::TermId p = iri("p");
  rdf::TermId q = iri("q");
  for (int i = 0; i < 30; ++i) {
    dataset.default_graph().Add(iri("n" + std::to_string(i % 7)), p,
                                iri("n" + std::to_string((i + 3) % 7)));
  }
  dataset.default_graph().Add(iri("n0"), q,
                              dict->InternLiteral("lit", "", "en"));
  dataset.default_graph().Add(dict->InternBlank("b1"), p, iri("n1"));
  rdf::TermId g1 = iri("g1");
  dataset.named_graph(g1).Add(iri("n1"), q, dict->InternInteger(42));
  dataset.named_graph(g1).Add(dict->InternBlank("b2"), p, iri("n2"));
  return dataset;
}

TEST(DataTranslatorBulkLoad, BulkAndPerTupleBuildsAreSetIdentical) {
  rdf::TermDictionary dict;
  rdf::Dataset dataset = BuildMixedDataset(&dict);

  Database bulk, per_tuple;
  ASSERT_TRUE(core::DataTranslator::Translate(dataset, &dict, &bulk,
                                              core::EdbBuild::kBulkLoad)
                  .ok());
  ASSERT_TRUE(core::DataTranslator::Translate(dataset, &dict, &per_tuple,
                                              core::EdbBuild::kPerTupleInsert)
                  .ok());

  PredicateTable preds;
  core::InternEdbPredicates(&preds);
  SkolemStore skolems;
  EXPECT_EQ(bulk.TotalTuples(), per_tuple.TotalTuples());
  EXPECT_EQ(ToString(bulk, preds, dict, skolems),
            ToString(per_tuple, preds, dict, skolems));

  // Stronger than set equality: every relation's arena is bit-identical
  // (first-occurrence order preserved), so anything downstream that
  // depends on row ids or iteration order behaves identically.
  for (uint32_t pred : bulk.Predicates()) {
    const Relation* b = bulk.Find(pred);
    const Relation* p = per_tuple.Find(pred);
    ASSERT_NE(p, nullptr) << "pred " << pred;
    ASSERT_EQ(b->size(), p->size()) << "pred " << pred;
    for (uint32_t i = 0; i < b->size(); ++i) {
      EXPECT_TRUE(b->row(i) == p->row(i)) << "pred " << pred << " row " << i;
    }
  }
}

TEST(DataTranslatorBulkLoad, SparseDatasetMaterializesSameRelationSet) {
  // IRIs only — no literals, bnodes or named graphs. The bulk path must
  // not create empty relations the per-tuple path never would.
  rdf::TermDictionary dict;
  rdf::Dataset dataset(&dict);
  rdf::TermId p = dict.InternIri("http://t.org/p");
  dataset.default_graph().Add(dict.InternIri("http://t.org/a"), p,
                              dict.InternIri("http://t.org/b"));

  Database bulk, per_tuple;
  ASSERT_TRUE(core::DataTranslator::Translate(dataset, &dict, &bulk,
                                              core::EdbBuild::kBulkLoad)
                  .ok());
  ASSERT_TRUE(core::DataTranslator::Translate(dataset, &dict, &per_tuple,
                                              core::EdbBuild::kPerTupleInsert)
                  .ok());
  EXPECT_EQ(bulk.Predicates(), per_tuple.Predicates());
  EXPECT_EQ(bulk.TotalTuples(), per_tuple.TotalTuples());
}

TEST(DataTranslatorBulkLoad, EmptyDatasetStillMaterializesCoreRelations) {
  rdf::TermDictionary dict;
  rdf::Dataset dataset(&dict);
  Database edb;
  ASSERT_TRUE(core::DataTranslator::Translate(dataset, &dict, &edb,
                                              core::EdbBuild::kBulkLoad)
                  .ok());
  PredicateTable preds;
  core::EdbPredicates p = core::InternEdbPredicates(&preds);
  EXPECT_NE(edb.Find(p.triple), nullptr);
  EXPECT_NE(edb.Find(p.term), nullptr);
  EXPECT_NE(edb.Find(p.subject_or_object), nullptr);
  // null("null") is always present.
  ASSERT_NE(edb.Find(p.null_pred), nullptr);
  EXPECT_EQ(edb.Find(p.null_pred)->size(), 1u);
}

// --- Engine-level differential across thread counts -------------------------

/// Chain graph with shortcuts and a recursive query mix, mirroring the
/// micro benchmarks: recursive paths exercise the parallel fixpoint,
/// OPTIONAL/ORDER BY exercise the solution translation.
void BuildChain(size_t n, rdf::TermDictionary* dict, rdf::Dataset* dataset) {
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

/// The engine's bulk-built EDB is bit-identical to the per-tuple one
/// (DataTranslatorBulkLoad above), so identical answers follow; what is
/// left to pin is that the pipeline over it is bit-identical across
/// thread counts for a deterministically ordered query.
TEST(EngineBulkLoad, BulkPipelineIdenticalAcrossThreadCounts) {
  rdf::TermDictionary dict;
  rdf::Dataset dataset(&dict);
  BuildChain(120, &dict, &dataset);
  // Deterministic order (ORDER BY + content tie-break).
  const std::string query =
      "SELECT ?x ?y WHERE { ?x <http://b.org/p>+ ?y } ORDER BY ?x ?y";

  std::vector<std::vector<rdf::TermId>> first;
  for (uint32_t threads : {1u, 2u, 8u}) {
    core::Engine::Options opts;
    opts.parallelism.num_threads = threads;
    core::Engine engine(&dataset, &dict, opts);
    ASSERT_TRUE(engine.Load().ok());
    auto result = engine.ExecuteText(query);
    ASSERT_TRUE(result.ok());
    if (first.empty()) {
      first = result->result.rows;
      ASSERT_FALSE(first.empty());
    } else {
      EXPECT_EQ(result->result.rows, first) << "threads=" << threads;
    }
  }
}

TEST(EngineBulkLoad, GenerationBumpRebuildsEdbThroughBulkPath) {
  rdf::TermDictionary dict;
  rdf::Dataset dataset(&dict);
  BuildChain(40, &dict, &dataset);
  core::Engine engine(&dataset, &dict);
  ASSERT_TRUE(engine.Load().ok());

  const std::string query =
      "SELECT ?x ?y WHERE { ?x <http://b.org/p>+ ?y } ORDER BY ?x ?y";
  auto before = engine.ExecuteText(query);
  ASSERT_TRUE(before.ok());

  // Mutate and republish: the explicit re-Load() must rebuild the EDB
  // (bulk path) so the next Execute sees the new edge.
  rdf::TermId p = dict.InternIri("http://b.org/p");
  dataset.default_graph().Add(dict.InternIri("http://b.org/extra"), p,
                              dict.InternIri("http://b.org/n0"));
  ASSERT_TRUE(engine.Load().ok());
  auto after = engine.ExecuteText(query);
  ASSERT_TRUE(after.ok());
  EXPECT_GT(after->result.rows.size(), before->result.rows.size());
  EXPECT_GE(engine.stats().invalidations, 1u);
}

}  // namespace
}  // namespace sparqlog::datalog
