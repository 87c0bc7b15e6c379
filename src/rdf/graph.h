#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "rdf/dictionary.h"
#include "rdf/term.h"
#include "util/hash.h"

/// \file graph.h
/// RDF graphs (sets of triples) and datasets (default graph + named
/// graphs), with the by-position views the reference evaluator needs for
/// triple-pattern matching and path search.

namespace sparqlog::rdf {

/// One RDF triple over interned terms.
struct Triple {
  TermId s = 0;
  TermId p = 0;
  TermId o = 0;

  bool operator==(const Triple& other) const {
    return s == other.s && p == other.p && o == other.o;
  }
};

struct TripleHash {
  size_t operator()(const Triple& t) const {
    size_t seed = 0;
    HashCombine(seed, t.s);
    HashCombine(seed, t.p);
    HashCombine(seed, t.o);
    return seed;
  }
};

/// A set of triples, stored once in insertion order plus a hash set.
///
/// RDF graphs are sets, so Add() deduplicates. The by-S / by-P / by-O
/// views that Match, With* and Predicates read, and the node list, are
/// each built on first use, safely for concurrent const readers; any
/// mutation drops them. A copy of a graph starts without them.
class Graph {
 public:
  /// Adds a triple; returns false if it was already present.
  bool Add(Triple t);
  bool Add(TermId s, TermId p, TermId o) { return Add(Triple{s, p, o}); }

  /// Mutation counter: bumped on every successful Add (including via
  /// MergeFrom). Folded into Dataset::Generation so engine-level caches
  /// keyed by dataset state invalidate when a graph is mutated.
  uint64_t version() const { return version_; }

  size_t size() const { return triples_.size(); }
  bool empty() const { return triples_.empty(); }
  const std::vector<Triple>& triples() const { return triples_; }

  bool Contains(const Triple& t) const { return set_.count(t) > 0; }

  /// Calls `fn` for every triple matching the pattern; nullopt = wildcard.
  /// Chooses the smallest view of a bound position.
  void Match(std::optional<TermId> s, std::optional<TermId> p,
             std::optional<TermId> o,
             const std::function<void(const Triple&)>& fn) const;

  /// All (s, o) pairs for predicate `p` (shared by path evaluation).
  const std::vector<Triple>& WithPredicate(TermId p) const {
    return Lookup(kPredicate, p);
  }

  /// Triples whose subject is `s`.
  const std::vector<Triple>& WithSubject(TermId s) const {
    return Lookup(kSubject, s);
  }

  /// All terms appearing in subject or object position, deduplicated and
  /// in first-seen order (the paper's subjectOrObject predicate).
  const std::vector<TermId>& SubjectsAndObjects() const;

  /// Distinct predicates in the graph.
  std::vector<TermId> Predicates() const;

  /// Merges all triples of `other` into this graph.
  void MergeFrom(const Graph& other);

  /// Applies a batch mutation: removes `deletes` (ignoring absent
  /// triples), then adds `inserts` (ignoring duplicates), keeping the
  /// set semantics. Returns {added, removed} counts of triples that
  /// actually changed state. The version counter advances once per
  /// effective change, so a no-op batch leaves version() (and
  /// Dataset::Generation) untouched.
  std::pair<size_t, size_t> ApplyDelta(const std::vector<Triple>& inserts,
                                       const std::vector<Triple>& deletes);

 private:
  /// Term -> the triples holding it at one position, in insertion order.
  using View = std::unordered_map<TermId, std::vector<Triple>>;
  enum Part { kSubject, kPredicate, kObject, kNodes };

  /// What is built on first use. Writers (every Graph mutation) have
  /// the graph to themselves, so only building takes the mutex.
  struct Lazy {
    Lazy() = default;
    Lazy(const Lazy&) noexcept {}
    Lazy& operator=(const Lazy&) {
      Drop();
      return *this;
    }
    void Drop();

    std::mutex mu;
    std::atomic<uint32_t> built{0};  // bit per Part
    std::array<View, 3> by;          // by kSubject, kPredicate, kObject
    std::vector<TermId> nodes;
  };

  /// Runs `build` under the mutex unless `part` is built already.
  template <typename Build>
  void Ensure(Part part, const Build& build) const;
  const View& ViewOf(Part part) const;
  const std::vector<Triple>& Lookup(Part part, TermId key) const;

  uint64_t version_ = 0;
  std::vector<Triple> triples_;
  std::unordered_set<Triple, TripleHash> set_;
  mutable Lazy lazy_;
};

/// An RDF dataset: a default graph plus zero or more named graphs.
/// The dictionary is shared and not owned.
class Dataset {
 public:
  explicit Dataset(TermDictionary* dict) : dict_(dict) {}

  TermDictionary* dict() const { return dict_; }

  Graph& default_graph() { return default_graph_; }
  const Graph& default_graph() const { return default_graph_; }

  /// Creates-or-returns the named graph for IRI id `name`.
  Graph& named_graph(TermId name) { return named_[name]; }

  const Graph* FindNamedGraph(TermId name) const {
    auto it = named_.find(name);
    return it == named_.end() ? nullptr : &it->second;
  }

  const std::map<TermId, Graph>& named_graphs() const { return named_; }

  /// Total triples across all graphs.
  size_t TotalTriples() const;

  /// Generation fingerprint of the dataset's mutable state: folds the
  /// per-graph mutation counters and the named-graph structure into one
  /// 64-bit value. Any Add() to any graph (or creating a named graph)
  /// changes it, so caches of EDB-derived state — the engine's
  /// materialized EDB and its memoized stratum results — can detect
  /// mutation and invalidate. Pure function of mutation history, not of
  /// pointer identity.
  uint64_t Generation() const;

  /// Restricts/rebuilds a dataset according to FROM / FROM NAMED clauses:
  /// `from` graphs are merged into the new default graph, `from_named`
  /// graphs become the named-graph set. Graph names not present in this
  /// dataset resolve to empty graphs (per SPARQL's dataset construction).
  Dataset WithClauses(const std::vector<TermId>& from,
                      const std::vector<TermId>& from_named) const;

 private:
  TermDictionary* dict_;
  Graph default_graph_;
  std::map<TermId, Graph> named_;
};

}  // namespace sparqlog::rdf
