#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

/// \file inputs.h
/// Seeded input generation. Everything the program under test sees is
/// text made here: the dataset as N-Triples, SPARQL query texts, and
/// N-Triples update bodies. The same seed gives the same inputs.

namespace perfbench {

/// Input sizes. The defaults are the benchmark's; the self-test shrinks
/// them.
struct Sizes {
  size_t sp2b_triples = 10000;   ///< sp2b-cold dataset
  size_t serve_triples = 20000;  ///< serve-hot / serve-mixed dataset
  size_t gmark_edges = 9000;     ///< gmark-paths graph (GmarkSocial nodes)
};

/// Deterministic update batches of new triples (never in the base data,
/// never repeated across batches). Batch j is inserted by update j and
/// deleted again by update j + kWindow, so the dataset size stays flat.
class UpdateBatches {
 public:
  static constexpr size_t kWindow = 4;
  static constexpr size_t kBatchTriples = 200;

  /// One kind of generated triple: subject pool, predicate, object pool.
  struct Kind {
    std::vector<std::string> subjects;  ///< N-Triples IRIs, "<...>"
    std::string predicate;
    std::vector<std::string> objects;
    /// Subjects and objects are one list in creation order and every
    /// triple points from a later entry to an earlier one (a paper cites
    /// older papers), so inserts keep the citation graph acyclic.
    bool backward = false;
  };

  UpdateBatches(const std::string& base_ntriples, std::vector<Kind> kinds,
                uint64_t seed);

  /// N-Triples body of batch j (batches are made in order on demand).
  const std::string& Batch(size_t j);

 private:
  std::unordered_set<std::string> used_;  ///< base + generated lines
  std::vector<Kind> kinds_;
  std::vector<std::string> batches_;
  uint64_t seed_;
};

/// The dataset and fixed query list of a cold workload.
struct FixedInputs {
  std::string ntriples;
  std::vector<std::pair<std::string, std::string>> queries;  ///< name, text
  std::vector<UpdateBatches::Kind> update_kinds;
};

/// SP2Bench data and q1-q12c. The graph's shape comes from the
/// generator's own default seed; the run seed relabels every person and
/// publication IRI in the data and in the query constants (see
/// inputs.cpp).
FixedInputs MakeSp2bInputs(size_t triples, uint64_t seed);

/// gMark-social as shipped (topology and the 50 queries from the
/// scenario's own seed) with `edges` edges; the run seed relabels every
/// node, in the data and in the query constants alike. The social graph
/// sits near its percolation threshold, so a fresh topology per seed
/// would swing the closure sizes (and the pass time) by tens of percent.
FixedInputs MakeGmarkInputs(size_t edges, uint64_t seed);

/// The six serve templates.
inline constexpr const char* kTemplateNames[] = {
    "journal_by_title", "links_to_person", "author_papers",
    "coauthors",        "references_plus", "article_page"};
inline constexpr size_t kNumTemplates = 6;

/// One client operation of a serve workload.
struct ServeOp {
  bool update = false;
  size_t tmpl = 0;   ///< template index (queries)
  std::string text;  ///< SPARQL text (queries)
};

/// SP2Bench data for the serve workloads (shaped and relabeled as in
/// MakeSp2bInputs) plus the seeded operation stream. Templates are drawn uniformly. A quarter of the queries repeat
/// one of the last eight texts of their template exactly (program-cache
/// hits, memo hits); the rest draw their constants uniformly from the
/// generated entities (program-cache re-binds). Uniform draws keep the
/// average cost independent of which entities a seed happens to favour.
/// In the mixed stream every 10th operation is an update.
class ServeInputs {
 public:
  ServeInputs(size_t triples, uint64_t seed, bool mixed);

  const std::string& ntriples() const { return ntriples_; }
  const std::vector<UpdateBatches::Kind>& update_kinds() const {
    return update_kinds_;
  }
  ServeOp Next();
  /// Rewinds the stream to its first operation.
  void Restart() {
    index_ = 0;
    recent_.assign(kNumTemplates, {});
  }

 private:
  std::string ntriples_;
  std::vector<UpdateBatches::Kind> update_kinds_;
  std::vector<std::string> persons_, papers_, journal_titles_;
  uint64_t rng_state_;
  bool mixed_;
  uint64_t index_ = 0;
  std::vector<std::deque<std::string>> recent_ =
      std::vector<std::deque<std::string>>(kNumTemplates);
};

/// Fingerprint of a set of input texts (printed, and compared by the
/// self-test across seeds).
uint64_t InputDigest(const std::vector<std::string>& texts);

}  // namespace perfbench
